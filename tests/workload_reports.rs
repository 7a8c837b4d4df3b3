//! Oracle report pins for every `clap_workloads` program.
//!
//! Each program of `all()`, `channels()` and `lockfree()` is enumerated
//! under its own memory model with the differential check's default
//! bounds, and its whole `OracleReport` is reduced to one line in
//! `tests/snapshots/workload_reports.snap`: every counter, the truncation
//! flag, the failing count, an order-sensitive digest of every failing
//! run, and the search's work as the `check.oracle.*` counters report it
//! (VM steps, enabled-set scans, snapshots and restores). A change to the
//! enumerator that alters which executions it visits, in what order, what
//! it reports about them, or how much work it spends on them shows up as
//! a diff here.
//!
//! The same programs also go through the whole differential check, which
//! must find each one's replayed failure a member of the oracle's space.
//!
//! Regenerate the snapshot after an *intended* change with:
//!
//! ```text
//! CLAP_BLESS=1 cargo test --test workload_reports
//! ```

mod common;

use clap_check::{diff_program, enumerate, DiffConfig, OracleConfig, OracleReport, Verdict};
use clap_workloads::Workload;
use common::Fnv;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Duration;

const SNAPSHOT: &str = "tests/snapshots/workload_reports.snap";

const STACK_BYTES: usize = 256 << 20;

/// Digests the failing runs in report order: each run's decision script,
/// letters, fingerprint, assert and preemption count.
fn failing_digest(report: &OracleReport) -> u64 {
    let mut h = Fnv::new();
    for f in &report.failing {
        for c in &f.choices {
            h.bytes(&c.to_le_bytes());
        }
        h.bytes(b"|");
        h.bytes(f.letters().as_bytes());
        h.bytes(b"|");
        h.bytes(format!("{:?}", f.fingerprint()).as_bytes());
        h.bytes(format!("|{}|{}\n", f.assert, f.preemptions).as_bytes());
    }
    h.0
}

/// Runs `body` on a thread with a stack deep enough for the enumerator,
/// which recurses once per branch point: some workloads' paths overflow
/// the default test-thread stack in an unoptimized build.
fn on_deep_stack(body: fn()) {
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(body)
        .expect("spawn test thread")
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
}

/// The three workload families, in snapshot order.
fn every_workload() -> impl Iterator<Item = Workload> {
    clap_workloads::all()
        .into_iter()
        .chain(clap_workloads::channels())
        .chain(clap_workloads::lockfree())
}

#[test]
fn workload_oracle_reports_match_snapshot() {
    // The work counters come from the process-global collector.
    let _l = clap_obs::test_lock();
    on_deep_stack(check_snapshot);
}

/// Every workload, checked under its own model with its exploration hints
/// and the benchmark's solver choice, reproduces its failure, and the
/// directed search finds the replayed execution in the oracle's space.
#[test]
fn every_workload_replay_is_a_member() {
    // The check adds to the counters the snapshot test reads.
    let _l = clap_obs::test_lock();
    on_deep_stack(|| {
        for w in every_workload() {
            let program = w.program();
            let mut config = DiffConfig::default()
                .with_models(vec![w.model])
                .with_seed_budget(w.seed_budget, w.stickiness.to_vec());
            config.solver = clap_bench::solver_for(&program, Duration::from_secs(120));
            let report = diff_program(&program, &config);
            assert_eq!(
                report.outcomes[0].verdict,
                Verdict::Sound,
                "{}: {}",
                w.name,
                report.summary()
            );
        }
    });
}

fn check_snapshot() {
    let bounds = DiffConfig::default();
    let mut actual = String::new();
    for w in every_workload() {
        let mut config = OracleConfig::new(w.model);
        config.max_preemptions = bounds.max_preemptions;
        config.max_steps = bounds.max_steps;
        config.max_executions = bounds.max_executions;
        let program = w.program();
        clap_obs::reset();
        clap_obs::enable();
        let r = enumerate(&program, &config);
        let counters = clap_obs::snapshot().counters;
        clap_obs::disable();
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
        let _ = writeln!(
            actual,
            "{} {:?} executions={} completed={} deadlocks={} faults={} prunes={} \
             truncated={} failing={} digest={:016x} steps={} scans={} snapshots={} restores={}",
            w.name,
            w.model,
            r.executions,
            r.completed,
            r.deadlocks,
            r.faults,
            r.bound_prunes,
            r.truncated,
            r.failing.len(),
            failing_digest(&r),
            counter("check.oracle.steps"),
            counter("check.oracle.scans"),
            counter("check.oracle.snapshots"),
            counter("check.oracle.restores"),
        );
    }
    let path = Path::new(SNAPSHOT);
    if std::env::var_os("CLAP_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("snapshot dir")).expect("create snapshot dir");
        fs::write(path, &actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{SNAPSHOT} missing — run CLAP_BLESS=1 cargo test --test workload_reports")
    });
    assert_eq!(
        actual, expected,
        "oracle reports drifted from the snapshot; if the change is intended, \
         regenerate with CLAP_BLESS=1 cargo test --test workload_reports"
    );
}
