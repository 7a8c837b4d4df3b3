//! Integration tests for the `clap-obs` observability layer: the JSONL
//! schema must stay stable, the disabled collector must be near-free, the
//! per-phase timings must account for the end-to-end wall time, and the
//! `with_observer` plumbing must produce a loadable Chrome trace plus a
//! schema-clean JSONL stream.
//!
//! Every test takes `clap_obs::test_lock()` first: the collector is
//! process-global and the test harness runs tests concurrently.

use clap_core::{Pipeline, PipelineConfig};
use clap_obs::sink::{validate_jsonl_line, write_jsonl, JSONL_SCHEMA};
use clap_obs::{json, Observer};
use clap_vm::MemModel;
use std::time::{Duration, Instant};

const LOST_UPDATE: &str = "global int x = 0;
     fn w() { let v: int = x; yield; x = v + 1; }
     fn main() { let a: thread = fork w(); let b: thread = fork w();
                 join a; join b; assert(x == 2, \"lost\"); }";

/// The six pipeline phases every reproduction run must report.
const PHASES: [&str; 6] = ["record", "decode", "symex", "constrain", "solve", "replay"];

/// A scratch path under the system temp dir, unique per test name.
fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("clap_obs_test_{}_{name}", std::process::id()))
}

#[test]
fn jsonl_stream_matches_schema_snapshot() {
    let _l = clap_obs::test_lock();
    clap_obs::reset();
    clap_obs::enable();
    {
        let _root = clap_obs::span("outer");
        let _leaf = clap_obs::span("inner");
        clap_obs::add("c.hits", 3);
        clap_obs::gauge("g.depth", -2);
        clap_obs::observe("h.bytes", 1024);
        clap_obs::event("e.note", &[("k", "v\"quoted\"".to_owned())]);
    }
    let snap = clap_obs::snapshot();
    clap_obs::disable();

    let mut buf = Vec::new();
    write_jsonl(&snap, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();

    // Every record type appears, every line validates, and the observed
    // key order is byte-for-byte the one JSONL_SCHEMA promises. A failure
    // here means the on-disk format changed: update JSONL_SCHEMA *and*
    // downstream consumers together.
    let mut seen: Vec<&str> = Vec::new();
    for line in text.lines() {
        let ty = validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}\nline: {line}"));
        if !seen.contains(&ty) {
            seen.push(ty);
        }
        let parsed = json::parse(line).unwrap();
        let keys = parsed.keys().unwrap();
        let want = JSONL_SCHEMA.iter().find(|(t, _)| *t == ty).unwrap().1;
        assert_eq!(keys, want, "key order drifted for `{ty}`");
    }
    assert_eq!(
        seen,
        ["meta", "span", "counter", "gauge", "hist", "event"],
        "record types missing or out of order"
    );
    assert!(
        text.starts_with("{\"type\":\"meta\""),
        "meta line must lead"
    );
}

#[test]
fn disabled_collector_overhead_is_negligible() {
    let _l = clap_obs::test_lock();
    clap_obs::reset();
    clap_obs::disable();

    const N: u64 = 200_000;
    let start = Instant::now();
    for i in 0..N {
        let _s = clap_obs::span("noop");
        clap_obs::add("noop.counter", i);
        clap_obs::gauge("noop.gauge", i as i64);
        clap_obs::observe("noop.hist", i);
    }
    let elapsed = start.elapsed();

    // Four probes per iteration; each is a single relaxed atomic load when
    // disabled (~1 ns). The quantile-histogram rework made the *enabled*
    // observe() path do a sparse bucket insert, but the disabled path is
    // still the same one atomic load — this bound re-pins that. Two orders
    // of magnitude of headroom keep it robust on loaded single-core CI
    // hosts.
    let per_probe_ns = elapsed.as_nanos() / (N as u128 * 4);
    assert!(
        per_probe_ns < 500,
        "disabled probe costs {per_probe_ns} ns, expected near-zero"
    );
    // And nothing must have been recorded.
    let snap = clap_obs::snapshot();
    assert!(snap.spans.is_empty() && snap.counters.is_empty() && snap.hists.is_empty());
}

#[test]
fn phase_timings_account_for_wall_time() {
    let _l = clap_obs::test_lock();
    let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
    let config = PipelineConfig::new(MemModel::Sc);
    let report = pipeline.reproduce(&config).expect("reproduce succeeds");

    let phases = report.phases;
    assert!(phases.record > Duration::ZERO, "record phase must be timed");
    assert!(
        phases.total >= phases.phase_sum(),
        "phases cannot exceed total"
    );

    // The six phases must cover the end-to-end wall clock: at most 5% (or
    // a 1 ms floor for sub-millisecond runs) may be unattributed.
    let gap = phases.total - phases.phase_sum();
    let slack = std::cmp::max(phases.total / 20, Duration::from_millis(1));
    assert!(
        gap <= slack,
        "unattributed time {gap:?} exceeds {slack:?} of total {phases:?}"
    );
}

#[test]
fn observer_produces_chrome_trace_and_jsonl() {
    let _l = clap_obs::test_lock();
    let trace_path = tmp("trace.json");
    let metrics_path = tmp("metrics.jsonl");

    let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
    let config = PipelineConfig::new(MemModel::Sc).with_observer(
        Observer::none()
            .with_trace(&trace_path)
            .with_metrics(&metrics_path),
    );
    let report = pipeline.reproduce(&config).expect("reproduce succeeds");
    assert!(report.reproduced, "lost update must reproduce");

    // The Chrome trace parses as JSON and carries a complete (`ph: "X"`)
    // event for each of the six phases.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let v = json::parse(&trace).expect("trace is valid JSON");
    let events = v.get("traceEvents").and_then(json::Value::as_arr).unwrap();
    let span_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(json::Value::as_str))
        .collect();
    for phase in PHASES {
        assert!(
            span_names.contains(&phase),
            "missing `{phase}` span in trace"
        );
    }

    // Every JSONL line validates, and the stream covers the six phase
    // spans plus the solver counters.
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    let mut jsonl_spans = Vec::new();
    let mut counter_names = Vec::new();
    for line in metrics.lines() {
        let ty = validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}\nline: {line}"));
        let name = json::parse(line)
            .unwrap()
            .get("name")
            .and_then(json::Value::as_str)
            .map(str::to_owned);
        match (ty, name) {
            ("span", Some(n)) => jsonl_spans.push(n),
            ("counter", Some(n)) => counter_names.push(n),
            _ => {}
        }
    }
    for phase in PHASES {
        assert!(
            jsonl_spans.iter().any(|n| n == phase),
            "missing `{phase}` span in JSONL"
        );
    }
    for counter in [
        "solver.decisions",
        "solver.propagations",
        "symex.instructions",
    ] {
        assert!(
            counter_names.iter().any(|n| n == counter),
            "missing `{counter}` counter in JSONL"
        );
    }

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&metrics_path);
}
