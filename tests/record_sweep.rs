//! The record sweep's work: one line per `clap_workloads` program in
//! `tests/snapshots/record_work.snap`, holding the selected seed and what
//! the sweep ran to find it — the seeds (`explore.seeds`), their VM steps
//! (`explore.steps`) and the runs cut short (`explore.cuts`). A change to
//! the sweep that does more or less work shows up as a diff here even
//! when every recording stays the same. Regenerate after an *intended*
//! change with:
//!
//! ```text
//! CLAP_BLESS=1 cargo test --test record_sweep
//! ```
//!
//! Every test takes `clap_obs::test_lock()` first: the counters come from
//! the process-global collector, which every sweep in the file feeds.

mod common;

use clap_core::{Pipeline, PipelineConfig};
use clap_vm::{MemModel, NullMonitor, RandomScheduler, Rng, Vm};
use common::check_snapshot_file;
use std::fmt::Write as _;
use std::sync::Arc;

const SNAPSHOT: &str = "tests/snapshots/record_work.snap";

#[test]
fn record_sweep_work_is_pinned() {
    let _l = clap_obs::test_lock();
    let mut actual = String::new();
    for w in clap_workloads::all()
        .into_iter()
        .chain(clap_workloads::channels())
        .chain(clap_workloads::lockfree())
    {
        let pipeline = Pipeline::new(w.program());
        let config = clap_bench::workload_config(&w);
        clap_obs::reset();
        clap_obs::enable();
        let recorded = pipeline.record_failure(&config);
        let counters = clap_obs::snapshot().counters;
        clap_obs::disable();
        let recorded = recorded.unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
        let _ = writeln!(
            actual,
            "{} {:?} seed={} seeds={} steps={} cuts={}",
            w.name,
            w.model,
            recorded.seed,
            counter("explore.seeds"),
            counter("explore.steps"),
            counter("explore.cuts"),
        );
    }
    check_snapshot_file(SNAPSHOT, &actual);
}

#[test]
fn early_stop_terminates_abundant_failure_sweep() {
    let _l = clap_obs::test_lock();
    // Every run of this program fails with the same SAPs, so the first
    // level stops at its 25th failure, far inside the million-seed
    // budget, and keeps the earliest of the tied runs.
    let pipeline = Pipeline::from_source(
        "global int x = 0;
         fn w() { x = 1; }
         fn main() { let a: thread = fork w(); join a; assert(x == 2, \"always\"); }",
    )
    .unwrap();
    let mut config = PipelineConfig::new(MemModel::Sc);
    config.seed_budget = 1_000_000;
    clap_obs::reset();
    clap_obs::enable();
    let recorded = pipeline.record_failure(&config);
    let counters = clap_obs::snapshot().counters;
    clap_obs::disable();
    let recorded = recorded.expect("failure is everywhere");
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        (counter("explore.levels"), counter("explore.seeds")),
        (1, 25)
    );
    assert_eq!(counter("explore.failures"), 25);
    assert_eq!(recorded.seed, 0);
}

/// No cut discards a winner: over the seeds the failing level swept, the
/// selected seed is the `(saps, seed)` minimum of the same seeds run to
/// their end, with no SAP limit.
#[test]
fn refine_selects_the_uncut_minimum() {
    let _l = clap_obs::test_lock();
    let mut rng = Rng::for_test("record_sweep::refine_selects_the_uncut_minimum");
    for _ in 0..48 {
        let seed = rng.next_u64() % 1_000_000;
        let spec = clap_check::ProgramSpec::from_seed(seed);
        let pipeline = Pipeline::from_source(&spec.source()).expect("generated source parses");
        for model in [MemModel::Sc, MemModel::Tso, MemModel::Pso] {
            let mut config = PipelineConfig::new(model);
            config.seed_budget = 400;
            config.stickiness = vec![0.7, 0.3];
            clap_obs::reset();
            clap_obs::enable();
            let recorded = pipeline.record_failure(&config);
            let counters = clap_obs::snapshot().counters;
            clap_obs::disable();
            let Ok(recorded) = recorded else {
                continue;
            };
            // Every level before the failing one swept the whole budget.
            let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
            let swept =
                counter("explore.seeds") - (counter("explore.levels") - 1) * config.seed_budget;
            let mut vm = Vm::with_compiled(
                pipeline.program(),
                Arc::clone(pipeline.compiled()),
                model,
                pipeline.sharing().shared_spec(),
            );
            vm.set_step_limit(clap_core::STEP_LIMIT);
            let uncut = (0..swept)
                .filter_map(|s| {
                    vm.reset();
                    let mut sched = RandomScheduler::with_stickiness(s, recorded.stickiness);
                    let outcome = vm.run(&mut sched, &mut NullMonitor);
                    outcome.is_failure().then(|| (vm.stats().saps, s))
                })
                .min();
            let selected = Some((recorded.stats.saps, recorded.seed));
            assert_eq!(
                selected, uncut,
                "gen seed {seed} under {model:?}: the selected run against the uncut minimum"
            );
        }
    }
}
