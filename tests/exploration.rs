//! The record-phase exploration engine: a parallel sweep must be
//! indistinguishable from the sequential one (same selected artifact,
//! byte for byte), and the early stop must neither hang nor change the
//! selection even when failures are abundant.
//!
//! Every test takes `clap_obs::test_lock()` first: one test asserts exact
//! values of the process-global telemetry collector, every sweep in the
//! file feeds that collector, and the test harness runs tests
//! concurrently.

use clap_core::{ExploreCutover, Pipeline, PipelineConfig, RecordedFailure};
use clap_vm::MemModel;
use std::time::{Duration, Instant};

const LOST_UPDATE: &str = "global int x = 0;
     fn w() { let v: int = x; yield; x = v + 1; }
     fn main() { let a: thread = fork w(); let b: thread = fork w();
                 join a; join b; assert(x == 2, \"lost\"); }";

/// Records with 1 worker and with `workers`, expecting both to succeed.
fn record_pair(
    pipeline: &Pipeline,
    config: &PipelineConfig,
    workers: usize,
) -> (RecordedFailure, RecordedFailure) {
    let sequential = pipeline
        .record_failure(&config.clone().with_explore_workers(1))
        .expect("sequential sweep finds the failure");
    let parallel = pipeline
        .record_failure(&config.clone().with_explore_workers(workers))
        .expect("parallel sweep finds the failure");
    (sequential, parallel)
}

fn assert_identical(sequential: &RecordedFailure, parallel: &RecordedFailure) {
    assert_eq!(sequential.seed, parallel.seed, "same selected seed");
    assert_eq!(
        sequential.stickiness, parallel.stickiness,
        "same stickiness level"
    );
    assert_eq!(sequential.stats.saps, parallel.stats.saps, "same SAP count");
    assert_eq!(sequential.log, parallel.log, "byte-identical path logs");
    assert_eq!(sequential.assert, parallel.assert, "same assert site");
}

#[test]
fn parallel_exploration_matches_sequential_sc() {
    let _l = clap_obs::test_lock();
    let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
    let config = PipelineConfig::new(MemModel::Sc);
    let (sequential, parallel) = record_pair(&pipeline, &config, 4);
    assert_identical(&sequential, &parallel);
}

#[test]
fn small_budgets_cut_over_to_sequential_without_changing_selection() {
    let _l = clap_obs::test_lock();
    // Under the default adaptive cutover, small budgets run on the caller
    // thread even when a worker pool is requested — the calibration probe
    // sees a sweep too short to amortize pool startup. The selected
    // artifact must be byte-identical whichever path the planner picks.
    let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
    for budget in [64, 4096] {
        let mut config = PipelineConfig::new(MemModel::Sc);
        config.seed_budget = budget;
        let (sequential, parallel) = record_pair(&pipeline, &config, 8);
        assert_identical(&sequential, &parallel);
    }
}

#[test]
fn determinism_pinned_at_fixed_cutover_boundary() {
    let _l = clap_obs::test_lock();
    // seed_budget ∈ {cutover−1, cutover, cutover+1} with an explicit
    // Fixed(64) policy: budget 63 stays sequential even at 8 workers,
    // 64 and 65 go to the pool. The artifact must be byte-identical on
    // every side of the boundary.
    let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
    for budget in [63, 64, 65] {
        let mut config =
            PipelineConfig::new(MemModel::Sc).with_explore_cutover(ExploreCutover::Fixed(64));
        config.seed_budget = budget;
        let (sequential, parallel) = record_pair(&pipeline, &config, 8);
        assert_identical(&sequential, &parallel);
    }
}

#[test]
fn forced_pool_matches_sequential_with_chunked_claiming() {
    let _l = clap_obs::test_lock();
    // Fixed(0) forces the pool on regardless of host cores or probe
    // estimates, so this exercises the chunked claim + watermark early
    // stop even where the adaptive policy would stay sequential.
    let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
    let mut config =
        PipelineConfig::new(MemModel::Sc).with_explore_cutover(ExploreCutover::Fixed(0));
    config.seed_budget = 5_000;
    let (sequential, parallel) = record_pair(&pipeline, &config, 4);
    assert_identical(&sequential, &parallel);
}

#[test]
fn pool_threads_spawn_at_most_once_per_sweep() {
    let _l = clap_obs::test_lock();
    // A correct program: every stickiness level sweeps its full budget,
    // so a pool respawned per level would report spawned = levels ×
    // workers. The persistent pool must report exactly `workers`.
    let pipeline = Pipeline::from_source(
        "global int x = 0;
         mutex m;
         fn w() { lock(m); let v: int = x; x = v + 1; unlock(m); }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"never fails\"); }",
    )
    .unwrap();
    let mut config = PipelineConfig::new(MemModel::Sc)
        .with_explore_workers(3)
        .with_explore_cutover(ExploreCutover::Fixed(0)); // force the pool on
    config.seed_budget = 200;
    config.stickiness = vec![0.9, 0.7, 0.5];

    clap_obs::reset();
    clap_obs::enable();
    let result = pipeline.record_failure(&config);
    clap_obs::disable();
    let snap = clap_obs::snapshot();
    assert!(result.is_err(), "the program is correct; no failure exists");
    assert_eq!(
        snap.counters.get("explore.levels"),
        Some(&3),
        "all three stickiness levels swept"
    );
    assert_eq!(
        snap.gauges.get("explore.pool.spawned"),
        Some(&3),
        "worker threads spawned once per sweep, not once per level"
    );
}

#[test]
fn parallel_exploration_matches_sequential_tso() {
    let _l = clap_obs::test_lock();
    // A store-buffering workload: the failing interleavings involve drain
    // actions, a different action mix than the SC test exercises.
    let workload = clap_workloads::by_name("dekker").expect("dekker exists");
    assert_eq!(workload.model, MemModel::Tso);
    let pipeline = Pipeline::new(workload.program());
    let mut config = PipelineConfig::new(workload.model);
    config.stickiness = workload.stickiness.to_vec();
    config.seed_budget = workload.seed_budget;
    let (sequential, parallel) = record_pair(&pipeline, &config, 4);
    assert_identical(&sequential, &parallel);
}

#[test]
fn full_reproduce_is_worker_count_invariant() {
    let _l = clap_obs::test_lock();
    // The end-to-end acceptance shape: identical ReproductionReports at
    // workers=1 and workers=4.
    let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
    let config = PipelineConfig::new(MemModel::Sc);
    let one = pipeline
        .reproduce(&config.clone().with_explore_workers(1))
        .expect("reproduce at 1 worker");
    let four = pipeline
        .reproduce(&config.clone().with_explore_workers(4))
        .expect("reproduce at 4 workers");
    assert!(one.reproduced && four.reproduced);
    assert_eq!(one.seed, four.seed);
    assert_eq!(one.saps, four.saps);
    assert_eq!(one.log_bytes, four.log_bytes);
    assert_eq!(one.schedule.order, four.schedule.order);
}

#[test]
fn early_stop_terminates_abundant_failure_sweep() {
    let _l = clap_obs::test_lock();
    // Every interleaving of this program fails, so without the early stop
    // a million-seed budget would grind through every seed — and a
    // cancellation bug would strand workers forever. The sweep must
    // return promptly and still pick the same candidate as a sequential
    // sweep (which stops at the same 25-failure cutoff).
    let pipeline = Pipeline::from_source(
        "global int x = 0;
         fn w() { x = 1; }
         fn main() { let a: thread = fork w(); join a; assert(x == 2, \"always\"); }",
    )
    .unwrap();
    let mut config = PipelineConfig::new(MemModel::Sc);
    config.seed_budget = 1_000_000;

    let t0 = Instant::now();
    let parallel = pipeline
        .record_failure(&config.clone().with_explore_workers(4))
        .expect("failure is everywhere");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(60),
        "early stop must fire long before the {}-seed budget ({elapsed:?})",
        config.seed_budget
    );

    let sequential = pipeline
        .record_failure(&config.clone().with_explore_workers(1))
        .expect("failure is everywhere");
    assert_identical(&sequential, &parallel);
}
