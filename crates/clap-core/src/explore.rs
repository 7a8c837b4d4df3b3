//! The record sweep behind [`Pipeline::record_failure`]: one sequential
//! loop over the (stickiness, seed) grid, on one VM, for a failing
//! interleaving with few SAPs.
//!
//! # One rule per level
//!
//! Each stickiness level runs seeds from 0 in order ([`sweep_level`]):
//!
//! 1. Until the level's first failing seed s1, every run goes to its end.
//! 2. After s1, a run is cut as soon as it has taken more SAPs than the
//!    best failure so far ([`Vm::set_sap_limit`]): selection prefers
//!    strictly fewer SAPs, then the earlier seed, so a cut run can no
//!    longer win. A run that ties the best runs to its assert.
//! 3. The level stops at [`CANDIDATES`] failures that reached their
//!    assert, s1 included, or once it has swept max([`WORK_FACTOR`] ×
//!    C1, [`WORK_FLOOR`]) VM steps, where C1 is the steps of seeds
//!    0..=s1, or at the seed budget.
//!
//! The winner is the `(saps, seed)` minimum over every seed the level
//! swept, exactly as if no run had been cut. The first level that finds
//! a failure is the last one swept. Small traces keep the offline search
//! tractable; the paper gets them from timing delays placed by hand, this
//! sweep from a work budget.
//!
//! # Record only the selected run
//!
//! The sweep runs every seed bare, with no monitor attached, and keeps
//! only a [`Candidate`] per failing seed: its seed, stickiness, assert
//! and [`ExecStats`]. That is all selection reads. A run is a function
//! of its seed and stickiness (monitors observe the VM, they never steer
//! it), so once selection has picked a candidate, [`record_selected`]
//! re-runs that one seed with the path recorder (and the sync-order
//! recorder, when enabled) attached and ships that run's artifact. A
//! re-run that fails elsewhere or with different statistics is an
//! internal error ([`PipelineError::RecordDiverged`]), never a silent
//! fallback. The SAP limit is cleared before that re-run; no replay and
//! no other VM ever sets one.
//!
//! # Telemetry
//!
//! Each level adds what it swept to the [`clap_obs`] counters
//! `explore.levels`, `explore.failures`, `explore.seeds`, `explore.steps`
//! and `explore.cuts`.

use crate::{Pipeline, PipelineConfig, PipelineError, RecordedFailure};
use clap_ir::AssertId;
use clap_profile::{PathRecorder, SyncOrderRecorder};
use clap_symex::FailureContext;
use clap_vm::{ExecStats, MultiMonitor, NullMonitor, Outcome, RandomScheduler, Vm};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failing runs that reached their assert, the first included, at which
/// a level stops.
const CANDIDATES: u64 = 25;

/// The level's work budget: after its first failure, a level stops once
/// it has swept this many times the VM steps it took to find it, and at
/// least [`WORK_FLOOR`]. Over the `clap_workloads` programs it keeps
/// every recording the 25-failure sweep made; a factor of 4 loses
/// seqlock's 10-SAP run.
const WORK_FACTOR: u64 = 8;

/// The least a level sweeps before it may stop on the work budget; a
/// floor of 1,000 steps loses pbzip2's 33-SAP run.
const WORK_FLOOR: u64 = 2_000;

/// One failing run of the sweep: everything selection reads, and the
/// seed and stickiness that reproduce the run.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    seed: u64,
    stickiness: f64,
    assert: AssertId,
    stats: ExecStats,
}

/// What one stickiness level swept: the seeds it ran, their VM steps
/// (a cut run's up to its cut), the runs it cut and the failing runs
/// that reached their assert.
#[derive(Debug, Default)]
struct LevelWork {
    seeds: u64,
    steps: u64,
    cuts: u64,
    failures: u64,
}

/// Runs one (stickiness, seed) cell of the sweep bare on a reusable VM:
/// [`Vm::reset`] rewinds it to its pristine state in place, which is
/// equivalent to (and much cheaper than) constructing a fresh VM. Returns
/// the VM steps the run took, and the candidate when it failed its
/// assert.
fn run_seed(stickiness: f64, seed: u64, vm: &mut Vm<'_>) -> (u64, Option<Candidate>) {
    vm.reset();
    let mut sched = RandomScheduler::with_stickiness(seed, stickiness);
    let outcome = vm.run(&mut sched, &mut NullMonitor);
    let stats = *vm.stats();
    let failure = match outcome {
        Outcome::AssertFailed { assert, .. } => Some(Candidate {
            seed,
            stickiness,
            assert,
            stats,
        }),
        _ => None,
    };
    (stats.steps, failure)
}

/// Sweeps one stickiness level under the rule in the module docs and
/// returns what it swept, with the level's winner when a seed failed.
fn sweep_level(
    config: &PipelineConfig,
    vm: &mut Vm<'_>,
    stickiness: f64,
) -> (LevelWork, Option<Candidate>) {
    let mut work = LevelWork::default();
    let mut best: Option<Candidate> = None;
    let mut step_budget = u64::MAX;
    for seed in 0..config.seed_budget {
        if work.failures >= CANDIDATES || work.steps >= step_budget {
            break;
        }
        if let Some(best) = &best {
            vm.set_sap_limit(best.stats.saps);
        }
        let (steps, failure) = run_seed(stickiness, seed, vm);
        work.seeds += 1;
        work.steps += steps;
        match (failure, best) {
            (Some(found), None) => {
                work.failures = 1;
                step_budget = work.steps.saturating_mul(WORK_FACTOR).max(WORK_FLOOR);
                best = Some(found);
            }
            (Some(found), Some(old)) => {
                work.failures += 1;
                if found.stats.saps < old.stats.saps {
                    best = Some(found);
                }
            }
            (None, _) => work.cuts += u64::from(vm.outcome() == Some(&Outcome::SapLimit)),
        }
    }
    vm.set_sap_limit(u64::MAX);
    (work, best)
}

/// Re-runs the selected candidate's seed with the recorders attached and
/// returns its artifact. The run must fail the same assert with the same
/// statistics as the bare run did; anything else is
/// [`PipelineError::RecordDiverged`].
fn record_selected(
    pipeline: &Pipeline,
    config: &PipelineConfig,
    vm: &mut Vm<'_>,
    selected: &Candidate,
) -> Result<RecordedFailure, PipelineError> {
    vm.reset();
    let mut recorder = PathRecorder::new(&pipeline.tables);
    let mut sync_recorder = config.record_sync_order.then(SyncOrderRecorder::new);
    let mut sched = RandomScheduler::with_stickiness(selected.seed, selected.stickiness);
    let outcome = match sync_recorder.as_mut() {
        Some(sync) => {
            let mut multi = MultiMonitor::new();
            multi.push(&mut recorder);
            multi.push(sync);
            vm.run(&mut sched, &mut multi)
        }
        None => vm.run(&mut sched, &mut recorder),
    };
    match outcome {
        Outcome::AssertFailed { assert, .. }
            if assert == selected.assert && *vm.stats() == selected.stats =>
        {
            Ok(RecordedFailure {
                seed: selected.seed,
                stickiness: selected.stickiness,
                log: recorder.finish(),
                failure: FailureContext::from_vm(vm),
                assert,
                stats: selected.stats,
                sync_order: sync_recorder.map(SyncOrderRecorder::finish),
                record_time: Duration::ZERO,
            })
        }
        _ => Err(PipelineError::RecordDiverged {
            seed: selected.seed,
        }),
    }
}

/// The sweep entry point backing [`Pipeline::record_failure`]: sweeps
/// the stickiness levels in order on one VM, and re-runs the winner of
/// the first level that fails there with the recorders attached.
pub(crate) fn record_failure(
    pipeline: &Pipeline,
    config: &PipelineConfig,
) -> Result<RecordedFailure, PipelineError> {
    let _span = clap_obs::span("record");
    let start = Instant::now();
    let mut vm = Vm::with_compiled(
        &pipeline.program,
        Arc::clone(pipeline.compiled()),
        config.model,
        pipeline.sharing.shared_spec(),
    );
    vm.set_step_limit(crate::STEP_LIMIT);
    for &stickiness in &config.stickiness {
        let (work, best) = sweep_level(config, &mut vm, stickiness);
        clap_obs::add("explore.levels", 1);
        clap_obs::add("explore.failures", work.failures);
        clap_obs::add("explore.seeds", work.seeds);
        clap_obs::add("explore.steps", work.steps);
        clap_obs::add("explore.cuts", work.cuts);
        if let Some(best) = best {
            return record_selected(pipeline, config, &mut vm, &best).map(|mut recorded| {
                recorded.record_time = start.elapsed();
                recorded
            });
        }
    }
    Err(PipelineError::NoFailureFound)
}
