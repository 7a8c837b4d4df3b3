//! The record-phase exploration engine: sweeps the (stickiness, seed)
//! grid of [`Pipeline::record_failure`] for a failing interleaving with
//! few SAPs, optionally fanning the first phase of each level over a
//! persistent worker pool.
//!
//! # Two phases per level
//!
//! 1. The *hunt* runs seeds from 0, each to its end, until the first
//!    failing seed s1. This phase may run on the pool.
//! 2. The *refine* phase ([`refine`]) runs the seeds after s1 in order,
//!    on the caller's thread, and keeps the failure with the fewest SAPs
//!    (the earlier seed on ties). A run is cut as soon as it has taken
//!    more SAPs than the best failure so far ([`Vm::set_sap_limit`]): it
//!    can no longer win. A run that ties the best runs to its assert.
//!    The phase stops at [`CANDIDATES`] failures that reached their
//!    assert, s1 included, or once the level has swept
//!    max([`REFINE_FACTOR`] × C1, [`REFINE_FLOOR`]) VM steps, where C1 is
//!    the steps of seeds 0..=s1.
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
//! # Architecture
//!
//! One pool per sweep: [`record_failure`] opens a single thread scope
//! around the whole stickiness loop and starts the pool lazily, the first
//! time a level's plan goes parallel. Workers build their scratch VM once,
//! then park on a condvar between levels; each level's hunt is handed off
//! by bumping an epoch and publishing a [`LevelTask`] — no thread is
//! spawned or joined between levels. Seeds are claimed in *chunks* (one
//! atomic `fetch_add` claims a run of seeds) so the cross-thread
//! coordination cost amortizes across the chunk.
//!
//! Whether a level's hunt runs on the pool at all is decided *per level*
//! by [`plan_level`]: a short sequential calibration probe measures the
//! per-seed cost, estimates the remaining sequential tail, and compares
//! the parallel savings against the *measured* pool startup cost (or the
//! much cheaper handoff cost once the pool exists).
//! [`crate::ExploreCutover::Fixed`] replaces the estimate with an explicit
//! seed-budget threshold (`Fixed(0)` forces the pool on, which the tests
//! and the contention profiler use).
//!
//! # Determinism contract
//!
//! Parallel exploration returns **byte-identical** artifacts to the
//! sequential sweep, regardless of thread count, chunk width, or timing.
//! The invariants that make this hold:
//!
//! 1. The hunt's collector maintains a *watermark* — the contiguous
//!    prefix of completed seeds — and a seed joins it only once every
//!    smaller seed has completed. Early stop fires when the prefix ends
//!    at its first failure; at that point the prefix is exactly the seeds
//!    the sequential hunt runs.
//! 2. Before the stop fires, every claimed seed is run and reported, so
//!    completed seeds form a contiguous prefix of `0..budget` up to
//!    in-flight claims. *After* the stop fires a worker may abandon the
//!    rest of its chunk: the watermark can never pass an unreported seed,
//!    so every abandoned seed is above the prefix.
//! 3. The refine phase is sequential and reads only s1 and C1, both read
//!    off the prefix; the SAP limit and the step budget are functions of
//!    the seeds it has run. So the winner and every counter are the
//!    sequential sweep's.
//!
//! The calibration probe is itself the first stretch of the sequential
//! hunt, so the seeds it ran are carried into the level whichever path
//! the plan picks.
//!
//! # Telemetry
//!
//! The engine reports through [`clap_obs`] in two tiers. *Counters*
//! (`explore.levels`, `explore.failures`, `explore.seeds`,
//! `explore.steps`, `explore.cuts`) count what the sequential sweep runs,
//! so they are byte-identical for any worker count — the determinism
//! contract extends to them. Runtime shape that legitimately varies with
//! thread timing (per-worker seed counts and utilization, pool startup
//! latency, early-stop drain latency, attribution overrun) goes into
//! histograms and gauges instead, and each level emits an
//! `explore.level.path` event naming the path its hunt took and why.

use crate::{ExploreCutover, Pipeline, PipelineConfig, PipelineError, RecordedFailure};
use clap_ir::AssertId;
use clap_parallel::available_cores;
use clap_profile::{PathRecorder, SyncOrderRecorder};
use clap_symex::FailureContext;
use clap_vm::{ExecStats, MultiMonitor, NullMonitor, Outcome, RandomScheduler, Vm};
use crossbeam::channel::{Receiver, Sender};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Failing runs that reached their assert, the first included, at which
/// a level's refine phase stops.
const CANDIDATES: u64 = 25;

/// The refine phase's work budget: a level stops once it has swept this
/// many times the VM steps its hunt took, and at least [`REFINE_FLOOR`].
/// Over the `clap_workloads` programs it keeps every recording the
/// 25-failure sweep made; a factor of 4 loses seqlock's 10-SAP run.
const REFINE_FACTOR: u64 = 8;

/// The least a level sweeps before its refine phase may stop on the work
/// budget; a floor of 1,000 steps loses pbzip2's 33-SAP run.
const REFINE_FLOOR: u64 = 2_000;

/// Seeds the adaptive planner hunts sequentially before deciding whether
/// the rest of the hunt is worth handing to the pool. The probe is not
/// overhead: it is the first stretch of the sequential hunt, and the
/// seeds it ran are carried into the level.
const PROBE_SEEDS: u64 = 32;

/// Pool spawn-to-parked prior used before any pool has been measured in
/// this process. Deliberately pessimistic — the contention profiler showed
/// a whole small level (~2 ms) finishing before the pool finished
/// spawning, so that is the cost a sweep must amortize.
const STARTUP_PRIOR: Duration = Duration::from_millis(2);

/// Last measured pool startup latency (blended over sweeps),
/// process-global so later sweeps start from a calibrated figure instead
/// of the prior. Zero means "not measured yet".
static MEASURED_STARTUP_NANOS: AtomicU64 = AtomicU64::new(0);

fn startup_estimate() -> Duration {
    match MEASURED_STARTUP_NANOS.load(Ordering::Relaxed) {
        0 => STARTUP_PRIOR,
        n => Duration::from_nanos(n),
    }
}

fn record_pool_startup(measured: Duration) {
    let new = u64::try_from(measured.as_nanos())
        .unwrap_or(u64::MAX)
        .max(1);
    let old = MEASURED_STARTUP_NANOS.load(Ordering::Relaxed);
    let blended = if old == 0 { new } else { old / 2 + new / 2 };
    MEASURED_STARTUP_NANOS.store(blended.max(1), Ordering::Relaxed);
}

/// Handing a level to an already-parked pool costs a lock, a broadcast,
/// and per-worker wakeup latency — far below a cold start. Estimated as a
/// fraction of the measured startup, floored at the cost of a few context
/// switches.
fn handoff_estimate() -> Duration {
    (startup_estimate() / 16).max(Duration::from_micros(20))
}

/// Resolves a worker-count request: `0` means one worker per available
/// core.
pub(crate) fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        available_cores()
    } else {
        requested
    }
}

/// Chunk width for one atomic seed claim: aim for ~64 claims per worker
/// so the `fetch_add` and wakeups amortize, capped so tail imbalance and
/// post-stop abandonment stay bounded.
fn chunk_size(remaining: u64, workers: usize) -> u64 {
    (remaining / (workers.max(1) as u64 * 64)).clamp(1, 1024)
}

/// One failing run of the sweep: everything selection reads, and the
/// seed and stickiness that reproduce the run.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    seed: u64,
    stickiness: f64,
    assert: AssertId,
    stats: ExecStats,
}

/// One bare run of the sweep: the VM steps it took, and the candidate
/// when it failed its assert.
#[derive(Debug, Clone, Copy)]
struct SeedRun {
    steps: u64,
    failure: Option<Candidate>,
}

/// Runs one (stickiness, seed) cell of the sweep bare on a reusable VM.
///
/// [`Vm::reset`] rewinds the VM to its pristine state in place — no
/// snapshot round-trip, no reallocation — which is what makes the
/// per-seed reset equivalent to (and much cheaper than) constructing a
/// fresh VM.
///
/// With `attr` set the cell is profiled: the reset is timed into
/// [`WorkerAttribution::restore`], the run's enabled-action rebuild into
/// `rebuild`, and the rest of the run (scheduler picks and instruction
/// execution) into `step`.
fn run_seed(
    stickiness: f64,
    seed: u64,
    vm: &mut Vm<'_>,
    mut attr: Option<&mut WorkerAttribution>,
) -> SeedRun {
    let t0 = attr.is_some().then(Instant::now);
    vm.reset();
    if let (Some(t0), Some(a)) = (t0, attr.as_deref_mut()) {
        a.restore += t0.elapsed();
        vm.enable_step_profile();
    }
    let t_run = attr.is_some().then(Instant::now);
    let mut sched = RandomScheduler::with_stickiness(seed, stickiness);
    let outcome = vm.run(&mut sched, &mut NullMonitor);
    if let (Some(t_run), Some(a)) = (t_run, attr) {
        let total = t_run.elapsed();
        let prof = vm.take_step_profile().unwrap_or_default();
        a.rebuild += prof.rebuild;
        a.step += total.saturating_sub(prof.rebuild);
    }
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
    SeedRun {
        steps: stats.steps,
        failure,
    }
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

fn pristine_vm<'p>(pipeline: &'p Pipeline, config: &PipelineConfig) -> Vm<'p> {
    let mut vm = Vm::with_compiled(
        &pipeline.program,
        std::sync::Arc::clone(pipeline.compiled()),
        config.model,
        pipeline.sharing.shared_spec(),
    );
    vm.set_step_limit(config.step_limit);
    vm
}

/// Continues the sequential hunt of one stickiness level from the end of
/// `prefix` (the seeds the calibration probe already ran), on the
/// caller's reusable scratch VM. Stops at the level's first failure.
fn run_sequential<'p>(
    pipeline: &'p Pipeline,
    config: &PipelineConfig,
    stickiness: f64,
    scratch: &mut Option<Vm<'p>>,
    mut prefix: Watermark,
) -> Watermark {
    let vm = scratch.get_or_insert_with(|| pristine_vm(pipeline, config));
    for seed in prefix.watermark()..config.seed_budget {
        if prefix.complete(seed, run_seed(stickiness, seed, vm, None)) {
            break;
        }
    }
    prefix
}

/// Where one parallel-sweep worker spent its wall time, measured by the
/// contention profiler ([`Pipeline::profile_contention`]). Each category
/// is one suspected cost of the pool, so the profile is direct evidence
/// for (or against) each:
///
/// - `claim`: the chunked `fetch_add` seed claim, the stop check, and the
///   result send to the watermark collector — all cross-thread
///   coordination;
/// - `restore`: [`Vm::reset`] rewinding the VM between seeds (the
///   "per-seed snapshot restore" suspect);
/// - `rebuild`: re-deriving the enabled-action set after every step
///   inside [`Vm::run`];
/// - `step`: the rest of the VM run — scheduler picks and instruction
///   execution;
/// - `idle`: wall time not accounted above — parked time between levels,
///   scheduling gaps, and the post-stop drain;
/// - `overrun`: the amount by which the measured categories *exceeded*
///   the wall clock. Timer skew can over-account; clamping `idle` at zero
///   hides that, so the clamped-away excess is kept here and surfaced in
///   the `explore.worker.attribution_overrun_us` histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerAttribution {
    /// Worker index within the pool.
    pub worker: usize,
    /// Seeds this worker claimed and ran.
    pub seeds: u64,
    /// Total wall time this worker spent on the level (claim loop entry
    /// to drain).
    pub wall: Duration,
    /// Seed claiming + result send (cross-thread coordination).
    pub claim: Duration,
    /// Per-seed VM reset.
    pub restore: Duration,
    /// Reading the enabled-action set inside the VM step loop, rebuilds
    /// included.
    pub rebuild: Duration,
    /// Scheduler picks + instruction execution.
    pub step: Duration,
    /// Unattributed remainder of `wall`, clamped at zero.
    pub idle: Duration,
    /// Over-accounting clamped away from `idle`: how far the measured
    /// categories exceeded `wall` (timer skew; zero when timers behave).
    pub overrun: Duration,
}

impl WorkerAttribution {
    /// Sum of the directly measured categories (everything but `idle`).
    pub fn accounted(&self) -> Duration {
        self.claim + self.restore + self.rebuild + self.step
    }
}

/// The category names of [`WorkerAttribution`], in table order.
pub const ATTRIBUTION_CATEGORIES: [&str; 5] = ["claim", "restore", "rebuild", "step", "idle"];

/// One stickiness level swept in profiled parallel mode: per-worker time
/// attribution plus the level's finalized failure count. Produced by
/// [`Pipeline::profile_contention`]; rendered by
/// [`ContentionProfile::render_table`].
#[derive(Debug, Clone)]
pub struct ContentionProfile {
    /// The stickiness level that was swept.
    pub stickiness: f64,
    /// The seed budget of the sweep.
    pub seed_budget: u64,
    /// Worker-pool size.
    pub requested_workers: usize,
    /// Failures the hunt finalized (deterministic): 1 when the level
    /// fails, since the hunt stops at its first failure, else 0.
    pub failures: usize,
    /// Per-worker attribution, sorted by worker index.
    pub workers: Vec<WorkerAttribution>,
    /// Whether production ([`Pipeline::record_failure`]) would run this
    /// level on the pool. The profiler itself always profiles the
    /// parallel path (a one-worker "contention" profile would answer
    /// nothing), so when this is `false` the profiled configuration
    /// diverges from what production would execute.
    pub production_parallel: bool,
    /// The planner's reason for the production path.
    pub production_reason: String,
}

impl ContentionProfile {
    /// Per-category totals across all workers, in
    /// [`ATTRIBUTION_CATEGORIES`] order.
    pub fn totals(&self) -> [(&'static str, Duration); 5] {
        let mut sums = [Duration::ZERO; 5];
        for w in &self.workers {
            for (slot, v) in sums
                .iter_mut()
                .zip([w.claim, w.restore, w.rebuild, w.step, w.idle])
            {
                *slot += v;
            }
        }
        [
            (ATTRIBUTION_CATEGORIES[0], sums[0]),
            (ATTRIBUTION_CATEGORIES[1], sums[1]),
            (ATTRIBUTION_CATEGORIES[2], sums[2]),
            (ATTRIBUTION_CATEGORIES[3], sums[3]),
            (ATTRIBUTION_CATEGORIES[4], sums[4]),
        ]
    }

    /// The category with the largest pool-wide total — the headline of
    /// the utilization table.
    pub fn dominant_category(&self) -> &'static str {
        self.totals()
            .into_iter()
            .max_by_key(|&(_, d)| d)
            .map(|(name, _)| name)
            .unwrap_or("idle")
    }

    /// Pool-wide wall time (sum over workers).
    pub fn total_wall(&self) -> Duration {
        self.workers.iter().map(|w| w.wall).sum()
    }

    /// Total attribution overrun across workers (timer skew clamped away
    /// from `idle`).
    pub fn total_overrun(&self) -> Duration {
        self.workers.iter().map(|w| w.overrun).sum()
    }

    /// The per-worker utilization table as aligned plain text: one row
    /// per worker with seed count, wall milliseconds, each category as a
    /// percentage of that worker's wall, and the attribution overrun in
    /// microseconds, plus a pool-total row. When the profiled parallel
    /// path diverges from the path production would take, a `NOTE:` line
    /// labels the table.
    pub fn render_table(&self) -> String {
        fn pct(part: Duration, whole: Duration) -> f64 {
            if whole.is_zero() {
                0.0
            } else {
                100.0 * part.as_secs_f64() / whole.as_secs_f64()
            }
        }
        let mut out = String::new();
        if !self.production_parallel {
            let _ = writeln!(
                out,
                "NOTE: profiled path diverges from production — record_failure would run \
                 this level sequentially ({}).",
                self.production_reason
            );
        }
        let _ = writeln!(
            out,
            "{:>6} {:>7} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "worker",
            "seeds",
            "wall_ms",
            "claim%",
            "restore%",
            "rebuild%",
            "step%",
            "idle%",
            "over_us"
        );
        let mut rows: Vec<(String, u64, Duration, &WorkerAttribution)> = Vec::new();
        for w in &self.workers {
            rows.push((w.worker.to_string(), w.seeds, w.wall, w));
        }
        let total = WorkerAttribution {
            worker: 0,
            seeds: self.workers.iter().map(|w| w.seeds).sum(),
            wall: self.total_wall(),
            claim: self.workers.iter().map(|w| w.claim).sum(),
            restore: self.workers.iter().map(|w| w.restore).sum(),
            rebuild: self.workers.iter().map(|w| w.rebuild).sum(),
            step: self.workers.iter().map(|w| w.step).sum(),
            idle: self.workers.iter().map(|w| w.idle).sum(),
            overrun: self.total_overrun(),
        };
        rows.push(("total".into(), total.seeds, total.wall, &total));
        for (name, seeds, wall, w) in &rows {
            let _ = writeln!(
                out,
                "{:>6} {:>7} {:>9.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8}",
                name,
                seeds,
                wall.as_secs_f64() * 1e3,
                pct(w.claim, *wall),
                pct(w.restore, *wall),
                pct(w.rebuild, *wall),
                pct(w.step, *wall),
                pct(w.idle, *wall),
                w.overrun.as_micros(),
            );
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// One stickiness level's hunt handed to the pool. Workers claim chunks of
/// `next..budget`, report every completed seed on `tx`, and finish with a
/// [`WorkerMsg::Done`] carrying their attribution.
struct LevelTask {
    stickiness: f64,
    budget: u64,
    chunk: u64,
    next: AtomicU64,
    stop: AtomicBool,
    profiled: bool,
    tx: Sender<WorkerMsg>,
}

enum WorkerMsg {
    Seed(u64, SeedRun),
    Done(WorkerAttribution),
}

struct PoolState {
    epoch: u64,
    task: Option<Arc<LevelTask>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// A pool of parked worker threads that lives for one `record_failure`
/// sweep (or one profiler run). Threads are spawned exactly once; levels
/// are handed off by bumping the epoch, and level completion is detected
/// by counting per-worker [`WorkerMsg::Done`] messages — the channel is
/// never relied on to close.
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl WorkerPool {
    fn post(&self, task: Arc<LevelTask>) {
        let mut st = self.shared.state.lock().expect("pool lock");
        st.epoch += 1;
        st.task = Some(task);
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Parks no more: wakes every worker for exit and records how many
    /// threads this sweep spawned in total (the pool-reuse contract —
    /// `explore.pool.spawned` equals the worker count, not
    /// `levels × workers`).
    fn shutdown(&self) {
        let mut st = self.shared.state.lock().expect("pool lock");
        st.shutdown = true;
        st.task = None;
        drop(st);
        self.shared.cv.notify_all();
        clap_obs::gauge("explore.pool.spawned", self.workers as i64);
    }
}

/// Spawns the pool inside the caller's scope and blocks until every
/// worker has built its scratch VM and parked. The measured
/// spawn-to-parked latency is exactly the cost a sweep pays before the
/// pool can contribute, so it is what the adaptive cutover amortizes.
fn start_pool<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    pipeline: &'env Pipeline,
    config: &'env PipelineConfig,
    workers: usize,
) -> WorkerPool {
    let t0 = Instant::now();
    let shared = Arc::new(PoolShared {
        state: Mutex::new(PoolState {
            epoch: 0,
            task: None,
            shutdown: false,
        }),
        cv: Condvar::new(),
    });
    let ready = Arc::new(AtomicUsize::new(0));
    for index in 0..workers {
        let shared = Arc::clone(&shared);
        let ready = Arc::clone(&ready);
        scope.spawn(move || {
            let _worker_span = clap_obs::span("explore.worker");
            // Scratch survives every level of the sweep: the VM (heap
            // snapshot, action buffers, recorder tables) is built once
            // here and merely reset per seed from then on.
            let mut vm = pristine_vm(pipeline, config);
            ready.fetch_add(1, Ordering::Release);
            let mut seen_epoch = 0u64;
            loop {
                let task = {
                    let mut st = shared.state.lock().expect("pool lock");
                    loop {
                        if st.shutdown {
                            return;
                        }
                        if st.epoch != seen_epoch {
                            seen_epoch = st.epoch;
                            break Arc::clone(st.task.as_ref().expect("epoch implies task"));
                        }
                        st = shared.cv.wait(st).expect("pool lock");
                    }
                };
                run_level_worker(index, &task, &mut vm);
            }
        });
    }
    while ready.load(Ordering::Acquire) < workers {
        std::thread::yield_now();
    }
    let startup = t0.elapsed();
    record_pool_startup(startup);
    clap_obs::gauge(
        "explore.pool.startup_ns",
        i64::try_from(startup.as_nanos()).unwrap_or(i64::MAX),
    );
    WorkerPool { shared, workers }
}

/// One worker's share of one level: claim chunks, run seeds, report, and
/// finish with a `Done` message carrying the attribution.
fn run_level_worker(index: usize, task: &LevelTask, vm: &mut Vm<'_>) {
    let worker_start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut attr = WorkerAttribution {
        worker: index,
        ..WorkerAttribution::default()
    };
    let profiled = task.profiled;
    'claim: loop {
        let t_claim = profiled.then(Instant::now);
        if task.stop.load(Ordering::Relaxed) {
            break;
        }
        let first = task.next.fetch_add(task.chunk, Ordering::Relaxed);
        if first >= task.budget {
            break;
        }
        let end = first.saturating_add(task.chunk).min(task.budget);
        if let Some(t) = t_claim {
            attr.claim += t.elapsed();
        }
        for seed in first..end {
            // Abandoning the rest of a claimed chunk is safe once the
            // stop flag is up: the watermark never passes an unreported
            // seed, so everything abandoned here sits above every seed
            // the stop decision (and therefore selection) looked at.
            if seed > first && task.stop.load(Ordering::Relaxed) {
                break 'claim;
            }
            let t = Instant::now();
            let run = run_seed(task.stickiness, seed, vm, profiled.then_some(&mut attr));
            busy += t.elapsed();
            attr.seeds += 1;
            let t_send = profiled.then(Instant::now);
            if task.tx.send(WorkerMsg::Seed(seed, run)).is_err() {
                break 'claim;
            }
            if let Some(t) = t_send {
                attr.claim += t.elapsed();
            }
        }
    }
    clap_obs::observe("explore.worker.seeds", attr.seeds);
    attr.wall = worker_start.elapsed();
    let busy_pct = 100 * busy.as_nanos() as u64 / attr.wall.as_nanos().max(1) as u64;
    clap_obs::observe("explore.worker.busy_pct", busy_pct);
    // Clamp idle at zero but keep the evidence: timer skew where the
    // categories over-account the wall is recorded as `overrun` and
    // surfaced through the histogram instead of being silently discarded.
    let accounted = attr.accounted();
    attr.idle = attr.wall.saturating_sub(accounted);
    attr.overrun = accounted.saturating_sub(attr.wall);
    if profiled && !attr.overrun.is_zero() {
        clap_obs::observe(
            "explore.worker.attribution_overrun_us",
            u64::try_from(attr.overrun.as_micros()).unwrap_or(u64::MAX),
        );
    }
    let _ = task.tx.send(WorkerMsg::Done(attr));
}

/// Hands one level's hunt to the pool and collects it: `prefix` holds the
/// seeds the calibration probe already ran, the workers run the rest of
/// `prefix.watermark()..budget`.
fn run_level_on_pool(
    pool: &WorkerPool,
    stickiness: f64,
    budget: u64,
    prefix: Watermark,
    profile: Option<&mut Vec<WorkerAttribution>>,
) -> Watermark {
    let (tx, rx) = crossbeam::channel::unbounded::<WorkerMsg>();
    let start = prefix.watermark();
    let task = Arc::new(LevelTask {
        stickiness,
        budget,
        chunk: chunk_size(budget.saturating_sub(start), pool.workers),
        next: AtomicU64::new(start),
        stop: AtomicBool::new(false),
        profiled: profile.is_some(),
        tx,
    });
    pool.post(Arc::clone(&task));
    collect_level(&rx, &task, pool.workers, prefix, profile)
}

/// The hunt's collector: feeds every reported seed to the watermark, which
/// finalizes seeds in order, fires the early stop once the prefix ends at
/// its first failure, and returns once every worker has sent its `Done`
/// for this level.
fn collect_level(
    rx: &Receiver<WorkerMsg>,
    task: &LevelTask,
    workers: usize,
    mut prefix: Watermark,
    mut profile: Option<&mut Vec<WorkerAttribution>>,
) -> Watermark {
    let mut stopped_at: Option<Instant> = None;
    let mut done = 0usize;
    while done < workers {
        match rx.recv().expect("pool workers outlive the level") {
            WorkerMsg::Seed(seed, run) => {
                if prefix.complete(seed, run) && stopped_at.is_none() {
                    task.stop.store(true, Ordering::Relaxed);
                    stopped_at = Some(Instant::now());
                }
            }
            WorkerMsg::Done(attr) => {
                done += 1;
                if let Some(list) = profile.as_deref_mut() {
                    list.push(attr);
                }
            }
        }
    }
    // How long the pool took to drain after the early stop fired — the
    // latency cost of finishing in-flight seeds and waking stragglers.
    if let Some(at) = stopped_at {
        clap_obs::gauge(
            "explore.early_stop_ns",
            i64::try_from(at.elapsed().as_nanos()).unwrap_or(i64::MAX),
        );
    }
    prefix
}

// ---------------------------------------------------------------------------
// Per-level planning (adaptive cutover)
// ---------------------------------------------------------------------------

/// The path a level takes (or would take), with the planner's reason —
/// reported in the `explore.level.path` event and by the contention
/// profiler's production-path label.
#[derive(Debug, Clone)]
struct LevelPath {
    parallel: bool,
    reason: String,
}

impl LevelPath {
    fn sequential(reason: impl Into<String>) -> Self {
        LevelPath {
            parallel: false,
            reason: reason.into(),
        }
    }

    fn parallel(reason: impl Into<String>) -> Self {
        LevelPath {
            parallel: true,
            reason: reason.into(),
        }
    }
}

/// What [`plan_level`] decided for a level's hunt. Each plan carries the
/// seeds the calibration probe ran (none without a probe).
enum LevelPlan {
    /// The hunt completed entirely during planning (the calibration probe
    /// found a failure, or the budget fit inside the probe).
    Done(Watermark),
    /// Run (or finish) the hunt sequentially.
    Sequential(Watermark),
    /// Hand the rest of the hunt to the pool (of `workers` threads).
    Parallel { prefix: Watermark, workers: usize },
}

/// Decides, per level, whether the remaining hunt is worth a worker
/// pool. This runs fresh for every stickiness level — late levels of a
/// sweep whose early levels were cheap can still choose differently, and
/// the pool-exists discount means only the *first* parallel level pays
/// startup.
///
/// The adaptive policy sweeps a short sequential calibration probe, then
/// compares the estimated remaining sequential tail against the measured
/// pool cost: go parallel iff
/// `tail × (1 − 1/usable_cores) > 2 × pool_cost` (the factor 2 keeps
/// noisy probes near the boundary sequential). The probe is carried into
/// the level either way, so nothing is re-run.
fn plan_level<'p>(
    pipeline: &'p Pipeline,
    config: &PipelineConfig,
    stickiness: f64,
    requested: usize,
    pool_started: bool,
    scratch: &mut Option<Vm<'p>>,
) -> (LevelPlan, LevelPath) {
    let budget = config.seed_budget;
    if requested <= 1 {
        return (
            LevelPlan::Sequential(Watermark::default()),
            LevelPath::sequential("one worker requested"),
        );
    }
    match config.explore_cutover {
        ExploreCutover::Fixed(cutover) => {
            if budget < cutover {
                (
                    LevelPlan::Sequential(Watermark::default()),
                    LevelPath::sequential(format!(
                        "seed budget {budget} below fixed cutover {cutover}"
                    )),
                )
            } else {
                (
                    LevelPlan::Parallel {
                        prefix: Watermark::default(),
                        workers: requested,
                    },
                    LevelPath::parallel(format!(
                        "seed budget {budget} at/above fixed cutover {cutover}"
                    )),
                )
            }
        }
        ExploreCutover::Adaptive => {
            let usable = requested.min(available_cores());
            if usable <= 1 {
                return (
                    LevelPlan::Sequential(Watermark::default()),
                    LevelPath::sequential("single usable core"),
                );
            }
            let probe_n = PROBE_SEEDS.min(budget);
            if probe_n == 0 {
                return (
                    LevelPlan::Done(Watermark::default()),
                    LevelPath::sequential("empty seed budget"),
                );
            }
            let t0 = Instant::now();
            let mut prefix = Watermark::default();
            {
                let vm = scratch.get_or_insert_with(|| pristine_vm(pipeline, config));
                for seed in 0..probe_n {
                    if prefix.complete(seed, run_seed(stickiness, seed, vm, None)) {
                        break;
                    }
                }
            }
            let probe_time = t0.elapsed();
            if prefix.first.is_some() || probe_n >= budget {
                return (
                    LevelPlan::Done(prefix),
                    LevelPath::sequential("hunt completed inside the calibration probe"),
                );
            }
            // No failure in the probe: assume the hunt runs the whole
            // budget.
            let per_seed = probe_time / probe_n as u32;
            let tail = per_seed.mul_f64((budget - probe_n) as f64);
            let pool_cost = if pool_started {
                handoff_estimate()
            } else {
                startup_estimate()
            };
            let savings = tail.mul_f64(1.0 - 1.0 / usable as f64);
            if savings > pool_cost.saturating_mul(2) {
                (
                    LevelPlan::Parallel {
                        prefix,
                        workers: usable,
                    },
                    LevelPath::parallel(format!(
                        "estimated sequential tail {:.2}ms amortizes pool cost {:.3}ms \
                         across {usable} cores",
                        tail.as_secs_f64() * 1e3,
                        pool_cost.as_secs_f64() * 1e3,
                    )),
                )
            } else {
                (
                    LevelPlan::Sequential(prefix),
                    LevelPath::sequential(format!(
                        "estimated sequential tail {:.2}ms does not amortize pool cost \
                         {:.3}ms",
                        tail.as_secs_f64() * 1e3,
                        pool_cost.as_secs_f64() * 1e3,
                    )),
                )
            }
        }
    }
}

/// Plans and executes one stickiness level's hunt, starting the pool
/// lazily on the first parallel plan of the sweep and reusing it
/// afterwards.
fn explore_level<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    pipeline: &'env Pipeline,
    config: &'env PipelineConfig,
    stickiness: f64,
    requested: usize,
    pool: &mut Option<WorkerPool>,
    scratch: &mut Option<Vm<'env>>,
) -> Watermark {
    let (plan, path) = plan_level(
        pipeline,
        config,
        stickiness,
        requested,
        pool.is_some(),
        scratch,
    );
    clap_obs::event(
        "explore.level.path",
        &[
            ("stickiness", format!("{stickiness}")),
            (
                "path",
                if path.parallel {
                    "parallel".into()
                } else {
                    "sequential".into()
                },
            ),
            ("reason", path.reason.clone()),
        ],
    );
    match plan {
        LevelPlan::Done(prefix) => prefix,
        LevelPlan::Sequential(prefix) => {
            run_sequential(pipeline, config, stickiness, scratch, prefix)
        }
        LevelPlan::Parallel { prefix, workers } => {
            let pool = pool.get_or_insert_with(|| start_pool(scope, pipeline, config, workers));
            run_level_on_pool(pool, stickiness, config.seed_budget, prefix, None)
        }
    }
}

/// Sweeps one stickiness level with the worker pool in profiled mode —
/// the pool path is always profiled (a one-worker "contention" profile
/// would answer nothing), but the profile *reports* which path production
/// would actually take, and [`ContentionProfile::render_table`] labels
/// the table when the two diverge.
pub(crate) fn profile_contention(
    pipeline: &Pipeline,
    config: &PipelineConfig,
    stickiness: f64,
) -> ContentionProfile {
    let requested = effective_workers(config.explore_workers);
    let workers = requested.max(2);
    // Ask the production planner (including its calibration probe) what
    // record_failure would do with this configuration.
    let production = {
        let mut scratch: Option<Vm<'_>> = None;
        let (_plan, path) =
            plan_level(pipeline, config, stickiness, requested, false, &mut scratch);
        path
    };
    let mut attributions: Vec<WorkerAttribution> = Vec::new();
    let prefix = std::thread::scope(|scope| {
        let pool = start_pool(scope, pipeline, config, workers);
        let prefix = run_level_on_pool(
            &pool,
            stickiness,
            config.seed_budget,
            Watermark::default(),
            Some(&mut attributions),
        );
        pool.shutdown();
        prefix
    });
    attributions.sort_by_key(|a| a.worker);
    ContentionProfile {
        stickiness,
        seed_budget: config.seed_budget,
        requested_workers: workers,
        failures: usize::from(prefix.first.is_some()),
        workers: attributions,
        production_parallel: production.parallel,
        production_reason: production.reason,
    }
}

/// A level's hunt, finalized in seed order. Seeds may complete in any
/// order (the pool reports them as its workers finish), but a seed joins
/// the contiguous prefix `0..watermark()` only once every smaller seed
/// has: until then it waits in `pending`. What the hunt has swept is
/// therefore read off the prefix alone — its steps and its first failure
/// are exactly the sequential hunt's, whatever ran past it. The prefix
/// stops growing at its first failure.
#[derive(Default)]
struct Watermark {
    next: u64,
    /// VM steps of the seeds in the prefix.
    steps: u64,
    /// The prefix's failing run: its last seed.
    first: Option<Candidate>,
    pending: BTreeMap<u64, SeedRun>,
}

impl Watermark {
    /// Adds one completed seed; `true` once the hunt is complete, after
    /// which later seeds are ignored.
    fn complete(&mut self, seed: u64, run: SeedRun) -> bool {
        if self.first.is_some() {
            return true;
        }
        self.pending.insert(seed, run);
        while let Some(run) = self.pending.remove(&self.next) {
            self.next += 1;
            self.steps += run.steps;
            if run.failure.is_some() {
                self.first = run.failure;
                self.pending.clear();
                return true;
            }
        }
        false
    }

    /// The smallest seed not in the prefix yet.
    fn watermark(&self) -> u64 {
        self.next
    }
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

/// The refine phase of a level whose hunt ended at its first failure
/// `first`, with `work` holding what the hunt swept: runs the seeds after
/// `first` in order on `vm` and returns the level's winner, the failure
/// with the fewest SAPs (the earlier seed on ties). Each run is cut at
/// the SAP that takes it past the best failure so far; the phase stops at
/// [`CANDIDATES`] failures that reached their assert, at the seed budget,
/// or once the level has swept its step budget.
fn refine(
    config: &PipelineConfig,
    vm: &mut Vm<'_>,
    first: Candidate,
    work: &mut LevelWork,
) -> Candidate {
    let step_budget = work.steps.saturating_mul(REFINE_FACTOR).max(REFINE_FLOOR);
    let mut best = first;
    work.failures = 1;
    for seed in first.seed + 1..config.seed_budget {
        if work.failures >= CANDIDATES || work.steps >= step_budget {
            break;
        }
        vm.set_sap_limit(best.stats.saps);
        let run = run_seed(first.stickiness, seed, vm, None);
        work.seeds += 1;
        work.steps += run.steps;
        match run.failure {
            Some(found) => {
                work.failures += 1;
                if found.stats.saps < best.stats.saps {
                    best = found;
                }
            }
            None => work.cuts += u64::from(vm.outcome() == Some(&Outcome::SapLimit)),
        }
    }
    vm.set_sap_limit(u64::MAX);
    best
}

/// Emits the per-level counters: what the sequential sweep runs for the
/// level, so any worker count produces the same values. Parallel
/// overshoot past the hunt's stop point is not counted here — it shows up
/// in the `explore.worker.seeds` histogram instead.
fn emit_level_counters(work: &LevelWork) {
    clap_obs::add("explore.levels", 1);
    clap_obs::add("explore.failures", work.failures);
    clap_obs::add("explore.seeds", work.seeds);
    clap_obs::add("explore.steps", work.steps);
    clap_obs::add("explore.cuts", work.cuts);
}

/// The engine entry point backing [`Pipeline::record_failure`]. One
/// thread scope spans the whole stickiness loop: the pool (if any level
/// goes parallel) is spawned once, parked between levels, and shut down
/// on the way out — never respawned per level. The first level whose hunt
/// fails is refined on the caller's scratch VM, and its winner re-run
/// there with the recorders.
pub(crate) fn record_failure(
    pipeline: &Pipeline,
    config: &PipelineConfig,
) -> Result<RecordedFailure, PipelineError> {
    let _span = clap_obs::span("record");
    let start = Instant::now();
    let requested = effective_workers(config.explore_workers);
    std::thread::scope(|scope| {
        let mut pool: Option<WorkerPool> = None;
        let mut scratch: Option<Vm<'_>> = None;
        let mut result = Err(PipelineError::NoFailureFound);
        for &stickiness in &config.stickiness {
            let hunt = explore_level(
                scope,
                pipeline,
                config,
                stickiness,
                requested,
                &mut pool,
                &mut scratch,
            );
            let mut work = LevelWork {
                seeds: hunt.watermark(),
                steps: hunt.steps,
                ..LevelWork::default()
            };
            let Some(first) = hunt.first else {
                emit_level_counters(&work);
                continue;
            };
            let vm = scratch.get_or_insert_with(|| pristine_vm(pipeline, config));
            let best = refine(config, vm, first, &mut work);
            emit_level_counters(&work);
            result = record_selected(pipeline, config, vm, &best).map(|mut recorded| {
                recorded.record_time = start.elapsed();
                recorded
            });
            break;
        }
        if let Some(pool) = &pool {
            pool.shutdown();
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::{chunk_size, Candidate, SeedRun, Watermark};
    use clap_ir::AssertId;
    use clap_vm::ExecStats;

    #[test]
    fn profile_contention_covers_worker_wall_and_renders() {
        let pipeline = crate::Pipeline::from_source(
            "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost update\"); }",
        )
        .unwrap();
        let mut config = crate::PipelineConfig::new(clap_vm::MemModel::Sc);
        config.seed_budget = 500;
        config.explore_workers = 2;
        let profile = super::profile_contention(&pipeline, &config, 1.0);
        assert_eq!(profile.requested_workers, 2);
        assert_eq!(profile.workers.len(), 2);
        for w in &profile.workers {
            // The five categories must reconstruct the worker's wall time:
            // idle is the clamped remainder and overrun the clamped-away
            // excess, so accounted + idle ≥ wall with the overrun bounding
            // how far it exceeds it.
            let sum = w.accounted() + w.idle;
            assert!(
                sum >= w.wall,
                "worker {}: categories sum {sum:?} vs wall {:?}",
                w.worker,
                w.wall
            );
            assert_eq!(
                sum,
                w.wall + w.overrun,
                "overrun must be exactly the over-accounted excess"
            );
        }
        assert!(!profile.production_reason.is_empty());
        let table = profile.render_table();
        assert!(table.contains("worker"), "header row: {table}");
        assert!(table.contains("total"), "total row: {table}");
        assert!(table.contains("over_us"), "overrun column: {table}");
        if !profile.production_parallel {
            assert!(
                table.contains("NOTE: profiled path diverges"),
                "divergence label: {table}"
            );
        }
        assert!(!profile.dominant_category().is_empty());
    }

    fn pass(steps: u64) -> SeedRun {
        SeedRun {
            steps,
            failure: None,
        }
    }

    fn fail(seed: u64, steps: u64) -> SeedRun {
        let stats = ExecStats {
            steps,
            ..ExecStats::default()
        };
        SeedRun {
            steps,
            failure: Some(Candidate {
                seed,
                stickiness: 0.9,
                assert: AssertId(0),
                stats,
            }),
        }
    }

    #[test]
    fn watermark_tracks_contiguous_prefix() {
        let mut w = Watermark::default();
        assert_eq!(w.watermark(), 0);
        w.complete(1, pass(10));
        w.complete(2, pass(20));
        assert_eq!(w.watermark(), 0, "seed 0 still in flight");
        assert_eq!(w.steps, 0, "only the prefix's steps count");
        w.complete(0, pass(1));
        assert_eq!((w.watermark(), w.steps), (3, 31));
        w.complete(5, pass(500));
        assert_eq!(w.watermark(), 3);
        w.complete(4, pass(400));
        w.complete(3, pass(300));
        assert_eq!((w.watermark(), w.steps), (6, 1231));
    }

    #[test]
    fn watermark_starting_at_skips_probe_prefix() {
        // The calibration probe completes seeds 0..32 in order; the pool
        // reports the rest in any order and continues the same prefix.
        let mut w = Watermark::default();
        for seed in 0..32 {
            w.complete(seed, pass(1));
        }
        assert_eq!(w.watermark(), 32);
        w.complete(33, pass(1));
        assert_eq!(w.watermark(), 32);
        w.complete(32, pass(1));
        assert_eq!((w.watermark(), w.steps), (34, 34));
    }

    #[test]
    fn watermark_ends_the_hunt_at_its_first_failure() {
        // Seeds 1 and 3 fail and arrive first; the hunt ends at seed 1
        // once seed 0 is in, and seeds past it are not counted.
        let mut w = Watermark::default();
        assert!(!w.complete(3, fail(3, 30)));
        assert!(!w.complete(1, fail(1, 10)));
        assert!(w.first.is_none(), "seed 0 still in flight");
        assert!(w.complete(0, pass(1)));
        assert!(w.complete(2, pass(20)), "overshoot is ignored");
        assert_eq!((w.watermark(), w.steps), (2, 11));
        assert_eq!(w.first.map(|f| f.seed), Some(1));
    }

    #[test]
    fn chunk_size_adapts_to_budget_and_workers() {
        assert_eq!(chunk_size(0, 4), 1, "empty budget still claims minimally");
        assert_eq!(chunk_size(100, 4), 1, "small budgets stay fine-grained");
        assert_eq!(chunk_size(100_000, 4), 390);
        assert_eq!(chunk_size(1_000_000, 4), 1024, "capped for tail balance");
    }
}
