//! The parallel generate-and-validate driver (§4.3).
//!
//! One producer enumerates CSP sets of increasing size and generates the
//! candidate schedules for each; a pool of workers validates candidates
//! concurrently ("each single schedule generation and validation is
//! independent and fast"). With one worker on one core the producer
//! validates each candidate itself, in generation order. Either way a
//! rung answers with its good candidates of lowest generation index, so
//! the schedule found does not depend on the worker count or on thread
//! timing. Exhausting each preemption bound before the next makes the
//! first hit a **minimal-context-switch** reproduction.

use crate::gen::{for_each_csp_set, preemption_point_count, Generator};
use clap_constraints::{ConstraintSystem, Schedule, Walk, Witness};
use clap_ir::Program;
use clap_symex::SapId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Parallel-search configuration.
///
/// The wall-clock budget is a [`Duration`], anchored when
/// [`solve_parallel`] is entered — not when the config is built — so time
/// spent recording or symbolically executing never eats the solve budget.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Validation workers (0 = one per available core, minus one for the
    /// producer). One worker in a process that may run on one core only
    /// validates on the producer thread itself, with no pool.
    pub workers: usize,
    /// Smallest preemption bound to try. A portfolio that already
    /// exhausted bounds `0..=k` cleanly escalates with `min_cs = k + 1`
    /// instead of re-enumerating the lower levels.
    pub min_cs: usize,
    /// Largest preemption bound to try.
    pub max_cs: usize,
    /// Stop after this many validated schedules (the paper typically
    /// finds several before the stop signal lands).
    pub stop_after_good: usize,
    /// Wall-clock budget for this solve call (`None` = unbounded).
    pub timeout: Option<Duration>,
}

/// Cap on generated schedules per preemption level.
const MAX_GENERATED_PER_LEVEL: u64 = 2_000_000;
/// Cap on CSP sets per level.
const MAX_SETS_PER_LEVEL: u64 = 200_000;
/// Cap on generator DFS nodes per level; bounds pruned searches that
/// rarely complete a schedule.
const MAX_NODES_PER_LEVEL: u64 = 50_000_000;

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 0,
            min_cs: 0,
            max_cs: 3,
            stop_after_good: 1,
            timeout: None,
        }
    }
}

/// Search counters (Table 3 columns) plus the completeness signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Candidate schedules generated.
    pub generated: u64,
    /// Candidates validated (some may be skipped after the stop signal).
    pub validated: u64,
    /// Correct (bug-reproducing) schedules found.
    pub good: u64,
    /// The preemption bound at which the search stopped.
    pub cs_bound: usize,
    /// Whether any per-level cap (sets, schedules, DFS nodes) or the
    /// deadline cut the enumeration short.
    pub truncated: bool,
    /// Whether the search provably covered the **entire** schedule space:
    /// nothing was truncated and the preemption ladder reached the number
    /// of distinct preemption points in the trace. Only an
    /// [`ParallelOutcome::Exhausted`] with `complete == true` is a
    /// certificate of unsatisfiability; an incomplete exhaustion merely
    /// says no schedule exists within the searched bounds.
    pub complete: bool,
}

/// The outcome of the parallel search.
#[derive(Debug)]
pub enum ParallelOutcome {
    /// At least one schedule reproduces the bug; the first one found at
    /// the smallest preemption bound is returned.
    Found {
        /// The bug-reproducing schedule.
        schedule: Schedule,
        /// Its witness.
        witness: Witness,
        /// Preemptive context switches of the schedule (§4.2 metric).
        cs: usize,
        /// Effort counters.
        stats: ParallelStats,
    },
    /// Every preemption bound from `min_cs` up to `max_cs` was exhausted
    /// with no hit. **This is not an unsatisfiability proof unless
    /// [`ParallelStats::complete`] is set**: a capped ladder only shows
    /// that no schedule exists within the searched preemption bounds.
    Exhausted(ParallelStats),
    /// A budget (deadline, set cap, generation cap) stopped the search.
    Budget(ParallelStats),
}

impl ParallelOutcome {
    /// The found schedule, if any.
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            ParallelOutcome::Found { schedule, .. } => Some(schedule),
            _ => None,
        }
    }

    /// The effort counters regardless of outcome.
    pub fn stats(&self) -> ParallelStats {
        match self {
            ParallelOutcome::Found { stats, .. }
            | ParallelOutcome::Exhausted(stats)
            | ParallelOutcome::Budget(stats) => *stats,
        }
    }
}

/// The number of cores this process may run on (its CPU affinity and
/// cgroup quota), read once: `available_parallelism` re-reads cgroup
/// quota files on every call (~10µs on some hosts).
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs the §4.3 parallel search.
///
/// When `workers` resolves to one and the process may run on one core
/// only, each rung's candidates are validated on the calling thread in
/// generation order, with no pool, channel or validator thread: a lone
/// validator would take them in that same order, so the outcome is the
/// same, and on one core it could only time-slice with the producer.
/// Otherwise a persistent pool validates, and on two or more cores the
/// producer generates while the validators validate; the pool returns
/// the same schedule, the lowest-index good candidate.
pub fn solve_parallel(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: ParallelConfig,
) -> ParallelOutcome {
    let cores = available_cores();
    let workers = if config.workers == 0 {
        cores.saturating_sub(1).max(1)
    } else {
        config.workers
    };
    solve_with(program, system, config, workers, workers == 1 && cores == 1)
}

/// [`solve_parallel`] with the worker count resolved and the validation
/// path chosen.
fn solve_with(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: ParallelConfig,
    workers: usize,
    in_place: bool,
) -> ParallelOutcome {
    let deadline = config.timeout.map(|t| Instant::now() + t);
    if in_place {
        let mut sink = InPlace {
            walk: Walk::new(program, system),
            scratch: Schedule {
                order: Vec::with_capacity(system.trace.sap_count()),
            },
            good: Vec::new(),
            validated: 0,
            stop_after_good: config.stop_after_good.max(1),
        };
        climb(system, &config, |c| {
            let (generated, truncated) = generate_rung(program, system, c, deadline, &mut sink);
            RungResult {
                generated,
                validated: std::mem::take(&mut sink.validated),
                good: std::mem::take(&mut sink.good),
                truncated,
            }
        })
    } else {
        solve_on_pool(program, system, &config, deadline, workers)
    }
}

/// What one rung produced, whichever path validated its candidates.
struct RungResult {
    /// Candidates the generator produced.
    generated: u64,
    /// Candidates validated.
    validated: u64,
    /// Valid schedules in generation order.
    good: Vec<(Schedule, Witness)>,
    /// Whether a cap or the deadline cut the rung short.
    truncated: bool,
}

/// The ladder's bookkeeping, shared by both validation paths: runs the
/// rungs `min_cs..=max_cs` through `run_rung` in order, sums their effort,
/// and returns the first rung's first good schedule. A truncated rung
/// ends the ladder as a budget stop; a ladder that runs out of rungs is
/// an exhaustion, complete when it covered every preemption point.
fn climb(
    system: &ConstraintSystem<'_>,
    config: &ParallelConfig,
    mut run_rung: impl FnMut(usize) -> RungResult,
) -> ParallelOutcome {
    let mut stats = ParallelStats {
        cs_bound: config.min_cs,
        ..ParallelStats::default()
    };
    for c in config.min_cs..=config.max_cs {
        stats.cs_bound = c;
        let rung = run_rung(c);
        stats.generated += rung.generated;
        stats.validated += rung.validated;
        stats.truncated |= rung.truncated;
        stats.good += rung.good.len() as u64;
        if let Some((schedule, witness)) = rung.good.into_iter().next() {
            let cs = schedule.context_switches(system.trace);
            emit_stats(&stats);
            return ParallelOutcome::Found {
                schedule,
                witness,
                cs,
                stats,
            };
        }
        if stats.truncated {
            break;
        }
    }
    // A complete search must have started at bound 0, never truncated, and
    // reached a bound covering every preemption point of the trace.
    stats.complete =
        !stats.truncated && config.min_cs == 0 && config.max_cs >= preemption_point_count(system);
    emit_stats(&stats);
    if stats.truncated {
        ParallelOutcome::Budget(stats)
    } else {
        ParallelOutcome::Exhausted(stats)
    }
}

/// Where a rung's generated candidates go.
trait CandidateSink {
    /// Whether enough good schedules were found to stop the rung.
    fn stopped(&self) -> bool;

    /// Takes one candidate; `false` stops the rung.
    fn take(&mut self, order: &[SapId]) -> bool;

    /// Called once after the last candidate of a rung.
    fn flush(&mut self) {}
}

/// Generates rung `c`'s candidate schedules in generation order and hands
/// each to `sink` until it stops. Returns how many were generated and
/// whether a cap or the deadline cut the rung short; a stop the sink
/// asked for is not a truncation.
fn generate_rung(
    program: &Program,
    system: &ConstraintSystem<'_>,
    c: usize,
    deadline: Option<Instant>,
    sink: &mut impl CandidateSink,
) -> (u64, bool) {
    let mut generator = Generator::new(program, system, MAX_GENERATED_PER_LEVEL);
    generator.set_node_budget(MAX_NODES_PER_LEVEL);
    generator.set_deadline(deadline);
    let mut late = false;
    let exhausted_sets = for_each_csp_set(system, c, MAX_SETS_PER_LEVEL, &mut |set| {
        if sink.stopped() {
            return false;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            late = true;
            return false;
        }
        generator.run(set, &mut |order| !sink.stopped() && sink.take(order))
    });
    sink.flush();
    // Either stopped on purpose (fine) or a cap fired.
    let capped = !exhausted_sets
        || generator.hit_budget()
        || generator.generated() >= MAX_GENERATED_PER_LEVEL;
    let truncated = late || (capped && !sink.stopped());
    (generator.generated(), truncated)
}

/// Validates each candidate on the generating thread, as it is produced,
/// with one walk reset between candidates.
struct InPlace<'a> {
    walk: Walk<'a>,
    scratch: Schedule,
    good: Vec<(Schedule, Witness)>,
    validated: u64,
    stop_after_good: usize,
}

impl CandidateSink for InPlace<'_> {
    fn stopped(&self) -> bool {
        self.good.len() >= self.stop_after_good
    }

    fn take(&mut self, order: &[SapId]) -> bool {
        self.validated += 1;
        self.scratch.order.clear();
        self.scratch.order.extend_from_slice(order);
        if let Ok(witness) = self.walk.validate(&self.scratch) {
            self.good.push((self.scratch.clone(), witness));
        }
        !self.stopped()
    }
}

/// A batch of candidates: the generation index of the first, how many
/// there are, and their orders back to back.
type Batch = (u64, usize, Vec<SapId>);

/// One preemption-bound rung handed to the persistent validator pool.
/// Workers take batches from `rx` in turn, validate candidates, and send
/// one `()` on `done_tx` when the rung's channel closes — the producer
/// counts those to detect rung completion (the pool itself never joins
/// between rungs).
///
/// The rung's answer does not depend on which validator finishes first:
/// it is the `stop_after_good` good candidates of lowest generation
/// index, the ones a lone validator taking candidates in order would
/// find. `cutoff` is the highest index among those found so far, once
/// there are that many; a candidate past it can no longer be among them,
/// so validators skip it and the producer stops generating. `cutoff`
/// only falls and publishes nothing else (`good` is read under its
/// mutex), so it is read relaxed: a stale value is higher and costs only
/// extra validation.
struct Rung {
    rx: Mutex<Receiver<Batch>>,
    cutoff: AtomicU64,
    validated: AtomicU64,
    /// Good candidates with their generation indices, at most
    /// `stop_after_good` of the lowest once `cutoff` is set.
    good: Mutex<Vec<(u64, Schedule, Witness)>>,
    stop_after_good: usize,
    done_tx: SyncSender<()>,
}

impl Rung {
    /// Whether the rung's answer is settled up to `cutoff`.
    fn settled(&self) -> bool {
        self.cutoff.load(Ordering::Relaxed) != u64::MAX
    }

    /// Records good candidate `index` and lowers `cutoff` once the rung
    /// holds `stop_after_good` of them.
    fn found(&self, index: u64, schedule: Schedule, witness: Witness) {
        let mut good = self.good.lock().expect("good lock");
        good.push((index, schedule, witness));
        if good.len() >= self.stop_after_good {
            good.sort_unstable_by_key(|g| g.0);
            good.truncate(self.stop_after_good);
            self.cutoff
                .store(good[self.stop_after_good - 1].0, Ordering::Relaxed);
        }
    }
}

struct ValidatorPoolState {
    epoch: u64,
    rung: Option<Arc<Rung>>,
    shutdown: bool,
}

struct ValidatorPool {
    state: Mutex<ValidatorPoolState>,
    cv: Condvar,
}

/// Every emitted order is a full permutation of the trace's SAPs, so a
/// batch of k orders is one flat buffer of k·n ids — one allocation and
/// one channel hand-off per batch instead of per candidate.
const BATCH_ORDERS: usize = 64;

/// Batches candidates onto a rung's channel for the validator pool,
/// numbering them in generation order.
struct PoolFeed<'r> {
    rung: &'r Rung,
    tx: SyncSender<Batch>,
    batch: Vec<SapId>,
    batch_count: usize,
    /// Generation index of the batch's first candidate.
    batch_first: u64,
    n: usize,
}

impl PoolFeed<'_> {
    /// Sends the pending batch; `false` when every validator is gone.
    fn send(&mut self) -> bool {
        clap_obs::observe("parallel.batch_occupancy", self.batch_count as u64);
        let full = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH_ORDERS * self.n));
        let sent = self
            .tx
            .send((self.batch_first, self.batch_count, full))
            .is_ok();
        self.batch_first += self.batch_count as u64;
        self.batch_count = 0;
        sent
    }
}

impl CandidateSink for PoolFeed<'_> {
    fn stopped(&self) -> bool {
        self.rung.settled()
    }

    fn take(&mut self, order: &[SapId]) -> bool {
        self.batch.extend_from_slice(order);
        self.batch_count += 1;
        self.batch_count < BATCH_ORDERS || self.send()
    }

    fn flush(&mut self) {
        if self.batch_count > 0 {
            self.send();
        }
    }
}

/// Climbs the ladder with a pool of `workers` validator threads.
///
/// One validator pool serves the whole preemption ladder: workers are
/// spawned once, park on a condvar between rungs, and pick each rung up
/// by epoch — a per-rung scope would pay a full spawn/join cycle at every
/// bound even when a rung generated almost nothing.
fn solve_on_pool(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: &ParallelConfig,
    deadline: Option<Instant>,
    workers: usize,
) -> ParallelOutcome {
    let n = system.trace.sap_count();
    std::thread::scope(|scope| {
        let pool = Arc::new(ValidatorPool {
            state: Mutex::new(ValidatorPoolState {
                epoch: 0,
                rung: None,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        for _ in 0..workers {
            let pool = Arc::clone(&pool);
            scope.spawn(move || validator(program, system, &pool, n));
        }

        let outcome = climb(system, config, |c| {
            let (tx, rx) = sync_channel::<Batch>(64);
            let (done_tx, done_rx) = sync_channel::<()>(workers);
            let rung = Arc::new(Rung {
                rx: Mutex::new(rx),
                cutoff: AtomicU64::new(u64::MAX),
                validated: AtomicU64::new(0),
                good: Mutex::new(Vec::new()),
                stop_after_good: config.stop_after_good.max(1),
                done_tx,
            });
            {
                let mut st = pool.state.lock().expect("validator pool lock");
                st.epoch += 1;
                st.rung = Some(Arc::clone(&rung));
                drop(st);
                pool.cv.notify_all();
            }
            let mut feed = PoolFeed {
                rung: &rung,
                tx,
                batch: Vec::with_capacity(BATCH_ORDERS * n),
                batch_count: 0,
                batch_first: 0,
                n,
            };
            let (generated, truncated) = generate_rung(program, system, c, deadline, &mut feed);
            // Close the rung's channel, then wait for every worker's done
            // signal: completion is counted, not inferred from joins.
            drop(feed);
            for _ in 0..workers {
                let _ = done_rx.recv();
            }
            let mut good = std::mem::take(&mut *rung.good.lock().expect("good lock"));
            good.sort_unstable_by_key(|g| g.0);
            let good = good.into_iter().map(|(_, s, w)| (s, w)).collect();
            RungResult {
                generated,
                validated: rung.validated.load(Ordering::Relaxed),
                good,
                truncated,
            }
        });

        let mut st = pool.state.lock().expect("validator pool lock");
        st.shutdown = true;
        st.rung = None;
        drop(st);
        pool.cv.notify_all();
        outcome
    })
}

/// One validator thread: parks between rungs, validates every candidate
/// of the current rung up to its cutoff until its channel closes.
fn validator(program: &Program, system: &ConstraintSystem<'_>, pool: &ValidatorPool, n: usize) {
    let _span = clap_obs::span("parallel.validator");
    // The walk and the scratch survive every rung of the ladder.
    let mut walk = Walk::new(program, system);
    let mut scratch = Schedule {
        order: Vec::with_capacity(n),
    };
    let mut seen_epoch = 0u64;
    loop {
        let rung = {
            let mut st = pool.state.lock().expect("validator pool lock");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break Arc::clone(st.rung.as_ref().expect("epoch implies rung"));
                }
                st = pool.cv.wait(st).expect("validator pool lock");
            }
        };
        let rung_start = Instant::now();
        let mut busy = Duration::ZERO;
        let mut recv_wait = Duration::ZERO;
        let mut checked: u64 = 0;
        loop {
            // Time blocked on the producer: starved validators show up as
            // a high recv-wait share, distinguishing a generation-bound
            // rung from a validation-bound one in the contention picture.
            let t_wait = Instant::now();
            let batch = rung.rx.lock().expect("rung channel lock").recv();
            recv_wait += t_wait.elapsed();
            let Ok((first, count, flat)) = batch else {
                break;
            };
            let t = Instant::now();
            for i in 0..count {
                let index = first + i as u64;
                if index > rung.cutoff.load(Ordering::Relaxed) {
                    break; // the rest of the batch is later still
                }
                rung.validated.fetch_add(1, Ordering::Relaxed);
                checked += 1;
                scratch.order.clear();
                scratch.order.extend_from_slice(&flat[i * n..(i + 1) * n]);
                if let Ok(witness) = walk.validate(&scratch) {
                    rung.found(index, scratch.clone(), witness);
                }
            }
            busy += t.elapsed();
        }
        clap_obs::observe("parallel.validator.validated", checked);
        let wall = rung_start.elapsed().as_nanos().max(1) as u64;
        let busy_pct = 100 * busy.as_nanos() as u64 / wall;
        clap_obs::observe("parallel.validator.busy_pct", busy_pct);
        clap_obs::observe(
            "parallel.validator.recv_wait_us",
            recv_wait.as_micros() as u64,
        );
        let _ = rung.done_tx.send(());
    }
}

/// Reports the search effort (Table 3 columns) to the metrics stream.
fn emit_stats(stats: &ParallelStats) {
    clap_obs::add("parallel.generated", stats.generated);
    clap_obs::add("parallel.validated", stats.validated);
    clap_obs::add("parallel.good", stats.good);
    clap_obs::add(
        "parallel.rejected",
        stats.validated.saturating_sub(stats.good),
    );
    clap_obs::gauge(
        "parallel.cs_bound",
        i64::try_from(stats.cs_bound).unwrap_or(i64::MAX),
    );
    clap_obs::gauge("parallel.truncated", i64::from(stats.truncated));
    clap_obs::gauge("parallel.complete", i64::from(stats.complete));
}

/// `log10` of the worst-case number of schedules — the interleaving count
/// `(Σ nᵢ)! / Π (nᵢ!)` used for Table 3's "#worst" column.
pub fn worst_case_schedules_log10(system: &ConstraintSystem<'_>) -> f64 {
    fn log10_factorial(n: u64) -> f64 {
        (2..=n).map(|k| (k as f64).log10()).sum()
    }
    let total: u64 = system.trace.per_thread.iter().map(|t| t.len() as u64).sum();
    let mut v = log10_factorial(total);
    for t in &system.trace.per_thread {
        v -= log10_factorial(t.len() as u64);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::build_failure;
    use clap_constraints::validate;
    use clap_vm::MemModel;

    /// The one-worker contract spelled out: rungs in order, CSP sets in
    /// order, each set's candidates in generation order, each validated
    /// as it comes; the first valid one wins. Returns it with the number
    /// of candidates validated. (It does not model truncation: the traces
    /// below stay within every cap.)
    fn reference(
        program: &Program,
        system: &ConstraintSystem<'_>,
        config: &ParallelConfig,
    ) -> (Option<Schedule>, u64) {
        let mut validated = 0u64;
        for c in config.min_cs..=config.max_cs {
            let mut generator = Generator::new(program, system, MAX_GENERATED_PER_LEVEL);
            generator.set_node_budget(MAX_NODES_PER_LEVEL);
            let mut found = None;
            for_each_csp_set(system, c, MAX_SETS_PER_LEVEL, &mut |set| {
                generator.run(set, &mut |order| {
                    validated += 1;
                    let candidate = Schedule {
                        order: order.to_vec(),
                    };
                    if validate(program, system, &candidate).is_ok() {
                        found = Some(candidate);
                        return false;
                    }
                    true
                })
            });
            if found.is_some() {
                return (found, validated);
            }
        }
        (None, validated)
    }

    /// Solves rungs `min_cs..=max_cs` in place, with a lone pool
    /// validator and with two, and holds all three to the reference
    /// loop's schedule (the first two also to its validation count).
    fn check_rungs(
        name: &str,
        src: &str,
        model: MemModel,
        max_seed: u64,
        rungs: &[(usize, usize)],
    ) {
        let (program, trace) = build_failure(src, model, max_seed);
        let system = ConstraintSystem::build(&program, &trace, model);
        for &(min_cs, max_cs) in rungs {
            let config = |workers| ParallelConfig {
                workers,
                min_cs,
                max_cs,
                ..ParallelConfig::default()
            };
            let what = format!("{name} rungs {min_cs}..={max_cs}");
            let (expected, validated) = reference(&program, &system, &config(1));
            let one = solve_with(&program, &system, config(1), 1, true);
            let stats = one.stats();
            assert!(!stats.truncated, "{what}: {one:?}");
            assert_eq!(stats.validated, validated, "{what}");
            assert_eq!(
                one.schedule().map(|s| &s.order),
                expected.as_ref().map(|s| &s.order),
                "{what}: the first valid candidate in generation order"
            );
            if one.schedule().is_some() {
                assert_eq!(stats.generated, stats.validated, "{what}");
            }
            let lone = solve_with(&program, &system, config(1), 1, false);
            assert_eq!(lone.stats().validated, validated, "{what}: {lone:?}");
            assert_eq!(
                lone.schedule().map(|s| &s.order),
                expected.as_ref().map(|s| &s.order),
                "{what}: a lone pool validator takes candidates in order"
            );
            let two = solve_with(&program, &system, config(2), 2, false);
            assert_eq!(
                std::mem::discriminant(&two),
                std::mem::discriminant(&one),
                "{what}: {two:?} against {one:?}"
            );
            assert_eq!(
                two.schedule().map(|s| &s.order),
                expected.as_ref().map(|s| &s.order),
                "{what}: two validators return the lowest-index good candidate"
            );
        }
    }

    #[test]
    fn one_worker_validates_in_generation_order_lost_update() {
        check_rungs(
            "lost update",
            "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }",
            MemModel::Sc,
            500,
            &[(0, 1)],
        );
    }

    #[test]
    fn one_worker_validates_in_generation_order_workloads() {
        // chan_fanin's trace exhausts rungs 0..=1 and finds in 2..=3, the
        // way the portfolio's ladder climbs them.
        for (name, rungs) in [
            ("chan_fanin", &[(0, 1), (2, 3)][..]),
            ("sim_race", &[(0, 1)][..]),
            ("dekker", &[(0, 1)][..]),
        ] {
            let w = clap_workloads::by_name(name).expect("workload exists");
            check_rungs(name, &w.source, w.model, w.seed_budget, rungs);
        }
    }
}
