//! The generate-and-validate driver (§4.3).
//!
//! One generator enumerates CSP sets of increasing size on the calling
//! thread and hands over each candidate schedule with its verdict, read
//! off the walk that pruned the candidate's prefixes (see
//! [`Generator::run`]). A rung answers with its first good candidate in
//! generation order, so every run that finds a schedule finds the same
//! one. Exhausting each preemption bound before the next makes the first
//! hit a **minimal-context-switch** reproduction.

use crate::gen::{for_each_csp_set, preemption_point_count, Generator};
use clap_constraints::{ConstraintSystem, Schedule, Witness};
use clap_ir::Program;
use std::time::{Duration, Instant};

/// Generate-and-validate search configuration.
///
/// The wall-clock budget is a [`Duration`], anchored when
/// [`solve_parallel`] is entered — not when the config is built — so time
/// spent recording or symbolically executing never eats the solve budget.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Unused: the search validates each candidate on the calling thread
    /// as it is generated, and nothing reads this field. It remains so
    /// that code which still assigns it keeps compiling.
    pub workers: usize,
    /// Smallest preemption bound to try. A portfolio that already
    /// exhausted bounds `0..=k` cleanly escalates with `min_cs = k + 1`
    /// instead of re-enumerating the lower levels.
    pub min_cs: usize,
    /// Largest preemption bound to try.
    pub max_cs: usize,
    /// Stop after this many validated schedules at one preemption bound.
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
    /// Candidate schedules generated, each validated as it came.
    pub generated: u64,
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

/// The outcome of the generate-and-validate search.
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

/// Runs the §4.3 search: rungs `min_cs..=max_cs` in order over one
/// generator, each candidate judged as it is generated. The first rung
/// with a good candidate answers with its first; a rung stops at
/// `stop_after_good` of them. A truncated rung ends the ladder as a
/// budget stop; a ladder that runs out of rungs is an exhaustion,
/// complete when it covered every preemption point.
pub fn solve_parallel(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: ParallelConfig,
) -> ParallelOutcome {
    let deadline = config.timeout.map(|t| Instant::now() + t);
    let stop_after_good = config.stop_after_good.max(1) as u64;
    let mut generator = Generator::new(program, system, MAX_GENERATED_PER_LEVEL);
    generator.set_node_budget(MAX_NODES_PER_LEVEL);
    generator.set_deadline(deadline);
    let mut stats = ParallelStats {
        cs_bound: config.min_cs,
        ..ParallelStats::default()
    };
    for c in config.min_cs..=config.max_cs {
        stats.cs_bound = c;
        generator.reset_counters();
        let mut first: Option<(Schedule, Witness)> = None;
        let mut good = 0u64;
        let mut late = false;
        let exhausted_sets = for_each_csp_set(system, c, MAX_SETS_PER_LEVEL, &mut |set| {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                late = true;
                return false;
            }
            generator.run(set, &mut |order, verdict| {
                if let Ok(witness) = verdict {
                    good += 1;
                    if first.is_none() {
                        let schedule = Schedule {
                            order: order.to_vec(),
                        };
                        first = Some((schedule, witness));
                    }
                }
                good < stop_after_good
            })
        });
        stats.generated += generator.generated();
        stats.good += good;
        // Either stopped on purpose (fine) or a cap fired.
        let capped = !exhausted_sets
            || generator.hit_budget()
            || generator.generated() >= MAX_GENERATED_PER_LEVEL;
        stats.truncated |= late || (capped && good < stop_after_good);
        if let Some((schedule, witness)) = first {
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

/// Reports the search effort (Table 3 columns) to the metrics stream.
fn emit_stats(stats: &ParallelStats) {
    clap_obs::add("parallel.generated", stats.generated);
    clap_obs::add("parallel.good", stats.good);
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
    use clap_constraints::validate;
    use clap_symex::failing_trace;
    use clap_vm::MemModel;

    /// The search spelled out: rungs in order, CSP sets in order, each
    /// set's candidates in generation order, each judged by `validate` as
    /// it comes; the first valid one wins. Returns it with the number of
    /// candidates validated. (It does not model truncation: the traces
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
                generator.run(set, &mut |order, _| {
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

    /// Solves rungs `min_cs..=max_cs` and holds the search to the
    /// reference loop: the same schedule, and one candidate generated per
    /// candidate the reference validated.
    fn check_rungs(
        name: &str,
        src: &str,
        model: MemModel,
        max_seed: u64,
        rungs: &[(usize, usize)],
    ) {
        let (program, trace, _) = failing_trace(src, model, max_seed);
        let system = ConstraintSystem::build(&program, &trace, model);
        for &(min_cs, max_cs) in rungs {
            let config = ParallelConfig {
                min_cs,
                max_cs,
                ..ParallelConfig::default()
            };
            let what = format!("{name} rungs {min_cs}..={max_cs}");
            let (expected, validated) = reference(&program, &system, &config);
            let outcome = solve_parallel(&program, &system, config);
            let stats = outcome.stats();
            assert!(!stats.truncated, "{what}: {outcome:?}");
            assert_eq!(stats.generated, validated, "{what}");
            assert_eq!(
                outcome.schedule().map(|s| &s.order),
                expected.as_ref().map(|s| &s.order),
                "{what}: the first valid candidate in generation order"
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
        // A capacity-0 `try_send`'s result is unknown on every prefix, so
        // each of its candidates is validated from scratch.
        check_rungs(
            "rendezvous try_send",
            "global int a[2]; chan c(0);
             fn w() { let ok: int = try_send(c, 5); a[ok] = 1; }
             fn r() { let v: int = recv(c); }
             fn main() { let u: thread = fork r(); let t: thread = fork w();
                         let x: int = a[1];
                         if (x == 1) { assert(x == 0, \"saw the store\"); }
                         join t; join u; }",
            MemModel::Sc,
            2000,
            &[(0, 1), (2, 3)],
        );
    }

    #[test]
    fn one_worker_validates_in_generation_order_workloads() {
        // chan_fanin's trace exhausts rungs 0..=1 and finds in 2..=3, the
        // way the portfolio's ladder climbs them. actor_pingpong's
        // rendezvous sends are assumed to complete on a prefix, so its
        // candidates are validated from scratch.
        for (name, rungs) in [
            ("chan_fanin", &[(0, 1), (2, 3)][..]),
            ("sim_race", &[(0, 1)][..]),
            ("dekker", &[(0, 1)][..]),
            ("actor_pingpong", &[(0, 1), (2, 3)][..]),
        ] {
            let w = clap_workloads::by_name(name).expect("workload exists");
            check_rungs(name, &w.source, w.model, w.seed_budget, rungs);
        }
    }
}
