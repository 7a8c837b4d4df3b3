//! The eleven workloads of the paper's evaluation (§6, Tables 1–3) as DSL
//! programs, plus the Figure 2 running example.
//!
//! Each [`Workload`] carries its program source, the memory model under
//! which its bug manifests, and exploration hints (seed budget and
//! scheduler stickiness values) for triggering the failure — the
//! reproduction's substitute for the paper's manually inserted timing
//! delays.
//!
//! Sizes are scaled to interpreter-friendly values; EXPERIMENTS.md records
//! the scaled-vs-paper numbers.

pub mod programs;

use clap_ir::{parse, Program};
use clap_vm::{FifoScheduler, MemModel, NullMonitor, Outcome, RandomScheduler, Vm};

/// One evaluated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name (the paper's Table 1 row label).
    pub name: &'static str,
    /// The paper subject it models.
    pub paper_subject: &'static str,
    /// DSL source.
    pub source: String,
    /// Memory model under which the bug manifests.
    pub model: MemModel,
    /// Seeds to sweep per stickiness when hunting the failure.
    pub seed_budget: u64,
    /// Scheduler stickiness values to sweep.
    pub stickiness: &'static [f64],
}

impl Workload {
    /// Parses the workload's program.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source is invalid (a bug in this crate).
    pub fn program(&self) -> Program {
        parse(&self.source).expect("workload sources are valid")
    }

    /// Source line count (the Table 1 `LOC` column analogue).
    pub fn loc(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

const DEFAULT_STICKINESS: &[f64] = &[0.9, 0.7, 0.5];
const RELAXED_STICKINESS: &[f64] = &[0.9, 0.7, 0.5, 0.3];

/// Builds the full workload suite in the paper's Table 1 order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "sim_race",
            paper_subject: "sim_race (75 LoC racey toy)",
            source: programs::sim_race(),
            model: MemModel::Sc,
            seed_budget: 2_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "pbzip2",
            paper_subject: "pbzip2-0.9.4 order violation",
            source: programs::pbzip2(2),
            model: MemModel::Sc,
            seed_budget: 2_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "aget",
            paper_subject: "aget-0.4.1 progress race",
            source: programs::aget(3),
            model: MemModel::Sc,
            seed_budget: 2_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "bbuf",
            paper_subject: "shared bounded buffer (if-instead-of-while)",
            source: programs::bbuf(),
            model: MemModel::Sc,
            seed_budget: 4_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "swarm",
            paper_subject: "swarm parallel sort",
            source: programs::swarm(4),
            model: MemModel::Sc,
            seed_budget: 2_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "pfscan",
            paper_subject: "pfscan parallel file scanner",
            source: programs::pfscan(8),
            model: MemModel::Sc,
            seed_budget: 4_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "apache",
            paper_subject: "apache-2.2.9 bug #45605",
            source: programs::apache(2, 2),
            model: MemModel::Sc,
            seed_budget: 6_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "racey",
            paper_subject: "racey deterministic-replay stress benchmark",
            source: baked_racey(6),
            model: MemModel::Sc,
            seed_budget: 2_000,
            stickiness: DEFAULT_STICKINESS,
        },
        Workload {
            name: "bakery",
            paper_subject: "Lamport bakery under relaxed memory",
            source: programs::bakery(3),
            model: MemModel::Pso,
            seed_budget: 20_000,
            stickiness: RELAXED_STICKINESS,
        },
        Workload {
            name: "dekker",
            paper_subject: "Dekker under relaxed memory",
            source: programs::dekker(2),
            model: MemModel::Tso,
            seed_budget: 20_000,
            stickiness: RELAXED_STICKINESS,
        },
        Workload {
            name: "peterson",
            paper_subject: "Peterson under relaxed memory",
            source: programs::peterson(2),
            model: MemModel::Tso,
            seed_budget: 20_000,
            stickiness: RELAXED_STICKINESS,
        },
    ]
}

/// The message-passing workload family: bounded channels and actor
/// mailboxes. Not part of the paper's Table 1 (which predates the
/// channel primitives) — this is the scenario-diversity rung on top of
/// it, and every member is oracle-certified by the differential suite.
pub fn channels() -> Vec<Workload> {
    let chan = |name: &'static str, subject: &'static str, source: String| Workload {
        name,
        paper_subject: subject,
        source,
        model: MemModel::Sc,
        seed_budget: 4_000,
        stickiness: DEFAULT_STICKINESS,
    };
    vec![
        chan(
            "chan_lost_close",
            "lost-close race (dropped send, drained recv)",
            programs::chan_lost_close(),
        ),
        chan(
            "chan_pipeline",
            "two-stage bounded-channel pipeline",
            programs::chan_pipeline(),
        ),
        chan(
            "chan_workqueue",
            "bounded work-queue with try_send shedding",
            programs::chan_workqueue(),
        ),
        chan(
            "chan_fanin",
            "fan-in aggregator with racing try_recv poll",
            programs::chan_fanin(),
        ),
        chan(
            "actor_pingpong",
            "actor ping-pong rally with mailbox config",
            programs::actor_pingpong(),
        ),
    ]
}

/// The lock-free workload family: classic non-blocking idioms whose
/// publication discipline is too weak, so they fail only under the C11
/// model (atomics are seq_cst fences under SC/TSO/PSO). Each reproduces
/// end to end through the constraint pipeline.
pub fn lockfree() -> Vec<Workload> {
    let lf = |name: &'static str, subject: &'static str, source: String| Workload {
        name,
        paper_subject: subject,
        source,
        model: MemModel::C11,
        seed_budget: 20_000,
        stickiness: RELAXED_STICKINESS,
    };
    vec![
        lf(
            "treiber_stack",
            "Treiber stack with relaxed CAS publication",
            programs::treiber_stack(),
        ),
        lf(
            "spsc_ring",
            "SPSC ring buffer with relaxed head publish",
            programs::spsc_ring(),
        ),
        lf(
            "seqlock",
            "seqlock with relaxed sequence bumps (torn read)",
            programs::seqlock(),
        ),
    ]
}

/// Looks up a workload by name, searching Table 1 first, then the
/// channel family, then the lock-free family.
pub fn by_name(name: &str) -> Option<Workload> {
    all()
        .into_iter()
        .chain(channels())
        .chain(lockfree())
        .find(|w| w.name == name)
}

/// The heavier workload variants used for the Table 2 overhead
/// measurement: same programs, scaled to make instrumentation cost
/// measurable (the paper measures full production runs, not the tiny
/// failure-triggering ones).
pub fn table2_suite() -> Vec<Workload> {
    let heavy =
        |name: &'static str, subject: &'static str, source: String, model: MemModel| Workload {
            name,
            paper_subject: subject,
            source,
            model,
            seed_budget: 1,
            stickiness: DEFAULT_STICKINESS,
        };
    vec![
        heavy(
            "sim_race",
            "sim_race scaled",
            programs::sim_race_heavy(400),
            MemModel::Sc,
        ),
        heavy(
            "pbzip2",
            "pbzip2 scaled",
            programs::pbzip2(200),
            MemModel::Sc,
        ),
        heavy("aget", "aget scaled", programs::aget(500), MemModel::Sc),
        heavy(
            "bbuf",
            "bounded buffer scaled (correct)",
            programs::bbuf_heavy(300),
            MemModel::Sc,
        ),
        heavy("swarm", "swarm scaled", programs::swarm(32), MemModel::Sc),
        heavy(
            "pfscan",
            "pfscan scaled",
            programs::pfscan(1000),
            MemModel::Sc,
        ),
        heavy(
            "apache",
            "apache scaled",
            programs::apache(300, 2),
            MemModel::Sc,
        ),
        heavy(
            "racey",
            "racey scaled",
            programs::racey_heavy(1500),
            MemModel::Sc,
        ),
        heavy(
            "bakery",
            "bakery scaled",
            programs::bakery(4),
            MemModel::Pso,
        ),
        heavy(
            "dekker",
            "dekker scaled",
            programs::dekker(150),
            MemModel::Tso,
        ),
        heavy(
            "peterson",
            "peterson scaled",
            programs::peterson(150),
            MemModel::Tso,
        ),
    ]
}

/// The Figure 2 running example (not part of Table 1; used by the figure
/// binaries).
pub fn figure2() -> Workload {
    Workload {
        name: "figure2",
        paper_subject: "Figure 2 running example",
        source: programs::figure2(),
        model: MemModel::Pso,
        seed_budget: 20_000,
        stickiness: RELAXED_STICKINESS,
    }
}

/// Builds racey with the reference signature of a serial execution baked
/// in, so racy interleavings diverge from it and fail the assert.
fn baked_racey(iters: u32) -> String {
    let reference = parse(&programs::racey_reference(iters)).expect("racey parses");
    let mut vm = Vm::new(&reference, MemModel::Sc);
    let outcome = vm.run(&mut FifoScheduler, &mut NullMonitor);
    // The serial run hits the placeholder assert (s == 0 is false) right
    // at the end — by then the signature array is final.
    debug_assert!(matches!(
        outcome,
        Outcome::AssertFailed { .. } | Outcome::Completed
    ));
    let sig_global = reference.global_by_name("sig").expect("sig exists");
    let mut s: i64 = 0;
    for i in 0..8 {
        s = s
            .wrapping_mul(17)
            .wrapping_add(vm.read_global(sig_global, i));
    }
    programs::racey(iters, s)
}

/// A found failing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailingRun {
    /// The random-scheduler seed.
    pub seed: u64,
    /// The stickiness (×1000, to stay `Eq`) it was found at.
    pub stickiness_millis: u32,
}

impl FailingRun {
    /// The stickiness as a float.
    pub fn stickiness(&self) -> f64 {
        self.stickiness_millis as f64 / 1000.0
    }
}

/// Sweeps seeds/stickiness until the workload's assert fails.
pub fn find_failure(workload: &Workload) -> Option<FailingRun> {
    let program = workload.program();
    for &stick in workload.stickiness {
        for seed in 0..workload.seed_budget {
            let mut vm = Vm::new(&program, workload.model);
            vm.set_step_limit(2_000_000);
            let mut sched = RandomScheduler::with_stickiness(seed, stick);
            if vm.run(&mut sched, &mut NullMonitor).is_failure() {
                return Some(FailingRun {
                    seed,
                    stickiness_millis: (stick * 1000.0) as u32,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_parse_and_check() {
        let suite = all();
        assert_eq!(suite.len(), 11);
        for w in &suite {
            let program = w.program();
            assert!(program.functions.len() >= 2, "{} has workers", w.name);
            assert!(w.loc() > 10, "{} is a real program", w.name);
        }
        figure2().program();
    }

    #[test]
    fn thread_counts_match_paper_shape() {
        // Table 1: sim_race 5 threads, swarm/pfscan/racey 3, bakery 4(+1),
        // dekker/peterson 3. Count = forks in main + 1.
        let counts: Vec<(usize, &str)> = all()
            .iter()
            .map(|w| {
                let forks = w.source.matches("fork ").count();
                (forks + 1, w.name)
            })
            .collect();
        let get = |name: &str| counts.iter().find(|(_, n)| *n == name).unwrap().0;
        assert_eq!(get("sim_race"), 5);
        assert_eq!(get("swarm"), 3);
        assert_eq!(get("pfscan"), 3);
        assert_eq!(get("racey"), 3);
        assert_eq!(get("bakery"), 4);
        assert_eq!(get("dekker"), 3);
        assert_eq!(get("peterson"), 3);
    }

    #[test]
    fn channel_workloads_parse_and_declare_channels_or_mailboxes() {
        let suite = channels();
        assert_eq!(suite.len(), 5);
        for w in &suite {
            let program = w.program();
            assert!(
                !program.chans.is_empty() || w.source.contains("mailbox"),
                "{} exercises message passing",
                w.name
            );
            assert!(by_name(w.name).is_some(), "{} resolves by name", w.name);
        }
    }

    #[test]
    fn channel_workload_failures_are_findable() {
        for w in &channels() {
            assert!(find_failure(w).is_some(), "{} failure not found", w.name);
        }
    }

    #[test]
    fn lockfree_workloads_parse_and_declare_atomics() {
        let suite = lockfree();
        assert_eq!(suite.len(), 3);
        for w in &suite {
            let program = w.program();
            assert!(
                program.globals.iter().any(|g| g.atomic),
                "{} declares atomics",
                w.name
            );
            assert_eq!(w.model, MemModel::C11);
            assert!(by_name(w.name).is_some(), "{} resolves by name", w.name);
        }
    }

    #[test]
    fn lockfree_failures_are_findable_only_under_c11() {
        for w in &lockfree() {
            // Under SC the atomics are seq_cst fences: the weak
            // publication cannot be observed.
            let program = w.program();
            for seed in 0..400 {
                let mut vm = Vm::new(&program, MemModel::Sc);
                vm.set_step_limit(2_000_000);
                let mut sched = RandomScheduler::with_stickiness(seed, 0.5);
                let outcome = vm.run(&mut sched, &mut NullMonitor);
                assert!(
                    !outcome.is_failure(),
                    "{} must be correct under SC (seed {seed})",
                    w.name
                );
            }
            assert!(
                find_failure(w).is_some(),
                "{} failure not found under C11",
                w.name
            );
        }
    }

    #[test]
    fn sc_workload_failures_are_findable() {
        for name in ["sim_race", "aget", "swarm", "pfscan", "racey"] {
            let w = by_name(name).unwrap();
            assert!(find_failure(&w).is_some(), "{name} failure not found");
        }
    }

    #[test]
    fn sync_heavy_workload_failures_are_findable() {
        for name in ["pbzip2", "bbuf", "apache"] {
            let w = by_name(name).unwrap();
            assert!(find_failure(&w).is_some(), "{name} failure not found");
        }
    }

    #[test]
    fn mutual_exclusion_workloads_fail_only_under_relaxed_models() {
        for name in ["dekker", "peterson"] {
            let w = by_name(name).unwrap();
            // Safe under SC…
            let program = w.program();
            for seed in 0..400 {
                let mut vm = Vm::new(&program, MemModel::Sc);
                vm.set_step_limit(2_000_000);
                let mut sched = RandomScheduler::with_stickiness(seed, 0.5);
                let outcome = vm.run(&mut sched, &mut NullMonitor);
                assert!(
                    !outcome.is_failure(),
                    "{name} must be correct under SC (seed {seed})"
                );
            }
            // …broken under its relaxed model.
            assert!(
                find_failure(&w).is_some(),
                "{name} must fail under {:?}",
                w.model
            );
        }
    }

    #[test]
    fn bakery_fails_under_pso() {
        let w = by_name("bakery").unwrap();
        assert!(find_failure(&w).is_some(), "bakery must fail under PSO");
    }

    #[test]
    fn table2_suite_parses_and_is_heavier() {
        let suite = table2_suite();
        assert_eq!(suite.len(), 11);
        for heavy in &suite {
            let program = heavy.program();
            let light = by_name(heavy.name).unwrap().program();
            // Heavier = more work when run: compare instruction counts on
            // the same seed (bakery's spin loops are schedule-dependent;
            // accept parity there).
            let run = |p: &clap_ir::Program, model| {
                let mut vm = Vm::new(p, model);
                vm.set_step_limit(4_000_000);
                let mut sched = RandomScheduler::with_stickiness(1, 0.7);
                vm.run(&mut sched, &mut NullMonitor);
                vm.stats().instructions
            };
            let heavy_inst = run(&program, heavy.model);
            let light_inst = run(&light, by_name(heavy.name).unwrap().model);
            assert!(
                heavy.name == "bakery" || heavy_inst > light_inst,
                "{}: heavy {} vs light {}",
                heavy.name,
                heavy_inst,
                light_inst
            );
        }
    }

    #[test]
    fn racey_reference_signature_is_deterministic() {
        let a = baked_racey(6);
        let b = baked_racey(6);
        assert_eq!(a, b);
    }

    #[test]
    fn figure2_fails_under_pso() {
        let w = figure2();
        assert!(
            find_failure(&w).is_some(),
            "figure2 has a reproducible failure"
        );
    }
}
