//! Generate-and-validate constraint solving for CLAP (§4.3):
//! preemption-bounded schedule **generation** (per-thread stacks for SC,
//! SAP-DAG frontiers for TSO/PSO, context-switch-point sets to avoid
//! duplicates) with **validation** of each candidate against the full
//! constraint system. The paper validates on a pool of threads; here the
//! generator walks every prefix with the validator's rules to prune it,
//! so a complete candidate's verdict is read off that walk on the
//! generating thread.
//!
//! Because CSP sets are enumerated by increasing size and each size is
//! exhausted before the next, the first validated schedule reproduces the
//! bug with the minimal number of preemptive context switches (§4.2).

pub mod engine;
pub mod gen;

pub use engine::{
    solve_parallel, worst_case_schedules_log10, ParallelConfig, ParallelOutcome, ParallelStats,
};
pub use gen::{csp_universe, for_each_csp_set, preemption_point_count, Csp, Generator};

#[cfg(any(test, feature = "testutil"))]
pub mod testutil {
    //! Shared helper for tests: record a failing run and build its trace.
    use clap_analysis::analyze;
    use clap_ir::parse;
    use clap_profile::{decode_log, BlTables, PathRecorder};
    use clap_symex::{execute, FailureContext, SymTrace};
    use clap_vm::{MemModel, Outcome, RandomScheduler, Vm};

    /// Runs seeds until the program's assert fails, then produces the
    /// symbolic trace of that failing execution.
    ///
    /// # Panics
    ///
    /// Panics if no seed below `max_seed` fails.
    pub fn build_failure(
        src: &str,
        model: MemModel,
        max_seed: u64,
    ) -> (clap_ir::Program, SymTrace) {
        let program = parse(src).unwrap();
        let sharing = analyze(&program);
        let tables = BlTables::build(&program);
        let mut vm = Vm::with_shared(&program, model, sharing.shared_spec());
        for seed in 0..max_seed {
            vm.reset();
            let mut rec = PathRecorder::new(&tables);
            let outcome = vm.run(&mut RandomScheduler::new(seed), &mut rec);
            if let Outcome::AssertFailed { .. } = outcome {
                let failure = FailureContext::from_vm(&vm);
                let paths = decode_log(&program, &tables, &rec.finish()).unwrap();
                let trace = execute(&program, &sharing.shared_spec(), &paths, &failure).unwrap();
                return (program, trace);
            }
        }
        panic!("no failing seed in 0..{max_seed}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::build_failure;
    use clap_constraints::{validate, ConstraintSystem};
    use clap_vm::MemModel;

    #[test]
    fn parallel_finds_minimal_cs_lost_update() {
        let (program, trace) = build_failure(
            "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }",
            MemModel::Sc,
            500,
        );
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let outcome = solve_parallel(&program, &sys, ParallelConfig::default());
        let ParallelOutcome::Found {
            schedule,
            cs,
            stats,
            ..
        } = outcome
        else {
            panic!("must find a schedule: {outcome:?}")
        };
        assert_eq!(cs, 1, "one preemption is minimal for a lost update");
        assert_eq!(stats.cs_bound, 1, "bound 0 must be exhausted first");
        assert!(stats.generated > 0);
        validate(&program, &sys, &schedule).unwrap();
    }

    #[test]
    fn parallel_handles_pso_reordering() {
        let (program, trace) = build_failure(
            "global int data = 0; global int flag = 0; global int seen = -1;
             fn writer() { data = 1; flag = 1; }
             fn reader() { let f: int = flag; if (f == 1) { seen = data; } }
             fn main() {
                 let w: thread = fork writer(); let r: thread = fork reader();
                 join w; join r;
                 assert(seen != 0, \"MP\");
             }",
            MemModel::Pso,
            6000,
        );
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Pso);
        let outcome = solve_parallel(&program, &sys, ParallelConfig::default());
        let ParallelOutcome::Found { schedule, .. } = outcome else {
            panic!("must find a PSO schedule: {outcome:?}")
        };
        validate(&program, &sys, &schedule).unwrap();
        // The witness schedule orders flag's store before data's store —
        // confirm the W→W reorder is present by checking positions.
        let pos = schedule.positions();
        let writer = &trace.per_thread[1];
        let (wd, wf) = (writer[0], writer[1]);
        assert!(
            pos[wf.index()] < pos[wd.index()],
            "the reproducing schedule must reorder the two stores"
        );
    }

    #[test]
    fn exhausts_when_no_schedule_reproduces() {
        let (program, mut trace) = build_failure(
            "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }",
            MemModel::Sc,
            500,
        );
        trace.bug = trace.arena.constant(0);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let outcome = solve_parallel(
            &program,
            &sys,
            ParallelConfig {
                max_cs: 2,
                ..ParallelConfig::default()
            },
        );
        assert!(
            matches!(outcome, ParallelOutcome::Exhausted(_)),
            "{outcome:?}"
        );
        assert_eq!(outcome.stats().good, 0);
    }

    #[test]
    fn agrees_with_sequential_solver() {
        // Both engines must agree on satisfiability across a batch of
        // small racy programs.
        let programs = [
            (
                "global int x = 0;
              fn w() { let v: int = x; yield; x = v + 2; }
              fn main() { let a: thread = fork w(); let b: thread = fork w();
                          join a; join b; assert(x == 4, \"l\"); }",
                MemModel::Sc,
            ),
            (
                "global int x = 0; global int y = 0;
              fn w1() { x = 1; let v: int = y; if (v == 1) { x = 3; } }
              fn w2() { y = 1; let u: int = x; if (u == 1) { y = 3; } }
              fn main() { let a: thread = fork w1(); let b: thread = fork w2();
                          join a; join b; assert(x + y < 6, \"both saw\"); }",
                MemModel::Sc,
            ),
        ];
        for (src, model) in programs {
            let (program, trace) = build_failure(src, model, 3000);
            let sys = ConstraintSystem::build(&program, &trace, model);
            let seq = clap_solver::solve(&program, &sys, clap_solver::SolverConfig::default());
            let par = solve_parallel(&program, &sys, ParallelConfig::default());
            assert!(seq.solution().is_some(), "sequential solves");
            assert!(par.schedule().is_some(), "parallel solves");
        }
    }

    #[test]
    fn worst_case_count_is_astronomical() {
        let (program, trace) = build_failure(
            "global int x = 0;
             fn w() { let i: int = 0; while (i < 4) { let v: int = x; yield; x = v + 1; i = i + 1; } }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 8, \"lost\"); }",
            MemModel::Sc,
            3000,
        );
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let log10 = worst_case_schedules_log10(&sys);
        // 8+8+5 SAPs in three threads: a few billion interleavings at
        // least.
        assert!(log10 > 4.0, "got {log10}");
    }
}
