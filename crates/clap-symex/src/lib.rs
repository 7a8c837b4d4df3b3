//! Path-directed symbolic execution for CLAP: replays each thread's
//! recorded control-flow path symbolically, returning fresh symbolic
//! values for shared loads (the `R` variables of the paper) and producing
//! the [`SymTrace`] — shared access points, path conditions `F_path` and
//! the bug predicate `F_bug` — that constraint generation consumes.
//!
//! This crate plays the role KLEE plays in the paper (§5), with the same
//! adaptations: it follows the recorded path of every thread instead of
//! searching, keeps one memory state per thread, and delays symbolic
//! address resolution (array accesses with symbolic indices) to the
//! constraint phase by keeping the index *expression* on each SAP.
//!
//! # Example: the full record → decode → symex front half
//!
//! ```
//! use clap_ir::parse;
//! use clap_profile::{BlTables, PathRecorder, decode_log};
//! use clap_symex::{execute, FailureContext};
//! use clap_vm::{MemModel, RandomScheduler, SharedSpec, Vm};
//!
//! let program = parse(
//!     "global int x = 0;
//!      fn w() { let v: int = x; x = v + 1; }
//!      fn main() {
//!          let a: thread = fork w();
//!          let b: thread = fork w();
//!          join a; join b;
//!          assert(x == 2, \"lost update\");
//!      }",
//! )?;
//! // Find a failing seed.
//! let tables = BlTables::build(&program);
//! for seed in 0.. {
//!     let mut vm = Vm::new(&program, MemModel::Sc);
//!     let mut rec = PathRecorder::new(&tables);
//!     let outcome = vm.run(&mut RandomScheduler::new(seed), &mut rec);
//!     if outcome.is_failure() {
//!         let failure = FailureContext::from_vm(&vm);
//!         let paths = decode_log(&program, &tables, &rec.finish()).unwrap();
//!         let trace = execute(&program, &SharedSpec::All, &paths, &failure).unwrap();
//!         assert!(trace.sap_count() > 0);
//!         break;
//!     }
//! }
//! # Ok::<(), clap_ir::Error>(())
//! ```

pub mod exec;
pub mod expr;
pub mod trace;

pub use exec::{execute, FailureContext, SymexError, ThreadStop};
pub use expr::{ExprArena, ExprId, Node, SymVarId};
pub use trace::{PathCond, Sap, SapId, SapKind, SymAddr, SymTrace, SymVarOrigin, ThreadIdx};

/// Runs seeds `0..max_seed` of `src` under `model` until its assert
/// fails, then executes that run symbolically. Returns the program, the
/// trace, and each thread's SAP count in the VM. A helper for the tests
/// of this crate and the ones above it; not part of the stable API.
///
/// # Panics
///
/// Panics if `src` does not parse or no seed below `max_seed` fails.
#[doc(hidden)]
pub fn failing_trace(
    src: &str,
    model: clap_vm::MemModel,
    max_seed: u64,
) -> (clap_ir::Program, SymTrace, Vec<u64>) {
    use clap_profile::{decode_log, BlTables, PathRecorder};
    use clap_vm::{Outcome, RandomScheduler, Vm};

    let program = clap_ir::parse(src).expect("the test source parses");
    let sharing = clap_analysis::analyze(&program);
    let tables = BlTables::build(&program);
    let mut vm = Vm::with_shared(&program, model, sharing.shared_spec());
    for seed in 0..max_seed {
        vm.reset();
        let mut rec = PathRecorder::new(&tables);
        let outcome = vm.run(&mut RandomScheduler::new(seed), &mut rec);
        if let Outcome::AssertFailed { .. } = outcome {
            let failure = FailureContext::from_vm(&vm);
            let sap_counts = vm.threads().iter().map(|t| t.next_sap_index).collect();
            let paths =
                decode_log(&program, &tables, &rec.finish()).expect("a recorded path log decodes");
            let trace = execute(&program, &sharing.shared_spec(), &paths, &failure)
                .expect("a recorded failing run executes symbolically");
            return (program, trace, sap_counts);
        }
    }
    panic!("no failing seed in 0..{max_seed}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_vm::MemModel;

    #[test]
    fn sap_counts_match_vm_exactly() {
        let (_, trace, vm_counts) = failing_trace(
            "global int x = 0; mutex m;
             fn w() { lock(m); let v: int = x; unlock(m); yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost update\"); }",
            MemModel::Sc,
            500,
        );
        for (i, &count) in vm_counts.iter().enumerate() {
            assert_eq!(
                trace.per_thread[i].len() as u64,
                count,
                "thread {i} SAP count must match the VM's numbering"
            );
        }
    }

    #[test]
    fn bug_predicate_is_negated_assert() {
        let (_, trace, _) = failing_trace(
            "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }",
            MemModel::Sc,
            500,
        );
        // bug = !(R == 2) for the final read R of x: satisfied by R = 1.
        let vars = trace.arena.vars(trace.bug);
        assert_eq!(vars.len(), 1);
        let v = vars[0];
        let sat = trace.arena.eval(trace.bug, &|q| (q == v).then_some(1));
        assert_eq!(sat, Some(1), "R = 1 manifests the bug");
        let unsat = trace.arena.eval(trace.bug, &|q| (q == v).then_some(2));
        assert_eq!(unsat, Some(0), "R = 2 does not");
    }

    #[test]
    fn path_conditions_capture_branches_on_shared_reads() {
        let (_, trace, _) = failing_trace(
            "global int flag = 0; global int data = 0;
             fn reader() { let f: int = flag; if (f == 1) { let d: int = data; assert(d == 7, \"mp\"); } }
             fn writer() { data = 7; yield; flag = 1; }
             fn main() { let r: thread = fork reader(); let w: thread = fork writer();
                         join r; join w; }",
            MemModel::Pso,
            8000,
        );
        // The reader's taken branch (f == 1) must appear in F_path.
        assert!(
            !trace.path_conds.is_empty(),
            "branch on a symbolic read produces a path condition"
        );
    }

    #[test]
    fn fork_arguments_flow_to_children() {
        let (program, trace, _) = failing_trace(
            "global int x = 0;
             fn w(inc: int) { let v: int = x; yield; x = v + inc; }
             fn main() { let a: thread = fork w(10); let b: thread = fork w(1);
                         join a; join b; assert(x == 11, \"sum\"); }",
            MemModel::Sc,
            2000,
        );
        // Each child writes x = R + inc with its own constant inc.
        let mut incs = Vec::new();
        for sap in &trace.saps {
            if let SapKind::Write { value, .. } = sap.kind {
                // value = R + c ; recover c by evaluating with R = 0.
                if let Some(v) = trace.arena.eval(value, &|_| Some(0)) {
                    incs.push(v);
                }
            }
        }
        incs.sort();
        assert_eq!(incs, vec![1, 10], "program {program:?} produced {incs:?}");
    }

    #[test]
    fn wait_contributes_release_and_completion_saps() {
        let src = "global int ready = 0; global int sum = 0; mutex m; cond c;
             fn consumer() {
                 lock(m);
                 while (ready == 0) { wait(c, m); }
                 sum = sum + 1;
                 unlock(m);
                 assert(sum == 2, \"order\");
             }
             fn main() {
                 let t: thread = fork consumer();
                 lock(m); ready = 1; signal(c); unlock(m);
                 join t;
             }";
        let (_, trace, vm_counts) = failing_trace(src, MemModel::Sc, 500);
        // Any completed wait shows up as Unlock followed by Wait in the
        // consumer's SAP sequence.
        let consumer = 1usize;
        let kinds: Vec<&SapKind> = trace.per_thread[consumer]
            .iter()
            .map(|&s| &trace.sap(s).kind)
            .collect();
        let wait_pos = kinds.iter().position(|k| matches!(k, SapKind::Wait { .. }));
        if let Some(p) = wait_pos {
            assert!(
                matches!(kinds[p - 1], SapKind::Unlock(_)),
                "wait completion preceded by its release"
            );
        }
        assert_eq!(trace.per_thread[consumer].len() as u64, vm_counts[consumer]);
    }

    #[test]
    fn truncated_blocked_threads_contribute_only_executed_saps() {
        // Thread b blocks on the mutex held by a (which asserts first).
        let src = "global int x = 0; mutex m;
             fn holder() { lock(m); x = 1; assert(x == 2, \"trap\"); unlock(m); }
             fn waiter() { lock(m); x = 3; unlock(m); }
             fn main() { let a: thread = fork holder(); let b: thread = fork waiter();
                         join a; join b; }";
        let (_, trace, vm_counts) = failing_trace(src, MemModel::Sc, 200);
        for (i, &count) in vm_counts.iter().enumerate() {
            assert_eq!(trace.per_thread[i].len() as u64, count, "thread {i}");
        }
        // The blocked waiter has no Lock SAP (it never acquired).
        let waiter_kinds: Vec<&SapKind> = trace.per_thread[2]
            .iter()
            .map(|&s| &trace.sap(s).kind)
            .collect();
        assert!(
            !waiter_kinds.iter().any(|k| matches!(k, SapKind::Lock(_))),
            "blocked lock must not appear in the trace: {waiter_kinds:?}"
        );
    }

    #[test]
    fn symbolic_array_indices_stay_symbolic() {
        let src = "global int a[4]; global int k = 0;
             fn w() { let i: int = k; a[i & 3] = 9; }
             fn main() { k = 1;
                         let t1: thread = fork w(); let t2: thread = fork w();
                         join t1; join t2;
                         let v: int = a[1];
                         assert(v == 0, \"hit\"); }";
        let (_, trace, _) = failing_trace(src, MemModel::Sc, 2000);
        let symbolic_writes = trace
            .saps
            .iter()
            .filter(|s| {
                matches!(s.kind, SapKind::Write { addr, .. }
                    if addr.index.is_some_and(|i| trace.arena.as_const(i).is_none()))
            })
            .count();
        assert!(
            symbolic_writes >= 2,
            "array writes keep their symbolic index expressions"
        );
    }

    #[test]
    fn nonshared_globals_stay_concrete() {
        let src = "global int private = 0; global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { private = 40; private = private + 2;
                         let a: thread = fork w(); let b: thread = fork w();
                         join a; join b;
                         assert(x == 2, \"lost\"); }";
        let (program, trace, _) = failing_trace(src, MemModel::Sc, 2000);
        let private = program.global_by_name("private").unwrap();
        assert!(
            !trace.saps.iter().any(|s| matches!(
                s.kind,
                SapKind::Read { addr, .. } | SapKind::Write { addr, .. } if addr.global == private
            )),
            "main-private globals produce no SAPs"
        );
    }

    #[test]
    fn calls_are_followed_through_activations() {
        let src = "global int x = 0;
             fn bump() { let v: int = x; yield; x = v + 1; }
             fn w() { bump(); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }";
        let (_, trace, vm_counts) = failing_trace(src, MemModel::Sc, 2000);
        for (i, &count) in vm_counts.iter().enumerate() {
            assert_eq!(trace.per_thread[i].len() as u64, count, "thread {i}");
        }
    }
}
