//! Property-based cross-crate tests: randomized racy programs must be
//! reproducible whenever they fail, the two solving engines must agree,
//! and every validator-approved schedule must replay.

use clap_constraints::{validate, ConstraintSystem, Schedule};
use clap_core::{Pipeline, PipelineConfig};
use clap_symex::SapId;
use clap_vm::MemModel;
use proptest::prelude::*;

/// One worker statement template for the random-program generator.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Unprotected read-modify-write of `x` (racy).
    IncX,
    /// Unprotected read-modify-write of `y` (racy).
    IncY,
    /// Lock-protected increment of `x` (safe).
    LockedIncX,
}

fn op_source(op: Op, temp: usize) -> String {
    match op {
        Op::IncX => format!("let t{temp}: int = x; yield; x = t{temp} + 1;\n"),
        Op::IncY => format!("let t{temp}: int = y; yield; y = t{temp} + 1;\n"),
        Op::LockedIncX => {
            format!("lock(m); let t{temp}: int = x; x = t{temp} + 1; unlock(m);\n")
        }
    }
}

/// Builds a two-worker program from op lists; the assert demands the
/// serial outcome, so any lost update fails it.
fn build_program(ops_a: &[Op], ops_b: &[Op]) -> String {
    let count = |ops: &[Op], f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
    let is_x = |o: &Op| matches!(o, Op::IncX | Op::LockedIncX);
    let is_y = |o: &Op| matches!(o, Op::IncY);
    let expected_x = count(ops_a, is_x) + count(ops_b, is_x);
    let expected_y = count(ops_a, is_y) + count(ops_b, is_y);
    let body = |ops: &[Op]| -> String {
        ops.iter()
            .enumerate()
            .map(|(i, &op)| op_source(op, i))
            .collect()
    };
    format!(
        "global int x = 0; global int y = 0; mutex m;
         fn wa() {{ {} }}
         fn wb() {{ {} }}
         fn main() {{
             let a: thread = fork wa();
             let b: thread = fork wb();
             join a; join b;
             assert(x == {expected_x} && y == {expected_y}, \"lost update\");
         }}",
        body(ops_a),
        body(ops_b),
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::IncX), Just(Op::IncY), Just(Op::LockedIncX)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Whenever a randomized racy program fails under exploration, the
    /// full pipeline reproduces the failure deterministically.
    #[test]
    fn random_racy_programs_are_reproducible(
        ops_a in proptest::collection::vec(op_strategy(), 1..4),
        ops_b in proptest::collection::vec(op_strategy(), 1..4),
    ) {
        let src = build_program(&ops_a, &ops_b);
        let pipeline = Pipeline::from_source(&src).expect("generated source parses");
        let mut config = PipelineConfig::new(MemModel::Sc);
        config.seed_budget = 400;
        config.stickiness = vec![0.7, 0.3];
        match pipeline.reproduce(&config) {
            Ok(report) => prop_assert!(report.reproduced),
            Err(clap_core::PipelineError::NoFailureFound) => {
                // All-locked op lists (or lucky schedules) never fail —
                // vacuously fine.
            }
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        }
    }

    /// Both solving engines agree on satisfiability, and the validator
    /// accepts both engines' schedules.
    #[test]
    fn solvers_agree_on_random_failures(
        ops_a in proptest::collection::vec(op_strategy(), 1..3),
        ops_b in proptest::collection::vec(op_strategy(), 1..3),
    ) {
        let src = build_program(&ops_a, &ops_b);
        let pipeline = Pipeline::from_source(&src).expect("parses");
        let mut config = PipelineConfig::new(MemModel::Sc);
        config.seed_budget = 400;
        config.stickiness = vec![0.7, 0.3];
        let Ok(recorded) = pipeline.record_failure(&config) else { return Ok(()) };
        let trace = pipeline.symbolic_trace(&recorded).expect("trace");
        let system = ConstraintSystem::build(pipeline.program(), &trace, MemModel::Sc);

        let seq = clap_solver::solve(pipeline.program(), &system, clap_solver::SolverConfig::default());
        let par = clap_parallel::solve_parallel(
            pipeline.program(),
            &system,
            clap_parallel::ParallelConfig::default(),
        );
        let seq_solution = seq.solution().expect("recorded failures are satisfiable");
        prop_assert!(par.schedule().is_some(), "parallel agrees on SAT");
        prop_assert!(validate(pipeline.program(), &system, &seq_solution.schedule).is_ok());
        prop_assert!(validate(pipeline.program(), &system, par.schedule().unwrap()).is_ok());
    }

    /// Soundness of validation: every validator-approved linear extension
    /// replays on the VM and fires the assert (capped enumeration).
    #[test]
    fn every_valid_schedule_replays(
        ops_a in proptest::collection::vec(op_strategy(), 1..3),
        ops_b in proptest::collection::vec(op_strategy(), 1..2),
    ) {
        let src = build_program(&ops_a, &ops_b);
        let pipeline = Pipeline::from_source(&src).expect("parses");
        let mut config = PipelineConfig::new(MemModel::Sc);
        config.seed_budget = 400;
        config.stickiness = vec![0.7, 0.3];
        let Ok(recorded) = pipeline.record_failure(&config) else { return Ok(()) };
        let trace = pipeline.symbolic_trace(&recorded).expect("trace");
        if trace.sap_count() > 18 {
            return Ok(()); // keep enumeration tractable
        }
        let system = ConstraintSystem::build(pipeline.program(), &trace, MemModel::Sc);

        // Enumerate linear extensions of the hard edges, validate each,
        // and replay the first few approved ones.
        let n = trace.sap_count();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &system.hard_edges {
            preds[b.index()].push(a.index());
        }
        let mut approved: Vec<Schedule> = Vec::new();
        let mut placed = vec![false; n];
        let mut acc: Vec<SapId> = Vec::new();
        fn extend(
            n: usize,
            preds: &[Vec<usize>],
            placed: &mut Vec<bool>,
            acc: &mut Vec<SapId>,
            check: &mut dyn FnMut(&[SapId]) -> bool,
        ) -> bool {
            if acc.len() == n {
                return check(acc);
            }
            for x in 0..n {
                if placed[x] || !preds[x].iter().all(|&p| placed[p]) {
                    continue;
                }
                placed[x] = true;
                acc.push(SapId(x as u32));
                let go_on = extend(n, preds, placed, acc, check);
                acc.pop();
                placed[x] = false;
                if !go_on {
                    return false;
                }
            }
            true
        }
        extend(n, &preds, &mut placed, &mut acc, &mut |order| {
            let schedule = Schedule { order: order.to_vec() };
            if validate(pipeline.program(), &system, &schedule).is_ok() {
                approved.push(schedule);
            }
            approved.len() < 5
        });
        prop_assert!(!approved.is_empty(), "the recorded failure admits a schedule");
        for schedule in approved {
            let report = clap_replay::replay(
                pipeline.program(),
                MemModel::Sc,
                pipeline.sharing().shared_spec(),
                &trace,
                &schedule,
                recorded.assert,
            );
            prop_assert!(report.is_ok(), "approved schedule must replay: {report:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `clap_ir::canonicalize` (parse ∘ unparse) is a fixpoint: the
    /// second round-trip is byte-identical to the first. The service's
    /// content-addressed cache keys on the canonical form, so this is
    /// exactly the property that makes "same program modulo formatting"
    /// a single cache entry.
    #[test]
    fn canonicalization_is_a_fixpoint(
        ops_a in proptest::collection::vec(op_strategy(), 1..4),
        ops_b in proptest::collection::vec(op_strategy(), 1..4),
        seed in 0u64..1_000_000,
    ) {
        let handwritten = build_program(&ops_a, &ops_b);
        let generated = clap_check::ProgramSpec::from_seed(seed).source();
        let channels = clap_check::ChanSpec::from_seed(seed).source();
        let atomics = clap_check::AtomicSpec::from_seed(seed).source();
        for source in [handwritten, generated, channels, atomics] {
            let once = clap_ir::canonicalize(&source).expect("source parses");
            let twice = clap_ir::canonicalize(&once).expect("canonical form parses");
            prop_assert!(once == twice, "canonical form must be stable");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Differential property: programs from the extended generator
    /// (three workers, computed array indices, condvar handoffs) must
    /// never make the pipeline hard-disagree with the bounded
    /// enumeration oracle, under any memory model. This is the
    /// fuzz-scale version of the CI `clap check` smoke step.
    #[test]
    fn generated_programs_diff_clean_against_oracle(seed in 0u64..1_000_000) {
        let spec = clap_check::ProgramSpec::from_seed(seed);
        let config = clap_check::DiffConfig::default()
            .with_models(vec![MemModel::Sc, MemModel::Tso, MemModel::Pso])
            .with_seed_budget(400, vec![0.7, 0.3])
            .with_max_executions(20_000);
        let report = clap_check::diff_source(&spec.source(), &config)
            .expect("generated source parses");
        prop_assert!(report.ok(), "seed {seed}:\n{}", report.summary());
    }

    /// Same differential property for the channel/actor generator:
    /// bounded channels (caps 0–3), up to three workers mixing
    /// send/recv/try_send/try_recv/close, and an optional actor leg fed
    /// over its mailbox. Main always closes the channel, so every
    /// generated program terminates on every interleaving and races
    /// surface as assert failures the pipeline must reproduce (or
    /// soft-verdict — never hard-disagree with the oracle).
    #[test]
    fn generated_channel_programs_diff_clean_against_oracle(seed in 0u64..1_000_000) {
        let spec = clap_check::ChanSpec::from_seed(seed);
        let config = clap_check::DiffConfig::default()
            .with_models(vec![MemModel::Sc, MemModel::Tso, MemModel::Pso])
            .with_seed_budget(400, vec![0.7, 0.3])
            .with_max_executions(20_000);
        let report = clap_check::diff_source(&spec.source(), &config)
            .expect("generated channel source parses");
        prop_assert!(report.ok(), "chan seed {seed}:\n{}", report.summary());
    }

    /// Same differential property for the C11-atomics generator, under
    /// all four memory models: straight-line workers mixing racy
    /// load/store increments, fetch_adds, CAS races, and weak publish /
    /// consume pairs at every ordering. Under SC/TSO/PSO atomics act as
    /// seq_cst fences; under C11 the oracle additionally enumerates the
    /// per-location drain interleavings — the pipeline must never
    /// hard-disagree on either side.
    #[test]
    fn generated_atomic_programs_diff_clean_against_oracle(seed in 0u64..1_000_000) {
        let spec = clap_check::AtomicSpec::from_seed(seed);
        let config = clap_check::DiffConfig::default()
            .with_models(vec![MemModel::Sc, MemModel::Tso, MemModel::Pso, MemModel::C11])
            .with_seed_budget(400, vec![0.7, 0.3])
            .with_max_executions(20_000);
        let report = clap_check::diff_source(&spec.source(), &config)
            .expect("generated atomic source parses");
        prop_assert!(report.ok(), "atomic seed {seed}:\n{}", report.summary());
    }
}

/// The shipped example corpus is parseable and canonically stable — the
/// precondition for the CI service-smoke step's cache-hit assertion
/// (identical resubmissions must fingerprint identically).
#[test]
fn example_corpus_canonicalizes() {
    let mut checked = 0;
    for entry in std::fs::read_dir("examples").expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "clap") {
            let source = std::fs::read_to_string(&path).expect("read example");
            let once = clap_ir::canonicalize(&source).expect("example parses");
            let twice = clap_ir::canonicalize(&once).expect("canonical form parses");
            assert_eq!(once, twice, "{} is not canonically stable", path.display());
            checked += 1;
        }
    }
    assert!(
        checked >= 7,
        "expected the channel examples alongside the originals"
    );
}

/// Holds the pruned generator to the blind one on `system`: over rungs
/// `0..=2`, each running its first `max_sets` CSP sets (0 = all of them),
/// both must have `validate` accept the same schedules in the same order.
/// Each generator visits at most `max_nodes` DFS nodes a rung (0 = no
/// limit). Pruning only cuts subtrees out of the blind DFS, so under the
/// same limit the pruned search gets at least as far; where the blind one
/// was cut, its accepted schedules must begin the pruned one's.
fn pruned_matches_blind(
    program: &clap_ir::Program,
    system: &ConstraintSystem<'_>,
    max_sets: u64,
    max_nodes: u64,
) -> Result<(), String> {
    for c in 0..=2 {
        let mut accepted: [Vec<Vec<SapId>>; 2] = Default::default();
        let mut blind_cut = false;
        for (side, pruned) in [true, false].into_iter().enumerate() {
            let mut generator = if pruned {
                clap_parallel::Generator::new(program, system, 0)
            } else {
                clap_parallel::Generator::without_pruning(system, 0)
            };
            generator.set_node_budget(max_nodes);
            clap_parallel::for_each_csp_set(system, c, max_sets, &mut |set| {
                generator.run(set, &mut |order| {
                    let schedule = Schedule {
                        order: order.to_vec(),
                    };
                    if validate(program, system, &schedule).is_ok() {
                        accepted[side].push(schedule.order);
                    }
                    true
                })
            });
            blind_cut = !pruned && generator.hit_budget();
        }
        let [pruned, blind] = &accepted;
        let agree = if blind_cut {
            pruned.starts_with(blind)
        } else {
            pruned == blind
        };
        if !agree {
            return Err(format!(
                "rung {c}: {} against {} accepted",
                pruned.len(),
                blind.len()
            ));
        }
    }
    Ok(())
}

/// Records each workload's failure and holds pruning to the blind
/// generator on its trace, under its own model.
fn pruning_keeps_the_accepted_schedules_of(
    workloads: Vec<clap_workloads::Workload>,
    max_sets: u64,
    max_nodes: u64,
) {
    for workload in workloads {
        let pipeline = Pipeline::new(workload.program());
        let recorded = pipeline
            .record_failure(&clap_bench::workload_config(&workload))
            .expect("the workload fails");
        let trace = pipeline.symbolic_trace(&recorded).expect("trace");
        let system = ConstraintSystem::build(pipeline.program(), &trace, workload.model);
        if let Err(e) = pruned_matches_blind(pipeline.program(), &system, max_sets, max_nodes) {
            panic!("{}: {e}", workload.name);
        }
    }
}

/// Prefix pruning only drops prefixes the validator would reject: on
/// every channel workload, the pruned generator's accepted schedules are
/// the blind generator's, in the same order.
#[test]
fn pruning_keeps_the_accepted_schedules_of_channel_workloads() {
    pruning_keeps_the_accepted_schedules_of(clap_workloads::channels(), 0, 0);
}

/// Same property on the paper's workloads (locks, condvar waits, TSO and
/// PSO store buffers) and the lock-free ones under C11, over the first
/// 256 CSP sets of each rung. Bakery's blind search alone runs past three
/// million candidates at bound 0, hence the node limit.
#[test]
fn pruning_keeps_the_accepted_schedules_of_other_workloads() {
    let mut workloads = clap_workloads::all();
    workloads.extend(clap_workloads::lockfree());
    pruning_keeps_the_accepted_schedules_of(workloads, 256, 100_000);
}

/// Records `source`'s failure under `model` and holds pruning to the
/// blind generator on its trace, over the first 256 CSP sets of each
/// rung. A program that does not fail passes vacuously.
fn recorded_pruned_matches_blind(source: &str, model: MemModel) -> Result<(), String> {
    let pipeline = Pipeline::from_source(source).expect("generated source parses");
    let mut config = PipelineConfig::new(model);
    config.seed_budget = 200;
    config.stickiness = vec![0.7, 0.3];
    let Ok(recorded) = pipeline.record_failure(&config) else {
        return Ok(());
    };
    let trace = pipeline.symbolic_trace(&recorded).expect("trace");
    let system = ConstraintSystem::build(pipeline.program(), &trace, model);
    pruned_matches_blind(pipeline.program(), &system, 256, 0)
}

/// Same property on generated programs whose recorded failures hold
/// condvar waits: pruning applies the validator's exact wake-up rule.
#[test]
fn pruning_keeps_the_accepted_schedules_of_condvar_programs() {
    for (seed, model) in [
        (177, MemModel::Sc),
        (247, MemModel::Sc),
        (170, MemModel::Tso),
        (302, MemModel::Pso),
    ] {
        let source = clap_check::ProgramSpec::from_seed(seed).source();
        if let Err(e) = recorded_pruned_matches_blind(&source, model) {
            panic!("seed {seed} {model:?}: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Same property for generated channel/actor programs; the 256-set
    /// cap keeps the blind generator's work small.
    #[test]
    fn pruning_keeps_the_accepted_schedules_of_generated_channel_programs(
        seed in 0u64..1_000_000,
    ) {
        let source = clap_check::ChanSpec::from_seed(seed).source();
        let verdict = recorded_pruned_matches_blind(&source, MemModel::Sc);
        prop_assert!(verdict.is_ok(), "chan seed {seed}: {verdict:?}");
    }

    /// Same property for generated lock/array/condvar programs under TSO
    /// and C11 atomic programs (fetch-adds, compare-and-swaps) under C11.
    #[test]
    fn pruning_keeps_the_accepted_schedules_of_generated_programs(seed in 0u64..1_000_000) {
        let source = clap_check::ProgramSpec::from_seed(seed).source();
        let verdict = recorded_pruned_matches_blind(&source, MemModel::Tso);
        prop_assert!(verdict.is_ok(), "program seed {seed}: {verdict:?}");
        let source = clap_check::AtomicSpec::from_seed(seed).source();
        let verdict = recorded_pruned_matches_blind(&source, MemModel::C11);
        prop_assert!(verdict.is_ok(), "atomic seed {seed}: {verdict:?}");
    }
}
