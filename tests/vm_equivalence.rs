//! Differential equivalence suite: the flat-bytecode backend must be
//! observationally indistinguishable from the tree-walk interpreter.
//!
//! Every program in `examples/` and `tests/corpus/`, plus 200 programs
//! from the `clap-check` property generator, runs through both backends
//! under SC, TSO, and PSO. For each seeded run the two backends must
//! produce identical outcomes, scheduler-visible action schedules,
//! monitor event streams (every `Monitor` callback, in order), visible-
//! event fingerprints, execution statistics, and final global memory.
//! On top of the single-run checks, the `clap-check` oracle enumerates
//! the bounded schedule space of the smaller programs under both
//! backends and must report identical search trees.
//!
//! Any divergence here means the bytecode compiler changed semantics,
//! not just speed — exactly the regression this suite exists to catch.

use clap_check::{
    enumerate, AtomicSpec, ChanSpec, Fingerprint, FingerprintMonitor, OracleConfig, ProgramSpec,
};
use clap_ir::{GlobalId, Program};
use clap_vm::{
    AccessEvent, Action, Backend, FnScheduler, Lineage, MemModel, Monitor, RandomScheduler,
    Scheduler, SyncEvent, ThreadId, Vm,
};
use std::fs;

const MODELS: &[MemModel] = &[MemModel::Sc, MemModel::Tso, MemModel::Pso, MemModel::C11];

/// Seeds swept per (program, model, backend) pair in the single-run
/// comparison. Random-scheduler seeds double as stickiness sweeps via
/// `RandomScheduler::with_stickiness`.
const RUN_SEEDS: u64 = 5;

/// Property-generator programs in the differential sweep (the
/// acceptance floor for this suite).
const GENERATED_PROGRAMS: u64 = 200;

/// Generated programs that additionally go through full oracle
/// enumeration under both backends (enumeration is ~100× the cost of a
/// seeded run, so the full 200 would dominate the suite's runtime).
const GENERATED_ORACLE_PROGRAMS: u64 = 40;

/// Oracle cap: big enough that the small generated programs complete
/// within the preemption bound, small enough to keep the suite quick.
const ORACLE_EXECUTIONS: u64 = 4_000;

fn disk_programs(dir: &str) -> Vec<(String, String)> {
    let mut programs: Vec<(String, String)> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let p = e.path();
            (p.extension()? == "clap").then(|| {
                let name = format!("{dir}/{}", p.file_name().unwrap().to_string_lossy());
                let source = fs::read_to_string(&p).expect("readable corpus file");
                (name, source)
            })
        })
        .collect();
    programs.sort();
    assert!(!programs.is_empty(), "{dir} has no .clap programs");
    programs
}

/// Every monitor callback, rendered to a string in arrival order. The
/// formatting keeps full payloads (values, addresses, lineages) so a
/// backend that reorders commits or drops an edge cannot slip through.
#[derive(Default)]
struct EventLog {
    events: Vec<String>,
    fingerprints: FingerprintMonitor,
}

impl Monitor for EventLog {
    fn on_thread_start(&mut self, thread: ThreadId, lineage: &Lineage, func: clap_ir::FuncId) {
        self.events
            .push(format!("start {thread} {lineage:?} {func}"));
        self.fingerprints.on_thread_start(thread, lineage, func);
    }

    fn on_thread_exit(&mut self, thread: ThreadId) {
        self.events.push(format!("exit {thread}"));
    }

    fn on_func_enter(&mut self, thread: ThreadId, func: clap_ir::FuncId) {
        self.events.push(format!("enter {thread} {func}"));
    }

    fn on_func_exit(&mut self, thread: ThreadId, func: clap_ir::FuncId) {
        self.events.push(format!("leave {thread} {func}"));
    }

    fn on_edge(
        &mut self,
        thread: ThreadId,
        func: clap_ir::FuncId,
        from: clap_ir::BlockId,
        to: clap_ir::BlockId,
    ) {
        self.events
            .push(format!("edge {thread} {func} {from}->{to}"));
    }

    fn on_access(&mut self, thread: ThreadId, event: &AccessEvent) {
        self.events.push(format!("access {thread} {event:?}"));
        self.fingerprints.on_access(thread, event);
    }

    fn on_commit(&mut self, thread: ThreadId, addr: clap_vm::Addr, value: i64) {
        self.events
            .push(format!("commit {thread} {addr:?} {value}"));
        self.fingerprints.on_commit(thread, addr, value);
    }

    fn on_sync(&mut self, thread: ThreadId, event: &SyncEvent) {
        self.events.push(format!("sync {thread} {event:?}"));
        self.fingerprints.on_sync(thread, event);
    }

    fn on_assert(&mut self, thread: ThreadId, id: clap_ir::AssertId, passed: bool) {
        self.events.push(format!("assert {thread} {id} {passed}"));
    }
}

/// Everything observable about one seeded run.
#[derive(PartialEq)]
struct Observed {
    outcome: String,
    stats: clap_vm::ExecStats,
    schedule: Vec<Action>,
    events: Vec<String>,
    fingerprint: Fingerprint,
    globals: Vec<i64>,
}

fn observe(vm: &mut Vm<'_>, program: &Program, seed: u64) -> Observed {
    vm.reset();
    let mut inner = RandomScheduler::with_stickiness(seed, 0.1 + 0.2 * (seed % 4) as f64);
    let mut schedule = Vec::new();
    let mut monitor = EventLog::default();
    let outcome = {
        let mut sched = FnScheduler(|vm: &Vm<'_>, actions: &[Action]| {
            let i = inner.pick(vm, actions);
            schedule.push(actions[i]);
            i
        });
        vm.run(&mut sched, &mut monitor)
    };
    let assert = match outcome {
        clap_vm::Outcome::AssertFailed { assert, .. } => Some(assert),
        _ => None,
    };
    let globals = (0..program.globals.len())
        .flat_map(|g| {
            let global = GlobalId(g as u32);
            (0..program.globals[g].cells()).map(move |off| (global, off))
        })
        .map(|(global, off)| vm.read_global(global, off))
        .collect();
    Observed {
        outcome: format!("{outcome:?}"),
        stats: *vm.stats(),
        schedule,
        events: monitor.events,
        fingerprint: monitor.fingerprints.fingerprint(assert),
        globals,
    }
}

/// Asserts field-by-field so a divergence names what differs instead of
/// dumping two multi-kilobyte structs.
fn assert_equivalent(label: &str, tree: &Observed, bytecode: &Observed) {
    assert_eq!(tree.outcome, bytecode.outcome, "{label}: outcome");
    assert_eq!(tree.schedule, bytecode.schedule, "{label}: schedule");
    assert_eq!(tree.events, bytecode.events, "{label}: event stream");
    assert_eq!(
        tree.fingerprint, bytecode.fingerprint,
        "{label}: fingerprint"
    );
    assert_eq!(tree.stats, bytecode.stats, "{label}: stats");
    assert_eq!(tree.globals, bytecode.globals, "{label}: final globals");
}

fn check_runs(name: &str, source: &str) {
    let program = clap_ir::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let shared = clap_analysis::analyze(&program).shared_spec();
    for &model in MODELS {
        let mut tree_vm = Vm::with_backend(&program, model, shared.clone(), Backend::Tree);
        let mut bc_vm = Vm::with_backend(&program, model, shared.clone(), Backend::Bytecode);
        tree_vm.set_step_limit(200_000);
        bc_vm.set_step_limit(200_000);
        for seed in 0..RUN_SEEDS {
            let tree = observe(&mut tree_vm, &program, seed);
            let bytecode = observe(&mut bc_vm, &program, seed);
            let label = format!("{name} {model:?} seed {seed}");
            assert_equivalent(&label, &tree, &bytecode);
        }
    }
}

/// Renders the parts of an [`clap_check::OracleReport`] that identify
/// the search tree; the two backends must agree on all of it.
fn oracle_summary(program: &Program, model: MemModel, backend: Backend) -> String {
    let config = OracleConfig::new(model)
        .with_max_executions(ORACLE_EXECUTIONS)
        .with_backend(backend);
    let report = enumerate(program, &config);
    let mut out = format!(
        "executions={} completed={} deadlocks={} faults={} prunes={} truncated={}\n",
        report.executions,
        report.completed,
        report.deadlocks,
        report.faults,
        report.bound_prunes,
        report.truncated,
    );
    for failing in &report.failing {
        out.push_str(&format!(
            "fail assert={} preemptions={} letters={} choices={:?} fp={:?}\n",
            failing.assert,
            failing.preemptions,
            failing.letters(),
            failing.choices,
            failing.fingerprint,
        ));
    }
    out
}

fn check_oracle(name: &str, source: &str) {
    let program = clap_ir::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    for &model in MODELS {
        let tree = oracle_summary(&program, model, Backend::Tree);
        let bytecode = oracle_summary(&program, model, Backend::Bytecode);
        assert_eq!(tree, bytecode, "{name} {model:?}: oracle reports differ");
    }
}

#[test]
fn examples_agree_across_backends() {
    for (name, source) in disk_programs("examples") {
        check_runs(&name, &source);
        check_oracle(&name, &source);
    }
}

#[test]
fn corpus_agrees_across_backends() {
    for (name, source) in disk_programs("tests/corpus") {
        check_runs(&name, &source);
    }
}

#[test]
fn corpus_oracle_reports_agree_across_backends() {
    for (name, source) in disk_programs("tests/corpus") {
        check_oracle(&name, &source);
    }
}

#[test]
fn generated_programs_agree_across_backends() {
    for seed in 0..GENERATED_PROGRAMS {
        let source = ProgramSpec::from_seed(seed).source();
        check_runs(&format!("gen#{seed}"), &source);
    }
}

#[test]
fn generated_oracle_reports_agree_across_backends() {
    for seed in 0..GENERATED_ORACLE_PROGRAMS {
        let source = ProgramSpec::from_seed(seed).source();
        check_oracle(&format!("gen#{seed}"), &source);
    }
}

/// Channel/actor programs exercise a disjoint VM surface — bounded
/// queues, rendezvous blocking, close semantics, actor mailboxes — so
/// they get their own sweep at the same acceptance floor as the shared-
/// memory generator. (The channel examples and corpus programs are
/// already covered by the disk-program sweeps above.)
#[test]
fn generated_channel_programs_agree_across_backends() {
    for seed in 0..GENERATED_PROGRAMS {
        let source = ChanSpec::from_seed(seed).source();
        check_runs(&format!("chan#{seed}"), &source);
    }
}

#[test]
fn generated_channel_oracle_reports_agree_across_backends() {
    for seed in 0..GENERATED_ORACLE_PROGRAMS {
        let source = ChanSpec::from_seed(seed).source();
        check_oracle(&format!("chan#{seed}"), &source);
    }
}

/// Atomic programs exercise the fourth memory-model axis: ordering-
/// annotated loads/stores/RMWs/CASes, the C11 per-location store
/// buffers, and their drain actions. Both backends must agree on every
/// weak behavior — including the drain schedules themselves, which show
/// up in the recorded action streams.
#[test]
fn generated_atomic_programs_agree_across_backends() {
    for seed in 0..GENERATED_PROGRAMS {
        let source = AtomicSpec::from_seed(seed).source();
        check_runs(&format!("atomic#{seed}"), &source);
    }
}

#[test]
fn generated_atomic_oracle_reports_agree_across_backends() {
    for seed in 0..GENERATED_ORACLE_PROGRAMS {
        let source = AtomicSpec::from_seed(seed).source();
        check_oracle(&format!("atomic#{seed}"), &source);
    }
}
