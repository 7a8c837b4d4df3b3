//! Golden-stream suite: the VM's observable behavior, pinned program by
//! program.
//!
//! Every program in `examples/` and `tests/corpus/`, plus 200 programs
//! each from the `clap-check` shared-memory, channel and atomic
//! generators, runs under SC, TSO, PSO and C11. Each checked program owns
//! one line of `tests/snapshots/vm_equivalence.snap` holding, per memory
//! model, a digest of everything observable over its seeded runs: the
//! outcome, the scheduler-visible action schedule, the monitor event
//! stream (every `Monitor` callback, in order, with full payloads), the
//! visible-event fingerprint, the execution statistics and the final
//! global memory. Where the suite also enumerates the bounded schedule
//! space with the `clap-check` oracle, the line holds a digest of the
//! oracle's search tree too.
//!
//! The snapshot was blessed while a second, tree-walking interpreter
//! still ran beside the bytecode engine and the suite asserted that both
//! produced all of the above identically; it holds outputs both engines
//! agreed on. A diff here means the VM's semantics changed, not just its
//! speed. Regenerate after an *intended* semantic change with:
//!
//! ```text
//! CLAP_BLESS=1 cargo test --test vm_equivalence
//! ```

mod common;

use clap_check::{
    enumerate, AtomicSpec, ChanSpec, Fingerprint, FingerprintMonitor, OracleConfig, ProgramSpec,
};
use clap_ir::{GlobalId, Program};
use clap_vm::{
    AccessEvent, Action, FnScheduler, Lineage, MemModel, Monitor, RandomScheduler, Scheduler,
    SyncEvent, ThreadId, Vm,
};
use common::{bless_lock, blessing, drifted, read_snapshot, write_snapshot, Fnv};
use std::fs;

const SNAPSHOT: &str = "tests/snapshots/vm_equivalence.snap";

const MODELS: &[MemModel] = &[MemModel::Sc, MemModel::Tso, MemModel::Pso, MemModel::C11];

/// Seeds swept per (program, model) pair. Random-scheduler seeds double
/// as stickiness sweeps via `RandomScheduler::with_stickiness`.
const RUN_SEEDS: u64 = 5;

/// Programs swept from each property generator (the acceptance floor for
/// this suite).
const GENERATED_PROGRAMS: u64 = 200;

/// Generated programs that additionally go through full oracle
/// enumeration (enumeration is ~100× the cost of a seeded run, so the
/// full 200 would dominate the suite's runtime).
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
/// formatting keeps full payloads (values, addresses, lineages) so a VM
/// change that reorders commits or drops an edge cannot slip through.
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
struct Observed {
    outcome: String,
    stats: clap_vm::ExecStats,
    schedule: Vec<Action>,
    events: Vec<String>,
    fingerprint: Fingerprint,
    globals: Vec<i64>,
}

impl Observed {
    /// Feeds every field into `digest`, each one terminated so adjacent
    /// fields cannot run together.
    fn digest_into(&self, digest: &mut Fnv) {
        let mut field = |text: &str| {
            digest.bytes(text.as_bytes());
            digest.bytes(b"\n");
        };
        field(&self.outcome);
        field(&format!("{:?}", self.stats));
        field(&format!("{:?}", self.schedule));
        field(&self.events.len().to_string());
        for event in &self.events {
            field(event);
        }
        field(&format!("{:?}", self.fingerprint));
        field(&format!("{:?}", self.globals));
    }
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

/// Runs `source` under every model and returns one `Model=digest` token
/// per model, covering its [`RUN_SEEDS`] seeded runs.
fn check_runs(name: &str, source: &str) -> Vec<String> {
    let program = clap_ir::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let shared = clap_analysis::analyze(&program).shared_spec();
    let mut tokens = Vec::new();
    for &model in MODELS {
        let mut vm = Vm::with_shared(&program, model, shared.clone());
        vm.set_step_limit(200_000);
        let mut digest = Fnv::new();
        for seed in 0..RUN_SEEDS {
            observe(&mut vm, &program, seed).digest_into(&mut digest);
        }
        tokens.push(format!("{model:?}={:016x}", digest.0));
    }
    tokens
}

/// Renders the parts of an [`clap_check::OracleReport`] that identify
/// the search tree.
fn oracle_summary(program: &Program, model: MemModel) -> String {
    let config = OracleConfig::new(model).with_max_executions(ORACLE_EXECUTIONS);
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
            failing.fingerprint(),
        ));
    }
    out
}

/// Enumerates `source` under every model and returns one
/// `oracle.Model=digest` token per model.
fn check_oracle(name: &str, source: &str) -> Vec<String> {
    let program = clap_ir::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut tokens = Vec::new();
    for &model in MODELS {
        let mut digest = Fnv::new();
        digest.bytes(oracle_summary(&program, model).as_bytes());
        tokens.push(format!("oracle.{model:?}={:016x}", digest.0));
    }
    tokens
}

/// The key of a `key=digest` token.
fn key(token: &str) -> &str {
    token.split('=').next().unwrap_or(token)
}

/// Every program the suite checks, in snapshot order.
fn program_names() -> Vec<String> {
    let disk = ["examples", "tests/corpus"]
        .into_iter()
        .flat_map(disk_programs)
        .map(|(name, _)| name);
    let generated = ["gen", "chan", "atomic"]
        .into_iter()
        .flat_map(|family| (0..GENERATED_PROGRAMS).map(move |seed| format!("{family}#{seed}")));
    disk.chain(generated).collect()
}

/// Compares each program's tokens with its line in [`SNAPSHOT`], or
/// merges them into that line under `CLAP_BLESS`. One program's run and
/// oracle digests can come from different tests, which run concurrently,
/// so each test owns only the tokens it computed.
fn check_snapshot(pins: &[(String, Vec<String>)]) {
    if blessing() {
        let _guard = bless_lock();
        let mut lines: Vec<Vec<String>> = fs::read_to_string(SNAPSHOT)
            .unwrap_or_default()
            .lines()
            .map(|line| line.split(' ').map(str::to_owned).collect())
            .collect();
        let key_order: Vec<String> = MODELS
            .iter()
            .map(|m| format!("{m:?}"))
            .chain(MODELS.iter().map(|m| format!("oracle.{m:?}")))
            .collect();
        for (name, tokens) in pins {
            let line = match lines.iter().position(|line| &line[0] == name) {
                Some(i) => &mut lines[i],
                None => {
                    lines.push(vec![name.clone()]);
                    lines.last_mut().expect("just pushed")
                }
            };
            line.retain(|old| !tokens.iter().any(|new| key(new) == key(old)));
            line.extend(tokens.iter().cloned());
            line[1..].sort_by_key(|t| key_order.iter().position(|k| k == key(t)));
        }
        let order = program_names();
        lines.sort_by_key(|line| order.iter().position(|n| n == &line[0]));
        let text: String = lines.iter().map(|line| line.join(" ") + "\n").collect();
        write_snapshot(SNAPSHOT, &text);
        return;
    }
    let pinned = read_snapshot(SNAPSHOT);
    for (name, tokens) in pins {
        let line = pinned
            .lines()
            .find(|line| line.split(' ').next() == Some(name))
            .unwrap_or_else(|| panic!("{name} has no line: {}", drifted(SNAPSHOT)));
        for token in tokens {
            assert!(
                line.split(' ').any(|pinned| pinned == token),
                "{name} {}: {}",
                key(token),
                drifted(SNAPSHOT)
            );
        }
    }
}

/// Checks every `(name, source)` program with `check` and pins the
/// tokens it returns.
fn pin(programs: impl IntoIterator<Item = (String, String)>, check: fn(&str, &str) -> Vec<String>) {
    let pins: Vec<(String, Vec<String>)> = programs
        .into_iter()
        .map(|(name, source)| {
            let tokens = check(&name, &source);
            (name, tokens)
        })
        .collect();
    check_snapshot(&pins);
}

/// The first `count` programs of a generator family, named `family#seed`.
fn generated(
    family: &'static str,
    count: u64,
    source: fn(u64) -> String,
) -> impl Iterator<Item = (String, String)> {
    (0..count).map(move |seed| (format!("{family}#{seed}"), source(seed)))
}

#[test]
fn examples_agree_across_backends() {
    pin(disk_programs("examples"), check_runs);
    pin(disk_programs("examples"), check_oracle);
}

#[test]
fn corpus_agrees_across_backends() {
    pin(disk_programs("tests/corpus"), check_runs);
}

#[test]
fn corpus_oracle_reports_agree_across_backends() {
    pin(disk_programs("tests/corpus"), check_oracle);
}

#[test]
fn generated_programs_agree_across_backends() {
    pin(
        generated("gen", GENERATED_PROGRAMS, |seed| {
            ProgramSpec::from_seed(seed).source()
        }),
        check_runs,
    );
}

#[test]
fn generated_oracle_reports_agree_across_backends() {
    pin(
        generated("gen", GENERATED_ORACLE_PROGRAMS, |seed| {
            ProgramSpec::from_seed(seed).source()
        }),
        check_oracle,
    );
}

/// Channel/actor programs exercise a disjoint VM surface — bounded
/// queues, rendezvous blocking, close semantics, actor mailboxes — so
/// they get their own sweep at the same acceptance floor as the shared-
/// memory generator. (The channel examples and corpus programs are
/// already covered by the disk-program sweeps above.)
#[test]
fn generated_channel_programs_agree_across_backends() {
    pin(
        generated("chan", GENERATED_PROGRAMS, |seed| {
            ChanSpec::from_seed(seed).source()
        }),
        check_runs,
    );
}

#[test]
fn generated_channel_oracle_reports_agree_across_backends() {
    pin(
        generated("chan", GENERATED_ORACLE_PROGRAMS, |seed| {
            ChanSpec::from_seed(seed).source()
        }),
        check_oracle,
    );
}

/// Atomic programs exercise the fourth memory-model axis: ordering-
/// annotated loads/stores/RMWs/CASes, the C11 per-location store
/// buffers, and their drain actions. Every weak behavior is pinned —
/// including the drain schedules themselves, which show up in the
/// recorded action streams.
#[test]
fn generated_atomic_programs_agree_across_backends() {
    pin(
        generated("atomic", GENERATED_PROGRAMS, |seed| {
            AtomicSpec::from_seed(seed).source()
        }),
        check_runs,
    );
}

#[test]
fn generated_atomic_oracle_reports_agree_across_backends() {
    pin(
        generated("atomic", GENERATED_ORACLE_PROGRAMS, |seed| {
            AtomicSpec::from_seed(seed).source()
        }),
        check_oracle,
    );
}
