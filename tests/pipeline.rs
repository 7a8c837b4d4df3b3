//! Cross-crate integration: the full CLAP pipeline (record → decode →
//! symex → constrain → solve → replay) over the whole evaluation suite.
//!
//! The three workload-family tests also pin what each reproduction
//! recorded and computed: one line per workload in
//! `tests/snapshots/workload_recordings.snap` holding the selected seed
//! and stickiness, the recorded run's SAPs and steps, a digest of its
//! path log, and the schedule letters. A change to the VM or the record
//! sweep that picks a different failing run, or records it differently,
//! shows up as a diff here. `tests/snapshots/solver_work.snap` pins the
//! sequential solver's work on each recorded trace the same way: its
//! outcome and its decision, conflict and propagation counts. Regenerate
//! after an *intended* change with:
//!
//! ```text
//! CLAP_BLESS=1 cargo test --test pipeline
//! ```

mod common;

use clap_constraints::ConstraintSystem;
use clap_core::{AutoConfig, EngineKind, Pipeline, PipelineConfig, SolverChoice};
use clap_parallel::ParallelConfig;
use clap_solver::{SolveOutcome, SolverConfig};
use clap_workloads::Workload;
use common::Fnv;
use std::fs;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

const RECORDINGS: &str = "tests/snapshots/workload_recordings.snap";
const SOLVER_WORK: &str = "tests/snapshots/solver_work.snap";

/// The workload's own model and exploration hints, and
/// [`clap_bench::solver_for`] its program: the sequential solver, or the
/// one-validator portfolio for a program that passes messages.
fn config_for(workload: &Workload) -> PipelineConfig {
    let mut config = PipelineConfig::new(workload.model);
    config.stickiness = workload.stickiness.to_vec();
    config.seed_budget = workload.seed_budget;
    config.solver = clap_bench::solver_for(&workload.program(), Duration::from_secs(120));
    config
}

/// Records and reproduces `workload`, checks that the replay fired the
/// recorded assert, and returns the workload's snapshot line.
fn reproduce_and_describe(workload: &Workload, config: &PipelineConfig) -> String {
    let pipeline = Pipeline::new(workload.program());
    let recorded = pipeline
        .record_failure(config)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    let report = pipeline
        .reproduce_from(config, &recorded)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    assert!(
        report.reproduced,
        "{} must replay to the same failure",
        workload.name
    );
    assert!(report.constraints.total_clauses() > 0);
    assert!(report.log_bytes > 0);
    let mut log = Fnv::new();
    for thread in &recorded.log.threads {
        for c in thread.lineage.components() {
            log.bytes(&c.to_le_bytes());
        }
        log.bytes(b"|");
        log.bytes(&thread.bytes);
        log.bytes(b"\n");
    }
    format!(
        "{} {:?} seed={} stickiness={} saps={} steps={} log={:016x} schedule={}",
        workload.name,
        workload.model,
        recorded.seed,
        recorded.stickiness,
        recorded.stats.saps,
        recorded.stats.steps,
        log.0,
        report.schedule_letters,
    )
}

/// Compares `lines` (one per workload, name first) with their lines in
/// the snapshot at `path`, or rewrites those lines under `CLAP_BLESS`.
/// Several tests share a snapshot and run concurrently; each owns only
/// its own workloads' lines.
fn check_snapshot(path: &str, lines: &[String]) {
    static BLESS: Mutex<()> = Mutex::new(());
    fn name(line: &str) -> &str {
        line.split(' ').next().unwrap_or(line)
    }
    let file = Path::new(path);
    if std::env::var_os("CLAP_BLESS").is_some() {
        let _guard = BLESS.lock().unwrap_or_else(|e| e.into_inner());
        let mut all: Vec<String> = fs::read_to_string(file)
            .unwrap_or_default()
            .lines()
            .filter(|old| !lines.iter().any(|new| name(new) == name(old)))
            .map(str::to_owned)
            .chain(lines.iter().cloned())
            .collect();
        let order: Vec<&str> = every_workload().iter().map(|w| w.name).collect();
        all.sort_by_key(|line| order.iter().position(|&n| n == name(line)));
        fs::create_dir_all(file.parent().expect("snapshot dir")).expect("create snapshot dir");
        fs::write(file, all.join("\n") + "\n").expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(file)
        .unwrap_or_else(|_| panic!("{path} missing — run CLAP_BLESS=1 cargo test --test pipeline"));
    for line in lines {
        let pinned = expected.lines().find(|old| name(old) == name(line));
        assert_eq!(
            pinned,
            Some(line.as_str()),
            "{path} drifted; if the change is intended, \
             regenerate with CLAP_BLESS=1 cargo test --test pipeline"
        );
    }
}

/// The three workload families, in snapshot order.
fn every_workload() -> Vec<Workload> {
    let mut all = clap_workloads::all();
    all.extend(clap_workloads::channels());
    all.extend(clap_workloads::lockfree());
    all
}

/// Records `workload`'s failure and solves its trace with the sequential
/// solver under the workload's own model, with no deadline.
fn solve_recorded(workload: &Workload) -> SolveOutcome {
    let pipeline = Pipeline::new(workload.program());
    let recorded = pipeline
        .record_failure(&config_for(workload))
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    let trace = pipeline
        .symbolic_trace(&recorded)
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    let system = ConstraintSystem::build(pipeline.program(), &trace, workload.model);
    clap_solver::solve(pipeline.program(), &system, SolverConfig::default())
}

/// The sequential solver's work on every workload's recorded trace, under
/// the workload's own model and with no deadline, is pinned in
/// [`SOLVER_WORK`]: a change that makes the search take other decisions
/// shows up as a diff even when the schedule stays the same. The counts
/// come from the returned stats, so concurrent tests cannot leak into
/// them.
#[test]
fn sequential_solver_work_is_pinned() {
    let lines: Vec<String> = every_workload()
        .iter()
        .map(|w| {
            let (outcome, stats) = match solve_recorded(w) {
                SolveOutcome::Sat(solution) => ("sat", solution.stats),
                SolveOutcome::Unsat(stats) => ("unsat", stats),
                SolveOutcome::Timeout(stats) => ("timeout", stats),
            };
            format!(
                "{} {:?} outcome={outcome} decisions={} conflicts={} propagations={}",
                w.name, w.model, stats.decisions, stats.conflicts, stats.propagations,
            )
        })
        .collect();
    check_snapshot(SOLVER_WORK, &lines);
}

/// Every workload of the paper's Table 1 reproduces end to end with the
/// sequential solver.
#[test]
fn all_workloads_reproduce_sequentially() {
    let lines: Vec<String> = clap_workloads::all()
        .iter()
        .map(|w| reproduce_and_describe(w, &config_for(w)))
        .collect();
    check_snapshot(RECORDINGS, &lines);
}

/// The lock-free workload family reproduces end to end under the C11
/// model: the per-location drain encoding must admit the recorded
/// weak-memory failure, and the replayer must place the buffered atomic
/// stores at their solved drain positions to fire the same assert.
#[test]
fn lockfree_workloads_reproduce_under_c11() {
    let lines: Vec<String> = clap_workloads::lockfree()
        .iter()
        .map(|w| reproduce_and_describe(w, &config_for(w)))
        .collect();
    check_snapshot(RECORDINGS, &lines);
}

/// The channel and actor family reproduces end to end. The sequential
/// search alone gives up on some channel traces, so these pass messages
/// through the adaptive portfolio (see [`config_for`]).
#[test]
fn channel_workloads_reproduce_with_the_portfolio() {
    let lines: Vec<String> = clap_workloads::channels()
        .iter()
        .map(|w| reproduce_and_describe(w, &config_for(w)))
        .collect();
    check_snapshot(RECORDINGS, &lines);
}

/// Regression: when the validator rejects the linearized order of a
/// complete assignment, the search must undo the top decision's current
/// candidate and try the next one. It used to pop the frame without
/// undoing it, which left that variable decided while its edges and
/// pending constraints were gone. chan_fanin's recorded trace reaches
/// this path, and debug builds check in `pick_decision` that every
/// decided variable still has its frame. The exhausted search reports
/// Timeout, not Unsat, because the trace has channel operations.
#[test]
fn failed_extraction_moves_the_top_decision_on() {
    let w = clap_workloads::by_name("chan_fanin").expect("chan_fanin exists");
    let outcome = solve_recorded(&w);
    assert!(matches!(outcome, SolveOutcome::Timeout(_)), "{outcome:?}");
}

/// Regression: a failing assert *beyond the recorded trace's horizon*
/// must not derail the replay. In this shape (minimized by the checker's
/// shrinker from atomic-fuzz seed 134), the recorded run fails w1's
/// assert while w0 sits between its last SAP and its own copy of the
/// same assert. That trailing assert was never executed, so F_path does
/// not pin its operand — the solver may assign a value that flips it,
/// and a replayer that free-runs asserts fires the wrong one first. The
/// scheduler must hold it and reach the recorded failure.
#[test]
fn trailing_assert_beyond_trace_horizon_does_not_derail_replay() {
    let src = r#"
        atomic int f;
        atomic int data;
        atomic int flag;
        fn w0() {
            let f0: int = load(flag, acquire);
            if ((f0 == 1)) {
                let d0: int = load(data, acquire);
                assert((d0 == 7), "published data visible");
            }
        }
        fn w1() {
            let f0: int = load(flag, acquire);
            if ((f0 == 1)) {
                let d0: int = load(data, acquire);
                assert((d0 == 7), "published data visible");
            }
            store(data, 7, relaxed);
        }
        fn w2() {
            store(data, 7, relaxed);
            store(flag, 1, relaxed);
            let t1: int = cas(f, 0, 1, seq_cst);
        }
        fn main() {
            let h0: thread = fork w0();
            let h1: thread = fork w1();
            let h2: thread = fork w2();
            join h0;
        }
    "#;
    let mut config = PipelineConfig::new(clap_vm::MemModel::C11);
    config.seed_budget = 2000;
    config.stickiness = vec![0.9, 0.7, 0.5, 0.3];
    config.solver = SolverChoice::Auto(AutoConfig::default());
    let pipeline = Pipeline::new(clap_ir::parse(src).expect("parse"));
    let recorded = pipeline.record_failure(&config).expect("record");
    let report = pipeline
        .reproduce_from(&config, &recorded)
        .expect("replay must reach the recorded assert");
    assert!(report.reproduced);
}

/// A representative subset also reproduces with the parallel engine, at
/// small preemption counts.
#[test]
fn parallel_engine_reproduces_with_few_preemptions() {
    for name in ["sim_race", "aget", "swarm", "pbzip2", "dekker", "peterson"] {
        let workload = clap_workloads::by_name(name).expect("workload exists");
        let pipeline = Pipeline::new(workload.program());
        let mut config = config_for(&workload);
        config.solver = SolverChoice::Parallel(ParallelConfig {
            timeout: Some(Duration::from_secs(120)),
            ..ParallelConfig::default()
        });
        let report = pipeline
            .reproduce(&config)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.reproduced, "{name}");
        assert!(
            report.context_switches <= 3,
            "{name}: parallel schedules stay within the paper's ≤3 preemptions, got {}",
            report.context_switches
        );
    }
}

/// pfscan's recorded trace needs more preemption points than the parallel
/// engine's small bounds reach, so the bare engine exhausts its ladder
/// rungs without a candidate. The portfolio must classify that correctly
/// (exhausted, not unsat), fall back to the sequential solver, and still
/// reproduce end to end — naming the winning engine in the report.
#[test]
fn auto_portfolio_reproduces_pfscan() {
    let workload = clap_workloads::by_name("pfscan").expect("pfscan exists");
    let pipeline = Pipeline::new(workload.program());
    let mut config = config_for(&workload);
    config.solver =
        SolverChoice::Auto(AutoConfig::default().with_solve_timeout(Duration::from_secs(120)));
    let report = pipeline.reproduce(&config).expect("auto reproduces pfscan");
    assert!(report.reproduced);
    assert_eq!(
        report.portfolio.winner,
        Some(EngineKind::Sequential),
        "the small-bound ladder cannot realize pfscan's schedule; the \
         sequential fallback must win: {:?}",
        report.portfolio
    );
    assert!(
        report.portfolio.attempts.len() > 1,
        "the ladder attempts must be on record: {:?}",
        report.portfolio
    );
}

/// The recorded artifact (path log + crash context) is self-contained:
/// decoding + symex + solving twice from the same recording gives
/// schedules with identical witnesses.
#[test]
fn offline_phase_is_deterministic() {
    let workload = clap_workloads::by_name("pfscan").expect("pfscan exists");
    let pipeline = Pipeline::new(workload.program());
    let config = config_for(&workload);
    let recorded = pipeline.record_failure(&config).expect("failure found");
    let a = pipeline
        .reproduce_from(&config, &recorded)
        .expect("first solve");
    let b = pipeline
        .reproduce_from(&config, &recorded)
        .expect("second solve");
    assert_eq!(
        a.schedule.order, b.schedule.order,
        "solver is deterministic"
    );
    assert_eq!(a.witness.assignment, b.witness.assignment);
}

/// Replays are repeatable: running the computed schedule twice fires the
/// same assert after the same number of schedule positions.
#[test]
fn replay_is_deterministic() {
    let workload = clap_workloads::by_name("aget").expect("aget exists");
    let pipeline = Pipeline::new(workload.program());
    let config = config_for(&workload);
    let recorded = pipeline.record_failure(&config).expect("failure found");
    let report = pipeline
        .reproduce_from(&config, &recorded)
        .expect("reproduce");
    let trace = pipeline.symbolic_trace(&recorded).expect("trace");
    for _ in 0..3 {
        let replayed = clap_replay::replay(
            pipeline.program(),
            workload.model,
            pipeline.sharing().shared_spec(),
            &trace,
            &report.schedule,
            recorded.assert,
        )
        .expect("replay");
        assert!(replayed.reproduced);
        assert_eq!(
            replayed.positions_consumed,
            report.replay.positions_consumed
        );
    }
}

/// Table-harness helpers work end to end (used by the table binaries).
#[test]
fn bench_helpers_produce_rows() {
    let w = clap_workloads::by_name("sim_race").unwrap();
    let t1 = clap_bench::table1_row(&w).expect("table 1 row");
    assert!(t1.success);
    let heavy = clap_workloads::table2_suite()
        .into_iter()
        .find(|w| w.name == "racey")
        .expect("heavy racey");
    let t2 = clap_bench::table2_row(&heavy, 3);
    assert!(
        t2.leap_bytes > t2.clap_bytes,
        "CLAP logs beat LEAP on racey"
    );
}
