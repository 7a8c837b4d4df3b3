//! The per-layer sweep behind the `bench_pipeline` binary: every
//! `clap_workloads` program reproduced end to end, with each pipeline
//! phase timed on its own, plus the VM's two hot loops and the design
//! ablations DESIGN.md cites.
//!
//! Results are published through the [`clap_obs`] JSONL sink as
//! `bench.pipeline` / `bench.pipeline.cell` events; `obsck` enforces the
//! field schema. Each cell carries the time per call of one (workload,
//! phase) and the work that call did, so a trajectory tells "did less
//! work" from "did the same work faster".
//!
//! A sweep runs `repeats` rounds. Each round times every cell once with
//! `batch_millis`, the mean per call within a batch of calls lasting
//! at least `BATCH` (20 ms), and each cell keeps its best round. A round takes
//! about 1.4 s on a 2-vCPU Xeon VM, so a cell's batches are spread over
//! the whole run: a host that slows down for a few seconds slows only
//! some of them.
//!
//! | phase | workloads | work |
//! |---|---|---|
//! | `record` | all | VM steps the record sweep ran (`explore.steps`) |
//! | `decode` | all | path-log bytes decoded |
//! | `symex` | all | shared access points of the trace |
//! | `constrain` | all | constraint clauses |
//! | `solve` | all | solver decisions plus validated candidate schedules |
//! | `replay` | all | VM steps of the replay |
//! | `sweep` | [`VM_WORKLOADS`] | VM steps of [`vm::SWEEP_SEEDS`] seeded runs |
//! | `oracle` | [`VM_WORKLOADS`] | oracle executions, capped at [`vm::ORACLE_EXECUTIONS`] |
//! | `memmodel_{sc,tso,pso}` | dekker | VM steps of 100 seeded runs under each model |
//! | `csbound_{1,2,3}` | chan_fanin | candidates the one-worker parallel engine validated up to that preemption bound |
//! | `pruning_{on,off}` | peterson | candidates generated at preemption bound 1, with and without prefix pruning |
//! | `syncorder_{off,on}` | pfscan | sequential solver decisions without and with the recorded sync order |
//!
//! The record phase is timed over `Pipeline::record_failure` calls, and
//! the offline phases over `Pipeline::reproduce_from` calls on one
//! recording, each phase summing its share of the calls'
//! [`PhaseTimings`](clap_core::PhaseTimings).

use crate::vm::{self, VM_WORKLOADS};
use crate::{solver_for, workload_config};
use clap_constraints::{ConstraintSystem, Schedule, Walk};
use clap_core::{Pipeline, PipelineConfig, RecordedFailure};
use clap_ir::Program;
use clap_parallel::{for_each_csp_set, solve_parallel, Generator, ParallelConfig};
use clap_solver::{SolveOutcome, SolverConfig};
use clap_symex::SymTrace;
use clap_vm::{MemModel, NullMonitor, RandomScheduler, Vm};
use clap_workloads::Workload;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The phases of one reproduction, in pipeline order.
pub const PHASES: [&str; 6] = ["record", "decode", "symex", "constrain", "solve", "replay"];

/// The least one batch of calls lasts: long enough that a call of a few
/// µs is timed over many calls rather than once.
const BATCH: Duration = Duration::from_millis(20);

/// One (workload, phase) measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// The row's phase (see the module table).
    pub phase: &'static str,
    /// Mean time per call in the best round, in milliseconds.
    pub millis: f64,
    /// The call's work count (see the module table).
    pub work: u64,
}

impl Cell {
    fn new(workload: &str, phase: &'static str, millis: f64, work: u64) -> Self {
        Cell {
            workload: workload.to_owned(),
            phase,
            millis,
            work,
        }
    }
}

/// A complete sweep.
#[derive(Debug, Clone)]
pub struct PipelineBench {
    /// Cores available on the measuring host.
    pub host_cores: usize,
    /// Rounds (best-of per cell).
    pub repeats: u32,
    /// One cell per workload and phase.
    pub cells: Vec<Cell>,
}

/// Times `call` over one batch, calling it until the batch has lasted
/// at least [`BATCH`]: per measured part of the call, its mean time per
/// call, in milliseconds. `call` returns the time each of its `N` parts
/// took.
fn batch_millis<const N: usize>(mut call: impl FnMut() -> [Duration; N]) -> [f64; N] {
    let start = Instant::now();
    let mut sums = [Duration::ZERO; N];
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < BATCH {
        for (sum, part) in sums.iter_mut().zip(call()) {
            *sum += part;
        }
        calls += 1;
    }
    sums.map(|sum| sum.as_secs_f64() * 1e3 / f64::from(calls))
}

/// A row whose call returns its own work count: one untimed call gives
/// the work, then [`batch_millis`] times the whole call, which must do
/// the same work every time.
pub(crate) fn measure(workload: &str, phase: &'static str, mut call: impl FnMut() -> u64) -> Cell {
    let work = call();
    let [millis] = batch_millis(|| {
        let start = Instant::now();
        let again = call();
        let elapsed = start.elapsed();
        assert_eq!(
            again, work,
            "{workload} {phase}: work changed between calls"
        );
        [elapsed]
    });
    Cell::new(workload, phase, millis, work)
}

/// The configuration a workload is measured under: its own model and
/// exploration hints, and [`solver_for`] its program.
fn config_for(workload: &Workload, program: &Program) -> PipelineConfig {
    let mut config = workload_config(workload);
    config.solver = solver_for(program, Duration::from_secs(300));
    config
}

/// The six phase cells of one workload. One recording is made with the
/// [`clap_obs`] collector on and reproduced once, which gives the work
/// counts; the timed batches run with it off.
fn phase_cells(workload: &Workload) -> Vec<Cell> {
    let name = workload.name;
    let pipeline = Pipeline::new(workload.program());
    let config = config_for(workload, pipeline.program());
    let record = || {
        pipeline
            .record_failure(&config)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let reproduce_from = |recorded: &RecordedFailure| {
        pipeline
            .reproduce_from(&config, recorded)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };

    clap_obs::reset();
    clap_obs::enable();
    let recorded = record();
    let report = reproduce_from(&recorded);
    clap_obs::disable();
    let counters = clap_obs::snapshot().counters;
    clap_obs::reset();
    let counter = |n: &str| counters.get(n).copied().unwrap_or(0);
    let work = [
        counter("explore.steps"),
        report.log_bytes as u64,
        report.saps as u64,
        report.constraints.total_clauses() as u64,
        counter("solver.decisions") + counter("parallel.validated"),
        report.replay.steps,
    ];

    let [record_ms] = batch_millis(|| {
        let start = Instant::now();
        record();
        [start.elapsed()]
    });
    let offline_ms = batch_millis(|| {
        let p = reproduce_from(&recorded).phases;
        [p.decode, p.symex, p.constrain, p.solve, p.replay]
    });
    let millis = std::iter::once(record_ms).chain(offline_ms);
    PHASES
        .into_iter()
        .zip(millis)
        .zip(work)
        .map(|((phase, millis), work)| Cell::new(name, phase, millis, work))
        .collect()
}

/// Store-buffer drains as scheduler events: the cost of 100 seeded runs
/// of dekker under each model. Dekker fails only under TSO and PSO, so
/// the SC runs all go to completion.
fn memmodel_cells() -> Vec<Cell> {
    let program = clap_workloads::by_name("dekker")
        .expect("dekker exists")
        .program();
    [
        ("memmodel_sc", MemModel::Sc),
        ("memmodel_tso", MemModel::Tso),
        ("memmodel_pso", MemModel::Pso),
    ]
    .into_iter()
    .map(|(phase, model)| {
        measure("dekker", phase, || {
            let mut vm = Vm::new(&program, model);
            vm.set_step_limit(500_000);
            let mut steps = 0;
            for seed in 0..100 {
                vm.reset();
                let mut sched = RandomScheduler::with_stickiness(seed, 0.9);
                vm.run(&mut sched, &mut NullMonitor);
                steps += vm.stats().steps;
            }
            steps
        })
    })
    .collect()
}

/// A workload's recorded failure and its symbolic trace.
fn recorded_trace(
    workload: &Workload,
    record_sync_order: bool,
) -> (Pipeline, RecordedFailure, SymTrace) {
    let pipeline = Pipeline::new(workload.program());
    let mut config = workload_config(workload);
    config.record_sync_order = record_sync_order;
    let recorded = pipeline.record_failure(&config).expect("workload fails");
    let trace = pipeline.symbolic_trace(&recorded).expect("trace builds");
    (pipeline, recorded, trace)
}

/// The preemption bound's effect on the parallel engine: chan_fanin,
/// whose first schedule needs two preemptions, solved with bounds `0..=1`
/// (which exhausts), `0..=2` and `0..=3`. One validator takes the
/// candidates in generation order, so the count it validates does not
/// depend on thread timing (the count generated does).
fn csbound_cells() -> Vec<Cell> {
    let workload = clap_workloads::by_name("chan_fanin").expect("chan_fanin exists");
    let (pipeline, _, trace) = recorded_trace(&workload, false);
    let system = ConstraintSystem::build(pipeline.program(), &trace, workload.model);
    [("csbound_1", 1), ("csbound_2", 2), ("csbound_3", 3)]
        .into_iter()
        .map(|(phase, max_cs)| {
            let config = ParallelConfig {
                workers: 1,
                max_cs,
                ..ParallelConfig::default()
            };
            measure(workload.name, phase, || {
                solve_parallel(pipeline.program(), &system, config)
                    .stats()
                    .validated
            })
        })
        .collect()
}

/// Generator prefix pruning against the paper's blind
/// generate-then-validate split: peterson's candidates at preemption
/// bound 1 (at most 200 CSP sets and 20,000 candidates), each validated.
fn pruning_cells() -> Vec<Cell> {
    const CANDIDATES: u64 = 20_000;
    let workload = clap_workloads::by_name("peterson").expect("peterson exists");
    let (pipeline, _, trace) = recorded_trace(&workload, false);
    let program = pipeline.program();
    let system = ConstraintSystem::build(program, &trace, workload.model);
    [("pruning_on", true), ("pruning_off", false)]
        .into_iter()
        .map(|(phase, prune)| {
            measure(workload.name, phase, || {
                let mut generator = if prune {
                    Generator::new(program, &system, CANDIDATES)
                } else {
                    Generator::without_pruning(&system, CANDIDATES)
                };
                let mut generated = 0;
                let mut walk = Walk::new(program, &system);
                let mut schedule = Schedule { order: Vec::new() };
                for_each_csp_set(&system, 1, 200, &mut |set| {
                    generator.run(set, &mut |order| {
                        generated += 1;
                        schedule.order.clear();
                        schedule.order.extend_from_slice(order);
                        black_box(walk.validate(&schedule).is_ok());
                        generated < CANDIDATES
                    })
                });
                generated
            })
        })
        .collect()
}

/// The §6.4 variant: recording the sync order collapses the locking and
/// wait-matching search. pfscan's recorded failure solved sequentially
/// without and with the recorded order's extra chains.
fn syncorder_cells() -> Vec<Cell> {
    let workload = clap_workloads::by_name("pfscan").expect("pfscan exists");
    let (pipeline, recorded, trace) = recorded_trace(&workload, true);
    let program = pipeline.program();
    let plain = ConstraintSystem::build(program, &trace, workload.model);
    let mut chained = plain.clone();
    chained
        .apply_sync_order(recorded.sync_order.as_ref().expect("sync order"))
        .expect("log matches trace");
    [("syncorder_off", &plain), ("syncorder_on", &chained)]
        .into_iter()
        .map(|(phase, system)| {
            measure(workload.name, phase, || {
                match clap_solver::solve(program, system, SolverConfig::default()) {
                    SolveOutcome::Sat(solution) => solution.stats.decisions,
                    SolveOutcome::Unsat(stats) | SolveOutcome::Timeout(stats) => stats.decisions,
                }
            })
        })
        .collect()
}

/// One round: every workload's phase cells, then the VM cells, then the
/// ablation cells, each timed over one batch.
fn round() -> Vec<Cell> {
    let workloads = [
        clap_workloads::all(),
        clap_workloads::channels(),
        clap_workloads::lockfree(),
    ];
    let mut cells = Vec::new();
    for workload in workloads.iter().flatten() {
        cells.extend(phase_cells(workload));
    }
    for name in VM_WORKLOADS {
        cells.extend(vm::cells(name));
    }
    cells.extend(memmodel_cells());
    cells.extend(csbound_cells());
    cells.extend(pruning_cells());
    cells.extend(syncorder_cells());
    cells
}

/// Runs the sweep: `repeats` rounds, each cell keeping its best.
///
/// # Panics
///
/// Panics when a workload fails to reproduce, or when a row's work
/// differs between two of its calls.
pub fn run(repeats: u32) -> PipelineBench {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut cells = round();
    for _ in 1..repeats {
        for (best, cell) in cells.iter_mut().zip(round()) {
            assert_eq!(
                best.work, cell.work,
                "{} {}: work changed between rounds",
                cell.workload, cell.phase
            );
            best.millis = best.millis.min(cell.millis);
        }
    }
    for c in &cells {
        eprintln!(
            "{}: phase={} best={:.4}ms work={}",
            c.workload, c.phase, c.millis, c.work
        );
    }
    PipelineBench {
        host_cores,
        repeats,
        cells,
    }
}

/// Records the sweep into the global [`clap_obs`] collector: one
/// `bench.pipeline` header event plus one `bench.pipeline.cell` event per
/// measurement. Flushing an observer with a metrics path then yields the
/// JSONL artifact.
pub fn emit_events(bench: &PipelineBench) {
    clap_obs::event(
        "bench.pipeline",
        &[
            ("host_cores", bench.host_cores.to_string()),
            ("repeats", bench.repeats.to_string()),
        ],
    );
    for cell in &bench.cells {
        clap_obs::event(
            "bench.pipeline.cell",
            &[
                ("workload", cell.workload.clone()),
                ("phase", cell.phase.to_owned()),
                ("millis", format!("{:.4}", cell.millis)),
                ("work", cell.work.to_string()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_follow_the_strict_schema() {
        let _l = clap_obs::test_lock();
        clap_obs::reset();
        clap_obs::enable();
        let cell = |workload: &str, phase, work| Cell {
            workload: workload.to_owned(),
            phase,
            millis: 0.5,
            work,
        };
        let mut cells: Vec<Cell> = PHASES
            .into_iter()
            .map(|phase| cell("sim_race", phase, 26))
            .collect();
        cells.push(cell("sim_race", "sweep", 17_936));
        cells.push(cell("dekker", "memmodel_tso", 12_345));
        emit_events(&PipelineBench {
            host_cores: 2,
            repeats: 3,
            cells,
        });
        clap_obs::disable();
        let snap = clap_obs::snapshot();
        let mut buf = Vec::new();
        clap_obs::sink::write_jsonl(&snap, &mut buf).unwrap();
        for line in String::from_utf8(buf).unwrap().lines() {
            clap_obs::sink::validate_jsonl_line(line).unwrap();
        }
        assert_eq!(
            snap.events
                .iter()
                .filter(|e| e.name == "bench.pipeline.cell")
                .count(),
            PHASES.len() + 2
        );
    }

    /// `benchdiff` fails on any change of work, so a row whose work moved
    /// between runs would fail every comparison. The cheap new rows,
    /// computed twice, must agree, and each ablation must show its effect.
    #[test]
    fn new_rows_do_the_same_work_every_run() {
        let work = || {
            let mut cells = vm::cells("sim_race").to_vec();
            cells.extend(csbound_cells());
            cells.extend(syncorder_cells());
            cells
                .into_iter()
                .map(|c| (c.phase, c.work))
                .collect::<Vec<_>>()
        };
        let first = work();
        assert_eq!(
            first.iter().map(|&(phase, _)| phase).collect::<Vec<_>>(),
            [
                "sweep",
                "oracle",
                "csbound_1",
                "csbound_2",
                "csbound_3",
                "syncorder_off",
                "syncorder_on"
            ]
        );
        assert_eq!(first[0].1, 17_936, "sim_race sweep steps");
        assert_eq!(
            first[1].1,
            vm::ORACLE_EXECUTIONS,
            "sim_race oracle executions"
        );
        assert_ne!(first[2].1, first[3].1, "bound 1 exhausts, bound 2 finds");
        assert!(first[5].1 > first[6].1, "the sync order saves decisions");
        assert_eq!(first, work());
    }
}
