//! The per-phase sweep behind the `bench_pipeline` binary: every
//! `clap_workloads` program reproduced end to end, with each pipeline
//! phase's time taken from the [`PhaseTimings`](clap_core::PhaseTimings)
//! that `Pipeline::reproduce` returns.
//!
//! Results are published through the [`clap_obs`] JSONL sink as
//! `bench.pipeline` / `bench.pipeline.cell` events; `obsck` enforces the
//! field schema. Each cell carries the best wall-clock of one
//! (workload, phase) and the work that phase did, so a trajectory tells
//! "did less work" from "did the same work faster". The record phase is
//! timed on its own, over batches of calls (see [`record_millis`]):
//!
//! | phase | work |
//! |---|---|
//! | `record` | VM steps the record sweep ran (`explore.steps`) |
//! | `decode` | path-log bytes decoded |
//! | `symex` | shared access points of the trace |
//! | `constrain` | constraint clauses |
//! | `solve` | solver decisions plus validated candidate schedules |
//! | `replay` | VM steps of the replay |

use crate::{solver_for, workload_config};
use clap_core::{Pipeline, PipelineConfig, ReproductionReport};
use clap_ir::Program;
use clap_workloads::Workload;
use std::time::{Duration, Instant};

/// The phases of one reproduction, in pipeline order.
pub const PHASES: [&str; 6] = ["record", "decode", "symex", "constrain", "solve", "replay"];

/// The least one batch of record calls lasts: long enough that a sweep of
/// a few µs is timed over many calls rather than once.
const RECORD_BATCH: Duration = Duration::from_millis(20);

/// One (workload, phase) measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// One of [`PHASES`].
    pub phase: &'static str,
    /// Best wall-clock over the repeats, in milliseconds.
    pub millis: f64,
    /// The phase's work count (see the module table).
    pub work: u64,
}

/// A complete per-phase sweep.
#[derive(Debug, Clone)]
pub struct PipelineBench {
    /// Cores available on the measuring host.
    pub host_cores: usize,
    /// Repeats per workload (best-of per phase).
    pub repeats: u32,
    /// One cell per workload and phase.
    pub cells: Vec<Cell>,
}

/// The configuration a workload is measured under: its own model and
/// exploration hints, and [`solver_for`] its program.
fn config_for(workload: &Workload, program: &Program) -> PipelineConfig {
    let mut config = workload_config(workload);
    config.solver = solver_for(program, Duration::from_secs(300));
    config
}

/// The record phase's time per call, in milliseconds: the best of
/// `repeats` batches of `record_failure` calls, each batch lasting at
/// least [`RECORD_BATCH`].
fn record_millis(pipeline: &Pipeline, config: &PipelineConfig, name: &str, repeats: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = Instant::now();
        let mut calls = 0u32;
        let elapsed = loop {
            pipeline
                .record_failure(config)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            calls += 1;
            let elapsed = start.elapsed();
            if elapsed >= RECORD_BATCH {
                break elapsed;
            }
        };
        best = best.min(elapsed.as_secs_f64() * 1e3 / f64::from(calls));
    }
    best
}

/// Every phase's duration in a report, in [`PHASES`] order.
fn phase_millis(report: &ReproductionReport) -> [f64; 6] {
    let p = &report.phases;
    [p.record, p.decode, p.symex, p.constrain, p.solve, p.replay].map(|d| d.as_secs_f64() * 1e3)
}

/// Runs the sweep. Each workload is reproduced once untimed with the
/// [`clap_obs`] collector on, which gives the work counts, then
/// `repeats` times with it off; each phase after record keeps its best
/// time, and the record phase takes [`record_millis`].
///
/// # Panics
///
/// Panics when a workload fails to reproduce.
pub fn run(repeats: u32) -> PipelineBench {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workloads = [
        clap_workloads::all(),
        clap_workloads::channels(),
        clap_workloads::lockfree(),
    ];
    let mut cells = Vec::new();
    for workload in workloads.into_iter().flatten() {
        let name = workload.name;
        let pipeline = Pipeline::new(workload.program());
        let config = config_for(&workload, pipeline.program());
        let reproduce = || {
            pipeline
                .reproduce(&config)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };

        clap_obs::reset();
        clap_obs::enable();
        let report = reproduce();
        clap_obs::disable();
        let counters = clap_obs::snapshot().counters;
        let counter = |n: &str| counters.get(n).copied().unwrap_or(0);
        let work = [
            counter("explore.steps"),
            report.log_bytes as u64,
            report.saps as u64,
            report.constraints.total_clauses() as u64,
            counter("solver.decisions") + counter("parallel.validated"),
            report.replay.steps,
        ];

        let mut best = [f64::INFINITY; 6];
        for _ in 0..repeats {
            for (b, m) in best.iter_mut().zip(phase_millis(&reproduce())) {
                *b = b.min(m);
            }
        }
        best[0] = record_millis(&pipeline, &config, name, repeats);
        for ((phase, millis), work) in PHASES.into_iter().zip(best).zip(work) {
            eprintln!("{name}: phase={phase} best={millis:.3}ms work={work}");
            cells.push(Cell {
                workload: name.to_owned(),
                phase,
                millis,
                work,
            });
        }
    }
    clap_obs::reset();
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
                ("millis", format!("{:.3}", cell.millis)),
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
        let cells = PHASES
            .into_iter()
            .map(|phase| Cell {
                workload: "sim_race".to_owned(),
                phase,
                millis: 0.5,
                work: 26,
            })
            .collect();
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
            PHASES.len()
        );
    }
}
