//! The VM sweep behind the `bench_vm` binary: the two inner loops
//! everything else amortizes into — seeded schedule sweeps (the record
//! phase's unit of work) and the `clap-check` oracle's bounded
//! exhaustive enumeration.
//!
//! Results are published through the [`clap_obs`] JSONL sink as
//! `bench.vm` / `bench.vm.cell` events; `obsck` enforces the field
//! schema. Each cell carries the best wall-clock of one (workload, phase)
//! and the steps it executed, so a trajectory tells "did less work" from
//! "did the same work faster".

use clap_check::OracleConfig;
use clap_vm::{NullMonitor, RandomScheduler, Vm};
use std::time::Instant;

/// Workloads swept (small → mid-size).
pub const WORKLOADS: [&str; 3] = ["sim_race", "pbzip2", "bakery"];

/// Seeds per sweep-phase measurement.
pub const SWEEP_SEEDS: u64 = 300;

/// Oracle execution cap per enumeration-phase measurement (keeps the
/// mid-size workloads' DFS bounded).
pub const ORACLE_EXECUTIONS: u64 = 3_000;

/// One (workload, phase) measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// `"sweep"` or `"oracle"`.
    pub phase: &'static str,
    /// Best wall-clock over the repeats, in milliseconds.
    pub millis: f64,
    /// Scheduler steps (sweep) or leaves explored (oracle).
    pub steps: u64,
}

/// A complete VM sweep.
#[derive(Debug, Clone)]
pub struct VmBench {
    /// Cores available on the measuring host.
    pub host_cores: usize,
    /// Repeats per cell (best-of).
    pub repeats: u32,
    /// One cell per workload and phase.
    pub cells: Vec<Cell>,
}

/// Runs the sweep: `repeats` best-of measurements per cell.
pub fn run(repeats: u32) -> VmBench {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut cells = Vec::new();
    for name in WORKLOADS {
        let workload = clap_workloads::by_name(name).expect("workload exists");
        let program = workload.program();
        let shared = clap_analysis::analyze(&program).shared_spec();

        for phase in ["sweep", "oracle"] {
            let mut best = f64::INFINITY;
            let mut steps = 0u64;
            for _ in 0..repeats {
                let t0 = Instant::now();
                steps = match phase {
                    "sweep" => {
                        let mut vm = Vm::with_shared(&program, workload.model, shared.clone());
                        vm.set_step_limit(1_000_000);
                        let mut total = 0u64;
                        for seed in 0..SWEEP_SEEDS {
                            vm.reset();
                            let mut sched = RandomScheduler::with_stickiness(seed, 0.7);
                            vm.run(&mut sched, &mut NullMonitor);
                            total += vm.stats().steps;
                        }
                        total
                    }
                    _ => {
                        let config = OracleConfig::new(workload.model)
                            .with_max_executions(ORACLE_EXECUTIONS);
                        let report =
                            clap_check::enumerate_with_shared(&program, shared.clone(), &config);
                        report.executions
                    }
                };
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            eprintln!("{name}: phase={phase} best={best:.2}ms steps={steps}");
            cells.push(Cell {
                workload: name.to_owned(),
                phase,
                millis: best,
                steps,
            });
        }
    }
    VmBench {
        host_cores,
        repeats,
        cells,
    }
}

/// Records the sweep into the global [`clap_obs`] collector: one
/// `bench.vm` header event plus one `bench.vm.cell` event per
/// measurement. Flushing an observer with a metrics path then yields the
/// JSONL artifact.
pub fn emit_events(bench: &VmBench) {
    clap_obs::event(
        "bench.vm",
        &[
            ("host_cores", bench.host_cores.to_string()),
            ("repeats", bench.repeats.to_string()),
        ],
    );
    for cell in &bench.cells {
        clap_obs::event(
            "bench.vm.cell",
            &[
                ("workload", cell.workload.clone()),
                ("phase", cell.phase.to_owned()),
                ("millis", format!("{:.3}", cell.millis)),
                ("steps", cell.steps.to_string()),
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
        let cell = |phase, millis, steps| Cell {
            workload: "sim_race".to_owned(),
            phase,
            millis,
            steps,
        };
        emit_events(&VmBench {
            host_cores: 8,
            repeats: 3,
            cells: vec![cell("sweep", 10.0, 12_345), cell("oracle", 30.0, 3_000)],
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
                .filter(|e| e.name == "bench.vm.cell")
                .count(),
            2
        );
    }
}
