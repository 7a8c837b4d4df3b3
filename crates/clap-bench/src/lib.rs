//! The benchmark harness: shared measurement helpers behind the
//! `table1`/`table2`/`table3` and `figure2`/`figure3`/`figure4` binaries
//! that regenerate every table and figure of the paper's evaluation (§6),
//! plus the trajectory sweeps behind `bench_vm`, `bench_pipeline` and
//! `bench_serve`.

pub mod diff;
pub mod pipeline;
pub mod serve;
pub mod vm;

use clap_constraints::{count, ConstraintSystem};
use clap_core::{
    solve_auto, AutoConfig, EngineKind, Pipeline, PipelineConfig, PortfolioOutcome,
    RecordedFailure, SolverChoice,
};
use clap_ir::{Instr, Program};
use clap_leap::LeapRecorder;
use clap_parallel::{solve_parallel, worst_case_schedules_log10, ParallelConfig, ParallelOutcome};
use clap_profile::{BlTables, PathRecorder};
use clap_solver::{solve, SolveOutcome, SolverConfig};
use clap_vm::{MemModel, NullMonitor, RandomScheduler, Vm};
use clap_workloads::Workload;
use std::time::{Duration, Instant};

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Workload name.
    pub name: String,
    /// DSL lines of code.
    pub loc: usize,
    /// Threads in the buggy execution.
    pub threads: usize,
    /// Shared variables (`#SV`).
    pub shared_vars: usize,
    /// Executed instructions (`#Inst`).
    pub instructions: u64,
    /// Executed conditional branches (`#Br`).
    pub branches: u64,
    /// Shared access points (`#SAPs`).
    pub saps: usize,
    /// Constraint clauses (`#Constraints`).
    pub constraints: usize,
    /// Unknown variables (`#Variables`).
    pub variables: usize,
    /// Symbolic phase time.
    pub time_symbolic: Duration,
    /// Sequential solve time.
    pub time_solve: Duration,
    /// Context switches of the computed schedule (`#cs`).
    pub cs: usize,
    /// Whether the replay reproduced the bug.
    pub success: bool,
}

/// Runs the whole pipeline for a workload with the sequential solver.
///
/// # Errors
///
/// Propagates any [`clap_core::PipelineError`] as a string.
pub fn table1_row(workload: &Workload) -> Result<Table1Row, String> {
    let pipeline = Pipeline::new(workload.program());
    let config = workload_config(workload);
    let report = pipeline.reproduce(&config).map_err(|e| e.to_string())?;
    Ok(Table1Row {
        name: workload.name.to_owned(),
        loc: workload.loc(),
        threads: report.threads,
        shared_vars: report.shared_vars,
        instructions: report.instructions,
        branches: report.branches,
        saps: report.saps,
        constraints: report.constraints.total_clauses(),
        variables: report.constraints.total_vars(),
        time_symbolic: report.time_symbolic,
        time_solve: report.time_solve,
        cs: report.context_switches,
        success: report.reproduced,
    })
}

/// The pipeline configuration a workload's hints imply.
pub fn workload_config(workload: &Workload) -> PipelineConfig {
    let mut config = PipelineConfig::new(workload.model);
    config.stickiness = workload.stickiness.to_vec();
    config.seed_budget = workload.seed_budget;
    config.solver = SolverChoice::Sequential(SolverConfig {
        timeout: Some(Duration::from_secs(300)),
        max_decisions: 0,
    });
    config
}

/// The solver a workload is reproduced with where a run must not depend
/// on the host: the sequential search, unless the program passes
/// messages. The sequential search alone gives up on some channel
/// traces, so those get the adaptive portfolio, with one validator
/// worker so that the schedule does not depend on how a shared host
/// schedules a pool. `timeout` is the solve deadline either way.
pub fn solver_for(program: &Program, timeout: Duration) -> SolverChoice {
    let passes_messages = program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.instrs)
        .any(|instr| {
            matches!(
                instr,
                Instr::Send { .. }
                    | Instr::Recv { .. }
                    | Instr::TrySend { .. }
                    | Instr::TryRecv { .. }
                    | Instr::ChanClose(_)
                    | Instr::SpawnActor { .. }
                    | Instr::MailboxSend { .. }
                    | Instr::MailboxRecv { .. }
            )
        });
    if passes_messages {
        SolverChoice::Auto(AutoConfig {
            parallel: ParallelConfig {
                workers: 1,
                ..ParallelConfig::default()
            },
            ..AutoConfig::default().with_solve_timeout(timeout)
        })
    } else {
        SolverChoice::Sequential(SolverConfig {
            timeout: Some(timeout),
            max_decisions: 0,
        })
    }
}

/// One Table 2 row: recording overhead and log size, native vs LEAP vs
/// CLAP, from rounds of the same seeded execution run under each.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Workload name.
    pub name: String,
    /// Rounds measured (one native, one LEAP and one CLAP run each).
    pub rounds: u32,
    /// Median native run time (no instrumentation).
    pub native: Duration,
    /// Median run time with the LEAP recorder.
    pub leap: Duration,
    /// Median run time with the CLAP path recorder.
    pub clap: Duration,
    /// Interquartile range of the per-round LEAP overhead, in
    /// percentage points.
    pub leap_spread_pct: f64,
    /// Interquartile range of the per-round CLAP overhead, in
    /// percentage points.
    pub clap_spread_pct: f64,
    /// LEAP log size in bytes.
    pub leap_bytes: usize,
    /// CLAP log size in bytes.
    pub clap_bytes: usize,
}

impl Table2Row {
    /// LEAP overhead of the median over the native median, in percent.
    pub fn leap_overhead_pct(&self) -> f64 {
        overhead_pct(self.native, self.leap)
    }

    /// CLAP overhead of the median over the native median, in percent.
    pub fn clap_overhead_pct(&self) -> f64 {
        overhead_pct(self.native, self.clap)
    }

    /// Whether the LEAP overhead is no larger than its per-round spread,
    /// i.e. not resolved from zero by this measurement.
    pub fn leap_within_spread(&self) -> bool {
        self.leap_overhead_pct().abs() <= self.leap_spread_pct
    }

    /// Whether the CLAP overhead is no larger than its per-round spread.
    pub fn clap_within_spread(&self) -> bool {
        self.clap_overhead_pct().abs() <= self.clap_spread_pct
    }

    /// Runtime-overhead reduction of CLAP vs LEAP, in percent.
    pub fn time_reduction_pct(&self) -> f64 {
        let leap = self.leap.as_secs_f64();
        let clap = self.clap.as_secs_f64();
        if leap <= 0.0 {
            return 0.0;
        }
        100.0 * (leap - clap) / leap
    }

    /// Log-size reduction of CLAP vs LEAP, in percent.
    pub fn space_reduction_pct(&self) -> f64 {
        if self.leap_bytes == 0 {
            return 0.0;
        }
        100.0 * (self.leap_bytes as f64 - self.clap_bytes as f64) / self.leap_bytes as f64
    }
}

fn overhead_pct(native: Duration, instrumented: Duration) -> f64 {
    let n = native.as_secs_f64();
    if n <= 0.0 {
        return 0.0;
    }
    100.0 * (instrumented.as_secs_f64() - n) / n
}

/// The least wall time [`table2_row`] spends measuring one row.
pub const TABLE2_ROW_TIME: Duration = Duration::from_millis(200);

/// The `q`-quantile of `sorted` (linear interpolation between ranks).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    Duration::from_secs_f64(quantile(&secs, 0.5))
}

/// The interquartile range of the per-round overheads of `instrumented`
/// over `native`, in percentage points.
fn overhead_spread(native: &[Duration], instrumented: &[Duration]) -> f64 {
    let mut ovh: Vec<f64> = native
        .iter()
        .zip(instrumented)
        .map(|(&n, &i)| overhead_pct(n, i))
        .collect();
    ovh.sort_by(f64::total_cmp);
    quantile(&ovh, 0.75) - quantile(&ovh, 0.25)
}

/// Measures a workload's recording overhead (Table 2). The same seed and
/// stickiness drive all three configurations, so the executions are
/// identical modulo instrumentation. The runs are interleaved round by
/// round (native, LEAP and CLAP once each, in an order that rotates every
/// round), so a drift in host speed lands on all three alike; rounds go
/// on until at least `min_rounds` ran and the row took
/// [`TABLE2_ROW_TIME`]. Each configuration reports its median run, and
/// each recorder the spread of its per-round overhead.
pub fn table2_row(workload: &Workload, min_rounds: u32) -> Table2Row {
    let program = workload.program();
    let tables = BlTables::build(&program);
    // Use a fixed mid-range seed; the interleaving does not matter for
    // overhead, only the amount of work.
    let seed = 1234;
    let stick = 0.7;

    let run_native = || {
        let mut vm = Vm::new(&program, workload.model);
        vm.set_step_limit(4_000_000);
        let mut sched = RandomScheduler::with_stickiness(seed, stick);
        vm.run(&mut sched, &mut NullMonitor);
    };
    let run_clap = || {
        let mut vm = Vm::new(&program, workload.model);
        vm.set_step_limit(4_000_000);
        let mut sched = RandomScheduler::with_stickiness(seed, stick);
        let mut rec = PathRecorder::new(&tables);
        vm.run(&mut sched, &mut rec);
        rec.finish()
    };
    let run_leap = || {
        let mut vm = Vm::new(&program, workload.model);
        vm.set_step_limit(4_000_000);
        let mut sched = RandomScheduler::with_stickiness(seed, stick);
        let mut rec = LeapRecorder::new();
        vm.run(&mut sched, &mut rec);
        rec.finish()
    };

    // Warm up, then measure.
    run_native();
    let clap_bytes = run_clap().size_bytes();
    let leap_bytes = run_leap().size_bytes();

    let configs: [&dyn Fn(); 3] = [
        &|| run_native(),
        &|| {
            run_leap();
        },
        &|| {
            run_clap();
        },
    ];
    let mut times: [Vec<Duration>; 3] = Default::default();
    let start = Instant::now();
    let mut rounds = 0u32;
    while rounds < min_rounds.max(1) || start.elapsed() < TABLE2_ROW_TIME {
        for k in 0..3 {
            let which = (rounds as usize + k) % 3;
            let t0 = Instant::now();
            configs[which]();
            times[which].push(t0.elapsed());
        }
        rounds += 1;
    }
    let [native, leap, clap] = times;

    Table2Row {
        name: workload.name.to_owned(),
        rounds,
        leap_spread_pct: overhead_spread(&native, &leap),
        clap_spread_pct: overhead_spread(&native, &clap),
        native: median(native),
        leap: median(leap),
        clap: median(clap),
        leap_bytes,
        clap_bytes,
    }
}

/// One Table 3 row: parallel vs sequential solving.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Workload name.
    pub name: String,
    /// `log10` of the worst-case schedule count.
    pub worst_log10: f64,
    /// Candidate schedules generated before stopping.
    pub generated: u64,
    /// Preemption bound at which the search stopped (`#cs`).
    pub cs_bound: usize,
    /// Correct schedules found.
    pub good: u64,
    /// Whether the parallel search found a schedule before its deadline
    /// (the paper's racey row is the analogous "did not finish" case).
    pub found: bool,
    /// Parallel search time.
    pub par_time: Duration,
    /// Sequential solver time on the same system.
    pub seq_time: Duration,
    /// Adaptive-portfolio ([`clap_core::solve_auto`]) time on the same
    /// system.
    pub auto_time: Duration,
    /// The engine the portfolio won with (`None` when it failed).
    pub auto_winner: Option<EngineKind>,
}

/// Runs both solvers on a workload's recorded failure (Table 3).
///
/// # Errors
///
/// Propagates pipeline errors as strings.
pub fn table3_row(workload: &Workload) -> Result<Table3Row, String> {
    let pipeline = Pipeline::new(workload.program());
    let config = workload_config(workload);
    let recorded: RecordedFailure = pipeline
        .record_failure(&config)
        .map_err(|e| e.to_string())?;
    let trace = pipeline
        .symbolic_trace(&recorded)
        .map_err(|e| e.to_string())?;
    let system = ConstraintSystem::build(pipeline.program(), &trace, workload.model);
    let _ = count(&system);

    let t0 = Instant::now();
    let par = solve_parallel(
        pipeline.program(),
        &system,
        ParallelConfig {
            stop_after_good: 8,
            timeout: Some(Duration::from_secs(120)),
            ..ParallelConfig::default()
        },
    );
    let par_time = t0.elapsed();
    let stats = par.stats();
    let found = matches!(par, ParallelOutcome::Found { .. });

    let t1 = Instant::now();
    let seq = solve(pipeline.program(), &system, SolverConfig::default());
    let seq_time = t1.elapsed();
    if !matches!(seq, SolveOutcome::Sat(_)) {
        return Err("sequential solver did not find a schedule".into());
    }

    let t2 = Instant::now();
    let auto = solve_auto(
        pipeline.program(),
        &system,
        &AutoConfig::default().with_solve_timeout(Duration::from_secs(120)),
    );
    let auto_time = t2.elapsed();
    let auto_winner = match &auto {
        PortfolioOutcome::Found { report, .. } => report.winner,
        PortfolioOutcome::Unsat(_) | PortfolioOutcome::Budget(_) => None,
    };

    Ok(Table3Row {
        name: workload.name.to_owned(),
        worst_log10: worst_case_schedules_log10(&system),
        generated: stats.generated,
        cs_bound: stats.cs_bound,
        good: stats.good,
        found,
        par_time,
        seq_time,
        auto_time,
        auto_winner,
    })
}

/// One Table 4 cell: the same recorded C11 failure, re-encoded and solved
/// under one memory model. Stronger models add more happens-before edges;
/// past some strength the weak behavior the trace recorded becomes
/// infeasible and the solver proves Unsat.
#[derive(Debug, Clone)]
pub struct Table4Cell {
    /// The memory model the constraint system was built for.
    pub model: MemModel,
    /// Memory-order (`F_mo`) edges — the per-model happens-before delta.
    pub hb_edges: usize,
    /// Order variables (one per SAP; fixed by the trace, listed so the
    /// table shows what the models are ordering).
    pub order_vars: usize,
    /// Total clause count.
    pub clauses: usize,
    /// Sequential solve time.
    pub solve_time: Duration,
    /// Whether the solver found a schedule (Sat).
    pub sat: bool,
}

/// One Table 4 row: a lock-free workload's recorded C11 failure swept
/// across all four memory models.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Workload name.
    pub name: String,
    /// SAPs in the recorded trace.
    pub saps: usize,
    /// One cell per memory model, in `SC, TSO, PSO, C11` order.
    pub cells: Vec<Table4Cell>,
}

/// Records one failing execution of a lock-free workload under its own
/// model (C11), then rebuilds and solves the constraint system under each
/// memory model (Table 4).
///
/// # Errors
///
/// Propagates pipeline errors as strings.
pub fn table4_row(workload: &Workload) -> Result<Table4Row, String> {
    let pipeline = Pipeline::new(workload.program());
    let config = workload_config(workload);
    let recorded: RecordedFailure = pipeline
        .record_failure(&config)
        .map_err(|e| e.to_string())?;
    let trace = pipeline
        .symbolic_trace(&recorded)
        .map_err(|e| e.to_string())?;
    let mut cells = Vec::new();
    for model in [MemModel::Sc, MemModel::Tso, MemModel::Pso, MemModel::C11] {
        let system = ConstraintSystem::build(pipeline.program(), &trace, model);
        let stats = count(&system);
        let t = Instant::now();
        let outcome = solve(
            pipeline.program(),
            &system,
            SolverConfig {
                timeout: Some(Duration::from_secs(120)),
                max_decisions: 0,
            },
        );
        cells.push(Table4Cell {
            model,
            hb_edges: stats.mo_clauses,
            order_vars: stats.order_vars,
            clauses: stats.total_clauses(),
            solve_time: t.elapsed(),
            sat: matches!(outcome, SolveOutcome::Sat(_)),
        });
    }
    Ok(Table4Row {
        name: workload.name.to_owned(),
        saps: trace.sap_count(),
        cells,
    })
}

/// Splits the observability flags (`--trace <path>`, `--metrics <path>`,
/// `-v`/`--verbose`) out of a raw argument list, returning the remaining
/// positional arguments and the configured [`clap_obs::Observer`]. Shared
/// by the bench and diagnostic binaries so they all speak the same flags
/// as `clap-reproduce`.
///
/// # Errors
///
/// Returns a message when a flag is missing its path argument.
pub fn split_obs_args(args: &[String]) -> Result<(Vec<String>, clap_obs::Observer), String> {
    let mut rest = Vec::new();
    let mut observer = clap_obs::Observer::none();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path")?;
                observer = observer.with_trace(v);
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                observer = observer.with_metrics(v);
            }
            "-v" | "--verbose" => observer = observer.with_summary(),
            other => rest.push(other.to_owned()),
        }
    }
    Ok((rest, observer))
}

/// Formats a `Duration` compactly for table cells.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_for_smallest_workload() {
        let w = clap_workloads::by_name("sim_race").unwrap();
        let row = table1_row(&w).unwrap();
        assert!(row.success);
        assert_eq!(row.threads, 5);
        assert!(row.constraints > 0);
    }

    #[test]
    fn table2_row_measures_overheads() {
        let w = clap_workloads::by_name("pfscan").unwrap();
        let row = table2_row(&w, 5);
        assert!(row.leap_bytes > row.clap_bytes, "CLAP logs are smaller");
        assert!(row.space_reduction_pct() > 0.0);
        assert!(row.rounds >= 5);
        assert!(row.leap_spread_pct >= 0.0 && row.clap_spread_pct >= 0.0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        let ms = |v: u64| Duration::from_millis(v);
        assert_eq!(median(vec![ms(3), ms(1), ms(2)]), ms(2));
        // Overheads 10, 20, 30, 40 %: IQR 17.5 - 32.5 = 15 points.
        let native = [ms(100); 4];
        let instrumented = [ms(110), ms(140), ms(120), ms(130)];
        assert!((overhead_spread(&native, &instrumented) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn table3_row_for_smallest_workload() {
        let w = clap_workloads::by_name("dekker").unwrap();
        let row = table3_row(&w).unwrap();
        assert!(row.good >= 1);
        assert!(row.worst_log10 > 1.0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_duration(Duration::from_micros(2_500)), "2.5ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }
}
