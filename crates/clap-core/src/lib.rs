//! The end-to-end CLAP pipeline: **record → decode → symbolically execute
//! → constrain → solve → replay**, as one library call.
//!
//! This is the facade a downstream user adopts: feed it a program (or DSL
//! source) whose assert can fail under some interleaving, and get back a
//! [`ReproductionReport`] containing the bug-reproducing schedule, its
//! witness values, the constraint-system statistics (Table 1 columns) and
//! per-phase timings.
//!
//! # Example
//!
//! ```
//! use clap_core::{Pipeline, PipelineConfig};
//! use clap_vm::MemModel;
//!
//! let pipeline = Pipeline::from_source(
//!     "global int x = 0;
//!      fn w() { let v: int = x; yield; x = v + 1; }
//!      fn main() { let a: thread = fork w(); let b: thread = fork w();
//!                  join a; join b; assert(x == 2, \"lost update\"); }",
//! )?;
//! let report = pipeline.reproduce(&PipelineConfig::new(MemModel::Sc))?;
//! assert!(report.reproduced);
//! assert!(report.context_switches <= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use clap_analysis::{analyze, SharingAnalysis};
use clap_constraints::{count, ConstraintStats, ConstraintSystem, Schedule, Witness};
use clap_ir::{AssertId, Program};
use clap_obs::Observer;
use clap_parallel::{solve_parallel, ParallelConfig, ParallelOutcome};
use clap_profile::{decode_log, BlTables, DecodeError, PathLog, SyncOrderLog};
use clap_replay::{ReplayError, ReplayReport};
use clap_solver::{solve, SolveOutcome, SolverConfig};
use clap_symex::{execute, FailureContext, SymTrace, SymexError};
use clap_vm::{CompiledProgram, ExecStats, MemModel, Monitor};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

mod explore;
mod portfolio;
mod report_json;

pub use portfolio::{
    solve_auto, AttemptOutcome, AutoConfig, EngineKind, PortfolioAttempt, PortfolioOutcome,
    PortfolioReport,
};

/// Which offline solver reconstructs the schedule.
#[derive(Debug, Clone)]
pub enum SolverChoice {
    /// The sequential DPLL(T)-style search ([`clap_solver`]).
    Sequential(SolverConfig),
    /// The §4.3 parallel generate-and-validate engine
    /// ([`clap_parallel`]); finds minimal-context-switch schedules.
    Parallel(ParallelConfig),
    /// The adaptive portfolio ([`solve_auto`]): escalates the parallel
    /// engine up a preemption-bound ladder, then falls back to the
    /// sequential solver. The only choice that is both fast on
    /// few-preemption bugs and complete on the rest.
    Auto(AutoConfig),
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Memory model of the production run (and the replay).
    pub model: MemModel,
    /// Seeds to sweep per stickiness when hunting the failure.
    pub seed_budget: u64,
    /// Random-scheduler stickiness values to sweep.
    pub stickiness: Vec<f64>,
    /// Step limit per exploration run.
    pub step_limit: u64,
    /// The offline solver.
    pub solver: SolverChoice,
    /// Also record the global synchronization order (§6.4 variant): pays
    /// a little recording synchronization to collapse the locking and
    /// wait/signal constraints into hard edges.
    pub record_sync_order: bool,
    /// Unused: the record sweep is one sequential loop, and nothing reads
    /// this field. It remains so that code which still assigns it keeps
    /// compiling.
    pub explore_workers: usize,
    /// Observability sinks for this run. When any sink is configured,
    /// [`Pipeline::reproduce`] installs the global [`clap_obs`] collector
    /// before the record phase and flushes the sinks afterwards; the
    /// default (no sinks) leaves the collector untouched, so all
    /// instrumentation stays a no-op.
    pub observer: Observer,
}

impl PipelineConfig {
    /// A sensible default configuration for `model` using the sequential
    /// solver.
    pub fn new(model: MemModel) -> Self {
        PipelineConfig {
            model,
            seed_budget: 20_000,
            stickiness: vec![0.9, 0.7, 0.5, 0.3],
            step_limit: 2_000_000,
            solver: SolverChoice::Sequential(SolverConfig::default()),
            record_sync_order: false,
            explore_workers: 0,
            observer: Observer::none(),
        }
    }

    /// Enables §6.4 synchronization-order recording.
    pub fn with_sync_order_recording(mut self) -> Self {
        self.record_sync_order = true;
        self
    }

    /// Switches to the parallel generate-and-validate solver.
    pub fn with_parallel_solver(mut self, config: ParallelConfig) -> Self {
        self.solver = SolverChoice::Parallel(config);
        self
    }

    /// Switches to the adaptive solver portfolio.
    pub fn with_auto_solver(mut self, config: AutoConfig) -> Self {
        self.solver = SolverChoice::Auto(config);
        self
    }

    /// Overrides the exploration budget.
    pub fn with_seed_budget(mut self, budget: u64) -> Self {
        self.seed_budget = budget;
        self
    }

    /// Attaches observability sinks (trace/metrics files, stderr summary)
    /// to this pipeline run.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The DSL source did not parse/check.
    Frontend(clap_ir::Error),
    /// No explored seed manifested a failure.
    NoFailureFound,
    /// Internal error: re-running the selected seed with the recorders
    /// attached did not fail the same assert with the same statistics as
    /// its bare sweep run. Runs are a function of seed and stickiness, so
    /// this means a monitor steered the VM or the VM kept state across a
    /// reset.
    RecordDiverged {
        /// The selected seed.
        seed: u64,
    },
    /// The recorded log did not decode against the program.
    Decode(DecodeError),
    /// Symbolic execution rejected the trace.
    Symex(SymexError),
    /// The constraints are unsatisfiable, *certified by a complete
    /// search* (should not happen for a recorded failure — it indicates a
    /// modeling gap).
    Unsat,
    /// A bounded schedule search exhausted its preemption bounds without
    /// finding a schedule — and without covering the full schedule space,
    /// so this is **not** an unsatisfiability verdict. Retry with larger
    /// bounds, or use [`SolverChoice::Auto`], which escalates and falls
    /// back to a complete engine on its own.
    SearchExhausted,
    /// The solver ran out of budget.
    SolverBudget,
    /// The trace has more shared access points than the sequential
    /// solver takes on ([`clap_solver::MAX_SAPS`]), and the chosen
    /// solver runs it.
    TraceTooLarge {
        /// Shared access points in the trace.
        saps: usize,
        /// The sequential solver's bound.
        limit: usize,
    },
    /// The computed schedule did not replay.
    Replay(ReplayError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Frontend(e) => write!(f, "front end: {e}"),
            PipelineError::NoFailureFound => write!(f, "no failing interleaving found"),
            PipelineError::RecordDiverged { seed } => write!(
                f,
                "internal error: the recorded re-run of seed {seed} diverged from its sweep run"
            ),
            PipelineError::Decode(e) => write!(f, "log decoding: {e}"),
            PipelineError::Symex(e) => write!(f, "symbolic execution: {e}"),
            PipelineError::Unsat => write!(f, "constraints unsatisfiable"),
            PipelineError::SearchExhausted => write!(
                f,
                "bounded schedule search exhausted without certifying \
                 unsatisfiability (try larger bounds or the auto solver)"
            ),
            PipelineError::SolverBudget => write!(f, "solver budget exhausted"),
            PipelineError::TraceTooLarge { saps, limit } => write!(
                f,
                "trace too large for the sequential solver: {saps} shared access points \
                 (limit {limit}); try the parallel solver"
            ),
            PipelineError::Replay(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Refuses a trace of `saps` shared access points when `solver` runs the
/// sequential solver (alone or in the portfolio) and the trace is over
/// its [`clap_solver::MAX_SAPS`] bound.
fn check_sequential_capacity(solver: &SolverChoice, saps: usize) -> Result<(), PipelineError> {
    let limit = clap_solver::MAX_SAPS;
    if saps > limit && !matches!(solver, SolverChoice::Parallel(_)) {
        return Err(PipelineError::TraceTooLarge { saps, limit });
    }
    Ok(())
}

/// A recorded failing execution: what CLAP ships out of production.
#[derive(Debug)]
pub struct RecordedFailure {
    /// The seed/stickiness that triggered it (exploration detail, not
    /// part of the paper's artifact).
    pub seed: u64,
    /// Stickiness used.
    pub stickiness: f64,
    /// The thread-local path log.
    pub log: PathLog,
    /// The crash context.
    pub failure: FailureContext,
    /// The failing assert site.
    pub assert: AssertId,
    /// Execution statistics of the recorded run.
    pub stats: ExecStats,
    /// The synchronization-order log, when §6.4 recording was enabled.
    pub sync_order: Option<SyncOrderLog>,
    /// Wall time the recording sweep spent finding this failure.
    pub record_time: Duration,
}

/// Per-phase wall-time accounting for one reproduction: the six pipeline
/// phases plus the end-to-end total. The same durations are exported as a
/// root span tree through [`clap_obs`] when a collector is installed, and
/// the phases are guaranteed to sum to within a few percent of `total`
/// (the remainder is report assembly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Record phase: the exploration sweep that found the failure.
    pub record: Duration,
    /// Log decoding.
    pub decode: Duration,
    /// Path-directed symbolic execution.
    pub symex: Duration,
    /// Constraint generation (including §6.4 sync-order application and
    /// statistics counting).
    pub constrain: Duration,
    /// Offline solving (sequential or parallel).
    pub solve: Duration,
    /// Schedule-enforced replay.
    pub replay: Duration,
    /// End-to-end wall time of the reproduction.
    pub total: Duration,
}

impl PhaseTimings {
    /// Sum of the six phase durations.
    pub fn phase_sum(&self) -> Duration {
        self.record + self.decode + self.symex + self.constrain + self.solve + self.replay
    }
}

/// The end-to-end result.
#[derive(Debug)]
pub struct ReproductionReport {
    /// Threads in the recorded execution.
    pub threads: usize,
    /// Shared variables found by the static analysis (`#SV`).
    pub shared_vars: usize,
    /// Instructions executed in the recorded run (`#Inst`).
    pub instructions: u64,
    /// Conditional branches executed (`#Br`).
    pub branches: u64,
    /// Shared access points in the trace (`#SAPs`).
    pub saps: usize,
    /// Constraint-system size (`#Constraints`, `#Variables`).
    pub constraints: ConstraintStats,
    /// Path-log size in bytes (Table 2 space column).
    pub log_bytes: usize,
    /// Time spent decoding + symbolically executing + building
    /// constraints (`Time-symbolic`). Always equals
    /// `phases.decode + phases.symex + phases.constrain`.
    pub time_symbolic: Duration,
    /// Time spent solving (`Time-solve`). Always equals `phases.solve`.
    pub time_solve: Duration,
    /// Per-phase wall-time breakdown (record/decode/symex/constrain/
    /// solve/replay + total).
    pub phases: PhaseTimings,
    /// The schedule rendered as one letter per position (`M`, `A`, `B`,
    /// …) — the compact preemption-structure view, precomputed here so
    /// report consumers need not re-derive the symbolic trace.
    pub schedule_letters: String,
    /// Preemptive context switches of the computed schedule (`#cs`).
    pub context_switches: usize,
    /// The computed schedule.
    pub schedule: Schedule,
    /// Concrete witness (values + reads-from).
    pub witness: Witness,
    /// The solver attempts that produced the schedule, and which engine
    /// won. Single-entry for [`SolverChoice::Sequential`]/
    /// [`SolverChoice::Parallel`]; the full attempt ladder for
    /// [`SolverChoice::Auto`].
    pub portfolio: PortfolioReport,
    /// The replay verification.
    pub replay: ReplayReport,
    /// `true` when replay fired the recorded assert.
    pub reproduced: bool,
    /// The failing seed the recording phase used.
    pub seed: u64,
}

/// A prepared pipeline over one program.
#[derive(Debug)]
pub struct Pipeline {
    program: Program,
    sharing: SharingAnalysis,
    tables: BlTables,
    compiled: Arc<CompiledProgram>,
}

impl Pipeline {
    /// Builds the pipeline from a lowered program.
    pub fn new(program: Program) -> Self {
        let sharing = analyze(&program);
        let tables = BlTables::build(&program);
        let compiled = Arc::new(CompiledProgram::new(&program));
        Pipeline {
            program,
            sharing,
            tables,
            compiled,
        }
    }

    /// Builds the pipeline from DSL source.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Frontend`] on parse/check errors.
    pub fn from_source(source: &str) -> Result<Self, PipelineError> {
        let program = clap_ir::parse(source).map_err(PipelineError::Frontend)?;
        Ok(Pipeline::new(program))
    }

    /// The lowered program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The sharing analysis result.
    pub fn sharing(&self) -> &SharingAnalysis {
        &self.sharing
    }

    /// The program lowered to flat bytecode, compiled once at
    /// construction and shared by every VM the pipeline spins up.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// Phase 1: explores seeded schedules until an assert fails, then
    /// records the selected failing run with the CLAP recorder and returns
    /// the artifact.
    ///
    /// The failing run with the fewest shared access points among the
    /// failures found within a work budget is kept: for store-buffer bugs
    /// the cleanest failing run is near-sequential with delayed drains,
    /// and a small trace is what keeps the offline search tractable (the
    /// paper triggers failures with carefully placed timing delays, which
    /// has the same minimal-perturbation effect). After the first failure
    /// a run is cut as soon as it can no longer win (see the `explore`
    /// module).
    ///
    /// The sweep runs every seed bare and keeps only what selection
    /// reads; the selected seed alone is re-run with the recorder (and
    /// the sync-order recorder, when enabled) attached.
    ///
    /// # Errors
    ///
    /// [`PipelineError::NoFailureFound`] when the budget is exhausted;
    /// [`PipelineError::RecordDiverged`] when the recorded re-run of the
    /// selected seed does not reproduce its sweep run.
    pub fn record_failure(
        &self,
        config: &PipelineConfig,
    ) -> Result<RecordedFailure, PipelineError> {
        explore::record_failure(self, config)
    }

    /// Phase 2a: decodes the log and symbolically executes the paths.
    ///
    /// # Errors
    ///
    /// Decoding or symbolic-execution mismatches (corrupt artifacts).
    pub fn symbolic_trace(&self, recorded: &RecordedFailure) -> Result<SymTrace, PipelineError> {
        let paths = decode_log(&self.program, &self.tables, &recorded.log)
            .map_err(PipelineError::Decode)?;
        execute(
            &self.program,
            &self.sharing.shared_spec(),
            &paths,
            &recorded.failure,
        )
        .map_err(PipelineError::Symex)
    }

    /// Phase 2b+3: builds constraints, solves, and replays. The full
    /// offline side given a recorded failure.
    ///
    /// # Errors
    ///
    /// Solver/replay failures as the respective [`PipelineError`]s.
    pub fn reproduce_from(
        &self,
        config: &PipelineConfig,
        recorded: &RecordedFailure,
    ) -> Result<ReproductionReport, PipelineError> {
        self.reproduce_from_monitored(config, recorded, &mut clap_vm::NullMonitor)
    }

    /// [`Pipeline::reproduce_from`] with `monitor` attached to the replay,
    /// so that it observes the very execution the report certifies. The
    /// differential check (`clap-check`) fingerprints the replay this way.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::reproduce_from`].
    pub fn reproduce_from_monitored(
        &self,
        config: &PipelineConfig,
        recorded: &RecordedFailure,
        monitor: &mut dyn Monitor,
    ) -> Result<ReproductionReport, PipelineError> {
        let mut phases = PhaseTimings {
            record: recorded.record_time,
            ..PhaseTimings::default()
        };
        let offline_start = Instant::now();

        let t = Instant::now();
        let paths = {
            let _s = clap_obs::span("decode");
            decode_log(&self.program, &self.tables, &recorded.log).map_err(PipelineError::Decode)?
        };
        phases.decode = t.elapsed();

        let t = Instant::now();
        let trace = {
            let _s = clap_obs::span("symex");
            execute(
                &self.program,
                &self.sharing.shared_spec(),
                &paths,
                &recorded.failure,
            )
            .map_err(PipelineError::Symex)?
        };
        phases.symex = t.elapsed();
        check_sequential_capacity(&config.solver, trace.sap_count())?;

        let t = Instant::now();
        let (system, stats) = {
            let _s = clap_obs::span("constrain");
            let mut system = ConstraintSystem::build(&self.program, &trace, config.model);
            if let Some(sync_order) = &recorded.sync_order {
                system
                    .apply_sync_order(sync_order)
                    .map_err(|e| PipelineError::Symex(clap_symex::SymexError(e.to_string())))?;
            }
            let stats = count(&system);
            (system, stats)
        };
        phases.constrain = t.elapsed();

        let t = Instant::now();
        let (schedule, witness, portfolio) = {
            let _s = clap_obs::span("solve");
            match &config.solver {
                SolverChoice::Sequential(solver_config) => {
                    let outcome = solve(&self.program, &system, *solver_config);
                    let report =
                        |o| PortfolioReport::single(EngineKind::Sequential, o, t.elapsed());
                    match outcome {
                        SolveOutcome::Sat(solution) => (
                            solution.schedule,
                            solution.witness,
                            report(AttemptOutcome::Found),
                        ),
                        // The sequential search is complete: Unsat here is
                        // a certificate.
                        SolveOutcome::Unsat(_) => return Err(PipelineError::Unsat),
                        SolveOutcome::Timeout(_) => return Err(PipelineError::SolverBudget),
                    }
                }
                SolverChoice::Parallel(parallel_config) => {
                    match solve_parallel(&self.program, &system, *parallel_config) {
                        ParallelOutcome::Found {
                            schedule, witness, ..
                        } => {
                            let report = PortfolioReport::single(
                                EngineKind::Parallel,
                                AttemptOutcome::Found,
                                t.elapsed(),
                            );
                            (schedule, witness, report)
                        }
                        // A bounded search that came up empty is only an
                        // unsatisfiability proof when the engine certifies
                        // it covered the whole schedule space — and the
                        // channel/mailbox encoding is incomplete, so
                        // traces with channel ops never certify Unsat.
                        ParallelOutcome::Exhausted(stats) if stats.complete => {
                            if trace.has_channel_ops() || trace.has_atomic_ops() {
                                return Err(PipelineError::SearchExhausted);
                            }
                            return Err(PipelineError::Unsat);
                        }
                        ParallelOutcome::Exhausted(_) => {
                            return Err(PipelineError::SearchExhausted)
                        }
                        ParallelOutcome::Budget(_) => return Err(PipelineError::SolverBudget),
                    }
                }
                SolverChoice::Auto(auto_config) => {
                    match solve_auto(&self.program, &system, auto_config) {
                        PortfolioOutcome::Found {
                            schedule,
                            witness,
                            report,
                        } => (schedule, witness, report),
                        PortfolioOutcome::Unsat(_) => {
                            if trace.has_channel_ops() || trace.has_atomic_ops() {
                                return Err(PipelineError::SolverBudget);
                            }
                            return Err(PipelineError::Unsat);
                        }
                        PortfolioOutcome::Budget(_) => return Err(PipelineError::SolverBudget),
                    }
                }
            }
        };
        phases.solve = t.elapsed();

        let t = Instant::now();
        let replay_report = {
            let _s = clap_obs::span("replay");
            clap_replay::replay_compiled(
                &self.program,
                Arc::clone(&self.compiled),
                config.model,
                self.sharing.shared_spec(),
                &trace,
                &schedule,
                recorded.assert,
                monitor,
            )
            .map_err(PipelineError::Replay)?
        };
        phases.replay = t.elapsed();

        let context_switches = schedule.context_switches(&trace);
        clap_obs::gauge(
            "replay.context_switches",
            i64::try_from(context_switches).unwrap_or(i64::MAX),
        );
        phases.total = phases.record + offline_start.elapsed();
        Ok(ReproductionReport {
            threads: trace.thread_count(),
            shared_vars: self.sharing.shared_count(),
            instructions: recorded.stats.instructions,
            branches: recorded.stats.branches,
            saps: trace.sap_count(),
            constraints: stats,
            log_bytes: recorded.log.size_bytes(),
            time_symbolic: phases.decode + phases.symex + phases.constrain,
            time_solve: phases.solve,
            phases,
            context_switches,
            schedule_letters: schedule.thread_letters(&trace),
            schedule,
            witness,
            portfolio,
            reproduced: replay_report.reproduced,
            replay: replay_report,
            seed: recorded.seed,
        })
    }

    /// The whole pipeline in one call.
    ///
    /// When [`PipelineConfig::observer`] has any sink configured, the
    /// global [`clap_obs`] collector is installed for the duration of the
    /// run and the sinks are flushed before returning (on both success
    /// and failure); sink I/O errors go to stderr rather than failing the
    /// reproduction.
    ///
    /// # Errors
    ///
    /// Any phase's [`PipelineError`].
    pub fn reproduce(&self, config: &PipelineConfig) -> Result<ReproductionReport, PipelineError> {
        config.observer.install();
        let result = self.reproduce_inner(config);
        if let Err(e) = config.observer.flush() {
            eprintln!("clap-obs: failed to write sink: {e}");
        }
        result
    }

    fn reproduce_inner(
        &self,
        config: &PipelineConfig,
    ) -> Result<ReproductionReport, PipelineError> {
        let t0 = Instant::now();
        let recorded = self.record_failure(config)?;
        let mut report = self.reproduce_from(config, &recorded)?;
        report.phases.total = t0.elapsed();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOST_UPDATE: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    #[test]
    fn end_to_end_sequential() {
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let report = pipeline
            .reproduce(&PipelineConfig::new(MemModel::Sc))
            .unwrap();
        assert!(report.reproduced);
        assert_eq!(report.threads, 3);
        assert_eq!(report.shared_vars, 1);
        assert!(report.saps >= 9);
        assert!(report.constraints.total_clauses() > 0);
        assert!(report.log_bytes > 0);
    }

    #[test]
    fn traces_over_the_sequential_bound_are_refused() {
        let limit = clap_solver::MAX_SAPS;
        let sequential = PipelineConfig::new(MemModel::Sc).solver;
        let auto = PipelineConfig::new(MemModel::Sc)
            .with_auto_solver(AutoConfig::default())
            .solver;
        let parallel = PipelineConfig::new(MemModel::Sc)
            .with_parallel_solver(ParallelConfig::default())
            .solver;
        assert!(check_sequential_capacity(&sequential, limit).is_ok());
        for solver in [&sequential, &auto] {
            let err = check_sequential_capacity(solver, limit + 1).unwrap_err();
            assert!(
                matches!(err, PipelineError::TraceTooLarge { saps, .. } if saps == limit + 1),
                "{err:?}"
            );
            assert!(err.to_string().contains("try the parallel solver"), "{err}");
        }
        assert!(check_sequential_capacity(&parallel, limit + 1).is_ok());
    }

    #[test]
    fn end_to_end_parallel_gets_minimal_cs() {
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config =
            PipelineConfig::new(MemModel::Sc).with_parallel_solver(ParallelConfig::default());
        let report = pipeline.reproduce(&config).unwrap();
        assert!(report.reproduced);
        assert_eq!(report.context_switches, 1, "minimal preemption count");
    }

    #[test]
    fn pso_pipeline_round_trips() {
        let pipeline = Pipeline::from_source(
            "global int data = 0; global int flag = 0; global int seen = -1;
             fn writer() { data = 1; flag = 1; }
             fn reader() { let f: int = flag; if (f == 1) { seen = data; } }
             fn main() {
                 let w: thread = fork writer(); let r: thread = fork reader();
                 join w; join r;
                 assert(seen != 0, \"MP\");
             }",
        )
        .unwrap();
        let mut config = PipelineConfig::new(MemModel::Pso);
        config.stickiness = vec![0.5, 0.3, 0.7];
        let report = pipeline.reproduce(&config).unwrap();
        assert!(report.reproduced);
    }

    #[test]
    fn no_failure_reported_for_correct_program() {
        let pipeline = Pipeline::from_source(
            "global int x = 0; mutex m;
             fn w() { lock(m); x = x + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2); }",
        )
        .unwrap();
        let config = PipelineConfig::new(MemModel::Sc).with_seed_budget(50);
        assert!(matches!(
            pipeline.reproduce(&config),
            Err(PipelineError::NoFailureFound)
        ));
    }

    #[test]
    fn sync_order_recording_round_trips() {
        // §6.4 variant: same bug, sync order recorded; the pipeline must
        // still reproduce, and the recorded orders must appear as extra
        // hard edges in the constraint system.
        let src = "global int x = 0; mutex m;
             fn w() { lock(m); let v: int = x; unlock(m); yield; lock(m); x = v + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }";
        let pipeline = Pipeline::from_source(src).unwrap();
        let config = PipelineConfig::new(MemModel::Sc).with_sync_order_recording();
        let recorded = pipeline.record_failure(&config).unwrap();
        let sync = recorded.sync_order.as_ref().expect("sync order recorded");
        assert!(
            sync.event_count() >= 8,
            "4 critical sections = 8 mutex events"
        );
        let report = pipeline.reproduce_from(&config, &recorded).unwrap();
        assert!(report.reproduced);

        // The sync-order chains are extra hard edges vs the plain system.
        let trace = pipeline.symbolic_trace(&recorded).unwrap();
        let plain = ConstraintSystem::build(pipeline.program(), &trace, MemModel::Sc);
        let mut chained = plain.clone();
        let added = chained.apply_sync_order(sync).unwrap();
        assert!(added > 0);
        assert_eq!(chained.hard_edges.len(), plain.hard_edges.len() + added);
    }

    #[test]
    fn record_failure_ships_a_direct_recorded_run_of_the_selected_seed() {
        // The sweep runs bare and re-records only the selected seed; the
        // artifact must be exactly what recording that seed directly gives.
        use clap_profile::{PathRecorder, SyncOrderRecorder};
        use clap_vm::{MultiMonitor, Outcome, RandomScheduler, Vm};
        let src = "global int x = 0; mutex m;
             fn w() { lock(m); let v: int = x; unlock(m); yield; lock(m); x = v + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }";
        let pipeline = Pipeline::from_source(src).unwrap();
        let config = PipelineConfig::new(MemModel::Sc).with_sync_order_recording();
        let recorded = pipeline.record_failure(&config).unwrap();
        let mut vm = Vm::with_shared(
            pipeline.program(),
            config.model,
            pipeline.sharing().shared_spec(),
        );
        vm.set_step_limit(config.step_limit);
        let mut recorder = PathRecorder::new(&pipeline.tables);
        let mut sync = SyncOrderRecorder::new();
        let mut sched = RandomScheduler::with_stickiness(recorded.seed, recorded.stickiness);
        let outcome = {
            let mut multi = MultiMonitor::new();
            multi.push(&mut recorder);
            multi.push(&mut sync);
            vm.run(&mut sched, &mut multi)
        };
        let Outcome::AssertFailed { assert, .. } = outcome else {
            panic!("the selected seed must fail, got {outcome:?}");
        };
        assert_eq!(recorded.assert, assert);
        assert_eq!(recorded.log, recorder.finish());
        assert_eq!(recorded.failure, FailureContext::from_vm(&vm));
        assert_eq!(recorded.stats, *vm.stats());
        let direct = sync.finish();
        let shipped = recorded.sync_order.as_ref().expect("sync order recorded");
        assert!(direct.event_count() >= 8, "4 critical sections");
        assert_eq!(shipped.orders, direct.orders);
    }

    #[test]
    fn capped_exhaustion_is_not_unsat() {
        // A parallel search that exhausts a bound too small to reach the
        // bug must report SearchExhausted — never Unsat, which is a
        // completeness claim the capped engine cannot make.
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config = PipelineConfig::new(MemModel::Sc);
        let recorded = pipeline.record_failure(&config).unwrap();
        let capped = PipelineConfig::new(MemModel::Sc).with_parallel_solver(ParallelConfig {
            max_cs: 0,
            ..ParallelConfig::default()
        });
        let err = pipeline.reproduce_from(&capped, &recorded).unwrap_err();
        assert!(matches!(err, PipelineError::SearchExhausted), "got {err:?}");
    }

    #[test]
    fn zero_timeout_is_solver_budget() {
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config = PipelineConfig::new(MemModel::Sc);
        let recorded = pipeline.record_failure(&config).unwrap();
        let starved = PipelineConfig::new(MemModel::Sc).with_parallel_solver(ParallelConfig {
            timeout: Some(Duration::ZERO),
            ..ParallelConfig::default()
        });
        let err = pipeline.reproduce_from(&starved, &recorded).unwrap_err();
        assert!(matches!(err, PipelineError::SolverBudget), "got {err:?}");
    }

    #[test]
    fn auto_certifies_genuine_unsat() {
        // Rewrite a real failing trace's bug predicate to `false`: the
        // portfolio must certify unsatisfiability (Unsat, not Budget) —
        // either through a ladder that cleanly covered every preemption
        // point, or through the complete sequential fallback.
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config = PipelineConfig::new(MemModel::Sc);
        let recorded = pipeline.record_failure(&config).unwrap();
        let mut trace = pipeline.symbolic_trace(&recorded).unwrap();
        trace.bug = trace.arena.constant(0);
        let system = ConstraintSystem::build(pipeline.program(), &trace, MemModel::Sc);
        let outcome = solve_auto(pipeline.program(), &system, &AutoConfig::default());
        let PortfolioOutcome::Unsat(report) = outcome else {
            panic!("expected a certified unsat, got {outcome:?}")
        };
        let last = report.attempts.last().expect("attempts on record");
        assert!(
            matches!(
                last.outcome,
                AttemptOutcome::Unsat | AttemptOutcome::Exhausted
            ),
            "the certifying attempt must be on record: {report:?}"
        );
        assert_eq!(report.winner, None);
    }

    #[test]
    fn auto_pipeline_reproduces_and_names_winner() {
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config = PipelineConfig::new(MemModel::Sc).with_auto_solver(AutoConfig::default());
        let report = pipeline.reproduce(&config).unwrap();
        assert!(report.reproduced);
        assert!(
            report.portfolio.winner.is_some(),
            "the winning engine must be named: {:?}",
            report.portfolio
        );
        assert!(!report.portfolio.attempts.is_empty());
    }

    #[test]
    fn auto_portfolio_is_deterministic() {
        // Every attempt is a function of the trace, so the same recording
        // must yield the same schedule and report on repeated solves.
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config = PipelineConfig::new(MemModel::Sc);
        let recorded = pipeline.record_failure(&config).unwrap();
        let trace = pipeline.symbolic_trace(&recorded).unwrap();
        let system = ConstraintSystem::build(pipeline.program(), &trace, MemModel::Sc);
        let solve_once = || match solve_auto(pipeline.program(), &system, &AutoConfig::default()) {
            PortfolioOutcome::Found {
                schedule, report, ..
            } => (schedule, report),
            other => panic!("expected a schedule, got {other:?}"),
        };
        let (schedule_a, report_a) = solve_once();
        let (schedule_b, report_b) = solve_once();
        assert_eq!(schedule_a.order, schedule_b.order);
        assert_eq!(report_a.winner, report_b.winner);
        assert_eq!(report_a.attempts.len(), report_b.attempts.len());
    }

    #[test]
    fn recorded_artifact_is_reusable() {
        // One recording, two solves (both solvers agree).
        let pipeline = Pipeline::from_source(LOST_UPDATE).unwrap();
        let config = PipelineConfig::new(MemModel::Sc);
        let recorded = pipeline.record_failure(&config).unwrap();
        let seq = pipeline.reproduce_from(&config, &recorded).unwrap();
        let par_config =
            PipelineConfig::new(MemModel::Sc).with_parallel_solver(ParallelConfig::default());
        let par = pipeline.reproduce_from(&par_config, &recorded).unwrap();
        assert!(seq.reproduced && par.reproduced);
        assert_eq!(seq.saps, par.saps);
    }
}
