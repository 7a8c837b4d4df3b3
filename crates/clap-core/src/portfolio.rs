//! The adaptive solver portfolio behind [`SolverChoice::Auto`].
//!
//! CLAP §4.2–4.3 motivates preemption-bounded search as an
//! *optimization*: most concurrency bugs reproduce within a handful of
//! preemptive context switches, so exhausting small bounds first finds
//! minimal-preemption schedules fast. But a bounded ladder that comes up
//! empty proves nothing — the schedule may simply need more preemptions
//! than the cap (pfscan is exactly this case). The portfolio therefore
//!
//! 1. starts the parallel generate-and-validate engine at a small
//!    preemption bound and, on clean exhaustion, **escalates** `max_cs`
//!    up a bounded ladder (each rung resumes at `min_cs` past the bounds
//!    already covered, so no level is enumerated twice);
//! 2. on ladder exhaustion or budget pressure **falls back to the
//!    sequential DPLL(T) solver**, the only engine here that can certify
//!    unsatisfiability;
//! 3. slices one overall [`Duration`] budget across the attempts —
//!    each rung gets `remaining / attempts_left`, the fallback gets
//!    everything left — and records every attempt (engine, bounds,
//!    outcome, wall time) as `clap-obs` events plus the `portfolio`
//!    section of the reproduction report.
//!
//! [`SolverChoice::Auto`]: crate::SolverChoice::Auto

use clap_constraints::{ConstraintSystem, Schedule, Witness};
use clap_ir::Program;
use clap_parallel::{preemption_point_count, solve_parallel, ParallelConfig, ParallelOutcome};
use clap_solver::{solve, SolveOutcome, SolverConfig};
use std::fmt;
use std::time::{Duration, Instant};

/// Portfolio configuration for [`SolverChoice::Auto`].
///
/// [`SolverChoice::Auto`]: crate::SolverChoice::Auto
#[derive(Debug, Clone)]
pub struct AutoConfig {
    /// The `max_cs` rungs the parallel engine escalates through, in
    /// increasing order. Each rung resumes where the previous one left
    /// off (`min_cs = previous + 1`), so the ladder as a whole covers
    /// `0..=last` exactly once.
    pub ladder: Vec<usize>,
    /// Overall wall-clock budget across every attempt, anchored when the
    /// solve phase starts (`None` = unbounded).
    pub solve_timeout: Option<Duration>,
    /// Base knobs for the parallel engine (workers, per-level caps).
    /// `min_cs`/`max_cs`/`timeout` are overridden per rung.
    pub parallel: ParallelConfig,
    /// Base knobs for the sequential fallback. `timeout` is overridden
    /// with the remaining budget.
    pub sequential: SolverConfig,
}

impl Default for AutoConfig {
    fn default() -> Self {
        AutoConfig {
            ladder: vec![1, 3, 5, 8],
            solve_timeout: None,
            parallel: ParallelConfig::default(),
            sequential: SolverConfig::default(),
        }
    }
}

impl AutoConfig {
    /// Sets the overall solve budget.
    pub fn with_solve_timeout(mut self, timeout: Duration) -> Self {
        self.solve_timeout = Some(timeout);
        self
    }
}

/// Which engine ran a portfolio attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The §4.3 parallel generate-and-validate engine.
    Parallel,
    /// The sequential DPLL(T) solver.
    Sequential,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Parallel => write!(f, "parallel"),
            EngineKind::Sequential => write!(f, "sequential"),
        }
    }
}

/// How one portfolio attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// A bug-reproducing schedule was found.
    Found,
    /// The rung's preemption bounds were exhausted cleanly — no schedule
    /// within them, but no statement about larger bounds.
    Exhausted,
    /// A per-level cap or the attempt's time slice cut the search short.
    Budget,
    /// The sequential engine proved the constraints unsatisfiable (a
    /// complete-search certificate).
    Unsat,
    /// The attempt's time slice ran out.
    Timeout,
}

impl fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttemptOutcome::Found => "found",
            AttemptOutcome::Exhausted => "exhausted",
            AttemptOutcome::Budget => "budget",
            AttemptOutcome::Unsat => "unsat",
            AttemptOutcome::Timeout => "timeout",
        };
        write!(f, "{s}")
    }
}

/// One recorded solve attempt.
#[derive(Debug, Clone)]
pub struct PortfolioAttempt {
    /// The engine that ran.
    pub engine: EngineKind,
    /// The preemption bounds `(min_cs, max_cs)` the attempt covered
    /// (parallel attempts only).
    pub cs_bounds: Option<(usize, usize)>,
    /// How the attempt ended.
    pub outcome: AttemptOutcome,
    /// Wall time the attempt consumed.
    pub wall: Duration,
}

/// The `portfolio` section of a [`crate::ReproductionReport`]: every
/// attempt in order, and the engine whose schedule won.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Attempts in the order they were launched.
    pub attempts: Vec<PortfolioAttempt>,
    /// The engine that produced the schedule used by the pipeline
    /// (`None` when no attempt succeeded).
    pub winner: Option<EngineKind>,
}

impl PortfolioReport {
    /// A report for a non-portfolio run: one attempt, one winner.
    pub fn single(engine: EngineKind, outcome: AttemptOutcome, wall: Duration) -> Self {
        PortfolioReport {
            attempts: vec![PortfolioAttempt {
                engine,
                cs_bounds: None,
                outcome,
                wall,
            }],
            winner: (outcome == AttemptOutcome::Found).then_some(engine),
        }
    }
}

/// The result of a portfolio solve.
#[derive(Debug)]
pub enum PortfolioOutcome {
    /// Some attempt produced a validated bug-reproducing schedule.
    Found {
        /// The winning schedule.
        schedule: Schedule,
        /// Its witness.
        witness: Witness,
        /// The attempt log naming the winner.
        report: PortfolioReport,
    },
    /// The constraints are unsatisfiable, certified by a complete search
    /// (the sequential engine, or a parallel exhaustion that covered
    /// every preemption point).
    Unsat(PortfolioReport),
    /// Every attempt ran out of budget without a certificate either way.
    Budget(PortfolioReport),
}

/// What the escalation ladder concluded.
enum LadderResult {
    /// A rung produced a validated schedule.
    Found(Schedule, Witness),
    /// A rung exhausted cleanly at a bound covering every preemption
    /// point: a complete-search unsatisfiability certificate.
    CertifiedUnsat,
    /// The ladder ended without a verdict (exhausted below the
    /// completeness bound, or hit budget).
    NoVerdict,
}

/// Records one finished attempt in the report and the metrics stream.
fn record(report: &mut PortfolioReport, attempt: PortfolioAttempt) {
    clap_obs::add("portfolio.attempts", 1);
    let (cs_min, cs_max) = attempt.cs_bounds.unwrap_or((0, 0));
    clap_obs::event(
        "portfolio.attempt",
        &[
            ("engine", attempt.engine.to_string()),
            ("cs_min", cs_min.to_string()),
            ("cs_max", cs_max.to_string()),
            ("outcome", attempt.outcome.to_string()),
            ("wall_us", attempt.wall.as_micros().to_string()),
        ],
    );
    report.attempts.push(attempt);
}

fn record_winner(report: &mut PortfolioReport, engine: EngineKind) {
    report.winner = Some(engine);
    clap_obs::event("portfolio.winner", &[("engine", engine.to_string())]);
}

/// Runs the adaptive portfolio over one constraint system.
pub fn solve_auto(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: &AutoConfig,
) -> PortfolioOutcome {
    let _s = clap_obs::span("portfolio");
    let start = Instant::now();
    let mut report = PortfolioReport {
        attempts: Vec::new(),
        winner: None,
    };
    let remaining = || {
        config
            .solve_timeout
            .map(|t| t.saturating_sub(start.elapsed()))
    };

    match run_ladder(program, system, config, &remaining, &mut report) {
        LadderResult::Found(schedule, witness) => {
            record_winner(&mut report, EngineKind::Parallel);
            return PortfolioOutcome::Found {
                schedule,
                witness,
                report,
            };
        }
        LadderResult::CertifiedUnsat => return PortfolioOutcome::Unsat(report),
        LadderResult::NoVerdict => {}
    }

    // Ladder came up empty: the sequential engine decides, with all the
    // remaining budget.
    let t0 = Instant::now();
    let seq_config = SolverConfig {
        timeout: remaining(),
        ..config.sequential
    };
    let seq_outcome = solve(program, system, seq_config);
    record(&mut report, seq_attempt(&seq_outcome, t0.elapsed()));
    match seq_outcome {
        SolveOutcome::Sat(solution) => {
            record_winner(&mut report, EngineKind::Sequential);
            PortfolioOutcome::Found {
                schedule: solution.schedule,
                witness: solution.witness,
                report,
            }
        }
        SolveOutcome::Unsat(_) => PortfolioOutcome::Unsat(report),
        SolveOutcome::Timeout(_) => PortfolioOutcome::Budget(report),
    }
}

/// Escalates the parallel engine up the configured ladder, recording
/// every rung.
fn run_ladder(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: &AutoConfig,
    remaining: &dyn Fn() -> Option<Duration>,
    report: &mut PortfolioReport,
) -> LadderResult {
    // Normalize the ladder: strictly increasing rungs.
    let mut ladder = config.ladder.clone();
    ladder.sort_unstable();
    ladder.dedup();
    // A rung reaching this many preemption points makes clean exhaustion a
    // complete-search certificate (every preemption placement covered).
    let points = preemption_point_count(system);
    let mut min_cs = 0usize;
    for (i, &max_cs) in ladder.iter().enumerate() {
        // Budget slicing: rungs left plus the sequential fallback.
        let attempts_left = (ladder.len() - i + 1) as u32;
        let slice = remaining().map(|r| r / attempts_left);
        if slice.is_some_and(|s| s.is_zero()) {
            break;
        }
        let rung_config = ParallelConfig {
            min_cs,
            max_cs,
            timeout: slice,
            ..config.parallel
        };
        let t0 = Instant::now();
        let outcome = solve_parallel(program, system, rung_config);
        let wall = t0.elapsed();
        let attempt = |outcome| PortfolioAttempt {
            engine: EngineKind::Parallel,
            cs_bounds: Some((min_cs, max_cs)),
            outcome,
            wall,
        };
        match outcome {
            ParallelOutcome::Found {
                schedule, witness, ..
            } => {
                record(report, attempt(AttemptOutcome::Found));
                return LadderResult::Found(schedule, witness);
            }
            ParallelOutcome::Exhausted(_) => {
                record(report, attempt(AttemptOutcome::Exhausted));
                // Rungs escalate contiguously from 0, so a clean
                // exhaustion at a bound covering every preemption point
                // is a completeness certificate.
                if max_cs >= points {
                    return LadderResult::CertifiedUnsat;
                }
                min_cs = max_cs + 1;
            }
            ParallelOutcome::Budget(_) => {
                record(report, attempt(AttemptOutcome::Budget));
                // Budget pressure: higher rungs only cost more, so hand
                // the remaining budget to the fallback.
                break;
            }
        }
    }
    LadderResult::NoVerdict
}

/// Classifies a sequential outcome as a portfolio attempt record.
fn seq_attempt(outcome: &SolveOutcome, wall: Duration) -> PortfolioAttempt {
    let outcome = match outcome {
        SolveOutcome::Sat(_) => AttemptOutcome::Found,
        SolveOutcome::Unsat(_) => AttemptOutcome::Unsat,
        SolveOutcome::Timeout(_) => AttemptOutcome::Timeout,
    };
    PortfolioAttempt {
        engine: EngineKind::Sequential,
        cs_bounds: None,
        outcome,
        wall,
    }
}
