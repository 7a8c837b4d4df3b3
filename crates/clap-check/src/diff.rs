//! The differential harness: pipeline vs. oracle, per memory model.
//!
//! For each requested memory model the harness runs the bounded oracle
//! ([`crate::oracle`]) and the full CLAP pipeline
//! ([`clap_core::Pipeline`]) over the same program and cross-checks the
//! two answers. Because the oracle is bounded and the pipeline's record
//! phase is randomized, not every mismatch is a bug — the verdict
//! taxonomy distinguishes **hard disagreements** (a soundness or
//! completeness violation somewhere in the pipeline, or an oracle bug)
//! from **soft notes** (a randomized search missing a rare interleaving,
//! a solver giving up inside its budget).
//!
//! A reproduced run must be a *member*: a directed search
//! ([`crate::oracle`]'s "Directed membership") must reach the replay's
//! fingerprint under the oracle's rules, whatever its preemptions. Every
//! other verdict reads only whether the oracle found a failing run, and,
//! when it found none, whether its search was exhaustive. So the check's
//! oracle stops at its first failing run.
//!
//! | pipeline ↓ / oracle → | a failing run | none, exhaustive | none, bounded |
//! |---|---|---|---|
//! | reproduced | must be a member | **hard** (oracle missed it) | must be a member |
//! | `NoFailureFound` | soft (record miss) | agree | agree |
//! | `Unsat` (certified) | **hard** (false unsat) | **hard** (recorder found a failure the oracle denies) | soft |
//! | `SearchExhausted` / `SolverBudget` / `TraceTooLarge` | soft | soft | soft |
//! | decode/symex/replay error | **hard** (pipeline broken) | **hard** | **hard** |

use crate::fingerprint::FingerprintMonitor;
use crate::oracle::{enumerate_compiled, is_member, OracleConfig, OracleReport};
use clap_core::{AutoConfig, Pipeline, PipelineConfig, PipelineError, SolverChoice};
use clap_ir::Program;
use clap_vm::{MemModel, Vm};
use std::sync::Arc;

/// Configuration for one differential run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Memory models to check (each gets its own oracle + pipeline run).
    pub models: Vec<MemModel>,
    /// Oracle preemption bound.
    pub max_preemptions: usize,
    /// Oracle per-execution step fuse.
    pub max_steps: u64,
    /// Oracle execution cap.
    pub max_executions: u64,
    /// Pipeline record-phase seed budget.
    pub seed_budget: u64,
    /// Pipeline record-phase stickiness sweep.
    pub stickiness: Vec<f64>,
    /// Pipeline solver.
    pub solver: SolverChoice,
    /// Treat a record-phase miss (oracle found a failure the random
    /// sweep did not) as a hard disagreement. Off by default: random
    /// exploration is allowed to miss rare interleavings.
    pub strict_record: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            models: vec![MemModel::Sc],
            max_preemptions: 2,
            max_steps: 10_000,
            max_executions: 200_000,
            seed_budget: 20_000,
            stickiness: vec![0.9, 0.7, 0.5, 0.3],
            solver: SolverChoice::Auto(AutoConfig::default()),
            strict_record: false,
        }
    }
}

impl DiffConfig {
    /// Checks under `models` instead of the default (SC only).
    pub fn with_models(mut self, models: Vec<MemModel>) -> Self {
        self.models = models;
        self
    }

    /// Overrides the record-phase budget (tests use small sweeps).
    pub fn with_seed_budget(mut self, budget: u64, stickiness: Vec<f64>) -> Self {
        self.seed_budget = budget;
        self.stickiness = stickiness;
        self
    }

    /// Overrides the oracle's execution cap.
    pub fn with_max_executions(mut self, cap: u64) -> Self {
        self.max_executions = cap;
        self
    }

    /// The check's oracle: the configured bounds, stopping at the first
    /// failing run, since no verdict reads a second.
    fn oracle_config(&self, model: MemModel) -> OracleConfig {
        let mut c = OracleConfig::new(model);
        c.max_preemptions = self.max_preemptions;
        c.max_steps = self.max_steps;
        c.max_executions = self.max_executions;
        c.max_failing = 1;
        c
    }

    fn pipeline_config(&self, model: MemModel) -> PipelineConfig {
        let mut c = PipelineConfig::new(model);
        c.seed_budget = self.seed_budget;
        c.stickiness = self.stickiness.clone();
        c.solver = self.solver.clone();
        c
    }
}

/// The cross-check verdict for one memory model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Pipeline reproduced the bug, and the replayed execution is a
    /// member of the oracle's space.
    Sound,
    /// Neither side found a failing interleaving.
    NoFailure {
        /// The oracle's empty answer covered the *entire* schedule space
        /// (no preemption-bound prunes), i.e. the program is certified
        /// correct under this model.
        exhaustive: bool,
    },
    /// Soft: the oracle holds failing interleavings the randomized record
    /// phase never hit (hard only under [`DiffConfig::strict_record`]).
    RecordMiss,
    /// Soft: the solver gave up within its budget/bounds — explicitly not
    /// a completeness claim, so the oracle cannot contradict it.
    SolverInconclusive {
        /// The pipeline error, rendered.
        error: String,
    },
    /// **Hard**: the pipeline certified `Unsat` while the oracle holds
    /// failing interleavings.
    FalseUnsat,
    /// **Hard**: the pipeline's replayed execution is not a member: the
    /// directed search found no failing run of the oracle's with its
    /// events.
    UnsoundSchedule {
        /// The replayed execution's letters rendering.
        letters: String,
    },
    /// **Hard**: the pipeline demonstrated a failure (a reproduced replay,
    /// or a recorded failing run behind a certified `Unsat`) that the
    /// exhaustive oracle claims cannot exist — an oracle/VM bug.
    MissedByOracle,
    /// **Hard**: the pipeline failed structurally (decode, symex, or
    /// replay error) on a program the oracle handles fine.
    PipelineBroken {
        /// The pipeline error, rendered.
        error: String,
    },
}

impl Verdict {
    /// `true` when this verdict is a disagreement that must fail the
    /// check run.
    pub fn is_hard(&self, strict_record: bool) -> bool {
        match self {
            Verdict::Sound | Verdict::NoFailure { .. } | Verdict::SolverInconclusive { .. } => {
                false
            }
            Verdict::RecordMiss => strict_record,
            Verdict::FalseUnsat
            | Verdict::UnsoundSchedule { .. }
            | Verdict::MissedByOracle
            | Verdict::PipelineBroken { .. } => true,
        }
    }

    /// Short machine-grepable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Verdict::Sound => "sound",
            Verdict::NoFailure { .. } => "no-failure",
            Verdict::RecordMiss => "record-miss",
            Verdict::SolverInconclusive { .. } => "solver-inconclusive",
            Verdict::FalseUnsat => "FALSE-UNSAT",
            Verdict::UnsoundSchedule { .. } => "UNSOUND-SCHEDULE",
            Verdict::MissedByOracle => "MISSED-BY-ORACLE",
            Verdict::PipelineBroken { .. } => "PIPELINE-BROKEN",
        }
    }
}

/// One model's differential result.
#[derive(Debug)]
pub struct DiffOutcome {
    /// The memory model checked.
    pub model: MemModel,
    /// The cross-check verdict.
    pub verdict: Verdict,
    /// What the oracle found (kept for reporting): its first failing run
    /// at most.
    pub oracle: OracleReport,
}

/// The full differential report for one program.
#[derive(Debug)]
pub struct DiffReport {
    /// One outcome per requested memory model.
    pub outcomes: Vec<DiffOutcome>,
    /// Whether record misses were configured to be hard.
    pub strict_record: bool,
}

impl DiffReport {
    /// `true` when no outcome is a hard disagreement.
    pub fn ok(&self) -> bool {
        !self
            .outcomes
            .iter()
            .any(|o| o.verdict.is_hard(self.strict_record))
    }

    /// One line per model, for CLI output and failure messages.
    pub fn summary(&self) -> String {
        self.outcomes
            .iter()
            .map(|o| {
                let oracle = &o.oracle;
                format!(
                    "{:?}: {} (oracle: {}{})",
                    o.model,
                    o.verdict.tag(),
                    if !oracle.failing.is_empty() {
                        format!("first failing run at execution {}", oracle.executions)
                    } else {
                        format!(
                            "no failing run in {} executions, {}",
                            oracle.executions,
                            if oracle.exhaustive() {
                                "exhaustive"
                            } else if oracle.complete_within_bound() {
                                "complete within bound"
                            } else {
                                "truncated"
                            }
                        )
                    },
                    match &o.verdict {
                        Verdict::SolverInconclusive { error }
                        | Verdict::PipelineBroken { error } => format!("; {error}"),
                        Verdict::UnsoundSchedule { letters } => format!("; replay {letters}"),
                        _ => String::new(),
                    },
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Differentially checks `source` under `config`.
///
/// # Errors
///
/// Returns the frontend error when `source` does not parse — everything
/// downstream of parsing is a verdict, not an error.
pub fn diff_source(source: &str, config: &DiffConfig) -> Result<DiffReport, clap_ir::Error> {
    let program = clap_ir::parse(source)?;
    Ok(diff_program(&program, config))
}

/// Differentially checks `program` under `config`.
pub fn diff_program(program: &Program, config: &DiffConfig) -> DiffReport {
    let _span = clap_obs::span("check.diff");
    let pipeline = Pipeline::new(program.clone());
    let outcomes = config
        .models
        .iter()
        .map(|&model| {
            let oracle = enumerate_compiled(
                pipeline.program(),
                Arc::clone(pipeline.compiled()),
                pipeline.sharing().shared_spec(),
                &config.oracle_config(model),
            );
            let verdict = check_model(&pipeline, config, model, &oracle);
            clap_obs::event(
                "check.verdict",
                &[
                    ("model", format!("{model:?}")),
                    ("verdict", verdict.tag().to_string()),
                ],
            );
            if verdict.is_hard(config.strict_record) {
                clap_obs::add("check.hard_disagreements", 1);
            }
            DiffOutcome {
                model,
                verdict,
                oracle,
            }
        })
        .collect();
    DiffReport {
        outcomes,
        strict_record: config.strict_record,
    }
}

fn check_model(
    pipeline: &Pipeline,
    config: &DiffConfig,
    model: MemModel,
    oracle: &OracleReport,
) -> Verdict {
    let _span = clap_obs::span("check.pipeline");
    let pconfig = config.pipeline_config(model);
    let recorded = match pipeline.record_failure(&pconfig) {
        Ok(r) => r,
        Err(PipelineError::NoFailureFound) => {
            return if oracle.failing.is_empty() {
                Verdict::NoFailure {
                    exhaustive: oracle.exhaustive(),
                }
            } else {
                Verdict::RecordMiss
            };
        }
        Err(e) => {
            return Verdict::PipelineBroken {
                error: e.to_string(),
            }
        }
    };
    // Soundness: fingerprint the pipeline's own replay and follow it
    // under the oracle's rules.
    let mut mon = FingerprintMonitor::new();
    match pipeline.reproduce_from_monitored(&pconfig, &recorded, &mut mon) {
        Ok(_) => {
            let fp = mon.fingerprint(Some(recorded.assert));
            let vm = Vm::with_compiled(
                pipeline.program(),
                Arc::clone(pipeline.compiled()),
                model,
                pipeline.sharing().shared_spec(),
            );
            if !is_member(vm, &fp, clap_core::STEP_LIMIT) {
                Verdict::UnsoundSchedule {
                    letters: fp.letters(),
                }
            } else if oracle.failing.is_empty() && oracle.exhaustive() {
                // A reproduced failure cannot coexist with an exhaustive
                // empty oracle.
                Verdict::MissedByOracle
            } else {
                Verdict::Sound
            }
        }
        Err(PipelineError::Unsat) => {
            if !oracle.failing.is_empty() {
                Verdict::FalseUnsat
            } else if oracle.exhaustive() {
                // The recorder observed a failing run, yet the exhaustive
                // oracle says no failing interleaving exists: someone is
                // wrong, and it is not the recorder (it has a witness).
                Verdict::MissedByOracle
            } else {
                Verdict::SolverInconclusive {
                    error: "certified unsat, oracle truncated — cannot adjudicate".into(),
                }
            }
        }
        Err(
            e @ (PipelineError::SearchExhausted
            | PipelineError::SolverBudget
            | PipelineError::TraceTooLarge { .. }),
        ) => Verdict::SolverInconclusive {
            error: e.to_string(),
        },
        Err(e) => Verdict::PipelineBroken {
            error: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(models: Vec<MemModel>) -> DiffConfig {
        DiffConfig::default()
            .with_models(models)
            .with_seed_budget(600, vec![0.7, 0.3])
    }

    #[test]
    fn lost_update_is_sound_under_sc() {
        let report = diff_source(
            "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"lost\"); }",
            &quick(vec![MemModel::Sc]),
        )
        .unwrap();
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(
            report.outcomes[0].verdict,
            Verdict::Sound,
            "pipeline must reproduce the lost update as a member: {}",
            report.summary()
        );
    }

    #[test]
    fn locked_program_agrees_on_no_failure() {
        let report = diff_source(
            "global int x = 0; mutex m;
             fn w() { lock(m); let v: int = x; x = v + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2); }",
            &quick(vec![MemModel::Sc, MemModel::Tso]),
        )
        .unwrap();
        assert!(report.ok(), "{}", report.summary());
        for o in &report.outcomes {
            assert!(
                matches!(o.verdict, Verdict::NoFailure { .. }),
                "{}",
                report.summary()
            );
        }
    }

    #[test]
    fn sb_litmus_diffs_clean_across_models() {
        let report = diff_source(
            "global int x = 0; global int y = 0;
             global int r1 = -1; global int r2 = -1;
             fn t1() { x = 1; r1 = y; }
             fn t2() { y = 1; r2 = x; }
             fn main() {
                 let a: thread = fork t1(); let b: thread = fork t2();
                 join a; join b;
                 assert(r1 + r2 > 0, \"SB\");
             }",
            &quick(vec![MemModel::Sc, MemModel::Tso]),
        )
        .unwrap();
        assert!(report.ok(), "{}", report.summary());
        // SC: no weak result exists; TSO: the pipeline must find it.
        assert!(
            matches!(report.outcomes[0].verdict, Verdict::NoFailure { .. }),
            "{}",
            report.summary()
        );
        assert!(
            report.outcomes[1].verdict == Verdict::Sound,
            "{}",
            report.summary()
        );
    }

    #[test]
    fn summary_mentions_every_model() {
        let report = diff_source(
            "fn main() { yield; }",
            &quick(vec![MemModel::Sc, MemModel::Pso]),
        )
        .unwrap();
        let s = report.summary();
        assert!(s.contains("Sc") && s.contains("Pso"), "{s}");
        assert!(report.ok());
    }
}
