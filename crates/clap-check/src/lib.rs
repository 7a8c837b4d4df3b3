//! Differential checking oracle for the CLAP pipeline.
//!
//! The pipeline (`clap-core`) answers "can this recorded failure be
//! reproduced?" with symbolic execution and constraint solving — a long
//! chain of clever machinery, every link of which can be subtly wrong.
//! This crate answers the same question by brute force: enumerate every
//! interleaving up to a preemption bound directly on the interpreter
//! ([`oracle`]), and treat that as ground truth. The differential harness
//! ([`diff`]) then runs a program through both and cross-checks:
//!
//! - **Soundness** — every schedule the pipeline reports must replay to
//!   the bug, and the replayed execution must be one the oracle's rules
//!   reach: a directed search follows its fingerprint, under any number
//!   of preemptions.
//! - **Completeness** — when the oracle proves failing interleavings
//!   exist, the pipeline must not certify `Unsat`; when the oracle proves
//!   none exist, a certified `Unsat` is confirmed correct.
//!
//! Program inputs come from the examples, the regression corpus, or the
//! seeded random generator ([`gen`]); counterexamples are minimized by the
//! shrinker ([`shrink`]) before being reported.

#![warn(missing_docs)]

pub mod diff;
pub mod fingerprint;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use diff::{diff_program, diff_source, DiffConfig, DiffOutcome, DiffReport, Verdict};
pub use fingerprint::{Event, Fingerprint, FingerprintMonitor, Mark};
pub use gen::{AtomicSpec, ChanSpec, ProgramSpec};
pub use oracle::{
    enumerate, enumerate_with_shared, schedule_of_choices, FailingExecution, OracleConfig,
    OracleReport,
};
pub use shrink::shrink_source;
