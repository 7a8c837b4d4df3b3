//! CLAP execution-constraint modeling (§3 of the paper):
//! `F = F_path ∧ F_bug ∧ F_so ∧ F_rw ∧ F_mo`.
//!
//! [`ConstraintSystem::build`] turns a [`clap_symex::SymTrace`] into the
//! structural constraints (memory order per SC/TSO/PSO, lock regions,
//! fork/join partial order, wait/signal matching, read-write candidates);
//! [`validate()`](validate()) checks a candidate [`Schedule`] against the *whole* system
//! in one linear walk — the "validation is evaluation" property that the
//! parallel solver of §4.3 exploits; [`count()`](count()) reports the system's size
//! for Table 1.
//!
//! # Example
//!
//! ```no_run
//! use clap_constraints::{ConstraintSystem, Schedule, validate};
//! use clap_vm::MemModel;
//! # fn demo(program: &clap_ir::Program, trace: &clap_symex::SymTrace, order: Vec<clap_symex::SapId>) {
//! let system = ConstraintSystem::build(program, trace, MemModel::Sc);
//! let candidate = Schedule::new(order, trace);
//! match validate(program, &system, &candidate) {
//!     Ok(witness) => println!("reproduces the bug: {} reads matched", witness.reads_from.len()),
//!     Err(e) => println!("rejected: {e}"),
//! }
//! # }
//! ```

pub mod count;
pub mod schedule;
pub mod system;
pub mod validate;

pub use count::{count, ConstraintStats};
pub use schedule::Schedule;
pub use system::{
    ConstraintSystem, LockRegion, ReadConstraint, ReadSource, RecvConstraint, SyncOrderMismatch,
    WaitConstraint,
};
pub use validate::{validate, ValidationError, Walk, Witness};
