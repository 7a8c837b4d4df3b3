//! A deterministic-given-seed interpreter for [`clap_ir`] programs with
//! pluggable schedulers and **SC / TSO / PSO** store-buffer memory models.
//!
//! This crate is the "hardware + OS" substrate of the CLAP reproduction:
//! where the paper runs PThreads binaries on a real multiprocessor and
//! simulates relaxed-memory effects by controlling load values, this VM
//! implements the store-buffer semantics natively and exposes buffer
//! drains as scheduler-visible events (see [`sched::Action`]). Racy
//! interleavings are explored by sweeping seeds of a
//! [`sched::RandomScheduler`]; instrumentation (the CLAP path recorder,
//! the LEAP baseline) attaches through the zero-cost-when-absent
//! [`monitor::Monitor`] trait.
//!
//! # Example
//!
//! ```
//! use clap_ir::parse;
//! use clap_vm::{run_with_seed, MemModel, NullMonitor};
//!
//! let program = parse(
//!     "global int x = 0;
//!      fn w() { x = x + 1; }
//!      fn main() { let t: thread = fork w(); join t; assert(x == 1); }",
//! )?;
//! let (outcome, stats) = run_with_seed(&program, MemModel::Sc, 42, &mut NullMonitor);
//! assert!(!outcome.is_failure());
//! assert!(stats.instructions > 0);
//! # Ok::<(), clap_ir::Error>(())
//! ```

pub mod bytecode;
pub mod compile;
pub mod mem;
pub mod monitor;
pub mod sched;
pub mod stats;
pub mod thread;
pub mod vm;

pub use bytecode::{CompiledProgram, Op};
pub use mem::{Addr, Layout, MemModel, Memory, StoreBuffer};
pub use monitor::{AccessEvent, CountingMonitor, Monitor, MultiMonitor, NullMonitor, SyncEvent};
pub use sched::{Action, FifoScheduler, FnScheduler, RandomScheduler, Scheduler, ScriptScheduler};
pub use stats::ExecStats;
pub use thread::{Frame, Lineage, Status, Thread, ThreadId};
pub use vm::{run_with_seed, Outcome, SapPreviewKind, SharedSpec, Snapshot, StepPreview, Vm};
