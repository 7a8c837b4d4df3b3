//! Thread-local path profiling for CLAP: an extension of the classical
//! Ball–Larus algorithm (§5 of the paper), recording per-thread control
//! flow as sequences of path ids and reconstructing the exact block walks
//! offline.
//!
//! The whole path of a thread is broken into *segments*: a segment starts
//! at function entry or at a loop header (when a back edge re-enters a
//! path) and ends at a function return or at a back edge. Each completed
//! segment is one varint in the log; the partial segment of a thread that
//! was still running when the bug fired is recovered from its
//! `(path register, current block)` pair, which is what a crash context
//! provides.
//!
//! # Example
//!
//! ```
//! use clap_ir::parse;
//! use clap_profile::{BlTables, PathRecorder, decode_log};
//! use clap_vm::{MemModel, RandomScheduler, Vm};
//!
//! let program = parse(
//!     "global int x = 0;
//!      fn main() { let i: int = 0; while (i < 3) { x = x + i; i = i + 1; } }",
//! )?;
//! let tables = BlTables::build(&program);
//! let mut vm = Vm::new(&program, MemModel::Sc);
//! let mut recorder = PathRecorder::new(&tables);
//! vm.run(&mut RandomScheduler::new(1), &mut recorder);
//! let log = recorder.finish();
//! let paths = decode_log(&program, &tables, &log).expect("valid log");
//! assert!(paths[0].root.completed);
//! # Ok::<(), clap_ir::Error>(())
//! ```

pub mod bl;
pub mod codec;
pub mod decode;
pub mod recorder;
pub mod syncorder;

pub use bl::{
    decode_path, decode_truncated, BlEdge, BlFunc, BlTables, EdgeKind, EdgeTarget, Transition,
};
pub use decode::{decode_log, ActivationPath, DecodeError, ThreadPath};
pub use recorder::{PathLog, PathRecorder, ThreadLog};
pub use syncorder::{SapRef, SyncObject, SyncOrderLog, SyncOrderRecorder};
