//! A small concurrent imperative language: the program substrate for the
//! CLAP (PLDI 2013) reproduction.
//!
//! The paper instruments C/C++ + PThreads programs through LLVM. This crate
//! provides the equivalent substrate as a self-contained mini-language with
//! exactly the constructs the technique exercises:
//!
//! * global shared variables (scalars and arrays of 64-bit integers),
//! * mutexes and condition variables (PThreads-style `lock`/`unlock`/
//!   `wait`/`signal`/`broadcast`),
//! * `fork`/`join` thread management,
//! * structured control flow (`if`/`while`) that lowers to a branchy CFG,
//! * `assert` statements acting as the bug manifestation predicate.
//!
//! Programs are written in a textual DSL (see [`parse`]), then lowered to
//! a control-flow-graph representation ([`Program`]) consumed by the VM,
//! the Ball–Larus profiler, the static sharing analysis and the symbolic
//! executor.
//!
//! # Example
//!
//! ```
//! use clap_ir::parse;
//!
//! let program = parse(
//!     r#"
//!     global int x = 0;
//!     mutex m;
//!
//!     fn worker() {
//!         lock(m);
//!         x = x + 1;
//!         unlock(m);
//!     }
//!
//!     fn main() {
//!         let t1: thread = fork worker();
//!         let t2: thread = fork worker();
//!         join t1;
//!         join t2;
//!         assert(x == 2, "lost update");
//!     }
//!     "#,
//! )?;
//! assert_eq!(program.functions.len(), 2);
//! # Ok::<(), clap_ir::Error>(())
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod program;
pub mod sema;
pub mod token;
pub mod unparse;

pub use ast::AtomicOrd;
pub use error::{Error, Result};
pub use program::{
    eval_binop, eval_unop, AssertId, Block, BlockId, ChanDecl, ChanId, CondId, FuncId, Function,
    GlobalDecl, GlobalId, Instr, LocalId, MutexId, Operand, Program, Rvalue, Terminator,
};

use ast::Module;

/// Parses DSL source text, checks it, and lowers it to a CFG [`Program`].
///
/// This is the front door of the crate: lexing, parsing, semantic analysis
/// and lowering in one call.
///
/// # Errors
///
/// Returns [`Error::Parse`] for lexical/syntactic problems and
/// [`Error::Sema`] for semantic ones (undeclared names, type mismatches,
/// missing `main`, …), each carrying a source location.
pub fn parse(source: &str) -> Result<Program> {
    let module = parse_module(source)?;
    sema::check(&module)?;
    Ok(lower::lower(&module))
}

/// Parses DSL source text into an untyped AST [`Module`] without running
/// semantic checks or lowering.
///
/// Useful for tooling (pretty-printing, tests) that wants the surface syntax.
///
/// # Errors
///
/// Returns [`Error::Parse`] for lexical or syntactic problems.
pub fn parse_module(source: &str) -> Result<Module> {
    let tokens = lexer::lex(source)?;
    parser::parse_tokens(&tokens)
}

/// Canonicalizes DSL source text: parses it and prints it back through
/// [`unparse::unparse`], erasing formatting-only differences (whitespace,
/// comments, redundant parentheses). The result is a **fixpoint** —
/// canonicalizing it again returns the same bytes — which makes it a
/// stable content-address key for caches keyed by program identity.
///
/// # Errors
///
/// Returns [`Error::Parse`] for lexical or syntactic problems.
pub fn canonicalize(source: &str) -> Result<String> {
    Ok(unparse::unparse(&parse_module(source)?))
}
