//! The flat-bytecode program representation: the whole CFG lowered once
//! into a single code array with pre-resolved jump targets.
//!
//! Every function's blocks are flattened into one `Vec<Op>` — the shape
//! of souvenir's VM (`VecMap<InstrAddr, Instr>` plus a label→address jump
//! table) — so the interpreter's fetch is a single indexed load of a
//! `Copy` instruction, with no pointer chase through
//! `functions[f].blocks[b].instrs[ip]` and no terminator clone at block
//! boundaries, and `goto`/`branch` become jumps to absolute instruction
//! addresses resolved at compile time.
//!
//! Design invariants (the golden streams in `tests/vm_equivalence.rs`
//! pin the VM behavior that rests on them):
//!
//! * **One op per scheduler step.** Every IR instruction *and* every
//!   terminator lowers to exactly one [`Op`], including fall-through
//!   `goto`s. No fusion, no peephole: every step is a scheduling point,
//!   so step counts, enabled-action lists, schedules and the oracle's
//!   search space are those of the IR program.
//! * **Addresses are dense.** A block's instructions sit at consecutive
//!   addresses with its terminator right after the last one. That makes
//!   the `(block, ip)` frame coordinates the rest of the system reads
//!   (the symbolic executor's failure context, monitors' CFG edges)
//!   recoverable from a `pc` via one side-table lookup — see
//!   [`CompiledProgram::info`].
//! * **No heap per op.** Variable-length argument lists (`call`, `fork`)
//!   are interned into one shared pool and referenced by [`ArgsRef`]
//!   ranges, keeping [`Op`] `Copy`.

use clap_ir::ast::{BinOp, UnOp};
use clap_ir::{
    AssertId, AtomicOrd, BlockId, ChanId, CondId, FuncId, GlobalId, LocalId, MutexId, Operand,
    Program,
};

/// A pure right-hand side, mirroring [`clap_ir::Rvalue`] but `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rv {
    /// Copy an operand.
    Use(Operand),
    /// Apply a unary operator.
    Unary(UnOp, Operand),
    /// Apply a binary operator.
    Binary(BinOp, Operand, Operand),
}

/// A range into the compiled program's interned argument pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgsRef {
    /// First operand index.
    pub start: u32,
    /// Number of operands.
    pub len: u32,
}

/// One flat-bytecode instruction. Each variant corresponds 1:1 to an IR
/// instruction or terminator; control flow carries absolute instruction
/// addresses instead of block labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst = rvalue`.
    Assign {
        /// Destination slot.
        dst: LocalId,
        /// Computed value.
        rv: Rv,
    },
    /// `dst = global[index?]`.
    Load {
        /// Destination slot.
        dst: LocalId,
        /// Source global.
        global: GlobalId,
        /// Element index for arrays; `None` for scalars.
        index: Option<Operand>,
    },
    /// `global[index?] = src`.
    Store {
        /// Destination global.
        global: GlobalId,
        /// Element index for arrays; `None` for scalars.
        index: Option<Operand>,
        /// Value written.
        src: Operand,
    },
    /// Acquire a mutex.
    Lock(MutexId),
    /// Release a mutex.
    Unlock(MutexId),
    /// Spawn a thread.
    Fork {
        /// Receives the new thread's handle.
        dst: LocalId,
        /// Entry function of the new thread.
        func: FuncId,
        /// Arguments (interned).
        args: ArgsRef,
    },
    /// Block until the named thread exits.
    Join {
        /// Thread handle operand.
        handle: Operand,
    },
    /// Release `mutex`, park on `cond`, reacquire on wakeup.
    Wait {
        /// Condition variable.
        cond: CondId,
        /// Protecting mutex.
        mutex: MutexId,
    },
    /// Wake one waiter.
    Signal(CondId),
    /// Wake all waiters.
    Broadcast(CondId),
    /// Blocking channel send.
    Send {
        /// Destination channel.
        chan: ChanId,
        /// Value sent.
        src: Operand,
    },
    /// Blocking channel receive.
    Recv {
        /// Receives the value (or `-1` when closed and drained).
        dst: LocalId,
        /// Source channel.
        chan: ChanId,
    },
    /// Non-blocking channel send.
    TrySend {
        /// Receives 1 on success, 0 on full/closed.
        dst: LocalId,
        /// Destination channel.
        chan: ChanId,
        /// Value sent.
        src: Operand,
    },
    /// Non-blocking channel receive.
    TryRecv {
        /// Receives the value, or `-1` when nothing was available.
        dst: LocalId,
        /// Source channel.
        chan: ChanId,
    },
    /// Close a channel (idempotent).
    ChanClose(ChanId),
    /// Spawn an actor thread with its own mailbox.
    SpawnActor {
        /// Receives the new actor's handle.
        dst: LocalId,
        /// Entry function of the actor.
        func: FuncId,
        /// Arguments (interned).
        args: ArgsRef,
    },
    /// Append a message to another thread's mailbox.
    MailboxSend {
        /// Thread handle operand.
        target: Operand,
        /// Value sent.
        src: Operand,
    },
    /// Dequeue a message from the executing thread's own mailbox.
    MailboxRecv {
        /// Receives the message.
        dst: LocalId,
    },
    /// `dst = load(atomic, ord)`.
    AtomicLoad {
        /// Receives the loaded value.
        dst: LocalId,
        /// The atomic location.
        global: GlobalId,
        /// Memory ordering.
        ord: AtomicOrd,
    },
    /// `store(atomic, src, ord)`.
    AtomicStore {
        /// The atomic location.
        global: GlobalId,
        /// Value written.
        src: Operand,
        /// Memory ordering.
        ord: AtomicOrd,
    },
    /// `dst = fetch_add(atomic, src, ord)` — `dst` receives the old value.
    AtomicRmw {
        /// Receives the pre-add value.
        dst: LocalId,
        /// The atomic location.
        global: GlobalId,
        /// Addend.
        src: Operand,
        /// Memory ordering.
        ord: AtomicOrd,
    },
    /// `dst = cas(atomic, expected, desired, ord)` — `dst` receives the
    /// old value; the swap happened iff `dst == expected`.
    AtomicCas {
        /// Receives the pre-CAS value.
        dst: LocalId,
        /// The atomic location.
        global: GlobalId,
        /// Compared value.
        expected: Operand,
        /// Value written on success.
        desired: Operand,
        /// Memory ordering.
        ord: AtomicOrd,
    },
    /// Voluntary context-switch point.
    Yield,
    /// Property check.
    Assert {
        /// 0 = failure, nonzero = pass.
        cond: Operand,
        /// Assert site.
        id: AssertId,
    },
    /// Call `func(args…)`.
    Call {
        /// Receives the return value, if used.
        dst: Option<LocalId>,
        /// Callee.
        func: FuncId,
        /// Arguments (interned).
        args: ArgsRef,
    },
    /// Unconditional jump (a lowered `goto`, fall-throughs included).
    Jump {
        /// Absolute target address.
        target: u32,
    },
    /// Two-way branch with both targets pre-resolved.
    Branch {
        /// Condition operand (0 = false).
        cond: Operand,
        /// Address when nonzero.
        then_pc: u32,
        /// Address when zero.
        else_pc: u32,
    },
    /// Return from the current frame.
    Return {
        /// Returned operand, if any.
        value: Option<Operand>,
    },
}

/// Per-function metadata.
#[derive(Debug, Clone, Copy)]
pub struct FuncInfo {
    /// Address of the entry block's first op.
    pub entry: u32,
    /// Local slot count (parameters first).
    pub locals: u32,
}

/// The `(block, ip)` coordinates of one address — how the flat `pc` maps
/// back onto the tree the rest of the pipeline reads.
#[derive(Debug, Clone, Copy)]
pub struct PcInfo {
    /// Enclosing basic block.
    pub block: BlockId,
    /// Instruction index within the block (`instrs.len()` = terminator).
    pub ip: u32,
}

/// A program lowered to flat bytecode. Built once per [`Program`] (see
/// [`crate::compile`]) and shared — cheaply cloneable via `Arc` — by every
/// VM that executes it.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub(crate) code: Vec<Op>,
    pub(crate) arg_pool: Vec<Operand>,
    pub(crate) funcs: Vec<FuncInfo>,
    pub(crate) info: Vec<PcInfo>,
}

impl CompiledProgram {
    /// Lowers `program`; alias of [`crate::compile::compile`].
    pub fn new(program: &Program) -> Self {
        crate::compile::compile(program)
    }

    /// The op at `pc`.
    #[inline]
    pub fn op(&self, pc: u32) -> Op {
        self.code[pc as usize]
    }

    /// The `(block, ip)` coordinates of `pc`.
    #[inline]
    pub fn info(&self, pc: u32) -> PcInfo {
        self.info[pc as usize]
    }

    /// Function metadata.
    #[inline]
    pub fn func(&self, f: FuncId) -> FuncInfo {
        self.funcs[f.index()]
    }

    /// The interned operand list of an [`ArgsRef`].
    #[inline]
    pub fn args(&self, r: ArgsRef) -> &[Operand] {
        &self.arg_pool[r.start as usize..(r.start + r.len) as usize]
    }

    /// Total number of ops.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// `true` when the program compiled to no ops (never happens for a
    /// parsed program, which always has a `main` with a terminator).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_ir::parse;

    #[test]
    fn ops_are_copy_and_small() {
        // The whole point of the flat layout: fetching an op is a memcpy
        // of a few words, not a pointer chase plus a heap clone.
        fn assert_copy<T: Copy>() {}
        assert_copy::<Op>();
        assert!(
            std::mem::size_of::<Op>() <= 56,
            "Op grew to {} bytes",
            std::mem::size_of::<Op>()
        );
    }

    #[test]
    fn dense_addressing_round_trips() {
        let p = parse(
            "global int x = 0;
             fn f(n: int) { if (n > 0) { x = n; } else { x = 0 - n; } return n; }
             fn main() { let r: int = f(3); }",
        )
        .unwrap();
        let c = CompiledProgram::new(&p);
        assert_eq!(c.len(), c.info.len());
        // Functions and their blocks are laid out in order, so walking every
        // (func, block, ip) coordinate in that order visits each pc once,
        // and each pc's info names its coordinate.
        let mut pc = 0;
        for f in &p.functions {
            for (bi, b) in f.blocks.iter().enumerate() {
                for ip in 0..=b.instrs.len() {
                    let info = c.info(pc);
                    assert_eq!(info.block, BlockId(bi as u32));
                    assert_eq!(info.ip as usize, ip);
                    pc += 1;
                }
            }
        }
        assert_eq!(pc as usize, c.len());
    }

    #[test]
    fn one_op_per_instruction_and_terminator() {
        let p = parse(
            "global int x = 0;
             fn main() { let i: int = 0; while (i < 3) { x = x + i; i = i + 1; } }",
        )
        .unwrap();
        let c = CompiledProgram::new(&p);
        let expected: usize = p
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.instrs.len() + 1)
            .sum();
        assert_eq!(c.len(), expected, "no fusion, no elision");
    }

    #[test]
    fn jump_targets_land_on_block_entries() {
        let p = parse(
            "global int x = 0;
             fn main() { let i: int = 0; while (i < 3) { i = i + 1; } x = i; }",
        )
        .unwrap();
        let c = CompiledProgram::new(&p);
        for pc in 0..c.len() as u32 {
            match c.op(pc) {
                Op::Jump { target } => assert_eq!(c.info(target).ip, 0),
                Op::Branch {
                    then_pc, else_pc, ..
                } => {
                    assert_eq!(c.info(then_pc).ip, 0);
                    assert_eq!(c.info(else_pc).ip, 0);
                }
                _ => {}
            }
        }
    }
}
