//! The CFG-level program representation consumed by every downstream
//! component (VM, profiler, analyses, symbolic executor).
//!
//! A [`Program`] owns flat tables of globals, mutexes, condition variables
//! and functions; each [`Function`] is a list of [`Block`]s holding
//! straight-line [`Instr`]uctions and a [`Terminator`]. All values are
//! 64-bit integers; booleans are 0/1.

use crate::ast::{BinOp, UnOp};
use crate::error::Span;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The underlying index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<usize> for $name {
            fn from(i: usize) -> Self {
                $name(i as u32)
            }
        }
    };
}

id_type!(
    /// Identifies a global variable within a [`Program`].
    GlobalId, "g"
);
id_type!(
    /// Identifies a mutex within a [`Program`].
    MutexId, "m"
);
id_type!(
    /// Identifies a condition variable within a [`Program`].
    CondId, "c"
);
id_type!(
    /// Identifies a function within a [`Program`].
    FuncId, "fn"
);
id_type!(
    /// Identifies a basic block within a [`Function`].
    BlockId, "bb"
);
id_type!(
    /// Identifies a local slot within a [`Function`] frame.
    LocalId, "l"
);
id_type!(
    /// Identifies an `assert` site within a [`Program`].
    AssertId, "a"
);
id_type!(
    /// Identifies a bounded channel within a [`Program`].
    ChanId, "ch"
);

/// A bounded-channel declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChanDecl {
    /// Source-level name.
    pub name: String,
    /// Queue capacity; 0 means rendezvous semantics.
    pub cap: usize,
}

/// A global variable: a scalar (`len == None`) or a zero-initialized array.
/// Atomic cells are lowered as scalar globals with `atomic` set; they share
/// the global address space but are only touched by atomic instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Source-level name.
    pub name: String,
    /// Array length; `None` for scalars.
    pub len: Option<usize>,
    /// Initial value (scalars only; arrays start at zero).
    pub init: i64,
    /// `true` for C11-style atomic cells (`atomic int a = 0;`).
    pub atomic: bool,
}

impl GlobalDecl {
    /// Number of addressable cells (1 for scalars).
    pub fn cells(&self) -> usize {
        self.len.unwrap_or(1)
    }
}

/// Metadata about an `assert` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertInfo {
    /// The failure message from the source.
    pub message: String,
    /// Source location of the assert.
    pub span: Span,
    /// Owning function.
    pub func: FuncId,
}

/// A value source for an instruction: a frame slot or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a local slot.
    Local(LocalId),
    /// An immediate constant.
    Const(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Local(l) => write!(f, "{l}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A pure right-hand side computed over locals and constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rvalue {
    /// Copy an operand.
    Use(Operand),
    /// Apply a unary operator.
    Unary(UnOp, Operand),
    /// Apply a binary operator.
    Binary(BinOp, Operand, Operand),
}

impl fmt::Display for Rvalue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rvalue::Use(op) => write!(f, "{op}"),
            Rvalue::Unary(UnOp::Neg, op) => write!(f, "-{op}"),
            Rvalue::Unary(UnOp::Not, op) => write!(f, "!{op}"),
            Rvalue::Binary(op, a, b) => write!(f, "{a} {op} {b}"),
        }
    }
}

/// One instruction. Shared-memory operations ([`Instr::Load`] /
/// [`Instr::Store`] on shared globals) and synchronization operations are
/// the *shared access points* (SAPs) of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst = rvalue` — pure local computation.
    Assign {
        /// Destination slot.
        dst: LocalId,
        /// Computed value.
        rv: Rvalue,
    },
    /// `dst = global[index?]` — a (potentially shared) memory read.
    Load {
        /// Destination slot.
        dst: LocalId,
        /// Source global.
        global: GlobalId,
        /// Element index for arrays; `None` for scalars.
        index: Option<Operand>,
    },
    /// `global[index?] = src` — a (potentially shared) memory write.
    Store {
        /// Destination global.
        global: GlobalId,
        /// Element index for arrays; `None` for scalars.
        index: Option<Operand>,
        /// Value written.
        src: Operand,
    },
    /// Acquire a mutex (full memory fence under TSO/PSO).
    Lock(MutexId),
    /// Release a mutex (full memory fence under TSO/PSO).
    Unlock(MutexId),
    /// Spawn a thread running `func(args…)`; store its handle in `dst`.
    Fork {
        /// Receives the new thread's handle.
        dst: LocalId,
        /// Entry function of the new thread.
        func: FuncId,
        /// Arguments for the entry function.
        args: Vec<Operand>,
    },
    /// Block until the thread named by `handle` exits.
    Join {
        /// Thread handle (from [`Instr::Fork`]).
        handle: Operand,
    },
    /// Atomically release `mutex` and block on `cond`; reacquire on wakeup.
    Wait {
        /// Condition variable.
        cond: CondId,
        /// Protecting mutex.
        mutex: MutexId,
    },
    /// Wake one waiter of `cond` (no-op if none).
    Signal(CondId),
    /// Wake all waiters of `cond`.
    Broadcast(CondId),
    /// Blocking bounded-channel send: enqueue `src`, blocking while the
    /// queue is full (or, for capacity 0, until a receiver is poised at a
    /// `recv` on the same channel). Sending on a closed channel silently
    /// drops the value — that is the "lost close race" failure mode.
    Send {
        /// Target channel.
        chan: ChanId,
        /// Value sent.
        src: Operand,
    },
    /// Blocking bounded-channel receive: dequeue into `dst`, blocking while
    /// the queue is empty; yields `-1` once the channel is closed and
    /// drained.
    Recv {
        /// Destination slot.
        dst: LocalId,
        /// Source channel.
        chan: ChanId,
    },
    /// Non-blocking send: `dst` gets 1 if the value was enqueued, 0 if the
    /// channel was full, closed, or (capacity 0) had no waiting receiver.
    TrySend {
        /// Receives the success flag.
        dst: LocalId,
        /// Target channel.
        chan: ChanId,
        /// Value offered.
        src: Operand,
    },
    /// Non-blocking receive: `dst` gets the value, or `-1` when the queue
    /// is empty (whether or not the channel is closed).
    TryRecv {
        /// Destination slot.
        dst: LocalId,
        /// Source channel.
        chan: ChanId,
    },
    /// Close a channel (idempotent). Waiting receivers drain then see `-1`.
    ChanClose(ChanId),
    /// Spawn a thread with an actor mailbox running `func(args…)`.
    /// Identical to [`Instr::Fork`] except for the SAP kind it records.
    SpawnActor {
        /// Receives the new actor's handle.
        dst: LocalId,
        /// Entry function of the new actor.
        func: FuncId,
        /// Arguments for the entry function.
        args: Vec<Operand>,
    },
    /// Deposit a message in the mailbox of the thread named by `target`.
    /// Messages to exited threads are dropped silently (dead letters).
    MailboxSend {
        /// Thread handle of the target actor.
        target: Operand,
        /// Value sent.
        src: Operand,
    },
    /// Blocking receive from the calling thread's own mailbox.
    MailboxRecv {
        /// Destination slot.
        dst: LocalId,
    },
    /// `dst = load(atomic, ord)` — atomic load of a cell.
    AtomicLoad {
        /// Destination slot.
        dst: LocalId,
        /// Atomic cell (a global with the `atomic` flag).
        global: GlobalId,
        /// Memory ordering.
        ord: crate::ast::AtomicOrd,
    },
    /// `store(atomic, src, ord)` — atomic store to a cell. Relaxed and
    /// release stores become visible via schedulable propagation actions;
    /// `seq_cst` stores are full fences with immediate visibility.
    AtomicStore {
        /// Atomic cell.
        global: GlobalId,
        /// Value written.
        src: Operand,
        /// Memory ordering.
        ord: crate::ast::AtomicOrd,
    },
    /// `dst = fetch_add(atomic, src, ord)` — atomic read-modify-write;
    /// `dst` receives the old value, the cell gains `src`.
    AtomicRmw {
        /// Receives the old value.
        dst: LocalId,
        /// Atomic cell.
        global: GlobalId,
        /// Addend.
        src: Operand,
        /// Memory ordering.
        ord: crate::ast::AtomicOrd,
    },
    /// `dst = cas(atomic, expected, desired, ord)` — atomic compare-and-
    /// swap; `dst` receives the old value (success iff it equals
    /// `expected`).
    AtomicCas {
        /// Receives the old value.
        dst: LocalId,
        /// Atomic cell.
        global: GlobalId,
        /// Value the cell must hold for the swap.
        expected: Operand,
        /// Value installed on success.
        desired: Operand,
        /// Memory ordering.
        ord: crate::ast::AtomicOrd,
    },
    /// Voluntarily offer a context switch.
    Yield,
    /// Check a property; a false condition manifests the bug.
    Assert {
        /// 0 = failure, nonzero = pass.
        cond: Operand,
        /// Which assert site this is.
        id: AssertId,
    },
    /// Call `func(args…)` and store the result (if any) into `dst`.
    Call {
        /// Receives the return value, if used.
        dst: Option<LocalId>,
        /// Callee.
        func: FuncId,
        /// Arguments.
        args: Vec<Operand>,
    },
}

impl Instr {
    /// `true` if this instruction is a C11-style atomic operation.
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            Instr::AtomicLoad { .. }
                | Instr::AtomicStore { .. }
                | Instr::AtomicRmw { .. }
                | Instr::AtomicCas { .. }
        )
    }

    /// `true` if this instruction is a synchronization operation.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Instr::Lock(_)
                | Instr::Unlock(_)
                | Instr::Fork { .. }
                | Instr::Join { .. }
                | Instr::Wait { .. }
                | Instr::Signal(_)
                | Instr::Broadcast(_)
                | Instr::Send { .. }
                | Instr::Recv { .. }
                | Instr::TrySend { .. }
                | Instr::TryRecv { .. }
                | Instr::ChanClose(_)
                | Instr::SpawnActor { .. }
                | Instr::MailboxSend { .. }
                | Instr::MailboxRecv { .. }
        )
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch on an operand (0 = false).
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Target when nonzero.
        then_bb: BlockId,
        /// Target when zero.
        else_bb: BlockId,
    },
    /// Return from the function, with an optional value.
    Return(Option<Operand>),
}

impl Terminator {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Goto(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return(_) => Vec::new(),
        }
    }

    /// `true` for two-way branches (these are the conditional-branch count
    /// `N_br` of the paper's complexity analysis).
    pub fn is_branch(&self) -> bool {
        matches!(self, Terminator::Branch { .. })
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    /// How control continues.
    pub term: Terminator,
}

/// A function body in CFG form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Source-level name.
    pub name: String,
    /// Number of parameters; parameters occupy local slots `0..param_count`.
    pub param_count: usize,
    /// Debug names of all local slots (parameters first).
    pub locals: Vec<String>,
    /// Basic blocks; `BlockId` indexes into this.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
}

impl Function {
    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Total number of instructions across all blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Number of conditional branches.
    pub fn branch_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.term.is_branch()).count()
    }
}

/// A lowered program: the unit every other crate operates on.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Global variables; indexed by [`GlobalId`].
    pub globals: Vec<GlobalDecl>,
    /// Mutex names; indexed by [`MutexId`].
    pub mutexes: Vec<String>,
    /// Condition-variable names; indexed by [`CondId`].
    pub conds: Vec<String>,
    /// Bounded channels; indexed by [`ChanId`].
    pub chans: Vec<ChanDecl>,
    /// Functions; indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// The entry function (`main`).
    pub main: FuncId,
    /// Assert-site metadata; indexed by [`AssertId`].
    pub asserts: Vec<AssertInfo>,
}

impl Program {
    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Looks up a function by source name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from)
    }

    /// Looks up a global by source name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(GlobalId::from)
    }

    /// Looks up a mutex by source name.
    pub fn mutex_by_name(&self, name: &str) -> Option<MutexId> {
        self.mutexes
            .iter()
            .position(|m| m == name)
            .map(MutexId::from)
    }

    /// Total static instruction count.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(Function::instr_count).sum()
    }
}

/// Evaluates a binary operator on concrete 64-bit values.
///
/// Arithmetic wraps; division/remainder by zero yield 0 (the VM treats this
/// as a benign trap so racy index arithmetic cannot crash the simulator);
/// comparisons and logical operators return 0/1; shifts mask the amount to
/// 0..=63.
pub fn eval_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => (a != 0 && b != 0) as i64,
        BinOp::Or => (a != 0 || b != 0) as i64,
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => a.wrapping_shl((b & 63) as u32),
        BinOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

/// Evaluates a unary operator on a concrete value.
pub fn eval_unop(op: UnOp, a: i64) -> i64 {
    match op {
        UnOp::Neg => a.wrapping_neg(),
        UnOp::Not => (a == 0) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_and_index() {
        assert_eq!(GlobalId(3).to_string(), "g3");
        assert_eq!(BlockId::from(7usize).index(), 7);
        assert_eq!(FuncId(0).to_string(), "fn0");
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Const(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(t.is_branch());
        assert!(Terminator::Return(None).successors().is_empty());
    }

    #[test]
    fn instr_classification() {
        assert!(Instr::Lock(MutexId(0)).is_sync());
        assert!(!Instr::Yield.is_sync());
    }

    #[test]
    fn eval_binop_semantics() {
        assert_eq!(eval_binop(BinOp::Add, i64::MAX, 1), i64::MIN); // wraps
        assert_eq!(eval_binop(BinOp::Div, 5, 0), 0); // benign trap
        assert_eq!(eval_binop(BinOp::Rem, 5, 0), 0);
        assert_eq!(eval_binop(BinOp::Lt, 2, 3), 1);
        assert_eq!(eval_binop(BinOp::And, 2, 0), 0);
        assert_eq!(eval_binop(BinOp::Or, 0, 7), 1);
        assert_eq!(eval_binop(BinOp::Shl, 1, 65), 2); // masked shift
        assert_eq!(eval_binop(BinOp::Shr, -8, 1), -4); // arithmetic shift
    }

    #[test]
    fn eval_unop_semantics() {
        assert_eq!(eval_unop(UnOp::Neg, i64::MIN), i64::MIN);
        assert_eq!(eval_unop(UnOp::Not, 0), 1);
        assert_eq!(eval_unop(UnOp::Not, 42), 0);
    }

    #[test]
    fn global_cells() {
        assert_eq!(
            GlobalDecl {
                name: "x".into(),
                len: None,
                init: 1,
                atomic: false
            }
            .cells(),
            1
        );
        assert_eq!(
            GlobalDecl {
                name: "a".into(),
                len: Some(9),
                init: 0,
                atomic: false
            }
            .cells(),
            9
        );
    }
}
