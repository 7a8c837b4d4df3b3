//! The interpreter: executes a lowered [`Program`] under a chosen memory
//! model, driven by a [`Scheduler`] and observed by a [`Monitor`].
//!
//! Execution proceeds in *steps*. Each step either advances one runnable
//! thread by one instruction/terminator, or drains one buffered store to
//! memory (TSO/PSO). A scheduler picks every step from the set of enabled
//! steps, so it sees every interleaving point — including the
//! relaxed-memory visibility points that make Dekker-style algorithms fail
//! under TSO/PSO. That set depends only on thread statuses and store
//! buffers, so the VM keeps it between steps and rebuilds it only after a
//! step that changed one of them (see [`Vm::enabled`]).
//!
//! Each thread step executes one op of the program's flat bytecode (see
//! [`crate::bytecode`]), fetched by the frame's absolute `pc`, the frame's
//! only position: CFG-edge events and the symbolic executor's failure
//! context derive `(block, ip)` coordinates from it with
//! [`CompiledProgram::info`].

use crate::bytecode::{CompiledProgram, Op, Rv};
use crate::mem::{Addr, BufferedStore, Layout, MemModel, Memory, StoreBuffer};
use crate::monitor::{AccessEvent, Monitor, SyncEvent};
use crate::sched::{Action, Scheduler};
use crate::stats::ExecStats;
use crate::thread::{Frame, Lineage, Status, Thread, ThreadId};
use clap_ir::{
    eval_binop, eval_unop, AssertId, AtomicOrd, ChanId, CondId, FuncId, GlobalId, LocalId, MutexId,
    Operand, Program,
};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every thread exited.
    Completed,
    /// An assert evaluated to false — the bug manifested.
    AssertFailed {
        /// Which assert site failed.
        assert: AssertId,
        /// The thread that executed it.
        thread: ThreadId,
    },
    /// No thread can make progress.
    Deadlock,
    /// The step budget was exhausted, or provably would have been: the
    /// run reached a state it had already been in through steps that
    /// each had exactly one enabled action, so it could only repeat that
    /// cycle until the limit (see [`Vm::run`]). The run's
    /// [`ExecStats`] count the steps actually executed.
    StepLimit,
    /// A runtime fault (out-of-bounds index, unlock of unowned mutex, …).
    Fault {
        /// The faulting thread.
        thread: ThreadId,
        /// Description.
        message: String,
    },
}

impl Outcome {
    /// `true` for [`Outcome::AssertFailed`].
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::AssertFailed { .. })
    }
}

/// Which globals count as *shared* (and therefore as SAPs and as buffered
/// under TSO/PSO). Non-shared globals behave like thread-local storage:
/// direct memory access, no events, no buffering.
#[derive(Debug, Clone, Default)]
pub enum SharedSpec {
    /// Every global is treated as shared.
    #[default]
    All,
    /// Only the listed globals are shared (output of the static sharing
    /// analysis).
    Set(HashSet<GlobalId>),
}

impl SharedSpec {
    /// `true` if `global` is shared under this spec.
    pub fn contains(&self, global: GlobalId) -> bool {
        match self {
            SharedSpec::All => true,
            SharedSpec::Set(set) => set.contains(&global),
        }
    }
}

/// What executing a thread's next step would do — used by replay schedulers
/// to gate threads on the computed schedule without executing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPreview {
    /// Pure computation, call/return, non-shared access, or a yield:
    /// invisible to other threads.
    Invisible,
    /// A shared store that would enter the store buffer (TSO/PSO):
    /// invisible now, visible at its drain. Consumes the given
    /// program-order SAP index.
    BufferedStore {
        /// The store's per-thread SAP index.
        po_index: u64,
    },
    /// A visible SAP would execute.
    Sap {
        /// The SAP's per-thread index.
        po_index: u64,
        /// What kind of SAP.
        kind: SapPreviewKind,
    },
    /// The step would block the thread (lock held, join target running,
    /// wait reacquisition contended) without consuming a SAP.
    WouldBlock,
    /// An assert would execute (invisible for ordering purposes).
    AssertStep,
    /// The thread's final `return` would execute, flushing its store
    /// buffer — replay schedulers must hold this until every buffered
    /// store has drained at its scheduled position.
    ThreadExit,
}

/// Kinds of visible SAPs, for preview purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SapPreviewKind {
    /// Shared load.
    Read(Addr),
    /// Shared store that is immediately visible (SC).
    Write(Addr),
    /// Mutex acquisition.
    Lock(MutexId),
    /// Mutex release.
    Unlock(MutexId),
    /// Thread creation.
    Fork,
    /// Join completion.
    Join,
    /// Cond-wait release phase (releases the mutex, parks).
    WaitRelease(CondId),
    /// Cond-wait reacquisition phase (completes the wait).
    WaitAcquire(CondId),
    /// Signal.
    Signal(CondId),
    /// Broadcast.
    Broadcast(CondId),
    /// Blocking channel send that would complete.
    ChanSend(ChanId),
    /// Blocking channel receive that would complete.
    ChanRecv(ChanId),
    /// Non-blocking channel send (executes regardless of channel state).
    ChanTrySend(ChanId),
    /// Non-blocking channel receive (executes regardless of channel state).
    ChanTryRecv(ChanId),
    /// Channel close.
    ChanClose(ChanId),
    /// Actor spawn.
    SpawnActor,
    /// Mailbox append to another thread.
    MailboxSend,
    /// Mailbox dequeue that would complete.
    MailboxRecv,
    /// Atomic load (value picked among currently-visible stores).
    AtomicLoad(Addr, AtomicOrd),
    /// Atomic store that is immediately visible (`seq_cst` under C11; any
    /// ordering under SC/TSO/PSO, where atomics are full fences).
    AtomicStore(Addr, AtomicOrd),
    /// Atomic fetch-add (reads and writes the location in one step).
    AtomicRmw(Addr, AtomicOrd),
    /// Atomic compare-and-swap (both outcomes reachable, chosen by the
    /// visible value at execution time).
    AtomicCas(Addr, AtomicOrd),
}

/// A captured execution state (see [`Vm::snapshot`]): everything mutable
/// about a run, detached from the program (which snapshots share).
///
/// The state is flattened into a handful of pooled arrays — per-thread
/// metadata records index ranges of shared `locals` / `lineage` / store
/// pools — so capture is a few `extend_from_slice` calls and restore
/// ([`Vm::restore`]) rewrites the VM in place without allocating once the
/// capacities have warmed up. Snapshot-heavy loops (the exploration
/// sweep's per-seed reset, the oracle's DFS backtracking) reuse one
/// `Snapshot` via [`Vm::snapshot_into`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    memory: Vec<i64>,
    threads: Vec<ThreadImage>,
    frames: Vec<FrameImage>,
    locals: Vec<i64>,
    lineages: Vec<u32>,
    stores: Vec<BufferedStore>,
    cond_waiters: Vec<ThreadId>,
    cond_lens: Vec<u32>,
    mutex_owner: Vec<Option<ThreadId>>,
    chan_items: Vec<i64>,
    chan_lens: Vec<u32>,
    chan_closed: Vec<bool>,
    /// Pooled mailbox contents, one length per thread (same order as
    /// [`Snapshot::threads`]).
    mailbox_items: Vec<i64>,
    mailbox_lens: Vec<u32>,
    stats: ExecStats,
    announced_main: bool,
}

/// Flattened per-thread record: scalar state plus ranges into the
/// snapshot's pooled arrays.
#[derive(Debug, Clone, Copy)]
struct ThreadImage {
    id: ThreadId,
    status: Status,
    forks: u32,
    next_sap_index: u64,
    waiting_reacquire: Option<MutexId>,
    lineage_start: u32,
    lineage_len: u32,
    frame_start: u32,
    frame_len: u32,
    store_start: u32,
    store_len: u32,
}

/// Flattened activation record.
#[derive(Debug, Clone, Copy)]
struct FrameImage {
    func: FuncId,
    pc: u32,
    ret_dst: Option<LocalId>,
    locals_start: u32,
    locals_len: u32,
}

impl Snapshot {
    /// The counters at capture time.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Number of threads alive or exited at capture time.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }
}

/// Wall-time attribution of the [`Vm::run`] inner loop, accumulated
/// while profiling is on (see [`Vm::enable_step_profile`]). The loop has
/// exactly three phases per scheduler decision — bring the enabled
/// action set up to date, ask the scheduler to pick, execute the choice —
/// and the profile splits wall time across them. Accumulates across runs
/// (and across [`Vm::reset`]) until taken, which is what a sweep worker
/// wants: one profile covering every seed it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepProfile {
    /// Reading the enabled-action set, rebuilds included.
    pub rebuild: Duration,
    /// Reads that had to rebuild the set because the step before changed
    /// it (the rest reuse the kept set).
    pub rebuilds: u64,
    /// Inside `scheduler.pick` (RNG draws, stickiness logic).
    pub pick: Duration,
    /// Executing the chosen action (instruction step or buffer drain),
    /// including monitor callbacks.
    pub exec: Duration,
    /// Scheduler decisions profiled.
    pub steps: u64,
}

/// The virtual machine.
#[derive(Debug)]
pub struct Vm<'p> {
    program: &'p Program,
    compiled: Arc<CompiledProgram>,
    layout: Layout,
    memory: Memory,
    model: MemModel,
    /// `shared.contains(g)` precomputed per global: the hot paths test a
    /// bool slot instead of hashing into a `HashSet`.
    shared_mask: Vec<bool>,
    threads: Vec<Thread>,
    buffers: Vec<StoreBuffer>,
    mutex_owner: Vec<Option<ThreadId>>,
    cond_queue: Vec<VecDeque<ThreadId>>,
    /// Per-channel FIFO contents (bounded by the declared capacity; a
    /// capacity-0 channel holds at most one in-flight rendezvous value).
    chan_queues: Vec<VecDeque<i64>>,
    chan_closed: Vec<bool>,
    /// Per-thread unbounded mailboxes, in lockstep with `threads`.
    mailboxes: Vec<VecDeque<i64>>,
    stats: ExecStats,
    outcome: Option<Outcome>,
    step_limit: u64,
    announced_main: bool,
    /// The enabled-action set, kept between steps: [`Vm::run`] and
    /// [`Vm::enabled`] rebuild it only when `enabled_dirty` is set.
    enabled: Vec<Action>,
    /// Set wherever the state the enabled set depends on changes: a
    /// thread's status, the thread list, or a store buffer's contents.
    enabled_dirty: bool,
    /// `Some` while step profiling is on; [`Vm::run`] accumulates into it.
    step_profile: Option<StepProfile>,
    /// [`Vm::run`]'s forced-cycle detector, kept between runs so its
    /// anchor snapshot stops allocating.
    forced_cycle: ForcedCycle,
}

/// Forced steps [`Vm::run`] takes before it starts looking for a repeated
/// state. Terminating runs never pay for the search: across every record
/// sweep and replay of the `clap_workloads` corpus, the longest run of
/// forced steps that did not livelock was 255 steps (in `swarm`), so
/// this leaves a margin of four times that.
const FORCED_WARMUP: u64 = 1024;

/// Brent's cycle finder over the current run of forced steps — steps
/// with exactly one enabled action (see [`Vm::run`]). `anchor` holds the
/// state `lam` forced steps back and jumps to the live state whenever
/// `lam` reaches `power`, which then doubles; a cycle of length λ
/// entered after μ forced steps is found within O(μ + λ) steps, with one
/// pooled snapshot.
#[derive(Debug, Default)]
struct ForcedCycle {
    /// Consecutive forced steps in the current run.
    steps: u64,
    anchor: Snapshot,
    power: u64,
    lam: u64,
}

impl ForcedCycle {
    /// Counts one forced step about to be taken from `vm`'s state;
    /// `true` when that state repeats one seen earlier in this run of
    /// forced steps.
    fn repeats(&mut self, vm: &Vm<'_>) -> bool {
        self.steps += 1;
        if self.steps < FORCED_WARMUP {
            return false;
        }
        if self.steps == FORCED_WARMUP {
            self.power = 1;
        } else {
            if vm.same_state(&self.anchor) {
                return true;
            }
            self.lam += 1;
            if self.lam < self.power {
                return false;
            }
            self.power *= 2;
        }
        self.lam = 0;
        vm.snapshot_into(&mut self.anchor);
        false
    }
}

impl<'p> Vm<'p> {
    /// Creates a VM for `program` under `model`, treating all globals as
    /// shared.
    pub fn new(program: &'p Program, model: MemModel) -> Self {
        Self::with_shared(program, model, SharedSpec::All)
    }

    /// Creates a VM with an explicit shared-variable specification.
    pub fn with_shared(program: &'p Program, model: MemModel, shared: SharedSpec) -> Self {
        let compiled = Arc::new(CompiledProgram::new(program));
        Self::with_compiled(program, compiled, model, shared)
    }

    /// Creates a VM reusing an already-compiled program — the cheap
    /// constructor when many VMs execute the same program (exploration
    /// workers, replay validators, the serving loop).
    ///
    /// # Panics
    ///
    /// Panics when `compiled` was not produced from `program`.
    pub fn with_compiled(
        program: &'p Program,
        compiled: Arc<CompiledProgram>,
        model: MemModel,
        shared: SharedSpec,
    ) -> Self {
        let expected: usize = program
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.instrs.len() + 1)
            .sum();
        assert_eq!(
            compiled.len(),
            expected,
            "compiled bytecode is from a different program"
        );
        let layout = Layout::new(program);
        let memory = Memory::new(program, &layout);
        let main_fn = program.function(program.main);
        let mut frame = Frame::new(program.main, main_fn.locals.len(), &[]);
        frame.pc = compiled.func(program.main).entry;
        let main = Thread::new(ThreadId::MAIN, Lineage::main(), frame);
        let stats = ExecStats {
            threads: 1,
            ..ExecStats::default()
        };
        let shared_mask = (0..program.globals.len())
            .map(|i| shared.contains(GlobalId::from(i)))
            .collect();
        Vm {
            program,
            compiled,
            layout,
            memory,
            model,
            shared_mask,
            threads: vec![main],
            buffers: vec![StoreBuffer::default()],
            mutex_owner: vec![None; program.mutexes.len()],
            cond_queue: vec![VecDeque::new(); program.conds.len()],
            chan_queues: vec![VecDeque::new(); program.chans.len()],
            chan_closed: vec![false; program.chans.len()],
            mailboxes: vec![VecDeque::new()],
            stats,
            outcome: None,
            step_limit: 200_000_000,
            announced_main: false,
            enabled: Vec::new(),
            enabled_dirty: true,
            step_profile: None,
            forced_cycle: ForcedCycle::default(),
        }
    }

    /// Caps the number of scheduler steps before the run aborts with
    /// [`Outcome::StepLimit`].
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The memory model in effect.
    pub fn model(&self) -> MemModel {
        self.model
    }

    /// The compiled bytecode, shareable with other VMs over the same
    /// program via [`Vm::with_compiled`].
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    #[inline]
    fn is_shared(&self, global: GlobalId) -> bool {
        self.shared_mask[global.index()]
    }

    /// The address layout (for monitors that need to resolve addresses).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// All threads created so far, indexed by [`ThreadId`].
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// One thread's state.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn thread(&self, t: ThreadId) -> &Thread {
        &self.threads[t.index()]
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The final outcome, once the run has ended.
    pub fn outcome(&self) -> Option<&Outcome> {
        self.outcome.as_ref()
    }

    /// Reads a global scalar / array element directly from memory
    /// (ignores store buffers — callers usually inspect state after the
    /// run, when buffers are empty).
    ///
    /// # Panics
    ///
    /// Panics if the global/offset is out of range.
    pub fn read_global(&self, global: GlobalId, offset: usize) -> i64 {
        let addr = self
            .layout
            .addr(global, offset as i64)
            .expect("global offset in range");
        self.memory.read(addr)
    }

    /// The currently enabled actions, built afresh.
    pub fn enabled_actions(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        self.fill_enabled_actions(&mut actions);
        actions
    }

    /// The currently enabled actions (same order as
    /// [`Vm::enabled_actions`]) from the set the VM keeps between steps:
    /// rebuilt only when a step since the last read changed a thread's
    /// status, the thread list or a store buffer, which is all the set
    /// depends on. The everyday read for loops that query the set every
    /// step.
    pub fn enabled(&mut self) -> &[Action] {
        let mut actions = std::mem::take(&mut self.enabled);
        self.refresh_enabled(&mut actions);
        self.enabled = actions;
        &self.enabled
    }

    /// Brings `actions`, the kept enabled set moved out of the VM, up to
    /// date; `true` when that took a rebuild. Debug builds check the
    /// result against a fresh rebuild on every call.
    fn refresh_enabled(&mut self, actions: &mut Vec<Action>) -> bool {
        let rebuilt = self.enabled_dirty;
        if rebuilt {
            actions.clear();
            self.fill_enabled_actions(actions);
            self.enabled_dirty = false;
        }
        debug_assert_eq!(*actions, self.enabled_actions(), "stale enabled set");
        rebuilt
    }

    /// Appends the enabled actions to `out` (same order as
    /// [`Vm::enabled_actions`]: runnable steps in thread order, then
    /// drains in thread order) without allocating.
    fn fill_enabled_actions(&self, out: &mut Vec<Action>) {
        for t in &self.threads {
            if t.is_runnable() {
                out.push(Action::Step(t.id));
            }
        }
        if self.model.uses_buffers() {
            for (i, buf) in self.buffers.iter().enumerate() {
                let owner = ThreadId::from(i);
                buf.for_each_drainable(self.model, |addr| out.push(Action::Drain(owner, addr)));
            }
        }
    }

    /// The per-thread SAP index of the oldest buffered store to `addr` by
    /// thread `t`, if one exists (what a [`Action::Drain`] would commit).
    pub fn drain_preview(&self, t: ThreadId, addr: Addr) -> Option<u64> {
        self.buffers[t.index()]
            .iter()
            .find(|s| s.addr == addr)
            .map(|s| s.po_index)
    }

    /// Number of stores sitting in thread `t`'s store buffer.
    pub fn buffered_store_count(&self, t: ThreadId) -> usize {
        self.buffers[t.index()].len()
    }

    /// Thread `t`'s store buffer, oldest entry first.
    ///
    /// Enumeration tools use this to account for stores that will be
    /// committed by an implicit fence (lock/unlock/join/exit) rather than
    /// by an explicit [`Action::Drain`].
    pub fn buffer(&self, t: ThreadId) -> &StoreBuffer {
        &self.buffers[t.index()]
    }

    /// Classifies what stepping thread `t` would do, without side effects:
    /// it classifies the op at the thread's `pc`, which is exactly the
    /// instruction or terminator the step would execute.
    ///
    /// # Panics
    ///
    /// Panics if `t` has exited.
    pub fn preview_step(&self, t: ThreadId) -> StepPreview {
        let thread = &self.threads[t.index()];
        assert!(!thread.frames.is_empty(), "preview of an exited thread");
        let frame = thread.frame();
        let sap = thread.next_sap_index;
        match self.compiled.op(frame.pc) {
            // Terminators: a thread's final `return` flushes its buffer.
            Op::Jump { .. } | Op::Branch { .. } => StepPreview::Invisible,
            Op::Return { .. } => {
                if thread.frames.len() == 1 {
                    StepPreview::ThreadExit
                } else {
                    StepPreview::Invisible
                }
            }
            Op::Assign { .. } | Op::Call { .. } | Op::Yield => StepPreview::Invisible,
            Op::Assert { .. } => StepPreview::AssertStep,
            Op::Load { global, index, .. } => {
                if !self.is_shared(global) {
                    return StepPreview::Invisible;
                }
                let offset = index.map(|op| operand(frame, op)).unwrap_or(0);
                match self.layout.addr(global, offset) {
                    Some(addr) => StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::Read(addr),
                    },
                    None => StepPreview::Invisible, // will fault on execution
                }
            }
            Op::Store { global, index, .. } => {
                if !self.is_shared(global) {
                    return StepPreview::Invisible;
                }
                if self.model.buffered() {
                    return StepPreview::BufferedStore { po_index: sap };
                }
                let offset = index.map(|op| operand(frame, op)).unwrap_or(0);
                match self.layout.addr(global, offset) {
                    Some(addr) => StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::Write(addr),
                    },
                    None => StepPreview::Invisible,
                }
            }
            Op::Lock(m) => {
                if self.mutex_owner[m.index()].is_none() {
                    StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::Lock(m),
                    }
                } else {
                    StepPreview::WouldBlock
                }
            }
            Op::Unlock(m) => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::Unlock(m),
            },
            Op::Fork { .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::Fork,
            },
            Op::Join { handle } => {
                let target = operand(frame, handle);
                let exited = self
                    .threads
                    .get(target as usize)
                    .map(|th| th.status == Status::Exited)
                    .unwrap_or(true); // invalid handle faults at execution
                if exited {
                    StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::Join,
                    }
                } else {
                    StepPreview::WouldBlock
                }
            }
            Op::Wait { cond, .. } => {
                if let Some(m) = thread.waiting_reacquire {
                    if self.mutex_owner[m.index()].is_none() {
                        StepPreview::Sap {
                            po_index: sap,
                            kind: SapPreviewKind::WaitAcquire(cond),
                        }
                    } else {
                        StepPreview::WouldBlock
                    }
                } else {
                    StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::WaitRelease(cond),
                    }
                }
            }
            Op::Signal(c) => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::Signal(c),
            },
            Op::Broadcast(c) => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::Broadcast(c),
            },
            Op::Send { chan, .. } => {
                if self.chan_send_ready(t, chan) {
                    StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::ChanSend(chan),
                    }
                } else {
                    StepPreview::WouldBlock
                }
            }
            Op::Recv { chan, .. } => {
                if self.chan_recv_ready(chan) {
                    StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::ChanRecv(chan),
                    }
                } else {
                    StepPreview::WouldBlock
                }
            }
            Op::TrySend { chan, .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::ChanTrySend(chan),
            },
            Op::TryRecv { chan, .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::ChanTryRecv(chan),
            },
            Op::ChanClose(c) => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::ChanClose(c),
            },
            Op::SpawnActor { .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::SpawnActor,
            },
            Op::MailboxSend { .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::MailboxSend,
            },
            Op::MailboxRecv { .. } => {
                if self.mailboxes[t.index()].is_empty() {
                    StepPreview::WouldBlock
                } else {
                    StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::MailboxRecv,
                    }
                }
            }
            Op::AtomicLoad { global, ord, .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::AtomicLoad(self.atomic_addr(global), ord),
            },
            Op::AtomicStore { global, ord, .. } => {
                if self.atomic_store_buffered(ord) {
                    StepPreview::BufferedStore { po_index: sap }
                } else {
                    StepPreview::Sap {
                        po_index: sap,
                        kind: SapPreviewKind::AtomicStore(self.atomic_addr(global), ord),
                    }
                }
            }
            Op::AtomicRmw { global, ord, .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::AtomicRmw(self.atomic_addr(global), ord),
            },
            Op::AtomicCas { global, ord, .. } => StepPreview::Sap {
                po_index: sap,
                kind: SapPreviewKind::AtomicCas(self.atomic_addr(global), ord),
            },
        }
    }

    /// When thread `t`'s next step is an assert, returns the assert site
    /// and whether its condition currently evaluates true. `None` when
    /// the thread has exited or the next step is not an assert.
    ///
    /// Replay uses this to distinguish the *expected* failure from an
    /// assert beyond the recorded trace's horizon: the latter has
    /// operands the constraint system never saw, so a schedule-enforcing
    /// scheduler must not let it fire first.
    pub fn assert_preview(&self, t: ThreadId) -> Option<(AssertId, bool)> {
        let thread = &self.threads[t.index()];
        if thread.frames.is_empty() {
            return None;
        }
        let frame = thread.frame();
        match self.compiled.op(frame.pc) {
            Op::Assert { cond, id } => Some((id, operand(frame, cond) != 0)),
            _ => None,
        }
    }

    /// The flat address of an atomic location (always a scalar, offset 0).
    #[inline]
    fn atomic_addr(&self, global: GlobalId) -> Addr {
        self.layout.addr(global, 0).expect("atomic is a scalar")
    }

    /// `true` when an atomic store with ordering `ord` enters the store
    /// buffer (becoming visible only at a scheduled [`Action::Drain`])
    /// rather than writing memory immediately. Only relaxed/acquire/release
    /// stores under C11 buffer; `seq_cst` is a full fence, and under
    /// SC/TSO/PSO every atomic op acts as a `seq_cst` fence.
    fn atomic_store_buffered(&self, ord: AtomicOrd) -> bool {
        self.model == MemModel::C11 && ord != AtomicOrd::SeqCst
    }

    /// `true` when stepping thread `t`'s `send` on `chan` would complete
    /// rather than park. A send on a closed channel always completes (the
    /// value is silently dropped — the "lost close" failure mode); a
    /// capacity-0 send completes only when the rendezvous slot is free and
    /// some *other* thread is positioned at a `recv` on the same channel.
    fn chan_send_ready(&self, t: ThreadId, chan: ChanId) -> bool {
        if self.chan_closed[chan.index()] {
            return true;
        }
        let cap = self.program.chans[chan.index()].cap;
        if cap == 0 {
            self.chan_queues[chan.index()].is_empty() && self.recv_positioned(t, chan)
        } else {
            self.chan_queues[chan.index()].len() < cap
        }
    }

    /// `true` when a `recv` on `chan` would complete: a value is queued,
    /// or the channel is closed (drained receives yield `-1`).
    fn chan_recv_ready(&self, chan: ChanId) -> bool {
        !self.chan_queues[chan.index()].is_empty() || self.chan_closed[chan.index()]
    }

    /// `true` when some thread other than `sender` sits at a `recv` on
    /// `chan` — either parked there ([`Status::BlockedRecv`]) or runnable
    /// with a `recv` as its next op. The capacity-0 rendezvous partner
    /// test.
    fn recv_positioned(&self, sender: ThreadId, chan: ChanId) -> bool {
        self.threads.iter().any(|th| {
            if th.id == sender || th.frames.is_empty() {
                return false;
            }
            match th.status {
                Status::BlockedRecv(c) => c == chan,
                Status::Runnable => {
                    matches!(self.compiled.op(th.frame().pc), Op::Recv { chan: c, .. } if c == chan)
                }
                _ => false,
            }
        })
    }

    /// Number of values currently queued in `chan`.
    pub fn chan_len(&self, chan: ChanId) -> usize {
        self.chan_queues[chan.index()].len()
    }

    /// `true` once `chan` has been closed.
    pub fn chan_is_closed(&self, chan: ChanId) -> bool {
        self.chan_closed[chan.index()]
    }

    /// Number of messages waiting in thread `t`'s mailbox.
    pub fn mailbox_len(&self, t: ThreadId) -> usize {
        self.mailboxes[t.index()].len()
    }

    /// Runs to completion under `scheduler`, reporting events to `monitor`.
    ///
    /// A step with exactly one enabled action is *forced*: the scheduler
    /// can only pick it, and monitors cannot steer the VM, so the next
    /// state depends on the current one alone. When a run of forced steps
    /// comes back to a state it has already been in, it can only repeat
    /// that cycle until the step limit, so the run ends there with
    /// [`Outcome::StepLimit`] (see [`ForcedCycle`]). Scheduler and monitor
    /// see the steps up to that point, exactly as they would have.
    pub fn run(&mut self, scheduler: &mut dyn Scheduler, monitor: &mut dyn Monitor) -> Outcome {
        if !self.announced_main {
            self.announced_main = true;
            let lineage = self.threads[0].lineage.clone();
            monitor.on_thread_start(ThreadId::MAIN, &lineage, self.program.main);
            monitor.on_func_enter(ThreadId::MAIN, self.program.main);
        }
        // Move the kept enabled set and the cycle detector into locals so
        // `scheduler.pick(self, …)` can borrow the whole VM; put them back
        // on every exit path.
        let mut actions = std::mem::take(&mut self.enabled);
        let mut forced = std::mem::take(&mut self.forced_cycle);
        forced.steps = 0;
        // The profiled loop pays three timer pairs per decision; the
        // default path pays one discriminant test here and nothing inside.
        let profiling = self.step_profile.is_some();
        let outcome = loop {
            if let Some(outcome) = &self.outcome {
                break outcome.clone();
            }
            let t = profiling.then(Instant::now);
            let rebuilt = self.refresh_enabled(&mut actions);
            if let Some(t) = t {
                let p = self.step_profile.as_mut().expect("profiling is on");
                p.rebuild += t.elapsed();
                p.rebuilds += u64::from(rebuilt);
            }
            if actions.is_empty() {
                let all_exited = self.threads.iter().all(|t| t.status == Status::Exited);
                let outcome = if all_exited {
                    Outcome::Completed
                } else {
                    Outcome::Deadlock
                };
                self.outcome = Some(outcome.clone());
                break outcome;
            }
            if actions.len() > 1 {
                forced.steps = 0;
            } else if forced.repeats(self) {
                self.outcome = Some(Outcome::StepLimit);
                break Outcome::StepLimit;
            }
            if self.stats.steps >= self.step_limit {
                self.outcome = Some(Outcome::StepLimit);
                break Outcome::StepLimit;
            }
            let t = profiling.then(Instant::now);
            let choice = scheduler.pick(self, &actions);
            if let Some(t) = t {
                let p = self.step_profile.as_mut().expect("profiling is on");
                p.pick += t.elapsed();
                p.steps += 1;
            }
            let t0 = profiling.then(Instant::now);
            match actions[choice] {
                Action::Step(t) => self.step_thread(t, monitor),
                Action::Drain(t, addr) => self.drain(t, addr, monitor),
            }
            if let Some(t0) = t0 {
                let p = self.step_profile.as_mut().expect("profiling is on");
                p.exec += t0.elapsed();
            }
        };
        self.enabled = actions;
        self.forced_cycle = forced;
        outcome
    }

    /// Turns on per-step wall-time attribution for subsequent [`Vm::run`]
    /// calls; see [`StepProfile`] for what is measured. Idempotent: the
    /// accumulated profile is kept when already on.
    pub fn enable_step_profile(&mut self) {
        if self.step_profile.is_none() {
            self.step_profile = Some(StepProfile::default());
        }
    }

    /// Takes the accumulated profile and turns profiling off. `None` when
    /// profiling was never enabled.
    pub fn take_step_profile(&mut self) -> Option<StepProfile> {
        self.step_profile.take()
    }

    /// Captures the complete mutable execution state — the checkpointing
    /// primitive of the paper's §6.4 ("we need to break up the execution
    /// so that each execution segment has a tractable size of
    /// constraints. Checkpointing is a common technique used in such
    /// contexts"). Restore with [`Vm::restore`] to re-run (or record)
    /// from the captured point. Loops that snapshot repeatedly should
    /// reuse one buffer via [`Vm::snapshot_into`].
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Captures the execution state into an existing [`Snapshot`],
    /// reusing its allocations. Equivalent to `*snap = self.snapshot()`
    /// without the per-capture heap traffic.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        snap.memory.clear();
        snap.memory.extend_from_slice(self.memory.cells());
        snap.threads.clear();
        snap.frames.clear();
        snap.locals.clear();
        snap.lineages.clear();
        snap.stores.clear();
        for (i, th) in self.threads.iter().enumerate() {
            let lineage_start = snap.lineages.len() as u32;
            snap.lineages.extend_from_slice(th.lineage.components());
            let frame_start = snap.frames.len() as u32;
            for fr in &th.frames {
                let locals_start = snap.locals.len() as u32;
                snap.locals.extend_from_slice(&fr.locals);
                snap.frames.push(FrameImage {
                    func: fr.func,
                    pc: fr.pc,
                    ret_dst: fr.ret_dst,
                    locals_start,
                    locals_len: fr.locals.len() as u32,
                });
            }
            let store_start = snap.stores.len() as u32;
            snap.stores.extend(self.buffers[i].iter().copied());
            snap.threads.push(ThreadImage {
                id: th.id,
                status: th.status,
                forks: th.forks,
                next_sap_index: th.next_sap_index,
                waiting_reacquire: th.waiting_reacquire,
                lineage_start,
                lineage_len: th.lineage.components().len() as u32,
                frame_start,
                frame_len: th.frames.len() as u32,
                store_start,
                store_len: self.buffers[i].len() as u32,
            });
        }
        snap.cond_waiters.clear();
        snap.cond_lens.clear();
        for q in &self.cond_queue {
            snap.cond_lens.push(q.len() as u32);
            snap.cond_waiters.extend(q.iter().copied());
        }
        snap.mutex_owner.clear();
        snap.mutex_owner.extend_from_slice(&self.mutex_owner);
        snap.chan_items.clear();
        snap.chan_lens.clear();
        for q in &self.chan_queues {
            snap.chan_lens.push(q.len() as u32);
            snap.chan_items.extend(q.iter().copied());
        }
        snap.chan_closed.clear();
        snap.chan_closed.extend_from_slice(&self.chan_closed);
        snap.mailbox_items.clear();
        snap.mailbox_lens.clear();
        for mb in &self.mailboxes {
            snap.mailbox_lens.push(mb.len() as u32);
            snap.mailbox_items.extend(mb.iter().copied());
        }
        snap.stats = self.stats;
        snap.announced_main = self.announced_main;
    }

    /// `true` when the live state equals `snap` in everything that decides
    /// what the VM does next: memory, every thread's status, fork count,
    /// pending reacquisition, lineage, frames with their locals and store
    /// buffer, and mutex, condvar, channel and mailbox state. It skips
    /// the [`ExecStats`] counters and each thread's `next_sap_index`,
    /// which number what ran but never steer execution.
    fn same_state(&self, snap: &Snapshot) -> bool {
        let range = |start: u32, len: u32| start as usize..(start + len) as usize;
        self.threads.len() == snap.threads.len()
            && self
                .threads
                .iter()
                .zip(&self.buffers)
                .zip(&snap.threads)
                .all(|((th, buf), img)| {
                    let frames = &snap.frames[range(img.frame_start, img.frame_len)];
                    th.status == img.status
                        && th.forks == img.forks
                        && th.waiting_reacquire == img.waiting_reacquire
                        && th.frames.len() == frames.len()
                        && th.frames.iter().zip(frames).all(|(fr, fi)| {
                            fr.func == fi.func
                                && fr.pc == fi.pc
                                && fr.ret_dst == fi.ret_dst
                                && fr.locals == snap.locals[range(fi.locals_start, fi.locals_len)]
                        })
                        && buf
                            .iter()
                            .eq(&snap.stores[range(img.store_start, img.store_len)])
                        && th.lineage.components()
                            == &snap.lineages[range(img.lineage_start, img.lineage_len)]
                })
            && self.memory.cells() == snap.memory
            && self.mutex_owner == snap.mutex_owner
            && self.chan_closed == snap.chan_closed
            && queues_match(&self.cond_queue, &snap.cond_lens, &snap.cond_waiters)
            && queues_match(&self.chan_queues, &snap.chan_lens, &snap.chan_items)
            && queues_match(&self.mailboxes, &snap.mailbox_lens, &snap.mailbox_items)
    }

    /// Restores a [`Vm::snapshot`] taken from a VM over the same program,
    /// rewriting state in place (no allocation once thread/frame/buffer
    /// capacities have warmed up). The outcome is reset so the restored
    /// VM can run again.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's shapes do not match the program (a
    /// snapshot from a different program).
    pub fn restore(&mut self, snapshot: &Snapshot) {
        assert_eq!(
            snapshot.mutex_owner.len(),
            self.program.mutexes.len(),
            "snapshot is from a different program"
        );
        self.memory.assign(&snapshot.memory);
        self.threads.truncate(snapshot.threads.len());
        self.buffers.truncate(snapshot.threads.len());
        for (i, img) in snapshot.threads.iter().enumerate() {
            let lineage = &snapshot.lineages
                [img.lineage_start as usize..(img.lineage_start + img.lineage_len) as usize];
            let frames = &snapshot.frames
                [img.frame_start as usize..(img.frame_start + img.frame_len) as usize];
            let stores = &snapshot.stores
                [img.store_start as usize..(img.store_start + img.store_len) as usize];
            let restore_frame = |fr: &mut Frame, fi: &FrameImage| {
                fr.func = fi.func;
                fr.pc = fi.pc;
                fr.ret_dst = fi.ret_dst;
                fr.locals.clear();
                fr.locals.extend_from_slice(
                    &snapshot.locals
                        [fi.locals_start as usize..(fi.locals_start + fi.locals_len) as usize],
                );
            };
            if i < self.threads.len() {
                let th = &mut self.threads[i];
                th.id = img.id;
                th.status = img.status;
                th.forks = img.forks;
                th.next_sap_index = img.next_sap_index;
                th.waiting_reacquire = img.waiting_reacquire;
                th.lineage.assign(lineage);
                th.frames.truncate(frames.len());
                for (j, fi) in frames.iter().enumerate() {
                    if j < th.frames.len() {
                        restore_frame(&mut th.frames[j], fi);
                    } else {
                        let mut fr = Frame::new(fi.func, 0, &[]);
                        restore_frame(&mut fr, fi);
                        th.frames.push(fr);
                    }
                }
                self.buffers[i].assign(stores);
            } else {
                let mut new_frames = Vec::with_capacity(frames.len());
                for fi in frames {
                    let mut fr = Frame::new(fi.func, 0, &[]);
                    restore_frame(&mut fr, fi);
                    new_frames.push(fr);
                }
                let mut th = Thread::new(
                    img.id,
                    Lineage::from_components(lineage),
                    Frame::new(FuncId(0), 0, &[]),
                );
                th.frames = new_frames;
                th.status = img.status;
                th.forks = img.forks;
                th.next_sap_index = img.next_sap_index;
                th.waiting_reacquire = img.waiting_reacquire;
                self.threads.push(th);
                let mut buf = StoreBuffer::default();
                buf.assign(stores);
                self.buffers.push(buf);
            }
        }
        self.mutex_owner.copy_from_slice(&snapshot.mutex_owner);
        let mut start = 0usize;
        for (q, &len) in self.cond_queue.iter_mut().zip(&snapshot.cond_lens) {
            q.clear();
            q.extend(
                snapshot.cond_waiters[start..start + len as usize]
                    .iter()
                    .copied(),
            );
            start += len as usize;
        }
        let mut start = 0usize;
        for (q, &len) in self.chan_queues.iter_mut().zip(&snapshot.chan_lens) {
            q.clear();
            q.extend(
                snapshot.chan_items[start..start + len as usize]
                    .iter()
                    .copied(),
            );
            start += len as usize;
        }
        self.chan_closed.copy_from_slice(&snapshot.chan_closed);
        self.mailboxes.truncate(snapshot.mailbox_lens.len());
        self.mailboxes
            .resize_with(snapshot.mailbox_lens.len(), VecDeque::new);
        let mut start = 0usize;
        for (mb, &len) in self.mailboxes.iter_mut().zip(&snapshot.mailbox_lens) {
            mb.clear();
            mb.extend(
                snapshot.mailbox_items[start..start + len as usize]
                    .iter()
                    .copied(),
            );
            start += len as usize;
        }
        self.stats = snapshot.stats;
        self.announced_main = snapshot.announced_main;
        self.outcome = None;
        self.enabled_dirty = true;
    }

    /// Like [`Vm::restore`], but consumes the snapshot (a one-shot
    /// hand-off such as `vm.restore_from(other.snapshot())`).
    ///
    /// # Panics
    ///
    /// Panics when the snapshot's shapes do not match the program (a
    /// snapshot from a different program).
    pub fn restore_from(&mut self, snapshot: Snapshot) {
        self.restore(&snapshot);
    }

    /// Rewinds the VM to the pristine just-constructed state in place —
    /// the per-seed reset of an exploration sweep, without the cost of
    /// restoring (or even keeping) a base snapshot.
    pub fn reset(&mut self) {
        self.memory.reinit(self.program, &self.layout);
        let main_fn = self.program.function(self.program.main);
        let entry_pc = self.compiled.func(self.program.main).entry;
        self.threads.truncate(1);
        self.buffers.truncate(1);
        let th = &mut self.threads[0];
        th.id = ThreadId::MAIN;
        th.status = Status::Runnable;
        th.forks = 0;
        th.next_sap_index = 0;
        th.waiting_reacquire = None;
        th.lineage.assign(&[0]); // Lineage::main()
        th.frames.truncate(1);
        if th.frames.is_empty() {
            th.frames
                .push(Frame::new(self.program.main, main_fn.locals.len(), &[]));
        } else {
            let fr = &mut th.frames[0];
            fr.func = self.program.main;
            fr.ret_dst = None;
            fr.locals.clear();
            fr.locals.resize(main_fn.locals.len(), 0);
        }
        th.frames[0].pc = entry_pc;
        self.buffers[0].clear();
        for owner in &mut self.mutex_owner {
            *owner = None;
        }
        for q in &mut self.cond_queue {
            q.clear();
        }
        for q in &mut self.chan_queues {
            q.clear();
        }
        for closed in &mut self.chan_closed {
            *closed = false;
        }
        self.mailboxes.truncate(1);
        self.mailboxes[0].clear();
        self.stats = ExecStats {
            threads: 1,
            ..ExecStats::default()
        };
        self.outcome = None;
        self.announced_main = false;
        self.enabled_dirty = true;
    }

    /// Performs one action directly — caller-driven execution for tools
    /// that need to interleave their own logic between steps (tracers,
    /// debuggers). [`Vm::run`] is the everyday loop.
    pub fn step(&mut self, action: Action, monitor: &mut dyn Monitor) {
        match action {
            Action::Step(t) => self.step_thread(t, monitor),
            Action::Drain(t, addr) => self.drain(t, addr, monitor),
        }
    }

    fn drain(&mut self, t: ThreadId, addr: Addr, monitor: &mut dyn Monitor) {
        self.stats.steps += 1;
        debug_assert!(self.buffers[t.index()]
            .drainable(self.model)
            .contains(&addr));
        if let Some(store) = self.buffers[t.index()].drain_addr(addr) {
            self.enabled_dirty = true;
            self.memory.write(store.addr, store.value);
            self.stats.drains += 1;
            monitor.on_commit(t, store.addr, store.value);
        }
    }

    fn flush_buffer(&mut self, t: ThreadId, monitor: &mut dyn Monitor) {
        if self.buffers[t.index()].is_empty() {
            return;
        }
        self.enabled_dirty = true;
        for store in self.buffers[t.index()].flush() {
            self.memory.write(store.addr, store.value);
            self.stats.drains += 1;
            monitor.on_commit(t, store.addr, store.value);
        }
    }

    /// Commits thread `t`'s buffered stores in FIFO order up to and
    /// including the *last* pending store to `addr`, leaving younger
    /// entries to other locations buffered. The coherence fence of a
    /// relaxed/acquire RMW under C11: the RMW's own immediate write must
    /// not overtake the thread's pending stores to the same location (or
    /// any release store ordered before them).
    fn flush_buffer_through_addr(&mut self, t: ThreadId, addr: Addr, monitor: &mut dyn Monitor) {
        let ti = t.index();
        while self.buffers[ti].iter().any(|s| s.addr == addr) {
            let front = self.buffers[ti]
                .iter()
                .next()
                .map(|s| s.addr)
                .expect("buffer non-empty");
            let store = self.buffers[ti].drain_addr(front).expect("front drains");
            self.enabled_dirty = true;
            self.memory.write(store.addr, store.value);
            self.stats.drains += 1;
            monitor.on_commit(t, store.addr, store.value);
        }
    }

    /// Executes the flush an atomic read-modify-write implies before it
    /// reads: relaxed/acquire RMWs under C11 fence only their own
    /// location's pending stores; release/`seq_cst` RMWs — and every
    /// atomic op under SC/TSO/PSO — are full fences. This is what makes
    /// orderings observable: a relaxed CAS publishes its own write but
    /// leaves the thread's other pending stores invisible.
    fn rmw_fence(&mut self, t: ThreadId, addr: Addr, ord: AtomicOrd, monitor: &mut dyn Monitor) {
        match ord {
            AtomicOrd::Relaxed | AtomicOrd::Acquire if self.model == MemModel::C11 => {
                self.flush_buffer_through_addr(t, addr, monitor);
            }
            _ => self.flush_buffer(t, monitor),
        }
    }

    /// Executes an atomic load: `seq_cst` (and any ordering under
    /// SC/TSO/PSO) drains the thread's own buffer first, then the value is
    /// the thread's newest pending store to the location, falling back to
    /// globally-visible memory. Returns the loaded value; the caller
    /// advances the frame.
    fn exec_atomic_load(
        &mut self,
        t: ThreadId,
        global: GlobalId,
        ord: AtomicOrd,
        monitor: &mut dyn Monitor,
    ) -> i64 {
        let addr = self.atomic_addr(global);
        if self.model != MemModel::C11 || ord == AtomicOrd::SeqCst {
            self.flush_buffer(t, monitor);
        }
        let value = self.buffers[t.index()]
            .forward(addr)
            .unwrap_or_else(|| self.memory.read(addr));
        self.take_sap(t);
        monitor.on_access(
            t,
            &AccessEvent {
                global,
                offset: 0,
                addr,
                is_write: false,
                value,
            },
        );
        value
    }

    /// Executes an atomic store: relaxed/acquire/release under C11 enter
    /// the store buffer (visible at a scheduled drain; release entries are
    /// gated behind the thread's earlier stores); `seq_cst` — and every
    /// ordering under SC/TSO/PSO — flushes and writes immediately.
    fn exec_atomic_store(
        &mut self,
        t: ThreadId,
        global: GlobalId,
        value: i64,
        ord: AtomicOrd,
        monitor: &mut dyn Monitor,
    ) {
        let addr = self.atomic_addr(global);
        let po_index = self.take_sap(t);
        if self.atomic_store_buffered(ord) {
            self.buffers[t.index()].push(BufferedStore {
                addr,
                value,
                po_index,
                release: ord == AtomicOrd::Release,
            });
            self.enabled_dirty = true;
        } else {
            self.flush_buffer(t, monitor);
            self.memory.write(addr, value);
            monitor.on_commit(t, addr, value);
        }
        monitor.on_access(
            t,
            &AccessEvent {
                global,
                offset: 0,
                addr,
                is_write: true,
                value,
            },
        );
    }

    /// Executes `fetch_add`: fence per `ord`, read the visible value, write
    /// the sum immediately (RMWs are never buffered — atomicity), return
    /// the old value.
    fn exec_atomic_rmw(
        &mut self,
        t: ThreadId,
        global: GlobalId,
        delta: i64,
        ord: AtomicOrd,
        monitor: &mut dyn Monitor,
    ) -> i64 {
        let addr = self.atomic_addr(global);
        self.rmw_fence(t, addr, ord, monitor);
        let old = self.memory.read(addr);
        let new = old.wrapping_add(delta);
        self.memory.write(addr, new);
        self.take_sap(t);
        monitor.on_commit(t, addr, new);
        monitor.on_access(
            t,
            &AccessEvent {
                global,
                offset: 0,
                addr,
                is_write: true,
                value: new,
            },
        );
        old
    }

    /// Executes `cas`: fence per `ord`, read the visible value, write
    /// `desired` iff it equals `expected`, return the old value. Both CAS
    /// outcomes are reachable — which one occurs is decided by how the
    /// scheduler ordered other threads' drains before this step.
    fn exec_atomic_cas(
        &mut self,
        t: ThreadId,
        global: GlobalId,
        expected: i64,
        desired: i64,
        ord: AtomicOrd,
        monitor: &mut dyn Monitor,
    ) -> i64 {
        let addr = self.atomic_addr(global);
        self.rmw_fence(t, addr, ord, monitor);
        let old = self.memory.read(addr);
        self.take_sap(t);
        if old == expected {
            self.memory.write(addr, desired);
            monitor.on_commit(t, addr, desired);
            monitor.on_access(
                t,
                &AccessEvent {
                    global,
                    offset: 0,
                    addr,
                    is_write: true,
                    value: desired,
                },
            );
        } else {
            monitor.on_access(
                t,
                &AccessEvent {
                    global,
                    offset: 0,
                    addr,
                    is_write: false,
                    value: old,
                },
            );
        }
        old
    }

    fn fault(&mut self, t: ThreadId, message: impl Into<String>) {
        self.outcome = Some(Outcome::Fault {
            thread: t,
            message: message.into(),
        });
    }

    fn take_sap(&mut self, t: ThreadId) -> u64 {
        let thread = &mut self.threads[t.index()];
        let i = thread.next_sap_index;
        thread.next_sap_index += 1;
        self.stats.saps += 1;
        i
    }

    fn wake_lock_waiters(&mut self, mutex: MutexId) {
        for th in &mut self.threads {
            if th.status == Status::BlockedLock(mutex) {
                th.status = Status::Runnable;
                self.enabled_dirty = true;
            }
        }
    }

    /// Wakes every thread parked on a `send` to `chan` — called whenever a
    /// slot may have freed (a receive, a close) or, for capacity-0
    /// channels, when a receiver parks at the rendezvous point. Woken
    /// senders recontend: a thread that still cannot send re-parks on its
    /// next step.
    fn wake_chan_senders(&mut self, chan: ChanId) {
        for th in &mut self.threads {
            if th.status == Status::BlockedSend(chan) {
                th.status = Status::Runnable;
                self.enabled_dirty = true;
            }
        }
    }

    /// Wakes every thread parked on a `recv` from `chan` — called when a
    /// value arrives or the channel closes.
    fn wake_chan_receivers(&mut self, chan: ChanId) {
        for th in &mut self.threads {
            if th.status == Status::BlockedRecv(chan) {
                th.status = Status::Runnable;
                self.enabled_dirty = true;
            }
        }
    }

    /// Executes thread `t`'s next op: one `Copy` op fetched by absolute
    /// address. A blocked op parks the thread instead and leaves its
    /// position where it is, so the op runs again once the thread wakes.
    fn step_thread(&mut self, t: ThreadId, monitor: &mut dyn Monitor) {
        self.stats.steps += 1;
        let ti = t.index();
        let pc = self.threads[ti].frame().pc;
        match self.compiled.code[pc as usize] {
            Op::Assign { dst, rv } => {
                let frame = self.threads[ti].frame_mut();
                let value = match rv {
                    Rv::Use(op) => operand(frame, op),
                    Rv::Unary(op, a) => eval_unop(op, operand(frame, a)),
                    Rv::Binary(op, a, b) => eval_binop(op, operand(frame, a), operand(frame, b)),
                };
                frame.locals[dst.index()] = value;
                frame.pc += 1;
                self.stats.instructions += 1;
            }
            Op::Load { dst, global, index } => {
                let frame = self.threads[ti].frame();
                let offset = index.map(|op| operand(frame, op)).unwrap_or(0);
                let Some(addr) = self.layout.addr(global, offset) else {
                    let name = &self.program.globals[global.index()].name;
                    self.fault(t, format!("load out of bounds: {name}[{offset}]"));
                    return;
                };
                let shared = self.is_shared(global);
                let value = if shared && self.model.buffered() {
                    self.buffers[ti]
                        .forward(addr)
                        .unwrap_or_else(|| self.memory.read(addr))
                } else {
                    self.memory.read(addr)
                };
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = value;
                frame.pc += 1;
                self.stats.instructions += 1;
                if shared {
                    self.take_sap(t);
                    monitor.on_access(
                        t,
                        &AccessEvent {
                            global,
                            offset: offset as usize,
                            addr,
                            is_write: false,
                            value,
                        },
                    );
                }
            }
            Op::Store { global, index, src } => {
                let frame = self.threads[ti].frame();
                let offset = index.map(|op| operand(frame, op)).unwrap_or(0);
                let value = operand(frame, src);
                let Some(addr) = self.layout.addr(global, offset) else {
                    let name = &self.program.globals[global.index()].name;
                    self.fault(t, format!("store out of bounds: {name}[{offset}]"));
                    return;
                };
                let shared = self.is_shared(global);
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                if shared {
                    let po_index = self.take_sap(t);
                    if self.model.buffered() {
                        self.buffers[ti].push(BufferedStore {
                            addr,
                            value,
                            po_index,
                            release: false,
                        });
                        self.enabled_dirty = true;
                    } else {
                        self.memory.write(addr, value);
                        monitor.on_commit(t, addr, value);
                    }
                    monitor.on_access(
                        t,
                        &AccessEvent {
                            global,
                            offset: offset as usize,
                            addr,
                            is_write: true,
                            value,
                        },
                    );
                } else {
                    self.memory.write(addr, value);
                }
            }
            Op::Lock(m) => {
                if self.mutex_owner[m.index()].is_none() {
                    self.flush_buffer(t, monitor);
                    self.mutex_owner[m.index()] = Some(t);
                    let frame = self.threads[ti].frame_mut();
                    frame.pc += 1;
                    self.stats.instructions += 1;
                    self.take_sap(t);
                    monitor.on_sync(t, &SyncEvent::Lock(m));
                } else {
                    self.threads[ti].status = Status::BlockedLock(m);
                    self.enabled_dirty = true;
                }
            }
            Op::Unlock(m) => {
                if self.mutex_owner[m.index()] != Some(t) {
                    let name = &self.program.mutexes[m.index()];
                    self.fault(t, format!("unlock of mutex `{name}` not held by {t}"));
                    return;
                }
                self.flush_buffer(t, monitor);
                self.mutex_owner[m.index()] = None;
                self.wake_lock_waiters(m);
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::Unlock(m));
            }
            Op::Fork {
                dst,
                func: callee,
                args,
            } => {
                let argv: Vec<i64> = {
                    let frame = self.threads[ti].frame();
                    self.compiled
                        .args(args)
                        .iter()
                        .map(|a| operand(frame, *a))
                        .collect()
                };
                self.flush_buffer(t, monitor);
                let parent = &mut self.threads[ti];
                parent.forks += 1;
                let lineage = parent.lineage.child(parent.forks);
                let child = ThreadId::from(self.threads.len());
                let meta = self.compiled.func(callee);
                let mut child_frame = Frame::new(callee, meta.locals as usize, &argv);
                child_frame.pc = meta.entry;
                self.threads
                    .push(Thread::new(child, lineage.clone(), child_frame));
                self.buffers.push(StoreBuffer::default());
                self.mailboxes.push(VecDeque::new());
                self.enabled_dirty = true;
                self.stats.threads += 1;
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = child.0 as i64;
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::Fork(child));
                monitor.on_thread_start(child, &lineage, callee);
                monitor.on_func_enter(child, callee);
            }
            Op::Join { handle } => {
                let target = operand(self.threads[ti].frame(), handle);
                if target < 0 || target as usize >= self.threads.len() {
                    self.fault(t, format!("join of invalid thread handle {target}"));
                    return;
                }
                let target = ThreadId::from(target as usize);
                if self.threads[target.index()].status == Status::Exited {
                    self.flush_buffer(t, monitor);
                    let frame = self.threads[ti].frame_mut();
                    frame.pc += 1;
                    self.stats.instructions += 1;
                    self.take_sap(t);
                    monitor.on_sync(t, &SyncEvent::Join(target));
                } else {
                    self.threads[ti].status = Status::BlockedJoin(target);
                    self.enabled_dirty = true;
                }
            }
            Op::Wait { cond, mutex } => {
                if let Some(m) = self.threads[ti].waiting_reacquire {
                    // Phase 2: reacquire the mutex, complete the wait.
                    if self.mutex_owner[m.index()].is_none() {
                        self.mutex_owner[m.index()] = Some(t);
                        let thread = &mut self.threads[ti];
                        thread.waiting_reacquire = None;
                        let frame = thread.frame_mut();
                        frame.pc += 1;
                        self.stats.instructions += 1;
                        self.take_sap(t);
                        monitor.on_sync(t, &SyncEvent::Wait(cond, m));
                    } else {
                        self.threads[ti].status = Status::BlockedLock(m);
                        self.enabled_dirty = true;
                    }
                } else {
                    // Phase 1: release the mutex and park.
                    if self.mutex_owner[mutex.index()] != Some(t) {
                        let name = &self.program.mutexes[mutex.index()];
                        self.fault(t, format!("wait without holding mutex `{name}`"));
                        return;
                    }
                    self.flush_buffer(t, monitor);
                    self.mutex_owner[mutex.index()] = None;
                    self.wake_lock_waiters(mutex);
                    let thread = &mut self.threads[ti];
                    thread.status = Status::BlockedWait(cond);
                    thread.waiting_reacquire = Some(mutex);
                    self.enabled_dirty = true;
                    self.cond_queue[cond.index()].push_back(t);
                    self.stats.instructions += 1;
                    self.take_sap(t);
                    monitor.on_sync(t, &SyncEvent::Unlock(mutex));
                }
            }
            Op::Signal(c) => {
                if let Some(waiter) = self.cond_queue[c.index()].pop_front() {
                    self.threads[waiter.index()].status = Status::Runnable;
                    self.enabled_dirty = true;
                }
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::Signal(c));
            }
            Op::Broadcast(c) => {
                while let Some(waiter) = self.cond_queue[c.index()].pop_front() {
                    self.threads[waiter.index()].status = Status::Runnable;
                    self.enabled_dirty = true;
                }
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::Broadcast(c));
            }
            Op::Send { chan, src } => {
                if !self.chan_send_ready(t, chan) {
                    self.threads[ti].status = Status::BlockedSend(chan);
                    self.enabled_dirty = true;
                    return;
                }
                let value = operand(self.threads[ti].frame(), src);
                self.flush_buffer(t, monitor);
                if !self.chan_closed[chan.index()] {
                    self.chan_queues[chan.index()].push_back(value);
                    self.wake_chan_receivers(chan);
                }
                // Closed channel: the value is silently dropped — the
                // "lost close" failure mode the asserts observe.
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::ChanSend(chan));
            }
            Op::Recv { dst, chan } => {
                if !self.chan_recv_ready(chan) {
                    self.threads[ti].status = Status::BlockedRecv(chan);
                    self.enabled_dirty = true;
                    // A parked receiver is a rendezvous partner: let
                    // capacity-0 senders recontend.
                    self.wake_chan_senders(chan);
                    return;
                }
                self.flush_buffer(t, monitor);
                let value = match self.chan_queues[chan.index()].pop_front() {
                    Some(v) => {
                        self.wake_chan_senders(chan);
                        v
                    }
                    None => -1, // closed and drained
                };
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = value;
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::ChanRecv(chan));
            }
            Op::TrySend { dst, chan, src } => {
                let value = operand(self.threads[ti].frame(), src);
                self.flush_buffer(t, monitor);
                let ok = if self.chan_closed[chan.index()] {
                    false
                } else {
                    let cap = self.program.chans[chan.index()].cap;
                    let ready = if cap == 0 {
                        self.chan_queues[chan.index()].is_empty() && self.recv_positioned(t, chan)
                    } else {
                        self.chan_queues[chan.index()].len() < cap
                    };
                    if ready {
                        self.chan_queues[chan.index()].push_back(value);
                        self.wake_chan_receivers(chan);
                    }
                    ready
                };
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = ok as i64;
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::ChanTrySend(chan, ok));
            }
            Op::TryRecv { dst, chan } => {
                self.flush_buffer(t, monitor);
                let (value, ok) = match self.chan_queues[chan.index()].pop_front() {
                    Some(v) => {
                        self.wake_chan_senders(chan);
                        (v, true)
                    }
                    None => (-1, false),
                };
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = value;
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::ChanTryRecv(chan, ok));
            }
            Op::ChanClose(c) => {
                self.flush_buffer(t, monitor);
                self.chan_closed[c.index()] = true; // double-close is a no-op
                self.wake_chan_senders(c);
                self.wake_chan_receivers(c);
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::ChanClose(c));
            }
            Op::SpawnActor {
                dst,
                func: callee,
                args,
            } => {
                let argv: Vec<i64> = {
                    let frame = self.threads[ti].frame();
                    self.compiled
                        .args(args)
                        .iter()
                        .map(|a| operand(frame, *a))
                        .collect()
                };
                self.flush_buffer(t, monitor);
                let parent = &mut self.threads[ti];
                parent.forks += 1;
                let lineage = parent.lineage.child(parent.forks);
                let child = ThreadId::from(self.threads.len());
                let meta = self.compiled.func(callee);
                let mut child_frame = Frame::new(callee, meta.locals as usize, &argv);
                child_frame.pc = meta.entry;
                self.threads
                    .push(Thread::new(child, lineage.clone(), child_frame));
                self.buffers.push(StoreBuffer::default());
                self.mailboxes.push(VecDeque::new());
                self.enabled_dirty = true;
                self.stats.threads += 1;
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = child.0 as i64;
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::SpawnActor(child));
                monitor.on_thread_start(child, &lineage, callee);
                monitor.on_func_enter(child, callee);
            }
            Op::MailboxSend { target, src } => {
                let frame = self.threads[ti].frame();
                let handle = operand(frame, target);
                let value = operand(frame, src);
                if handle < 0 || handle as usize >= self.threads.len() {
                    self.fault(t, format!("mailbox_send to invalid thread handle {handle}"));
                    return;
                }
                let target = ThreadId::from(handle as usize);
                self.flush_buffer(t, monitor);
                if self.threads[target.index()].status != Status::Exited {
                    self.mailboxes[target.index()].push_back(value);
                    if self.threads[target.index()].status == Status::BlockedMailbox {
                        self.threads[target.index()].status = Status::Runnable;
                        self.enabled_dirty = true;
                    }
                }
                // Dead letter: a message to an exited thread is dropped.
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::MailboxSend(target));
            }
            Op::MailboxRecv { dst } => {
                if self.mailboxes[ti].is_empty() {
                    self.threads[ti].status = Status::BlockedMailbox;
                    self.enabled_dirty = true;
                    return;
                }
                self.flush_buffer(t, monitor);
                let value = self.mailboxes[ti].pop_front().expect("mailbox non-empty");
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = value;
                frame.pc += 1;
                self.stats.instructions += 1;
                self.take_sap(t);
                monitor.on_sync(t, &SyncEvent::MailboxRecv);
            }
            Op::AtomicLoad { dst, global, ord } => {
                let value = self.exec_atomic_load(t, global, ord, monitor);
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = value;
                frame.pc += 1;
                self.stats.instructions += 1;
            }
            Op::AtomicStore { global, src, ord } => {
                let value = operand(self.threads[ti].frame(), src);
                self.exec_atomic_store(t, global, value, ord, monitor);
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
            }
            Op::AtomicRmw {
                dst,
                global,
                src,
                ord,
            } => {
                let delta = operand(self.threads[ti].frame(), src);
                let old = self.exec_atomic_rmw(t, global, delta, ord, monitor);
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = old;
                frame.pc += 1;
                self.stats.instructions += 1;
            }
            Op::AtomicCas {
                dst,
                global,
                expected,
                desired,
                ord,
            } => {
                let (expected, desired) = {
                    let frame = self.threads[ti].frame();
                    (operand(frame, expected), operand(frame, desired))
                };
                let old = self.exec_atomic_cas(t, global, expected, desired, ord, monitor);
                let frame = self.threads[ti].frame_mut();
                frame.locals[dst.index()] = old;
                frame.pc += 1;
                self.stats.instructions += 1;
            }
            Op::Yield => {
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
            }
            Op::Assert { cond, id } => {
                let passed = operand(self.threads[ti].frame(), cond) != 0;
                monitor.on_assert(t, id, passed);
                self.stats.instructions += 1;
                if passed {
                    let frame = self.threads[ti].frame_mut();
                    frame.pc += 1;
                } else {
                    self.outcome = Some(Outcome::AssertFailed {
                        assert: id,
                        thread: t,
                    });
                }
            }
            Op::Call {
                dst,
                func: callee,
                args,
            } => {
                let argv: Vec<i64> = {
                    let frame = self.threads[ti].frame();
                    self.compiled
                        .args(args)
                        .iter()
                        .map(|a| operand(frame, *a))
                        .collect()
                };
                let frame = self.threads[ti].frame_mut();
                frame.pc += 1;
                self.stats.instructions += 1;
                let meta = self.compiled.func(callee);
                let mut new_frame = Frame::new(callee, meta.locals as usize, &argv);
                new_frame.pc = meta.entry;
                new_frame.ret_dst = dst;
                self.threads[ti].frames.push(new_frame);
                monitor.on_func_enter(t, callee);
            }
            Op::Jump { target } => {
                let from = self.compiled.info(pc).block;
                let to = self.compiled.info(target).block;
                let frame = self.threads[ti].frame_mut();
                let func = frame.func;
                frame.pc = target;
                monitor.on_edge(t, func, from, to);
            }
            Op::Branch {
                cond,
                then_pc,
                else_pc,
            } => {
                let target = if operand(self.threads[ti].frame(), cond) != 0 {
                    then_pc
                } else {
                    else_pc
                };
                let from = self.compiled.info(pc).block;
                let to = self.compiled.info(target).block;
                let frame = self.threads[ti].frame_mut();
                let func = frame.func;
                frame.pc = target;
                self.stats.branches += 1;
                monitor.on_edge(t, func, from, to);
            }
            Op::Return { value } => {
                let ret = value.map(|op| operand(self.threads[ti].frame(), op));
                let popped = self.threads[ti].frames.pop().expect("frame exists");
                monitor.on_func_exit(t, popped.func);
                if self.threads[ti].frames.is_empty() {
                    // Thread exit: flush buffered stores, wake joiners.
                    self.flush_buffer(t, monitor);
                    self.threads[ti].status = Status::Exited;
                    self.enabled_dirty = true;
                    for th in &mut self.threads {
                        if th.status == Status::BlockedJoin(t) {
                            th.status = Status::Runnable;
                        }
                    }
                    monitor.on_thread_exit(t);
                } else if let (Some(dst), Some(v)) = (popped.ret_dst, ret) {
                    self.threads[ti].frame_mut().locals[dst.index()] = v;
                }
            }
        }
    }
}

/// `true` when each queue holds exactly its run of `items`, the runs laid
/// back to back with lengths `lens` (a [`Snapshot`]'s pooled layout).
fn queues_match<T: PartialEq>(queues: &[VecDeque<T>], lens: &[u32], items: &[T]) -> bool {
    let mut start = 0;
    queues.len() == lens.len()
        && queues.iter().zip(lens).all(|(q, &len)| {
            let run = &items[start..start + len as usize];
            start += run.len();
            q.iter().eq(run)
        })
}

fn operand(frame: &Frame, op: Operand) -> i64 {
    match op {
        Operand::Local(l) => frame.locals[l.index()],
        Operand::Const(c) => c,
    }
}

/// Runs `program` once with a seeded [`crate::sched::RandomScheduler`] —
/// the everyday entry point for exploration.
pub fn run_with_seed(
    program: &Program,
    model: MemModel,
    seed: u64,
    monitor: &mut dyn Monitor,
) -> (Outcome, ExecStats) {
    let mut vm = Vm::new(program, model);
    let mut sched = crate::sched::RandomScheduler::new(seed);
    let outcome = vm.run(&mut sched, monitor);
    (outcome, *vm.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{CountingMonitor, NullMonitor};
    use crate::sched::{FifoScheduler, RandomScheduler};
    use clap_ir::parse;

    fn run(src: &str, model: MemModel, seed: u64) -> (Outcome, Vec<i64>) {
        let p = parse(src).unwrap();
        let mut vm = Vm::new(&p, model);
        let mut sched = RandomScheduler::new(seed);
        let outcome = vm.run(&mut sched, &mut NullMonitor);
        let finals = (0..p.globals.len())
            .map(|g| vm.read_global(clap_ir::GlobalId::from(g), 0))
            .collect();
        (outcome, finals)
    }

    #[test]
    fn sequential_arithmetic() {
        let (o, g) = run(
            "global int x = 0; fn main() { x = 2 + 3 * 4; }",
            MemModel::Sc,
            0,
        );
        assert_eq!(o, Outcome::Completed);
        assert_eq!(g[0], 14);
    }

    #[test]
    fn loops_and_branches() {
        let (o, g) = run(
            "global int s = 0;
             fn main() { let i: int = 0; while (i < 10) { if (i % 2 == 0) { s = s + i; } i = i + 1; } }",
            MemModel::Sc,
            1,
        );
        assert_eq!(o, Outcome::Completed);
        assert_eq!(g[0], 2 + 4 + 6 + 8);
    }

    #[test]
    fn calls_return_values() {
        let (o, g) = run(
            "global int r = 0;
             fn sq(v: int) { return v * v; }
             fn main() { r = sq(7); }",
            MemModel::Sc,
            0,
        );
        assert_eq!(o, Outcome::Completed);
        assert_eq!(g[0], 49);
    }

    #[test]
    fn recursion_works() {
        let (o, g) = run(
            "global int r = 0;
             fn fact(n: int) { if (n <= 1) { return 1; } let rec: int = fact(n - 1); return n * rec; }
             fn main() { r = fact(6); }",
            MemModel::Sc,
            0,
        );
        assert_eq!(o, Outcome::Completed);
        assert_eq!(g[0], 720);
    }

    #[test]
    fn fork_join_with_locks_is_race_free() {
        for seed in 0..20 {
            let (o, g) = run(
                "global int x = 0; mutex m;
                 fn w() { lock(m); let v: int = x; x = v + 1; unlock(m); }
                 fn main() { let a: thread = fork w(); let b: thread = fork w(); join a; join b; }",
                MemModel::Sc,
                seed,
            );
            assert_eq!(o, Outcome::Completed, "seed {seed}");
            assert_eq!(g[0], 2, "locked increments never race (seed {seed})");
        }
    }

    #[test]
    fn unlocked_increments_race_under_some_seed() {
        let src = "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w(); join a; join b;
                         assert(x == 2, \"lost update\"); }";
        let mut lost = false;
        for seed in 0..200 {
            let (o, _) = run(src, MemModel::Sc, seed);
            if o.is_failure() {
                lost = true;
                break;
            }
        }
        assert!(lost, "some seed must expose the lost update");
    }

    #[test]
    fn assert_failure_reports_site() {
        let p = parse("fn main() { assert(1 == 2, \"always\"); }").unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        let o = vm.run(&mut FifoScheduler, &mut NullMonitor);
        assert_eq!(
            o,
            Outcome::AssertFailed {
                assert: AssertId(0),
                thread: ThreadId::MAIN
            }
        );
    }

    #[test]
    fn deadlock_detected() {
        let (o, _) = run("mutex m; fn main() { lock(m); lock(m); }", MemModel::Sc, 0);
        assert_eq!(o, Outcome::Deadlock);
    }

    #[test]
    fn unlock_not_owned_faults() {
        let (o, _) = run("mutex m; fn main() { unlock(m); }", MemModel::Sc, 0);
        assert!(matches!(o, Outcome::Fault { .. }));
    }

    #[test]
    fn array_out_of_bounds_faults() {
        let (o, _) = run("global int a[2]; fn main() { a[5] = 1; }", MemModel::Sc, 0);
        assert!(matches!(o, Outcome::Fault { .. }));
    }

    #[test]
    fn wait_signal_round_trip() {
        let src = "global int ready = 0; global int got = 0; mutex m; cond c;
             fn consumer() {
                 lock(m);
                 while (ready == 0) { wait(c, m); }
                 got = 1;
                 unlock(m);
             }
             fn main() {
                 let t: thread = fork consumer();
                 lock(m); ready = 1; signal(c); unlock(m);
                 join t;
                 assert(got == 1, \"consumer must run\");
             }";
        for seed in 0..30 {
            let (o, g) = run(src, MemModel::Sc, seed);
            assert_eq!(o, Outcome::Completed, "seed {seed}");
            assert_eq!(g[1], 1);
        }
    }

    #[test]
    fn broadcast_wakes_all() {
        let src = "global int ready = 0; global int done = 0; mutex m; cond c;
             fn waiter() {
                 lock(m);
                 while (ready == 0) { wait(c, m); }
                 done = done + 1;
                 unlock(m);
             }
             fn main() {
                 let a: thread = fork waiter();
                 let b: thread = fork waiter();
                 let d: thread = fork waiter();
                 lock(m); ready = 1; broadcast(c); unlock(m);
                 join a; join b; join d;
                 assert(done == 3);
             }";
        for seed in 0..30 {
            let (o, _) = run(src, MemModel::Sc, seed);
            assert_eq!(o, Outcome::Completed, "seed {seed}");
        }
    }

    #[test]
    fn store_buffering_visible_under_tso_not_sc() {
        // Classic SB litmus: r1 = r2 = 0 is possible only with store buffers.
        let src = "global int x = 0; global int y = 0;
             global int r1 = -1; global int r2 = -1;
             fn t1() { x = 1; r1 = y; }
             fn t2() { y = 1; r2 = x; }
             fn main() {
                 let a: thread = fork t1(); let b: thread = fork t2();
                 join a; join b;
                 assert(r1 + r2 > 0, \"SB relaxation\");
             }";
        let mut sc_failed = false;
        for seed in 0..300 {
            let (o, _) = run(src, MemModel::Sc, seed);
            assert_ne!(o, Outcome::Deadlock);
            if o.is_failure() {
                sc_failed = true;
            }
        }
        assert!(!sc_failed, "SC forbids r1 = r2 = 0");
        let mut tso_failed = false;
        for seed in 0..300 {
            let (o, _) = run(src, MemModel::Tso, seed);
            if o.is_failure() {
                tso_failed = true;
                break;
            }
        }
        assert!(tso_failed, "TSO store buffering must be observable");
    }

    #[test]
    fn pso_reorders_stores_tso_does_not() {
        // Message-passing litmus: under TSO the data=1 store drains before
        // flag=1 (FIFO); under PSO flag can drain first, so the reader can
        // see flag=1, data=0.
        let src = "global int data = 0; global int flag = 0; global int seen = -1;
             fn writer() { data = 1; flag = 1; }
             fn reader() { let f: int = flag; if (f == 1) { seen = data; } }
             fn main() {
                 let w: thread = fork writer(); let r: thread = fork reader();
                 join w; join r;
                 assert(seen != 0, \"MP relaxation\");
             }";
        let mut tso_failed = false;
        for seed in 0..400 {
            let (o, _) = run(src, MemModel::Tso, seed);
            if o.is_failure() {
                tso_failed = true;
            }
        }
        assert!(!tso_failed, "TSO preserves store order");
        // The writer exits (and thus fences) right after its two stores, so
        // the reordering window is a single scheduler step: sweep a larger
        // seed range at medium stickiness to hit it.
        let p = parse(src).unwrap();
        let mut pso_failed = false;
        for seed in 0..4000 {
            let mut vm = Vm::new(&p, MemModel::Pso);
            let mut sched = RandomScheduler::with_stickiness(seed, 0.5);
            if vm.run(&mut sched, &mut NullMonitor).is_failure() {
                pso_failed = true;
                break;
            }
        }
        assert!(pso_failed, "PSO must reorder the two stores");
    }

    #[test]
    fn store_forwarding_sees_own_buffer() {
        // A thread always reads its own latest store even while buffered.
        let src = "global int x = 0;
             fn main() { x = 41; let v: int = x; x = v + 1; assert(x == 42); }";
        for model in [MemModel::Tso, MemModel::Pso] {
            for seed in 0..50 {
                let p = parse(src).unwrap();
                let mut vm = Vm::new(&p, model);
                let mut sched = RandomScheduler::new(seed);
                let o = vm.run(&mut sched, &mut NullMonitor);
                assert_eq!(o, Outcome::Completed, "{model} seed {seed}");
            }
        }
    }

    #[test]
    fn locks_are_fences() {
        // With lock/unlock around accesses, even PSO behaves like SC.
        let src = "global int data = 0; global int flag = 0; global int seen = -1; mutex m;
             fn writer() { lock(m); data = 1; flag = 1; unlock(m); }
             fn reader() { lock(m); let f: int = flag; if (f == 1) { seen = data; } unlock(m); }
             fn main() {
                 let w: thread = fork writer(); let r: thread = fork reader();
                 join w; join r;
                 assert(seen != 0);
             }";
        for seed in 0..200 {
            let (o, _) = run(src, MemModel::Pso, seed);
            assert!(!o.is_failure(), "fenced MP cannot fail (seed {seed})");
        }
    }

    #[test]
    fn atomic_rmw_and_cas_are_atomic_under_every_model() {
        // fetch_add never loses updates, and exactly one of two competing
        // CASes wins, regardless of memory model: RMWs read and write the
        // visible value in one indivisible step.
        let src = "atomic int n = 0; atomic int l = 0; global int wins = 0;
             fn adder() { let o: int = fetch_add(n, 1, relaxed); }
             fn locker() {
                 let o: int = cas(l, 0, 1, relaxed);
                 if (o == 0) { let w: int = fetch_add(wins2, 1, relaxed); }
             }
             fn main() {
                 let a: thread = fork adder(); let b: thread = fork adder();
                 let c: thread = fork locker(); let d: thread = fork locker();
                 join a; join b; join c; join d;
                 let v: int = load(n, seq_cst);
                 let w: int = load(wins2, seq_cst);
                 assert(v == 2, \"lost update\");
                 assert(w == 1, \"CAS won twice or never\");
             }
             atomic int wins2 = 0;";
        for model in [MemModel::Sc, MemModel::Tso, MemModel::Pso, MemModel::C11] {
            for seed in 0..100 {
                let (o, _) = run(src, model, seed);
                assert_eq!(o, Outcome::Completed, "{model} seed {seed}");
            }
        }
    }

    #[test]
    fn c11_mp_relaxed_fails_release_is_safe() {
        // Message-passing litmus on atomics. With a relaxed flag publish
        // the two pending stores drain independently (flag first is
        // reachable); a release publish is gated behind the data store.
        let mp = |publish_ord: &str| {
            format!(
                "atomic int data = 0; atomic int flag = 0; global int seen = -1;
                 fn writer() {{ store(data, 1, relaxed); store(flag, 1, {publish_ord}); }}
                 fn reader() {{
                     let f: int = load(flag, acquire);
                     if (f == 1) {{ let d: int = load(data, acquire); seen = d; }}
                 }}
                 fn main() {{
                     let w: thread = fork writer(); let r: thread = fork reader();
                     join w; join r;
                     assert(seen != 0, \"MP relaxation\");
                 }}"
            )
        };
        let relaxed = parse(&mp("relaxed")).unwrap();
        let mut c11_failed = false;
        for seed in 0..4000 {
            let mut vm = Vm::new(&relaxed, MemModel::C11);
            let mut sched = RandomScheduler::with_stickiness(seed, 0.5);
            if vm.run(&mut sched, &mut NullMonitor).is_failure() {
                c11_failed = true;
                break;
            }
        }
        assert!(c11_failed, "relaxed publish must be reorderable under C11");
        // Release publish: safe under C11. And under SC/TSO/PSO atomics
        // are seq_cst fences, so even the relaxed version cannot fail.
        let release = parse(&mp("release")).unwrap();
        for seed in 0..400 {
            let mut vm = Vm::new(&release, MemModel::C11);
            let mut sched = RandomScheduler::with_stickiness(seed, 0.5);
            let o = vm.run(&mut sched, &mut NullMonitor);
            assert!(!o.is_failure(), "release publish is ordered (seed {seed})");
        }
        for model in [MemModel::Sc, MemModel::Tso, MemModel::Pso] {
            for seed in 0..200 {
                let (o, _) = run(&mp("relaxed"), model, seed);
                assert!(!o.is_failure(), "atomics fence under {model} (seed {seed})");
            }
        }
    }

    #[test]
    fn c11_relaxed_cas_publishes_only_its_own_location() {
        // Treiber-style publication: the node value is a pending relaxed
        // store when a relaxed CAS publishes the top pointer — the CAS
        // writes immediately but only fences its own location, so a reader
        // can observe the new top with a stale value. A release CAS drains
        // the whole buffer first.
        let push = |cas_ord: &str| {
            format!(
                "atomic int top = 0; atomic int val = 0; global int seen = -1;
                 fn pusher() {{ store(val, 42, relaxed); let o: int = cas(top, 0, 1, {cas_ord}); }}
                 fn popper() {{
                     let t: int = load(top, acquire);
                     if (t == 1) {{ let v: int = load(val, acquire); seen = v; }}
                 }}
                 fn main() {{
                     let a: thread = fork pusher(); let b: thread = fork popper();
                     join a; join b;
                     assert(seen != 0, \"stale node value\");
                 }}"
            )
        };
        let relaxed = parse(&push("relaxed")).unwrap();
        let mut failed = false;
        for seed in 0..4000 {
            let mut vm = Vm::new(&relaxed, MemModel::C11);
            let mut sched = RandomScheduler::with_stickiness(seed, 0.5);
            if vm.run(&mut sched, &mut NullMonitor).is_failure() {
                failed = true;
                break;
            }
        }
        assert!(failed, "relaxed CAS publication must be racy under C11");
        let release = parse(&push("release")).unwrap();
        for seed in 0..400 {
            let mut vm = Vm::new(&release, MemModel::C11);
            let mut sched = RandomScheduler::with_stickiness(seed, 0.5);
            let o = vm.run(&mut sched, &mut NullMonitor);
            assert!(!o.is_failure(), "release CAS flushes (seed {seed})");
        }
    }

    #[test]
    fn c11_atomic_forwarding_and_seq_cst_fence() {
        // A thread reads its own pending relaxed store (forwarding), and a
        // seq_cst op drains the buffer so the value is globally visible.
        let src = "atomic int x = 0;
             fn main() {
                 store(x, 41, relaxed);
                 let v: int = load(x, relaxed);
                 store(x, v + 1, seq_cst);
                 let w: int = load(x, seq_cst);
                 assert(w == 42);
             }";
        for seed in 0..50 {
            let (o, _) = run(src, MemModel::C11, seed);
            assert_eq!(o, Outcome::Completed, "seed {seed}");
        }
    }

    #[test]
    fn stats_and_monitor_counts_agree() {
        let p = parse(
            "global int x = 0; mutex m;
             fn w() { lock(m); x = x + 1; unlock(m); }
             fn main() { let a: thread = fork w(); join a; }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut mon = CountingMonitor::default();
        let mut sched = RandomScheduler::new(3);
        let o = vm.run(&mut sched, &mut mon);
        assert_eq!(o, Outcome::Completed);
        assert_eq!(mon.threads, 2);
        assert_eq!(mon.accesses, 2); // one load + one store of x
        assert_eq!(mon.syncs, 4); // lock, unlock, fork, join
                                  // SAPs = shared accesses + syncs
        assert_eq!(vm.stats().saps, mon.accesses + mon.syncs);
    }

    #[test]
    fn step_limit_reported() {
        let p = parse("fn main() { while (true) { yield; } }").unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        vm.set_step_limit(1000);
        let o = vm.run(&mut FifoScheduler, &mut NullMonitor);
        assert_eq!(o, Outcome::StepLimit);
    }

    #[test]
    fn shared_spec_filters_saps() {
        let p = parse("global int x = 0; global int y = 0; fn main() { x = 1; y = 1; }").unwrap();
        let x = p.global_by_name("x").unwrap();
        let mut set = std::collections::HashSet::new();
        set.insert(x);
        let mut vm = Vm::with_shared(&p, MemModel::Sc, SharedSpec::Set(set));
        let o = vm.run(&mut FifoScheduler, &mut NullMonitor);
        assert_eq!(o, Outcome::Completed);
        assert_eq!(vm.stats().saps, 1, "only x counts as a SAP");
        assert_eq!(vm.read_global(p.global_by_name("y").unwrap(), 0), 1);
    }

    #[test]
    fn preview_matches_execution() {
        let p =
            parse("global int x = 0; mutex m; fn main() { lock(m); x = 1; unlock(m); }").unwrap();
        let mut vm = Vm::new(&p, MemModel::Tso);
        assert!(matches!(
            vm.preview_step(ThreadId::MAIN),
            StepPreview::Sap {
                po_index: 0,
                kind: SapPreviewKind::Lock(_)
            }
        ));
        let mut sched = FifoScheduler;
        // Execute lock.
        let actions = vm.enabled_actions();
        let i = sched.pick(&vm, &actions);
        match actions[i] {
            Action::Step(t) => vm.step_thread(t, &mut NullMonitor),
            Action::Drain(t, a) => vm.drain(t, a, &mut NullMonitor),
        }
        assert!(matches!(
            vm.preview_step(ThreadId::MAIN),
            StepPreview::BufferedStore { po_index: 1 }
        ));
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Run N steps, snapshot, run to completion twice from the
        // snapshot with identical schedulers: outcomes and final state
        // must match — the §6.4 checkpointing primitive.
        let p = parse(
            "global int x = 0; mutex m;
             fn w(n: int) { let i: int = 0; while (i < n) { lock(m); x = x + 1; unlock(m); i = i + 1; } }
             fn main() { let a: thread = fork w(3); let b: thread = fork w(4); join a; join b;
                         assert(x == 7); }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, MemModel::Tso);
        let mut sched = RandomScheduler::new(11);
        // Advance 40 scheduler steps by hand.
        for _ in 0..40 {
            if vm.outcome().is_some() {
                break;
            }
            let actions = vm.enabled_actions();
            if actions.is_empty() {
                break;
            }
            let i = sched.pick(&vm, &actions);
            vm.step(actions[i], &mut NullMonitor);
        }
        let snapshot = vm.snapshot();
        assert!(snapshot.thread_count() >= 1);

        let finish = |vm: &mut Vm<'_>| {
            let mut sched = RandomScheduler::new(99);
            let outcome = vm.run(&mut sched, &mut NullMonitor);
            (
                outcome,
                vm.read_global(p.global_by_name("x").unwrap(), 0),
                vm.stats().steps,
            )
        };
        let mut vm_a = Vm::new(&p, MemModel::Tso);
        vm_a.restore(&snapshot);
        let a = finish(&mut vm_a);
        let mut vm_b = Vm::new(&p, MemModel::Tso);
        vm_b.restore_from(snapshot); // last use: the by-value hand-off
        let b = finish(&mut vm_b);
        assert_eq!(a, b, "restored runs are deterministic given the seed");
        assert_eq!(a.0, Outcome::Completed);
        assert_eq!(a.1, 7);
    }

    #[test]
    fn same_seed_same_everything() {
        // Full-run determinism: identical seeds yield identical outcomes,
        // stats and memory, across models.
        let p = parse(
            "global int x = 0; global int y = 0;
             fn w() { let v: int = x; yield; x = v + 1; y = y + v; }
             fn main() { let a: thread = fork w(); let b: thread = fork w(); join a; join b; }",
        )
        .unwrap();
        for model in [MemModel::Sc, MemModel::Tso, MemModel::Pso] {
            for seed in [0u64, 7, 123] {
                let run = |_: ()| {
                    let mut vm = Vm::new(&p, model);
                    let mut sched = RandomScheduler::new(seed);
                    let outcome = vm.run(&mut sched, &mut NullMonitor);
                    (
                        outcome,
                        *vm.stats(),
                        vm.read_global(p.global_by_name("x").unwrap(), 0),
                        vm.read_global(p.global_by_name("y").unwrap(), 0),
                    )
                };
                assert_eq!(run(()), run(()), "{model} seed {seed}");
            }
        }
    }

    #[test]
    fn reset_equals_fresh_vm() {
        let p = parse(
            "global int x = 0; mutex m;
             fn w() { lock(m); x = x + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2); }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, MemModel::Tso);
        let fresh = |seed: u64| {
            let mut vm = Vm::new(&p, MemModel::Tso);
            let mut sched = RandomScheduler::new(seed);
            let o = vm.run(&mut sched, &mut NullMonitor);
            (o, *vm.stats())
        };
        for seed in 0..25u64 {
            vm.reset();
            let mut sched = RandomScheduler::new(seed);
            let o = vm.run(&mut sched, &mut NullMonitor);
            assert_eq!((o, *vm.stats()), fresh(seed), "seed {seed}");
        }
    }

    #[test]
    fn with_compiled_shares_bytecode() {
        let p = parse("global int x = 0; fn main() { x = 1; }").unwrap();
        let vm = Vm::new(&p, MemModel::Sc);
        let compiled = Arc::clone(vm.compiled());
        let mut vm2 = Vm::with_compiled(&p, compiled, MemModel::Sc, SharedSpec::All);
        let o = vm2.run(&mut FifoScheduler, &mut NullMonitor);
        assert_eq!(o, Outcome::Completed);
        assert_eq!(vm2.read_global(p.global_by_name("x").unwrap(), 0), 1);
    }

    #[test]
    fn lineages_are_canonical() {
        let p = parse(
            "fn w() {} fn main() { let a: thread = fork w(); let b: thread = fork w(); join a; join b; }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut sched = RandomScheduler::new(9);
        vm.run(&mut sched, &mut NullMonitor);
        assert_eq!(vm.thread(ThreadId(1)).lineage.to_string(), "0.1");
        assert_eq!(vm.thread(ThreadId(2)).lineage.to_string(), "0.2");
    }

    #[test]
    fn forced_spin_ends_far_below_the_default_limit() {
        let p = parse("fn main() { while (true) { yield; } }").unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        let o = vm.run(&mut FifoScheduler, &mut NullMonitor);
        assert_eq!(o, Outcome::StepLimit);
        assert!(vm.stats().steps < 2 * FORCED_WARMUP, "{:?}", vm.stats());
    }

    #[test]
    fn livelock_on_a_stale_flag_is_cut_alike_on_both_backends() {
        // The dekker livelock shape under TSO: the writer publishes its
        // flag and exits, main drains its own store and then spins on a
        // flag no thread will ever clear. Once main is the only enabled
        // action, every step is forced and the spin repeats one state.
        let p = parse(
            "global int flag = 0; global int mine = 0;
             fn writer() { flag = 1; }
             fn main() {
                 let w: thread = fork writer();
                 mine = 1;
                 while (flag == 0) { yield; }
                 while (flag == 1) { yield; }
             }",
        )
        .unwrap();
        for seed in 0..20 {
            let mut vm = Vm::new(&p, MemModel::Tso);
            vm.set_step_limit(2_000_000);
            let o = vm.run(&mut RandomScheduler::new(seed), &mut NullMonitor);
            assert_eq!(o, Outcome::StepLimit, "seed {seed}");
            assert!(vm.buffer(ThreadId::MAIN).is_empty());
            let stats = vm.stats();
            assert!(stats.steps < 2 * FORCED_WARMUP, "seed {seed}: {stats:?}");
        }
    }

    #[test]
    fn state_comparison_skips_only_the_counters() {
        let p = parse(
            "global int x = 0; mutex m; cond c; chan ch(1);
             fn main() { while (true) { let v: int = x; yield; } }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        for _ in 0..10 {
            vm.step(Action::Step(ThreadId::MAIN), &mut NullMonitor);
        }
        let snap = vm.snapshot();
        assert!(vm.same_state(&snap));
        // One step moves main's frame; the rest of the loop iteration
        // returns it to the same state with more steps and SAPs counted.
        vm.step(Action::Step(ThreadId::MAIN), &mut NullMonitor);
        assert!(!vm.same_state(&snap));
        let mut steps = 1;
        while !vm.same_state(&snap) {
            vm.step(Action::Step(ThreadId::MAIN), &mut NullMonitor);
            steps += 1;
            assert!(steps < 100, "the loop comes back to its head");
        }
        assert_ne!(vm.stats(), snap.stats());
        assert_ne!(
            vm.thread(ThreadId::MAIN).next_sap_index,
            snap.threads[0].next_sap_index
        );
        // Every other part of the state is compared.
        type Change = (&'static str, fn(&mut Snapshot));
        let changes: [Change; 13] = [
            ("memory", |s| s.memory[0] += 1),
            ("locals", |s| s.locals[0] += 1),
            ("frame position", |s| s.frames[0].pc += 1),
            ("status", |s| s.threads[0].status = Status::BlockedMailbox),
            ("forks", |s| s.threads[0].forks += 1),
            ("reacquire", |s| {
                s.threads[0].waiting_reacquire = Some(MutexId(0))
            }),
            ("lineage", |s| s.lineages[0] += 1),
            ("mutex owner", |s| s.mutex_owner[0] = Some(ThreadId::MAIN)),
            ("channel closed", |s| s.chan_closed[0] = true),
            ("cond queue", |s| {
                s.cond_lens[0] = 1;
                s.cond_waiters.push(ThreadId::MAIN);
            }),
            ("channel queue", |s| {
                s.chan_lens[0] = 1;
                s.chan_items.push(5);
            }),
            ("mailbox", |s| {
                s.mailbox_lens[0] = 1;
                s.mailbox_items.push(5);
            }),
            ("store buffer", |s| {
                s.threads[0].store_len = 1;
                s.stores.push(BufferedStore {
                    addr: Addr(0),
                    value: 1,
                    po_index: 0,
                    release: false,
                });
            }),
        ];
        for (what, change) in changes {
            let mut changed = vm.snapshot();
            change(&mut changed);
            assert!(!vm.same_state(&changed), "{what} is compared");
        }
    }

    #[test]
    fn forced_runs_split_by_a_choice_are_not_joined() {
        // Each iteration main holds `m` for a few forced steps, then
        // unlocks, which wakes the helper and offers a choice. Until step
        // 50,000 the scheduler lets the helper run only into the held
        // lock, so every iteration returns to the same state, but through
        // a choice that could have gone the other way. The forced count
        // must restart at each choice, or the repeat looks like a cycle.
        let p = parse(
            "global int done = 0; mutex m;
             fn helper() { lock(m); done = 1; unlock(m); }
             fn main() {
                 lock(m);
                 let h: thread = fork helper();
                 while (done == 0) { unlock(m); lock(m); }
                 unlock(m);
                 join h;
             }",
        )
        .unwrap();
        let helper = ThreadId(1);
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut sched = crate::sched::FnScheduler(|vm: &Vm<'_>, actions: &[Action]| {
            let pick_helper = actions.contains(&Action::Step(helper))
                && (vm.stats().steps >= 50_000
                    || vm.preview_step(helper) == StepPreview::WouldBlock);
            actions
                .iter()
                .position(|a| (a.thread() == helper) == pick_helper)
                .unwrap_or(0)
        });
        assert_eq!(vm.run(&mut sched, &mut NullMonitor), Outcome::Completed);
        assert!(vm.stats().steps > 50_000, "{:?}", vm.stats());
    }

    #[test]
    fn long_forced_run_that_terminates_keeps_its_stats() {
        // One thread, so every step is forced, and only the local `i`
        // tells one loop iteration from the next: the run must complete
        // exactly as it always has.
        let p = parse(
            "global int limit = 100000; global int s = 0;
             fn main() { let i: int = 0; while (i < limit) { i = i + 1; } s = i; }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        let o = vm.run(&mut FifoScheduler, &mut NullMonitor);
        assert_eq!(o, Outcome::Completed);
        assert_eq!(
            *vm.stats(),
            ExecStats {
                instructions: 400_004,
                branches: 100_001,
                saps: 100_002,
                threads: 1,
                steps: 600_007,
                drains: 0,
            }
        );
    }

    /// `true` when the kept enabled set equals a fresh rebuild.
    fn kept_set_is_fresh(vm: &mut Vm<'_>) -> bool {
        let fresh = vm.enabled_actions();
        vm.enabled() == fresh
    }

    /// Takes `action`, then checks the kept enabled set.
    fn step_checked(vm: &mut Vm<'_>, action: Action) {
        vm.step(action, &mut NullMonitor);
        assert!(kept_set_is_fresh(vm), "stale after {action:?}");
    }

    /// Steps thread `t` until `done` holds, checking the kept enabled set
    /// after every step.
    fn step_until(vm: &mut Vm<'_>, t: u32, done: impl Fn(&Vm<'_>) -> bool) {
        for _ in 0..100 {
            if done(vm) {
                return;
            }
            step_checked(vm, Action::Step(ThreadId(t)));
        }
        panic!("t{t} never got there");
    }

    /// Takes the first enabled action until none is left, checking the
    /// kept enabled set after every step; the run must complete.
    fn finish_checked(vm: &mut Vm<'_>) {
        while let Some(&action) = vm.enabled().first() {
            step_checked(vm, action);
            assert_eq!(vm.outcome(), None);
        }
        assert!(vm.threads().iter().all(|t| t.status == Status::Exited));
    }

    fn status(vm: &Vm<'_>, t: u32) -> Status {
        vm.thread(ThreadId(t)).status
    }

    /// A fresh VM whose kept enabled set has been read once, so the next
    /// step starts from a clean set.
    fn checked_vm(p: &Program, model: MemModel) -> Vm<'_> {
        let mut vm = Vm::new(p, model);
        assert!(kept_set_is_fresh(&mut vm));
        vm
    }

    #[test]
    fn kept_enabled_set_follows_locks_forks_and_joins() {
        let p = parse(
            "mutex m;
             fn w() { lock(m); unlock(m); }
             fn main() { lock(m); let a: thread = fork w(); yield; unlock(m); join a; }",
        )
        .unwrap();
        let m = MutexId(0);
        let mut vm = checked_vm(&p, MemModel::Sc);
        // Fork adds a thread.
        step_until(&mut vm, 0, |vm| vm.threads().len() == 2);
        // A lock that blocks, then the unlock that wakes it.
        step_until(&mut vm, 1, |vm| status(vm, 1) == Status::BlockedLock(m));
        step_until(&mut vm, 0, |vm| status(vm, 1) == Status::Runnable);
        // A join on a live thread, then the exit that wakes it.
        step_until(&mut vm, 0, |vm| {
            status(vm, 0) == Status::BlockedJoin(ThreadId(1))
        });
        step_until(&mut vm, 1, |vm| status(vm, 0) == Status::Runnable);
        assert_eq!(status(&vm, 1), Status::Exited);
        finish_checked(&mut vm);
    }

    #[test]
    fn kept_enabled_set_follows_wait_signal_and_broadcast() {
        let p = parse(
            "global int go = 0; mutex m; cond c;
             fn waiter() { lock(m); while (go == 0) { wait(c, m); } unlock(m); }
             fn main() {
                 let a: thread = fork waiter(); let b: thread = fork waiter();
                 lock(m); go = 1; signal(c); broadcast(c); unlock(m);
                 join a; join b;
             }",
        )
        .unwrap();
        let (m, c) = (MutexId(0), CondId(0));
        let mut vm = checked_vm(&p, MemModel::Sc);
        step_until(&mut vm, 0, |vm| vm.threads().len() == 3);
        // Each wait releases the mutex and parks.
        step_until(&mut vm, 1, |vm| status(vm, 1) == Status::BlockedWait(c));
        step_until(&mut vm, 2, |vm| status(vm, 2) == Status::BlockedWait(c));
        // The signal wakes the first waiter, whose reacquisition blocks on
        // the mutex main holds.
        step_until(&mut vm, 0, |vm| status(vm, 1) == Status::Runnable);
        step_until(&mut vm, 1, |vm| status(vm, 1) == Status::BlockedLock(m));
        // The broadcast wakes the second, the unlock the first.
        step_until(&mut vm, 0, |vm| status(vm, 2) == Status::Runnable);
        step_until(&mut vm, 0, |vm| status(vm, 1) == Status::Runnable);
        finish_checked(&mut vm);
    }

    #[test]
    fn kept_enabled_set_follows_channels_and_mailboxes() {
        let p = parse(
            "chan c0(0); chan c1(1);
             fn r0() { yield; let v: int = recv(c0); }
             fn r1() { let v: int = recv(c1); let w: int = recv(c1); }
             fn actor() { let v: int = mailbox_recv(); }
             fn main() {
                 let a: thread = fork r0(); let b: thread = fork r1();
                 let k: thread = spawn_actor actor();
                 send(c0, 1);
                 yield; mailbox_send(k, 7);
                 send(c1, 1); send(c1, 2); send(c1, 3);
                 join a; join b; join k;
             }",
        )
        .unwrap();
        let (c0, c1) = (ChanId(0), ChanId(1));
        let mut vm = checked_vm(&p, MemModel::Sc);
        step_until(&mut vm, 0, |vm| vm.threads().len() == 4);
        // Capacity 0: the send blocks with no receiver at its `recv`; the
        // receiver's recv blocks and wakes it; the send then completes
        // and wakes the receiver.
        step_until(&mut vm, 0, |vm| status(vm, 0) == Status::BlockedSend(c0));
        step_until(&mut vm, 1, |vm| status(vm, 1) == Status::BlockedRecv(c0));
        assert_eq!(status(&vm, 0), Status::Runnable);
        step_until(&mut vm, 0, |vm| status(vm, 1) == Status::Runnable);
        step_until(&mut vm, 1, |vm| status(vm, 1) == Status::Exited);
        // A mailbox recv blocks, and the send wakes it.
        step_until(&mut vm, 3, |vm| status(vm, 3) == Status::BlockedMailbox);
        step_until(&mut vm, 0, |vm| status(vm, 3) == Status::Runnable);
        // Capacity 1: a recv on the empty channel blocks and a send wakes
        // it; a send to the full channel blocks and a recv wakes it.
        step_until(&mut vm, 2, |vm| status(vm, 2) == Status::BlockedRecv(c1));
        step_until(&mut vm, 0, |vm| status(vm, 2) == Status::Runnable);
        step_until(&mut vm, 0, |vm| status(vm, 0) == Status::BlockedSend(c1));
        step_until(&mut vm, 2, |vm| status(vm, 0) == Status::Runnable);
        finish_checked(&mut vm);
    }

    #[test]
    fn kept_enabled_set_follows_store_buffers() {
        let drains = |vm: &mut Vm<'_>| {
            vm.enabled()
                .iter()
                .filter(|a| matches!(a, Action::Drain(..)))
                .count()
        };
        let drain_last = |vm: &mut Vm<'_>| {
            let last = *vm.enabled().last().expect("an action");
            assert!(matches!(last, Action::Drain(..)), "{last:?}");
            step_checked(vm, last);
        };
        let p = parse("global int x = 0; global int y = 0; fn main() { x = 1; y = 2; }").unwrap();
        let main = ThreadId::MAIN;
        for (model, after_pushes) in [(MemModel::Tso, 1), (MemModel::Pso, 2)] {
            let mut vm = checked_vm(&p, model);
            // Two buffered pushes.
            step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 2);
            assert_eq!(drains(&mut vm), after_pushes, "{model}");
            // Drains, youngest first where the model allows it.
            drain_last(&mut vm);
            drain_last(&mut vm);
            assert_eq!(drains(&mut vm), 0, "{model}");
            finish_checked(&mut vm);
        }

        // C11: a release store is gated behind the earlier relaxed one
        // until that one drains.
        let p = parse(
            "atomic int d = 0; atomic int f = 0;
             fn main() { store(d, 1, relaxed); store(f, 1, release); }",
        )
        .unwrap();
        let mut vm = checked_vm(&p, MemModel::C11);
        step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 2);
        assert_eq!(drains(&mut vm), 1);
        drain_last(&mut vm);
        assert_eq!(drains(&mut vm), 1, "the release store drains next");
        finish_checked(&mut vm);
    }

    #[test]
    fn kept_enabled_set_follows_fence_flushes() {
        let main = ThreadId::MAIN;
        // A lock flushes the whole buffer; so does the exit after a store.
        let p = parse(
            "global int x = 0; mutex m;
             fn main() { x = 1; lock(m); unlock(m); x = 2; }",
        )
        .unwrap();
        let mut vm = checked_vm(&p, MemModel::Tso);
        step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 1);
        step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 0);
        step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 1);
        step_until(&mut vm, 0, |vm| status(vm, 0) == Status::Exited);
        assert_eq!(vm.buffered_store_count(main), 0);

        // Under C11 a relaxed RMW flushes only through its own location; a
        // seq_cst store flushes everything.
        let p = parse(
            "atomic int a = 0; atomic int b = 0;
             fn main() {
                 store(a, 1, relaxed); store(b, 1, relaxed);
                 let o: int = fetch_add(a, 1, relaxed);
                 store(a, 3, seq_cst);
             }",
        )
        .unwrap();
        let mut vm = checked_vm(&p, MemModel::C11);
        step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 2);
        step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 1);
        step_until(&mut vm, 0, |vm| vm.buffered_store_count(main) == 0);
        finish_checked(&mut vm);
    }

    #[test]
    fn kept_enabled_set_follows_reset_and_restore() {
        let p = parse(
            "global int x = 0; mutex m;
             fn w() { lock(m); x = 1; unlock(m); }
             fn main() { lock(m); let a: thread = fork w(); x = 2; unlock(m); join a; }",
        )
        .unwrap();
        let mut vm = checked_vm(&p, MemModel::Tso);
        let start = vm.snapshot();
        step_until(&mut vm, 0, |vm| vm.threads().len() == 2);
        let forked = vm.snapshot();
        step_until(&mut vm, 1, |vm| status(vm, 1) != Status::Runnable);
        step_until(&mut vm, 0, |vm| {
            vm.buffered_store_count(ThreadId::MAIN) == 1
        });
        let set = vm.enabled().to_vec();
        for snap in [&forked, &start, &forked] {
            vm.restore(snap);
            assert!(kept_set_is_fresh(&mut vm));
            assert_ne!(vm.enabled(), set);
        }
        vm.reset();
        assert!(kept_set_is_fresh(&mut vm));
        assert_eq!(vm.enabled(), [Action::Step(ThreadId::MAIN)]);
        finish_checked(&mut vm);
    }

    #[test]
    fn spin_on_a_flag_an_enabled_thread_will_write_is_not_cut() {
        // main spins through the same states over and over, but the
        // setter stays enabled throughout, so no step is forced.
        let p = parse(
            "global int flag = 0;
             fn setter() { flag = 1; }
             fn main() { let t: thread = fork setter(); while (flag == 0) { yield; } join t; }",
        )
        .unwrap();
        let spin = 100_000;
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut sched = crate::sched::FnScheduler(|vm: &Vm<'_>, actions: &[Action]| {
            let main_first = vm.stats().steps < spin;
            actions
                .iter()
                .position(|a| (a.thread() == ThreadId::MAIN) == main_first)
                .unwrap_or(0)
        });
        let o = vm.run(&mut sched, &mut NullMonitor);
        assert_eq!(o, Outcome::Completed);
        assert!(vm.stats().steps > spin, "{:?}", vm.stats());
    }
}
