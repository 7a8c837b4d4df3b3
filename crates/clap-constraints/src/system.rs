//! Construction of the CLAP execution-constraint system (§3):
//! `F = F_path ∧ F_bug ∧ F_so ∧ F_rw ∧ F_mo`.
//!
//! `F_path` and `F_bug` arrive ready-made in the [`SymTrace`]; this module
//! derives the structural pieces:
//!
//! * **`F_mo`** — memory-order edges per model. SC is full per-thread
//!   program order. For TSO/PSO the model follows the VM's store-buffer
//!   semantics (a *sound refinement* of the paper's textual model — see
//!   DESIGN.md): loads stay in program order and precede later stores
//!   (they execute in order on an in-order core); TSO keeps a single
//!   store chain, PSO keeps one store chain per variable; every read is
//!   pinned between its nearest potentially-aliasing preceding and
//!   following writes of its own thread (store-forwarding, §3.2); sync
//!   operations are full fences.
//! * **`F_so`** — lock regions (mutual exclusion of critical sections),
//!   fork/join partial-order edges, and wait/signal matching candidates.
//! * **`F_rw`** — per read: the candidate writes (plus the initial value)
//!   it may take its value from, with aliasing kept symbolic for array
//!   accesses whose index expressions are not concrete.

use crate::schedule::Schedule;
use clap_ir::{AtomicOrd, ChanId, CondId, GlobalId, MutexId, Program};
use clap_profile as clap_profile_sync;
use clap_symex::{SapId, SapKind, SymAddr, SymTrace, SymVarId, ThreadIdx};
use clap_vm::MemModel;
use std::collections::HashMap;

/// Where a read's value may come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// The location's initial value (no earlier aliasing write).
    Init,
    /// A specific write SAP.
    Write(SapId),
}

/// One read's matching problem (`F_rw` row).
#[derive(Debug, Clone)]
pub struct ReadConstraint {
    /// The read SAP.
    pub read: SapId,
    /// Its symbolic result variable.
    pub var: SymVarId,
    /// The location read.
    pub addr: SymAddr,
    /// Value it observes when matched to [`ReadSource::Init`].
    pub init_value: i64,
    /// Candidate sources (always includes `Init`).
    pub candidates: Vec<ReadSource>,
    /// All potentially-aliasing writes (superset of the write candidates;
    /// the exclusion constraints range over these).
    pub aliasing_writes: Vec<SapId>,
}

/// A lock/unlock critical region (`F_so`, locking constraints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockRegion {
    /// The acquiring SAP.
    pub lock: SapId,
    /// The releasing SAP; `None` when the region was still open at the
    /// failure (it must then be the last region on its mutex).
    pub unlock: Option<SapId>,
}

/// A wait's matching problem (`F_so`, wait/signal constraints).
#[derive(Debug, Clone)]
pub struct WaitConstraint {
    /// The wait-completion SAP.
    pub wait: SapId,
    /// The wait's release-phase SAP (the unlock that parked the thread).
    pub release: SapId,
    /// Signals that may wake it (consumed exclusively).
    pub signals: Vec<SapId>,
    /// Broadcasts that may wake it (shared by any number of waits).
    pub broadcasts: Vec<SapId>,
}

/// A channel/mailbox receive's matching problem (`F_so`, send/recv
/// matching). Mirrors [`WaitConstraint`]: the solver picks the send the
/// receive observes (consumed exclusively, FIFO legality re-checked by the
/// validator), or — for channel recvs with a close in the trace — the
/// "drained" outcome where a close precedes the recv and it returns `-1`.
#[derive(Debug, Clone)]
pub struct RecvConstraint {
    /// The receive-completion SAP (`recv` or `mailbox_recv`).
    pub recv: SapId,
    /// Its symbolic result variable.
    pub var: SymVarId,
    /// Candidate sends it may take its value from (`send` / `try_send`
    /// SAPs on the same channel, or `mailbox_send`s targeting the thread).
    pub sends: Vec<SapId>,
    /// Close SAPs enabling the `-1` drained outcome (channel recvs only).
    pub closes: Vec<SapId>,
}

/// The assembled constraint system.
#[derive(Debug, Clone)]
pub struct ConstraintSystem<'t> {
    /// The underlying symbolic trace.
    pub trace: &'t SymTrace,
    /// Memory model the constraints encode.
    pub model: MemModel,
    /// Hard order edges: `F_mo` plus fork/join partial order. `(a, b)`
    /// means `O_a < O_b`.
    pub hard_edges: Vec<(SapId, SapId)>,
    /// `F_rw` rows, one per read SAP.
    pub reads: Vec<ReadConstraint>,
    /// Lock regions grouped by mutex.
    pub lock_regions: HashMap<MutexId, Vec<LockRegion>>,
    /// Wait/signal matching, one row per completed wait.
    pub waits: Vec<WaitConstraint>,
    /// Channel/mailbox send-recv matching, one row per completed receive.
    pub recvs: Vec<RecvConstraint>,
    /// Number of hard edges contributed by `F_mo` alone (Table 1 stats).
    pub mo_edge_count: usize,
    /// Per symbolic variable: the path conditions that mention it. The
    /// schedule walk evaluates a condition once its last variable is
    /// bound.
    pub(crate) var_conds: Vec<Vec<u32>>,
    /// Per path condition: how many distinct variables it mentions.
    pub(crate) cond_vars: Vec<u32>,
}

impl<'t> ConstraintSystem<'t> {
    /// Builds the system for `trace` under `model`.
    ///
    /// # Panics
    ///
    /// Panics on malformed traces (an unlock without a lock by the same
    /// thread, a wait completion without its release).
    pub fn build(program: &Program, trace: &'t SymTrace, model: MemModel) -> Self {
        let mut hard_edges = Vec::new();

        // ---- F_mo: per-thread memory order ----
        for thread_saps in &trace.per_thread {
            match model {
                MemModel::Sc => {
                    for w in thread_saps.windows(2) {
                        hard_edges.push((w[0], w[1]));
                    }
                }
                MemModel::Tso | MemModel::Pso => {
                    relaxed_mo(trace, model, thread_saps, &mut hard_edges);
                }
                MemModel::C11 => {
                    c11_mo(trace, thread_saps, &mut hard_edges);
                }
            }
        }
        let mo_edge_count = hard_edges.len();

        // ---- F_so: fork/join partial order ----
        // fork → first SAPs of child; last SAPs of child → join. With the
        // per-thread edges above, each thread's minimal/maximal SAPs under
        // F_mo dominate the rest; for simplicity and soundness we link the
        // child's first and last SAP in program order *and* rely on the
        // fence property of fork/join (they flush) making program-order
        // first/last also F_mo-first/last... which holds because the
        // child's first and last SAPs are reached through the chains that
        // start/end every relaxed F_mo construction. To stay robust we add
        // edges for every child SAP when the child is small, degrading to
        // first/last for large children plus chain coverage.
        for (ti, thread_saps) in trace.per_thread.iter().enumerate() {
            let t = ThreadIdx(ti as u32);
            let _ = t;
            for &s in thread_saps {
                match trace.sap(s).kind {
                    SapKind::Fork { child } | SapKind::SpawnActor { child } => {
                        for &cs in &trace.per_thread[child.index()] {
                            hard_edges.push((s, cs));
                        }
                    }
                    SapKind::Join { child } => {
                        for &cs in &trace.per_thread[child.index()] {
                            hard_edges.push((cs, s));
                        }
                    }
                    _ => {}
                }
            }
        }

        // ---- F_so: lock regions ----
        let mut lock_regions: HashMap<MutexId, Vec<LockRegion>> = HashMap::new();
        for thread_saps in &trace.per_thread {
            // Track the open lock per mutex for this thread.
            let mut open: HashMap<MutexId, SapId> = HashMap::new();
            for &s in thread_saps {
                match trace.sap(s).kind {
                    SapKind::Lock(m) | SapKind::Wait { mutex: m, .. } => {
                        // A wait completion reacquires the mutex: it opens
                        // a region exactly like a lock.
                        let prev = open.insert(m, s);
                        assert!(prev.is_none(), "nested lock of the same mutex");
                    }
                    SapKind::Unlock(m) => {
                        let lock = open.remove(&m).expect("unlock pairs with a lock");
                        lock_regions.entry(m).or_default().push(LockRegion {
                            lock,
                            unlock: Some(s),
                        });
                    }
                    _ => {}
                }
            }
            // Regions still open at the failure point.
            for (m, lock) in open {
                lock_regions
                    .entry(m)
                    .or_default()
                    .push(LockRegion { lock, unlock: None });
            }
        }

        // ---- F_so: wait/signal matching ----
        let mut signals_by_cond: HashMap<CondId, Vec<SapId>> = HashMap::new();
        let mut broadcasts_by_cond: HashMap<CondId, Vec<SapId>> = HashMap::new();
        for (i, sap) in trace.saps.iter().enumerate() {
            match sap.kind {
                SapKind::Signal(c) => signals_by_cond.entry(c).or_default().push(SapId(i as u32)),
                SapKind::Broadcast(c) => broadcasts_by_cond
                    .entry(c)
                    .or_default()
                    .push(SapId(i as u32)),
                _ => {}
            }
        }
        let mut waits = Vec::new();
        for thread_saps in &trace.per_thread {
            for (pos, &s) in thread_saps.iter().enumerate() {
                if let SapKind::Wait { cond, .. } = trace.sap(s).kind {
                    let release = thread_saps[pos.checked_sub(1).expect("wait has a release")];
                    assert!(
                        matches!(trace.sap(release).kind, SapKind::Unlock(_)),
                        "wait completion must follow its release"
                    );
                    let my_thread = trace.sap(s).thread;
                    let other = |id: &&SapId| trace.sap(**id).thread != my_thread;
                    waits.push(WaitConstraint {
                        wait: s,
                        release,
                        signals: signals_by_cond
                            .get(&cond)
                            .map(|v| v.iter().filter(other).copied().collect())
                            .unwrap_or_default(),
                        broadcasts: broadcasts_by_cond
                            .get(&cond)
                            .map(|v| v.iter().filter(other).copied().collect())
                            .unwrap_or_default(),
                    });
                }
            }
        }

        // ---- F_so: channel/mailbox send-recv matching ----
        let mut sends_by_chan: HashMap<ChanId, Vec<SapId>> = HashMap::new();
        let mut closes_by_chan: HashMap<ChanId, Vec<SapId>> = HashMap::new();
        let mut mailbox_sends: HashMap<ThreadIdx, Vec<SapId>> = HashMap::new();
        // Per channel: blocking sends, blocking recvs, and whether try_*
        // or close operations taint the static FIFO analysis below.
        let mut fifo: HashMap<ChanId, (Vec<SapId>, Vec<SapId>, bool)> = HashMap::new();
        for (i, sap) in trace.saps.iter().enumerate() {
            let s = SapId(i as u32);
            match sap.kind {
                SapKind::Send { chan, .. } => {
                    sends_by_chan.entry(chan).or_default().push(s);
                    fifo.entry(chan).or_default().0.push(s);
                }
                SapKind::TrySend { chan, .. } => {
                    sends_by_chan.entry(chan).or_default().push(s);
                    fifo.entry(chan).or_default().2 = true;
                }
                SapKind::Recv { chan, .. } => {
                    fifo.entry(chan).or_default().1.push(s);
                }
                SapKind::TryRecv { chan, .. } => {
                    fifo.entry(chan).or_default().2 = true;
                }
                SapKind::ChanClose(c) => {
                    closes_by_chan.entry(c).or_default().push(s);
                    fifo.entry(c).or_default().2 = true;
                }
                SapKind::MailboxSend { target, .. } => {
                    mailbox_sends.entry(target).or_default().push(s);
                }
                _ => {}
            }
        }
        let mut recvs = Vec::new();
        for (i, sap) in trace.saps.iter().enumerate() {
            let s = SapId(i as u32);
            // A same-thread send program-order after the receive can never
            // be its source (channel ops are fences in every model).
            let po_ok = |w: &&SapId| {
                let ws = trace.sap(**w);
                !(ws.thread == sap.thread && ws.po > sap.po)
            };
            match sap.kind {
                SapKind::Recv { chan, var } => recvs.push(RecvConstraint {
                    recv: s,
                    var,
                    sends: sends_by_chan
                        .get(&chan)
                        .map(|v| v.iter().filter(po_ok).copied().collect())
                        .unwrap_or_default(),
                    closes: closes_by_chan.get(&chan).cloned().unwrap_or_default(),
                }),
                SapKind::MailboxRecv { var } => recvs.push(RecvConstraint {
                    recv: s,
                    var,
                    sends: mailbox_sends
                        .get(&sap.thread)
                        .map(|v| v.iter().filter(po_ok).copied().collect())
                        .unwrap_or_default(),
                    closes: Vec::new(),
                }),
                _ => {}
            }
        }

        // ---- F_so: capacity-induced FIFO edges ----
        // When a channel's traffic is one sending thread and one receiving
        // thread using only blocking send/recv and the channel is never
        // closed, FIFO matching is forced: the k-th send pairs with the
        // k-th recv, and the (k+cap)-th send must wait for the k-th recv
        // to free a slot (cap 0 behaves as the 1-slot rendezvous buffer).
        let mut chans: Vec<_> = fifo.iter().collect();
        chans.sort_by_key(|(c, _)| **c);
        for (chan, (sends, chan_recvs, tainted)) in chans {
            if *tainted {
                continue;
            }
            let one_thread = |v: &[SapId]| {
                v.iter()
                    .map(|&s| trace.sap(s).thread)
                    .collect::<std::collections::HashSet<_>>()
                    .len()
                    <= 1
            };
            if !one_thread(sends) || !one_thread(chan_recvs) {
                continue;
            }
            let cap = program.chans[chan.index()].cap.max(1);
            for k in 0..sends.len().min(chan_recvs.len()) {
                hard_edges.push((sends[k], chan_recvs[k]));
            }
            for k in 0..chan_recvs.len() {
                if k + cap < sends.len() {
                    hard_edges.push((chan_recvs[k], sends[k + cap]));
                }
            }
        }

        // ---- F_rw: read-write matching ----
        // Plain reads match plain writes; atomic reads (loads plus the
        // read half of RMW/CAS) match atomic writes. The two pools never
        // mix because an atomic declaration is its own global, reachable
        // only through atomic operations. Atomics are always scalar, so
        // their address carries no index.
        let mut writes_by_global: HashMap<GlobalId, Vec<SapId>> = HashMap::new();
        for (i, sap) in trace.saps.iter().enumerate() {
            if let Some(addr) = write_addr(&sap.kind) {
                writes_by_global
                    .entry(addr.global)
                    .or_default()
                    .push(SapId(i as u32));
            }
        }
        let mut reads = Vec::new();
        for (i, sap) in trace.saps.iter().enumerate() {
            let (addr, var) = match sap.kind {
                SapKind::Read { addr, var } => (addr, var),
                SapKind::AtomicLoad { global, var, .. }
                | SapKind::AtomicRmw { global, var, .. }
                | SapKind::AtomicCas { global, var, .. } => (atomic_addr(global), var),
                _ => continue,
            };
            let read = SapId(i as u32);
            let empty = Vec::new();
            let glob_writes = writes_by_global.get(&addr.global).unwrap_or(&empty);
            let mut aliasing = Vec::new();
            let mut candidates = vec![ReadSource::Init];
            for &w in glob_writes {
                // An RMW/CAS is both a read and a write in one SAP: its
                // own write can never be its read's source, nor count as
                // an intervening write between the source and the read —
                // which is exactly what makes the read-modify-write
                // indivisible in the modification order.
                if w == read {
                    continue;
                }
                let waddr = write_addr(&trace.sap(w).kind).expect("collected as a write");
                if !may_alias(trace, addr, waddr) {
                    continue;
                }
                aliasing.push(w);
                // A same-thread write that is program-order after the read
                // can never be its source (reads precede later writes in
                // every model we support).
                let same_thread_later =
                    trace.sap(w).thread == sap.thread && trace.sap(w).po > sap.po;
                if !same_thread_later {
                    candidates.push(ReadSource::Write(w));
                }
            }
            reads.push(ReadConstraint {
                read,
                var,
                addr,
                init_value: init_value_of(program, trace, addr),
                candidates,
                aliasing_writes: aliasing,
            });
        }

        let mut var_conds: Vec<Vec<u32>> = vec![Vec::new(); trace.sym_vars.len()];
        let mut cond_vars = Vec::with_capacity(trace.path_conds.len());
        for (c, pc) in trace.path_conds.iter().enumerate() {
            let vars = trace.arena.vars(pc.expr);
            cond_vars.push(vars.len() as u32);
            for v in vars {
                var_conds[v.index()].push(c as u32);
            }
        }

        ConstraintSystem {
            trace,
            model,
            hard_edges,
            reads,
            lock_regions,
            waits,
            recvs,
            mo_edge_count,
            var_conds,
            cond_vars,
        }
    }

    /// Checks a *hard-edge-only* property: whether `schedule` respects
    /// `F_mo` and the fork/join partial order.
    pub fn respects_hard_edges(&self, schedule: &Schedule) -> bool {
        let pos = schedule.positions();
        self.hard_edges
            .iter()
            .all(|&(a, b)| pos[a.index()] < pos[b.index()])
    }
}

/// The address of an atomic location (always a scalar global).
fn atomic_addr(global: GlobalId) -> SymAddr {
    SymAddr {
        global,
        index: None,
    }
}

/// The location a SAP writes, when it writes one (plain stores and the
/// write half of every atomic write — a failed CAS still rewrites the old
/// value, keeping it in the modification order).
pub(crate) fn write_addr(kind: &SapKind) -> Option<SymAddr> {
    match *kind {
        SapKind::Write { addr, .. } => Some(addr),
        SapKind::AtomicStore { global, .. }
        | SapKind::AtomicRmw { global, .. }
        | SapKind::AtomicCas { global, .. } => Some(atomic_addr(global)),
        _ => None,
    }
}

/// Conservative alias test between a read's and a write's location.
fn may_alias(trace: &SymTrace, a: SymAddr, b: SymAddr) -> bool {
    if a.global != b.global {
        return false;
    }
    match (a.index, b.index) {
        (None, None) => true,
        (Some(ia), Some(ib)) => {
            match (trace.arena.as_const(ia), trace.arena.as_const(ib)) {
                (Some(x), Some(y)) => x == y,
                _ => true, // symbolic index: maybe
            }
        }
        // One indexed, one scalar access of the same global cannot happen
        // (the type checker separates arrays and scalars).
        _ => unreachable!("mixed scalar/array access of one global"),
    }
}

fn init_value_of(program: &Program, trace: &SymTrace, addr: SymAddr) -> i64 {
    let _ = trace;
    SymTrace::init_value(program, addr.global)
}

/// Emits the relaxed memory-order edges for one thread (TSO/PSO).
fn relaxed_mo(trace: &SymTrace, model: MemModel, saps: &[SapId], edges: &mut Vec<(SapId, SapId)>) {
    let mut last_read: Option<SapId> = None;
    // TSO: one chain over all writes. PSO: one chain per global.
    let mut last_write_tso: Option<SapId> = None;
    let mut last_write_pso: HashMap<GlobalId, SapId> = HashMap::new();
    // For the forwarding edges: all writes seen so far (to find the
    // nearest potentially-aliasing one), and pending reads waiting for
    // their next aliasing write.
    let mut writes_so_far: Vec<(SapId, SymAddr)> = Vec::new();
    let mut pending_reads: Vec<(SapId, SymAddr)> = Vec::new();
    // Fence handling: SAPs since the last fence, and the last fence.
    let mut since_fence: Vec<SapId> = Vec::new();
    let mut last_fence: Option<SapId> = None;

    for &s in saps {
        let kind = trace.sap(s).kind;
        match kind {
            SapKind::Read { addr, .. } => {
                if let Some(r) = last_read {
                    edges.push((r, s));
                }
                last_read = Some(s);
                // Nearest potentially-aliasing earlier write (since the
                // last fence; fences already order everything older).
                if let Some(&(w, _)) = writes_so_far
                    .iter()
                    .rev()
                    .find(|(_, wa)| may_alias(trace, addr, *wa))
                {
                    edges.push((w, s));
                }
                pending_reads.push((s, addr));
                if let Some(f) = last_fence {
                    edges.push((f, s));
                }
                since_fence.push(s);
            }
            SapKind::Write { addr, .. } => {
                // Loads execute in program order before later stores.
                if let Some(r) = last_read {
                    edges.push((r, s));
                }
                match model {
                    MemModel::Tso => {
                        if let Some(w) = last_write_tso {
                            edges.push((w, s));
                        }
                        last_write_tso = Some(s);
                    }
                    MemModel::Pso => {
                        if let Some(&w) = last_write_pso.get(&addr.global) {
                            edges.push((w, s));
                        }
                        last_write_pso.insert(addr.global, s);
                    }
                    MemModel::Sc | MemModel::C11 => unreachable!("relaxed_mo only for TSO/PSO"),
                }
                // Reads before their next potentially-aliasing write.
                pending_reads.retain(|&(r, ra)| {
                    if may_alias(trace, ra, addr) {
                        edges.push((r, s));
                        false
                    } else {
                        true
                    }
                });
                writes_so_far.push((s, addr));
                if let Some(f) = last_fence {
                    edges.push((f, s));
                }
                since_fence.push(s);
            }
            _ => {
                // Synchronization SAP: a full fence.
                for &m in &since_fence {
                    edges.push((m, s));
                }
                if let Some(f) = last_fence {
                    edges.push((f, s));
                }
                since_fence.clear();
                last_fence = Some(s);
                // The fence dominates everything before it; restart the
                // chains from the fence itself by clearing state (edges
                // from the fence to subsequent SAPs are added above).
                last_read = None;
                last_write_tso = None;
                last_write_pso.clear();
                writes_so_far.clear();
                pending_reads.clear();
            }
        }
    }
}

/// Emits the C11 memory-order edges for one thread, mirroring the VM's
/// semantics: plain accesses are SC among themselves, `seq_cst` atomics
/// and sync operations are full fences, and relaxed/acquire/release
/// atomic stores are the only delayed operations — their order variable
/// stands for the *commit* (drain) time, bounded below by the issue point
/// and chained per location (per-location modification order). A release
/// store additionally commits after every earlier pending store of its
/// thread (the VM drains a release entry only when it is the oldest
/// buffer entry). Relaxed/acquire RMW and CAS flush the FIFO prefix up
/// to their own location before reading, so they are ordered after every
/// earlier same-thread pending store up to (and including) the last one
/// to their location. Store-to-load forwarding is pinned with a hard
/// edge from the nearest pending same-location store to the load — an
/// over-approximation of the buffer-forwarding semantics whose
/// incompleteness is covered by the atomics soundness valve.
fn c11_mo(trace: &SymTrace, saps: &[SapId], edges: &mut Vec<(SapId, SapId)>) {
    // The chain of operations that execute at their program position.
    let mut last_immediate: Option<SapId> = None;
    // Currently-pending (buffered) atomic stores, in issue order.
    let mut buffered: Vec<(SapId, GlobalId)> = Vec::new();
    // Latest pending store per location (per-location FIFO chain head).
    let mut last_store: HashMap<GlobalId, SapId> = HashMap::new();
    // Atomic loads awaiting their location's next same-thread write (the
    // read half of the forwarding pin).
    let mut pending_loads: Vec<(SapId, GlobalId)> = Vec::new();

    for &s in saps {
        let kind = trace.sap(s).kind;
        if let SapKind::AtomicStore { global, ord, .. } = kind {
            if ord != AtomicOrd::SeqCst {
                // Delayed store: commits no earlier than its issue point…
                if let Some(p) = last_immediate {
                    edges.push((p, s));
                }
                // …after the previous pending store to the same location…
                if let Some(&w) = last_store.get(&global) {
                    edges.push((w, s));
                }
                // …and, for release, after every earlier pending store.
                if ord == AtomicOrd::Release {
                    for &(b, _) in &buffered {
                        edges.push((b, s));
                    }
                }
                // Earlier same-location loads read before this write.
                pending_loads.retain(|&(r, g)| {
                    if g == global {
                        edges.push((r, s));
                        false
                    } else {
                        true
                    }
                });
                last_store.insert(global, s);
                buffered.push((s, global));
                continue;
            }
        }

        // Everything else executes at its program position.
        if let Some(p) = last_immediate {
            edges.push((p, s));
        }
        last_immediate = Some(s);

        let full_fence = match kind {
            SapKind::Read { .. } | SapKind::Write { .. } => false,
            SapKind::AtomicLoad { ord, .. } | SapKind::AtomicStore { ord, .. } => {
                ord == AtomicOrd::SeqCst
            }
            SapKind::AtomicRmw { ord, .. } | SapKind::AtomicCas { ord, .. } => {
                matches!(ord, AtomicOrd::Release | AtomicOrd::SeqCst)
            }
            // Sync operations flush the buffer in every model.
            _ => true,
        };
        if full_fence {
            for &(b, _) in &buffered {
                edges.push((b, s));
            }
            buffered.clear();
            last_store.clear();
            // Later writes are ordered after the fence, hence after the
            // pending loads, transitively.
            pending_loads.clear();
            continue;
        }

        match kind {
            SapKind::AtomicLoad { global, .. } => {
                // Forwarding pin: a pending same-location store is what
                // the load observes in the VM.
                if let Some(&w) = last_store.get(&global) {
                    edges.push((w, s));
                }
                pending_loads.push((s, global));
            }
            SapKind::AtomicRmw { global, .. } | SapKind::AtomicCas { global, .. } => {
                // Partial fence: drain the FIFO prefix up to the last
                // pending store to this location.
                if let Some(last_idx) = buffered.iter().rposition(|&(_, g)| g == global) {
                    for &(b, _) in &buffered[..=last_idx] {
                        edges.push((b, s));
                    }
                    buffered.drain(..=last_idx);
                    last_store.retain(|g, _| buffered.iter().any(|&(_, bg)| bg == *g));
                }
                pending_loads.retain(|&(r, g)| {
                    if g == global {
                        edges.push((r, s));
                        false
                    } else {
                        true
                    }
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use clap_analysis::analyze;
    use clap_ir::parse;
    use clap_profile::{decode_log, BlTables, PathRecorder};
    use clap_symex::{execute, FailureContext};
    use clap_vm::{Outcome, RandomScheduler, Vm};

    pub(crate) fn build_failure(
        src: &str,
        model: MemModel,
        max_seed: u64,
    ) -> (clap_ir::Program, SymTrace) {
        let program = parse(src).unwrap();
        let sharing = analyze(&program);
        let tables = BlTables::build(&program);
        let mut vm = Vm::with_shared(&program, model, sharing.shared_spec());
        for seed in 0..max_seed {
            vm.reset();
            let mut rec = PathRecorder::new(&tables);
            let outcome = vm.run(&mut RandomScheduler::new(seed), &mut rec);
            if let Outcome::AssertFailed { .. } = outcome {
                let failure = FailureContext::from_vm(&vm);
                let paths = decode_log(&program, &tables, &rec.finish()).unwrap();
                let trace = execute(&program, &sharing.shared_spec(), &paths, &failure).unwrap();
                return (program, trace);
            }
        }
        panic!("no failing seed in 0..{max_seed}");
    }

    const LOST_UPDATE: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    #[test]
    fn sc_mo_is_per_thread_chain() {
        let (program, trace) = build_failure(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let expected: usize = trace
            .per_thread
            .iter()
            .map(|t| t.len().saturating_sub(1))
            .sum();
        assert_eq!(sys.mo_edge_count, expected);
    }

    #[test]
    fn reads_have_init_and_write_candidates() {
        let (program, trace) = build_failure(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        // Three reads of x: one per worker plus the assert's.
        assert_eq!(sys.reads.len(), 3);
        for r in &sys.reads {
            assert!(r.candidates.contains(&ReadSource::Init));
            // Two writes exist; a worker's own write is pruned (later in
            // program order), main's read keeps both.
            assert!(r.candidates.len() >= 2, "{r:?}");
            assert_eq!(r.init_value, 0);
        }
        let main_read = sys
            .reads
            .iter()
            .find(|r| trace.sap(r.read).thread == ThreadIdx(0))
            .unwrap();
        assert_eq!(main_read.candidates.len(), 3, "init + both writes");
    }

    #[test]
    fn fork_join_edges_cover_children() {
        let (program, trace) = build_failure(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        // Every child SAP is ordered after a fork and before a join.
        let forks: Vec<SapId> = (0..trace.sap_count() as u32)
            .map(SapId)
            .filter(|&s| matches!(trace.sap(s).kind, SapKind::Fork { .. }))
            .collect();
        assert_eq!(forks.len(), 2);
        for &cs in &trace.per_thread[1] {
            assert!(sys
                .hard_edges
                .iter()
                .any(|&(a, b)| a == forks[0] && b == cs));
        }
    }

    #[test]
    fn lock_regions_extracted() {
        let src = "global int x = 0; mutex m;
             fn w() { lock(m); let v: int = x; x = v + 1; unlock(m); yield; let u: int = x; yield; x = u + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 4, \"lost\"); }";
        let (program, trace) = build_failure(src, MemModel::Sc, 3000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let m = program.mutex_by_name("m").unwrap();
        let regions = &sys.lock_regions[&m];
        assert_eq!(regions.len(), 2);
        assert!(regions.iter().all(|r| r.unlock.is_some()));
    }

    #[test]
    fn open_lock_region_when_failing_inside_critical_section() {
        let src = "global int x = 0; mutex m;
             fn w() { x = 1; }
             fn main() { let t: thread = fork w(); lock(m); let v: int = x;
                         assert(v == 0, \"raced\"); unlock(m); join t; }";
        let (program, trace) = build_failure(src, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let m = program.mutex_by_name("m").unwrap();
        let regions = &sys.lock_regions[&m];
        assert_eq!(regions.len(), 1);
        assert!(regions[0].unlock.is_none(), "region open at failure");
    }

    #[test]
    fn wait_constraints_reference_release_and_signals() {
        let src = "global int ready = 0; global int order = 0; mutex m; cond c;
             fn consumer() {
                 lock(m);
                 while (ready == 0) { wait(c, m); }
                 unlock(m);
                 order = 1;
             }
             fn main() {
                 let t: thread = fork consumer();
                 lock(m); ready = 1; signal(c); unlock(m);
                 join t;
                 let o: int = order;
                 assert(o == 0, \"consumer ran\");
             }";
        let (program, trace) = build_failure(src, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        // The consumer may or may not have parked before the signal in the
        // failing run; when it did, the wait row must exist and be sane.
        for w in &sys.waits {
            assert!(matches!(trace.sap(w.release).kind, SapKind::Unlock(_)));
            assert!(!w.signals.is_empty());
        }
    }

    #[test]
    fn tso_relaxes_w_r_but_not_r_w() {
        let src = "global int x = 0; global int y = 0;
             global int r1 = -1; global int r2 = -1;
             fn t1() { x = 1; r1 = y; }
             fn t2() { y = 1; r2 = x; }
             fn main() {
                 let a: thread = fork t1(); let b: thread = fork t2();
                 join a; join b;
                 assert(r1 + r2 > 0, \"SB\");
             }";
        let (program, trace) = build_failure(src, MemModel::Tso, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Tso);
        // Thread 1's SAPs: write x, read y, write r1. The W(x) → R(y)
        // pair must NOT be ordered; R(y) → W(r1) must be.
        let t1 = &trace.per_thread[1];
        let (wx, ry, wr1) = (t1[0], t1[1], t1[2]);
        assert!(matches!(trace.sap(wx).kind, SapKind::Write { .. }));
        assert!(matches!(trace.sap(ry).kind, SapKind::Read { .. }));
        assert!(!sys.hard_edges.contains(&(wx, ry)), "TSO relaxes W→R");
        assert!(sys.hard_edges.contains(&(ry, wr1)), "TSO keeps R→W");
        // And the write chain: W(x) → W(r1).
        assert!(sys.hard_edges.contains(&(wx, wr1)), "TSO keeps W→W");
    }

    #[test]
    fn pso_relaxes_w_w_across_variables() {
        let src = "global int data = 0; global int flag = 0; global int seen = -1;
             fn writer() { data = 1; flag = 1; }
             fn reader() { let f: int = flag; if (f == 1) { seen = data; } }
             fn main() {
                 let w: thread = fork writer(); let r: thread = fork reader();
                 join w; join r;
                 assert(seen != 0, \"MP\");
             }";
        let (program, trace) = build_failure(src, MemModel::Pso, 6000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Pso);
        let writer = &trace.per_thread[1];
        let (wd, wf) = (writer[0], writer[1]);
        assert!(
            !sys.hard_edges.contains(&(wd, wf)),
            "PSO relaxes W→W across variables"
        );
        // Under TSO the same pair is ordered.
        let sys_tso = ConstraintSystem::build(&program, &trace, MemModel::Tso);
        assert!(sys_tso.hard_edges.contains(&(wd, wf)));
    }

    #[test]
    fn fences_restore_order() {
        let src = "global int data = 0; global int flag = 0; global int seen = -1; mutex m;
             fn writer() { data = 1; lock(m); unlock(m); flag = 1; }
             fn reader() { let f: int = flag; if (f == 1) { seen = data; } }
             fn main() {
                 let w: thread = fork writer(); let r: thread = fork reader();
                 join w; join r;
                 let s: int = seen;
                 assert(s == 0 - 1, \"reader saw flag\"); }";
        let (program, trace) = build_failure(src, MemModel::Pso, 6000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Pso);
        // data=1 → lock (fence) → flag=1 must be transitively ordered.
        let writer = &trace.per_thread[1];
        let wd = writer[0];
        let lock = writer[1];
        let wf = *writer.last().unwrap();
        assert!(sys.hard_edges.contains(&(wd, lock)));
        assert!(sys.hard_edges.contains(&(lock, wf)) || sys.hard_edges.contains(&(writer[2], wf)));
    }

    const CHAN_LOST_CLOSE: &str = "global int sum = 0;
         chan ch(1);
         fn producer() { send(ch, 5); send(ch, 7); }
         fn consumer() {
             let a: int = recv(ch);
             let b: int = recv(ch);
             sum = a + b;
         }
         fn main() {
             let p: thread = fork producer();
             let c: thread = fork consumer();
             close(ch);
             join p; join c;
             assert(sum == 12, \"lost send\");
         }";

    #[test]
    fn recv_constraints_list_sends_and_closes() {
        let (program, trace) = build_failure(CHAN_LOST_CLOSE, MemModel::Sc, 2000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        // Every completed recv gets a row; each row's candidates are
        // exactly the trace's sends on that channel, and the close SAP
        // enables the drained `-1` outcome.
        assert!(!sys.recvs.is_empty(), "completed recvs must produce rows");
        for rc in &sys.recvs {
            assert!(matches!(trace.sap(rc.recv).kind, SapKind::Recv { .. }));
            for &s in &rc.sends {
                assert!(matches!(
                    trace.sap(s).kind,
                    SapKind::Send { .. } | SapKind::TrySend { .. }
                ));
            }
            assert_eq!(rc.closes.len(), 1, "one close in the program");
            assert!(matches!(
                trace.sap(rc.closes[0]).kind,
                SapKind::ChanClose(_)
            ));
        }
    }

    #[test]
    fn mailbox_recvs_match_only_their_targeted_sends() {
        let src = "global int got = 0;
             fn act() {
                 let a: int = mailbox_recv();
                 got = a;
             }
             fn main() {
                 let h: thread = spawn_actor act();
                 mailbox_send(h, 3);
                 let snap: int = got;
                 join h;
                 assert(snap == 3, \"actor raced main\");
             }";
        let (program, trace) = build_failure(src, MemModel::Sc, 2000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let rows: Vec<_> = sys
            .recvs
            .iter()
            .filter(|rc| matches!(trace.sap(rc.recv).kind, SapKind::MailboxRecv { .. }))
            .collect();
        assert!(
            !rows.is_empty(),
            "completed mailbox recv must produce a row"
        );
        for rc in rows {
            let me = trace.sap(rc.recv).thread;
            assert!(rc.closes.is_empty(), "mailboxes have no close");
            assert!(!rc.sends.is_empty());
            for &s in &rc.sends {
                let SapKind::MailboxSend { target, .. } = trace.sap(s).kind else {
                    panic!("mailbox candidates must be mailbox sends");
                };
                assert_eq!(target, me, "candidate targets the receiving actor");
            }
        }
    }

    #[test]
    fn fifo_capacity_edges_for_untainted_two_thread_channel() {
        // One sending thread, one receiving thread, blocking ops only,
        // never closed: the k-th send must precede the k-th recv, and
        // the (k+cap)-th send must follow the k-th recv.
        let src = "global int sum = 0; global int x = 0;
             chan ch(1);
             fn producer() { send(ch, 5); send(ch, 7); x = 1; }
             fn consumer() {
                 let a: int = recv(ch);
                 let b: int = recv(ch);
                 sum = a + b;
             }
             fn main() {
                 let p: thread = fork producer();
                 let c: thread = fork consumer();
                 join p; join c;
                 let r: int = x;
                 assert(sum == 12 && r == 0, \"always fails: x is 1\");
             }";
        let (program, trace) = build_failure(src, MemModel::Sc, 2000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let sends: Vec<SapId> = trace
            .saps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SapKind::Send { .. }))
            .map(|(i, _)| SapId(i as u32))
            .collect();
        let recvs: Vec<SapId> = trace
            .saps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SapKind::Recv { .. }))
            .map(|(i, _)| SapId(i as u32))
            .collect();
        assert_eq!((sends.len(), recvs.len()), (2, 2));
        assert!(sys.hard_edges.contains(&(sends[0], recvs[0])));
        assert!(sys.hard_edges.contains(&(sends[1], recvs[1])));
        // cap 1: the second send needs the first recv's slot.
        assert!(sys.hard_edges.contains(&(recvs[0], sends[1])));
    }

    #[test]
    fn closed_channels_get_no_fifo_edges() {
        // The close taints the static FIFO analysis: a recv may drain
        // `-1` instead of pairing with a send, so no forced edges.
        let (program, trace) = build_failure(CHAN_LOST_CLOSE, MemModel::Sc, 2000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let sends: Vec<SapId> = trace
            .saps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SapKind::Send { .. }))
            .map(|(i, _)| SapId(i as u32))
            .collect();
        let recvs: Vec<SapId> = trace
            .saps
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SapKind::Recv { .. }))
            .map(|(i, _)| SapId(i as u32))
            .collect();
        for &s in &sends {
            for &r in &recvs {
                assert!(!sys.hard_edges.contains(&(s, r)), "no forced send→recv");
                assert!(!sys.hard_edges.contains(&(r, s)), "no forced recv→send");
            }
        }
    }
}

/// Errors when a recorded synchronization order does not match the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncOrderMismatch(pub String);

impl std::fmt::Display for SyncOrderMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sync-order log mismatch: {}", self.0)
    }
}

impl std::error::Error for SyncOrderMismatch {}

impl<'t> ConstraintSystem<'t> {
    /// Applies a recorded synchronization order (the §6.4 variant): each
    /// object's observed operation sequence becomes a chain of hard
    /// edges, collapsing the quadratic locking and wait/signal matching
    /// search to the recorded resolution. Returns the number of edges
    /// added.
    ///
    /// # Errors
    ///
    /// Returns [`SyncOrderMismatch`] when a logged `(lineage, po)` pair
    /// does not name a SAP of the trace (artifacts from different runs).
    pub fn apply_sync_order(
        &mut self,
        log: &clap_profile_sync::SyncOrderLog,
    ) -> Result<usize, SyncOrderMismatch> {
        use std::collections::HashMap as Map;
        let lineage_to_thread: Map<String, usize> = self
            .trace
            .lineages
            .iter()
            .enumerate()
            .map(|(i, l)| (l.to_string(), i))
            .collect();
        let resolve = |r: &clap_profile_sync::SapRef| -> Result<SapId, SyncOrderMismatch> {
            let t = *lineage_to_thread
                .get(&r.lineage.to_string())
                .ok_or_else(|| SyncOrderMismatch(format!("unknown thread {}", r.lineage)))?;
            self.trace.per_thread[t]
                .get(r.po as usize)
                .copied()
                .ok_or_else(|| {
                    SyncOrderMismatch(format!("thread {} has no SAP #{}", r.lineage, r.po))
                })
        };
        let mut added = 0usize;
        let mut objects: Vec<_> = log.orders.iter().collect();
        objects.sort_by_key(|(o, _)| **o);
        for (_, refs) in objects {
            for w in refs.windows(2) {
                let a = resolve(&w[0])?;
                let b = resolve(&w[1])?;
                self.hard_edges.push((a, b));
                added += 1;
            }
        }
        Ok(added)
    }
}
