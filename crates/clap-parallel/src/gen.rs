//! Preemption-bounded schedule generation (§4.3).
//!
//! A candidate schedule is produced by running one thread at a time over
//! its remaining SAPs (respecting the hard memory-order / fork-join edges,
//! which generalizes the paper's per-thread stacks for SC and SAP-trees
//! for TSO/PSO), switching threads only
//!
//! * at a **context-switch point** (CSP) `(t1, k, t2)` — "thread `t1` is
//!   preempted immediately before its `k`-th SAP and `t2` runs instead" —
//!   taken from the enumerated CSP set, or
//! * **non-preemptively**, when the current thread has nothing ready
//!   (blocked on a cross-thread edge, a wait with no signal yet, or
//!   exhausted); these do not count toward the preemption bound.
//!
//! Enumerating CSP sets by increasing size and exhausting each size before
//! the next makes the first validated schedule one with the **minimal**
//! number of preemptions.

use clap_constraints::ConstraintSystem;
use clap_ir::Program;
use clap_symex::{ExprId, SapId, SapKind, SymAddr, SymTrace, SymVarId};

/// One context-switch point: before `t1`'s `k`-th SAP (1-based), switch to
/// `t2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Csp {
    /// The preempted thread.
    pub t1: u32,
    /// 1-based index of the SAP of `t1` about to be preempted.
    pub k: u32,
    /// The thread that takes over.
    pub t2: u32,
}

/// Generates schedules for one CSP set, invoking `emit` per schedule.
/// `emit` returns `false` to stop the enumeration early.
pub struct Generator<'a, 't> {
    sys: &'a ConstraintSystem<'t>,
    /// Hard-edge successors (by SAP index).
    succ: Vec<Vec<u32>>,
    /// Remaining in-degree per SAP.
    indeg: Vec<u32>,
    /// Thread index per SAP.
    thread_of: Vec<u32>,
    /// Per thread: SAPs not yet emitted whose in-degree is zero (ready,
    /// unless a wait is not yet wake-up-feasible).
    unblocked: Vec<u32>,
    /// Per thread: whether it has a wait completion, the one SAP kind
    /// whose readiness needs more than its in-degree.
    has_wait: Vec<bool>,
    /// Per thread: SAPs in program order and how many were emitted.
    emitted: Vec<u32>,
    /// Per SAP: its row in `sys.waits` when it is a wait completion,
    /// whose signals and broadcasts are its wake-up candidates.
    wait_row: Vec<Option<u32>>,
    /// Whether each SAP has been emitted.
    done: Vec<bool>,
    /// Per-CSP "already fired" flags for the current run.
    csp_used: Vec<bool>,
    order: Vec<SapId>,
    generated: u64,
    budget: u64,
    /// DFS nodes visited (emit attempts); the work-based budget that
    /// bounds pruned searches which rarely complete a schedule.
    nodes: u64,
    node_budget: u64,
    deadline: Option<std::time::Instant>,
    out_of_budget: bool,
    /// Prefix pruning: abandon a partial schedule the moment a path
    /// condition, lock, channel or mailbox rule is violated (massive
    /// search-space cut; the final validator remains the arbiter).
    prune: Option<PruneState<'a>>,
}

/// A message queue as the validator sees it at the end of the prefix:
/// one per channel, then one mailbox per thread.
#[derive(Debug, Clone, Copy, Default)]
struct Queue {
    /// Messages queued; meaningless once `unknown`.
    len: u32,
    closed: bool,
    /// The length depends on SAPs after the prefix: a capacity-0
    /// `try_send` into an empty slot succeeds only if a receiver is
    /// positioned next, which the validator decides from later SAPs.
    unknown: bool,
}

/// One undoable change to the prune state, newest last on the trail.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// A variable was assigned.
    Assign(u32),
    /// A memory cell held this value (`None`: unknown).
    Cell(u32, Option<i64>),
    /// A path condition lost one unassigned variable.
    Cond(u32),
    /// A mutex had this owner.
    Owner(u32, Option<u32>),
    /// A message queue was in this state.
    Queue(u32, Queue),
}

/// Incremental evaluation state for prefix pruning: what the validator
/// knows after walking the prefix, as far as the prefix determines it.
struct PruneState<'p> {
    program: &'p Program,
    /// Concrete value per symbolic variable (assigned when its read is
    /// emitted).
    assignment: Vec<Option<i64>>,
    /// Concrete memory image, one slot per cell of every global (a
    /// global's cells start at `cell_base`); `None` marks an unknown
    /// (unevaluable) value.
    memory: Vec<Option<i64>>,
    cell_base: Vec<u32>,
    /// Per path condition: how many of its variables are unassigned.
    cond_remaining: Vec<u32>,
    /// var -> path conditions that mention it.
    var_conds: Vec<Vec<u32>>,
    /// Mutex owner (thread index) by mutex id.
    owner: Vec<Option<u32>>,
    /// Channel queues, then per-thread mailboxes.
    queues: Vec<Queue>,
    trail: Vec<Undo>,
}

impl<'p> PruneState<'p> {
    fn new(program: &'p Program, trace: &SymTrace) -> Self {
        let mut var_conds = vec![Vec::new(); trace.sym_vars.len()];
        let mut cond_remaining = Vec::with_capacity(trace.path_conds.len());
        for (ci, pc) in trace.path_conds.iter().enumerate() {
            let vars = trace.arena.vars(pc.expr);
            cond_remaining.push(vars.len() as u32);
            for v in vars {
                var_conds[v.index()].push(ci as u32);
            }
        }
        let mut memory = Vec::new();
        let mut cell_base = Vec::with_capacity(program.globals.len());
        for (g, decl) in program.globals.iter().enumerate() {
            cell_base.push(memory.len() as u32);
            let init = SymTrace::init_value(program, clap_ir::GlobalId(g as u32));
            memory.resize(memory.len() + decl.cells(), Some(init));
        }
        PruneState {
            program,
            assignment: vec![None; trace.sym_vars.len()],
            memory,
            cell_base,
            cond_remaining,
            var_conds,
            owner: vec![None; program.mutexes.len()],
            queues: vec![Queue::default(); program.chans.len() + trace.thread_count()],
            trail: Vec::new(),
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("prune trail") {
                Undo::Assign(v) => self.assignment[v as usize] = None,
                Undo::Cell(c, prev) => self.memory[c as usize] = prev,
                Undo::Cond(ci) => self.cond_remaining[ci as usize] += 1,
                Undo::Owner(m, prev) => self.owner[m as usize] = prev,
                Undo::Queue(q, prev) => self.queues[q as usize] = prev,
            }
        }
    }

    fn eval(&self, trace: &SymTrace, e: ExprId) -> Option<i64> {
        let a = &self.assignment;
        trace.arena.eval(e, &|v: SymVarId| a[v.index()])
    }

    /// The memory slot `addr` names: `Ok(None)` when its index is not
    /// evaluable yet, `Err(())` when it is out of bounds (the validator
    /// rejects the SAP as a bad address).
    fn cell(&self, trace: &SymTrace, addr: SymAddr) -> Result<Option<u32>, ()> {
        let idx = match addr.index {
            None => 0,
            Some(e) => match self.eval(trace, e) {
                Some(idx) => idx,
                None => return Ok(None),
            },
        };
        let cells = self.program.globals[addr.global.index()].cells() as i64;
        if idx < 0 || idx >= cells {
            return Err(());
        }
        Ok(Some(self.cell_base[addr.global.index()] + idx as u32))
    }

    fn write_cell(&mut self, cell: u32, value: Option<i64>) {
        let prev = std::mem::replace(&mut self.memory[cell as usize], value);
        self.trail.push(Undo::Cell(cell, prev));
    }

    /// A store whose index is not evaluable may hit any cell of its
    /// global, so every one of them becomes unknown.
    fn forget_global(&mut self, global: clap_ir::GlobalId) {
        let base = self.cell_base[global.index()];
        for c in base..base + self.program.globals[global.index()].cells() as u32 {
            self.write_cell(c, None);
        }
    }

    fn assign(&mut self, trace: &SymTrace, var: u32, value: i64) -> bool {
        debug_assert!(self.assignment[var as usize].is_none());
        self.assignment[var as usize] = Some(value);
        self.trail.push(Undo::Assign(var));
        // Path conditions whose last variable just grounded can now veto.
        for i in 0..self.var_conds[var as usize].len() {
            let ci = self.var_conds[var as usize][i];
            self.cond_remaining[ci as usize] -= 1;
            self.trail.push(Undo::Cond(ci));
            if self.cond_remaining[ci as usize] == 0
                && self.eval(trace, trace.path_conds[ci as usize].expr) == Some(0)
            {
                return false;
            }
        }
        true
    }

    /// Changes queue `q` through `f`, keeping its old state on the trail.
    fn update_queue(&mut self, q: usize, f: impl FnOnce(&mut Queue)) {
        let prev = self.queues[q];
        f(&mut self.queues[q]);
        self.trail.push(Undo::Queue(q as u32, prev));
    }

    /// The queue index of `thread`'s mailbox.
    fn mailbox(&self, thread: u32) -> usize {
        self.program.chans.len() + thread as usize
    }

    /// A blocking receive (`recv`, or `mailbox_recv` on a mailbox that
    /// never closes): the validator rejects it on an open empty queue.
    fn recv(&mut self, q: usize) -> bool {
        let queue = self.queues[q];
        if queue.unknown {
            true
        } else if queue.len > 0 {
            self.update_queue(q, |queue| queue.len -= 1);
            true
        } else {
            queue.closed
        }
    }

    /// A blocking channel send: rejected on a full buffer or an occupied
    /// rendezvous slot; a send on a closed channel drops its value.
    fn send(&mut self, chan: usize) -> bool {
        let queue = self.queues[chan];
        if queue.unknown || queue.closed {
            return true;
        }
        // A full buffer, or at capacity 0 an occupied rendezvous slot.
        if queue.len >= (self.program.chans[chan].cap as u32).max(1) {
            return false;
        }
        self.update_queue(chan, |queue| queue.len += 1);
        true
    }

    /// A `try_send` never fails validation; it enqueues only when there
    /// is room, and into an empty rendezvous slot only when a receiver is
    /// positioned next, which later SAPs decide.
    fn try_send(&mut self, chan: usize) {
        let queue = self.queues[chan];
        if queue.unknown || queue.closed {
            return;
        }
        let cap = self.program.chans[chan].cap as u32;
        if cap == 0 && queue.len == 0 {
            self.update_queue(chan, |queue| queue.unknown = true);
        } else if queue.len < cap {
            self.update_queue(chan, |queue| queue.len += 1);
        }
    }

    /// A `try_recv` takes a message if there is one; it never fails.
    fn try_recv(&mut self, chan: usize) {
        let queue = self.queues[chan];
        if !queue.unknown && queue.len > 0 {
            self.update_queue(chan, |queue| queue.len -= 1);
        }
    }
}

impl<'a, 't> Generator<'a, 't> {
    /// Creates a generator over the constraint system with prefix pruning
    /// enabled. `budget` caps the number of schedules emitted across all
    /// calls (0 = unlimited).
    pub fn new(program: &'a Program, sys: &'a ConstraintSystem<'t>, budget: u64) -> Self {
        let mut generator = Self::without_pruning(sys, budget);
        generator.prune = Some(PruneState::new(program, sys.trace));
        generator
    }

    /// Creates a generator that enumerates blindly (the paper's plain
    /// generate-then-validate split). Its users are the property tests,
    /// which hold the pruned generator to it, and `bench_pipeline`'s
    /// `pruning_off` row.
    pub fn without_pruning(sys: &'a ConstraintSystem<'t>, budget: u64) -> Self {
        let n = sys.trace.sap_count();
        let mut succ = vec![Vec::new(); n];
        let mut indeg = vec![0u32; n];
        for &(a, b) in &sys.hard_edges {
            succ[a.index()].push(b.0);
            indeg[b.index()] += 1;
        }
        let threads = sys.trace.thread_count();
        let thread_of: Vec<u32> = sys.trace.saps.iter().map(|sap| sap.thread.0).collect();
        let mut unblocked = vec![0; threads];
        for (s, &t) in thread_of.iter().enumerate() {
            if indeg[s] == 0 {
                unblocked[t as usize] += 1;
            }
        }
        let mut wait_row = vec![None; n];
        let mut has_wait = vec![false; threads];
        for (row, w) in sys.waits.iter().enumerate() {
            wait_row[w.wait.index()] = Some(row as u32);
            has_wait[thread_of[w.wait.index()] as usize] = true;
        }
        Generator {
            sys,
            succ,
            indeg,
            thread_of,
            unblocked,
            has_wait,
            emitted: vec![0; sys.trace.thread_count()],
            wait_row,
            done: vec![false; n],
            csp_used: Vec::new(),
            order: Vec::with_capacity(n),
            generated: 0,
            budget,
            nodes: 0,
            node_budget: 0,
            deadline: None,
            out_of_budget: false,
            prune: None,
        }
    }

    /// Caps the number of DFS nodes explored (0 = unlimited).
    pub fn set_node_budget(&mut self, nodes: u64) {
        self.node_budget = nodes;
    }

    /// Sets a wall-clock deadline checked periodically during the DFS.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// `true` when a node budget or deadline stopped the last run early.
    pub fn hit_budget(&self) -> bool {
        self.out_of_budget
    }

    /// Number of schedules generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Runs the enumeration for one CSP set. Returns `false` when `emit`
    /// asked to stop or the budget ran out.
    pub fn run(&mut self, csps: &[Csp], emit: &mut impl FnMut(&[SapId]) -> bool) -> bool {
        debug_assert!(self.order.is_empty());
        // Each CSP fires at most once.
        self.csp_used.clear();
        self.csp_used.resize(csps.len(), false);
        self.dfs(0, csps, emit)
    }

    /// Whether SAP `s` is ready (all hard predecessors done) and
    /// wake-up-feasible.
    fn is_ready(&self, s: u32) -> bool {
        !self.done[s as usize] && self.indeg[s as usize] == 0 && self.wake_feasible(s)
    }

    /// Whether `thread` has a ready SAP.
    fn has_ready(&self, thread: u32) -> bool {
        let t = thread as usize;
        self.unblocked[t] > 0
            && (!self.has_wait[t]
                || self.sys.trace.per_thread[t]
                    .iter()
                    .any(|s| self.is_ready(s.0)))
    }

    /// A wait completion is only emittable once a candidate signal or
    /// broadcast is already in the schedule (cheap necessary condition;
    /// the validator enforces exact matching).
    fn wake_feasible(&self, s: u32) -> bool {
        match self.wait_row[s as usize] {
            None => true,
            Some(row) => {
                let w = &self.sys.waits[row as usize];
                w.signals
                    .iter()
                    .chain(&w.broadcasts)
                    .any(|c| self.done[c.index()])
            }
        }
    }

    /// Emits a SAP; returns the pruning-trail mark and whether the
    /// prefix is still viable (on `false` the caller must retract).
    fn emit_sap(&mut self, s: u32) -> (usize, bool) {
        self.done[s as usize] = true;
        self.order.push(SapId(s));
        let t = self.thread_of[s as usize];
        self.emitted[t as usize] += 1;
        self.unblocked[t as usize] -= 1;
        for i in 0..self.succ[s as usize].len() {
            let y = self.succ[s as usize][i] as usize;
            self.indeg[y] -= 1;
            if self.indeg[y] == 0 {
                self.unblocked[self.thread_of[y] as usize] += 1;
            }
        }
        let Some(prune) = self.prune.as_mut() else {
            return (0, true);
        };
        let mark = prune.trail.len();
        let trace = self.sys.trace;
        let ok = match trace.sap(SapId(s)).kind {
            SapKind::Read { addr, var } => match prune.cell(trace, addr) {
                Ok(Some(c)) => match prune.memory[c as usize] {
                    Some(v) => prune.assign(trace, var.0, v),
                    None => true, // unknown value: cannot prune
                },
                Ok(None) => true,
                Err(()) => false,
            },
            SapKind::Write { addr, value } => match prune.cell(trace, addr) {
                Ok(Some(c)) => {
                    let v = prune.eval(trace, value);
                    prune.write_cell(c, v);
                    true
                }
                Ok(None) => {
                    prune.forget_global(addr.global);
                    true
                }
                Err(()) => false,
            },
            SapKind::Lock(m) | SapKind::Wait { mutex: m, .. } => {
                if prune.owner[m.index()].is_none() {
                    prune.owner[m.index()] = Some(t);
                    prune.trail.push(Undo::Owner(m.0, None));
                    true
                } else {
                    false // mutex already held: illegal prefix
                }
            }
            SapKind::Unlock(m) => {
                if prune.owner[m.index()] == Some(t) {
                    prune.owner[m.index()] = None;
                    prune.trail.push(Undo::Owner(m.0, Some(t)));
                    true
                } else {
                    false
                }
            }
            // Queue lengths evolve exactly as in the validator's walk, so
            // a rule it checks at the SAP's own position can end the
            // prefix here. The rendezvous "positioned receiver" rule
            // looks at later SAPs and stays with the validator.
            SapKind::Send { chan, .. } => prune.send(chan.index()),
            SapKind::Recv { chan, .. } => prune.recv(chan.index()),
            SapKind::TrySend { chan, .. } => {
                prune.try_send(chan.index());
                true
            }
            SapKind::TryRecv { chan, .. } => {
                prune.try_recv(chan.index());
                true
            }
            SapKind::ChanClose(chan) => {
                prune.update_queue(chan.index(), |queue| queue.closed = true);
                true
            }
            SapKind::MailboxSend { target, .. } => {
                prune.update_queue(prune.mailbox(target.0), |queue| queue.len += 1);
                true
            }
            SapKind::MailboxRecv { .. } => prune.recv(prune.mailbox(t)),
            // Atomics are scalar cells: in the total-order model a SAP's
            // position is its commit, so the cell image evolves exactly
            // like the validator's.
            SapKind::AtomicLoad { global, var, .. } => {
                match prune.memory[prune.cell_base[global.index()] as usize] {
                    Some(v) => prune.assign(trace, var.0, v),
                    None => true,
                }
            }
            SapKind::AtomicStore { global, value, .. } => {
                let v = prune.eval(trace, value);
                prune.write_cell(prune.cell_base[global.index()], v);
                true
            }
            SapKind::AtomicRmw {
                global, var, value, ..
            }
            | SapKind::AtomicCas {
                global, var, value, ..
            } => {
                // Indivisible read-modify-write: ground the old value,
                // then commit the written expression.
                let c = prune.cell_base[global.index()];
                match prune.memory[c as usize] {
                    Some(old) => {
                        let ok = prune.assign(trace, var.0, old);
                        let v = prune.eval(trace, value);
                        prune.write_cell(c, v);
                        ok
                    }
                    None => {
                        prune.write_cell(c, None);
                        true
                    }
                }
            }
            SapKind::Fork { .. }
            | SapKind::Join { .. }
            | SapKind::SpawnActor { .. }
            | SapKind::Signal(_)
            | SapKind::Broadcast(_) => true,
        };
        (mark, ok)
    }

    fn retract_sap(&mut self, s: u32, mark: usize) {
        if let Some(prune) = self.prune.as_mut() {
            prune.undo_to(mark);
        }
        for i in 0..self.succ[s as usize].len() {
            let y = self.succ[s as usize][i] as usize;
            if self.indeg[y] == 0 {
                self.unblocked[self.thread_of[y] as usize] -= 1;
            }
            self.indeg[y] += 1;
        }
        let t = self.thread_of[s as usize];
        self.unblocked[t as usize] += 1;
        self.emitted[t as usize] -= 1;
        self.order.pop();
        self.done[s as usize] = false;
    }

    /// Runs thread `cur` greedily, branching at choice points. Returns
    /// `false` to abort the whole enumeration.
    ///
    /// Every branch leaves the state as it found it, so the choices at a
    /// node are read off the state as the loop reaches them, with no
    /// list built per node.
    fn dfs(&mut self, cur: u32, csps: &[Csp], emit: &mut impl FnMut(&[SapId]) -> bool) -> bool {
        if self.order.len() == self.done.len() {
            self.generated += 1;
            let keep_going = emit(&self.order);
            let in_budget = self.budget == 0 || self.generated < self.budget;
            return keep_going && in_budget;
        }
        // A pending CSP preempts the current thread before its next SAP,
        // firing at most once. A set holds a handful of CSPs with distinct
        // points, so a scan finds the one at this point.
        let next_k = self.emitted[cur as usize] + 1;
        if let Some(idx) = csps.iter().position(|c| c.t1 == cur && c.k == next_k) {
            // Only a real preemption: the thread must actually have a
            // ready SAP to be preempted from.
            if !self.csp_used[idx] && self.has_ready(cur) {
                self.csp_used[idx] = true;
                let cont = self.switch_to(csps[idx].t2, csps, emit);
                self.csp_used[idx] = false;
                return cont;
            }
        }
        if !self.has_ready(cur) {
            // Non-preemptive switch: branch over all threads with work.
            // None at all is a dead end (e.g. a wait with no emitted
            // signal yet whose signaller is itself blocked by a CSP
            // mid-state).
            for t in 0..self.sys.trace.thread_count() as u32 {
                if t != cur && self.has_ready(t) && !self.dfs(t, csps, emit) {
                    return false;
                }
            }
            return true;
        }
        // Branch over the thread's ready SAPs (a chain under SC — single
        // choice; a DAG frontier under TSO/PSO — the paper's SAP-tree).
        let sys = self.sys;
        let mut unblocked = self.unblocked[cur as usize];
        for &SapId(s) in &sys.trace.per_thread[cur as usize] {
            if unblocked == 0 {
                break; // no ready SAP left further on
            }
            if self.done[s as usize] || self.indeg[s as usize] > 0 {
                continue;
            }
            unblocked -= 1;
            if !self.wake_feasible(s) {
                continue;
            }
            self.nodes += 1;
            if self.node_budget > 0 && self.nodes >= self.node_budget {
                self.out_of_budget = true;
                return false;
            }
            if self.nodes.is_multiple_of(8192) {
                if let Some(d) = self.deadline {
                    if std::time::Instant::now() >= d {
                        self.out_of_budget = true;
                        return false;
                    }
                }
            }
            let (mark, viable) = self.emit_sap(s);
            let cont = if viable {
                self.dfs(cur, csps, emit)
            } else {
                true
            };
            self.retract_sap(s, mark);
            if !cont {
                return false;
            }
        }
        true
    }

    fn switch_to(
        &mut self,
        t2: u32,
        csps: &[Csp],
        emit: &mut impl FnMut(&[SapId]) -> bool,
    ) -> bool {
        if !self.has_ready(t2) {
            // The CSP's target cannot run here: prune this branch.
            return true;
        }
        self.dfs(t2, csps, emit)
    }
}

/// The CSP universe of a trace: preemption points before each SAP of each
/// thread, paired with every possible takeover thread. Preempting before a
/// thread's first SAP or before a must-interleave operation adds nothing
/// (those switches are free), so `k` is restricted to 2..=len at SAPs that
/// are not must-interleave.
pub fn csp_universe(sys: &ConstraintSystem<'_>) -> Vec<Csp> {
    let threads = sys.trace.thread_count() as u32;
    let mut universe = Vec::new();
    for (ti, saps) in sys.trace.per_thread.iter().enumerate() {
        for (pos, &s) in saps.iter().enumerate() {
            let k = pos as u32 + 1;
            if k == 1 {
                continue;
            }
            if matches!(
                sys.trace.sap(s).kind,
                SapKind::Wait { .. } | SapKind::Join { .. }
            ) {
                continue;
            }
            for t2 in 0..threads {
                if t2 as usize != ti {
                    universe.push(Csp {
                        t1: ti as u32,
                        k,
                        t2,
                    });
                }
            }
        }
    }
    universe
}

/// Number of distinct `(t1, k)` preemption points in the CSP universe.
///
/// A CSP set places at most one preemption per point, so enumerating every
/// set size up to this count covers **all** preemption placements: a
/// preemption-bounded search whose bound reaches this value (and whose
/// per-level caps never fired) is a complete search of the schedule space.
pub fn preemption_point_count(sys: &ConstraintSystem<'_>) -> usize {
    let mut points = std::collections::HashSet::new();
    for c in csp_universe(sys) {
        points.insert((c.t1, c.k));
    }
    points.len()
}

/// Enumerates CSP sets of exactly `size` over the universe of feasible
/// CSPs, calling `f` per set. CSPs within a set have distinct `(t1, k)`
/// preemption points. `f` returns `false` to stop.
pub fn for_each_csp_set(
    sys: &ConstraintSystem<'_>,
    size: usize,
    max_sets: u64,
    f: &mut impl FnMut(&[Csp]) -> bool,
) -> bool {
    let universe = csp_universe(sys);
    if size == 0 {
        return f(&[]);
    }
    let mut count = 0u64;
    let mut acc: Vec<Csp> = Vec::with_capacity(size);
    fn rec(
        universe: &[Csp],
        start: usize,
        size: usize,
        acc: &mut Vec<Csp>,
        count: &mut u64,
        max_sets: u64,
        f: &mut impl FnMut(&[Csp]) -> bool,
    ) -> bool {
        if acc.len() == size {
            *count += 1;
            if !f(acc) {
                return false;
            }
            return max_sets == 0 || *count < max_sets;
        }
        for i in start..universe.len() {
            let c = universe[i];
            if acc.iter().any(|p| p.t1 == c.t1 && p.k == c.k) {
                continue; // one preemption per point
            }
            acc.push(c);
            let cont = rec(universe, i + 1, size, acc, count, max_sets, f);
            acc.pop();
            if !cont {
                return false;
            }
        }
        true
    }
    rec(&universe, 0, size, &mut acc, &mut count, max_sets, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::build_failure;
    use clap_constraints::{validate, ConstraintSystem, Schedule};
    use clap_vm::MemModel;

    const LOST_UPDATE: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    #[test]
    fn zero_csp_schedules_respect_hard_edges() {
        let (program, trace) = build_failure(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let mut gen = Generator::new(&program, &sys, 0);
        let mut all = Vec::new();
        gen.run(&[], &mut |order| {
            all.push(order.to_vec());
            true
        });
        assert!(!all.is_empty());
        for order in &all {
            let s = Schedule::new(order.clone(), &trace);
            assert!(sys.respects_hard_edges(&s));
            // With zero preemptions each worker runs atomically, so the
            // lost update cannot manifest.
            assert!(validate(&program, &sys, &s).is_err());
        }
    }

    #[test]
    fn one_preemption_reproduces_lost_update() {
        let (program, trace) = build_failure(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let mut found = None;
        for_each_csp_set(&sys, 1, 0, &mut |set| {
            let mut gen = Generator::new(&program, &sys, 0);
            let mut keep = true;
            gen.run(set, &mut |order| {
                let s = Schedule::new(order.to_vec(), &trace);
                if validate(&program, &sys, &s).is_ok() {
                    found = Some((set.to_vec(), s));
                    keep = false;
                }
                keep
            });
            keep
        });
        let (set, schedule) = found.expect("one preemption suffices");
        assert_eq!(set.len(), 1);
        assert_eq!(schedule.context_switches(&trace), 1);
    }

    #[test]
    fn csp_sets_have_distinct_points() {
        let (program, trace) = build_failure(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let mut seen = 0u64;
        for_each_csp_set(&sys, 2, 500, &mut |set| {
            assert_eq!(set.len(), 2);
            assert!(!(set[0].t1 == set[1].t1 && set[0].k == set[1].k));
            seen += 1;
            true
        });
        assert!(seen > 0);
    }

    /// The schedules `validate` accepts among every candidate of rungs
    /// 0..=1, in generation order.
    fn accepted(program: &Program, sys: &ConstraintSystem<'_>, pruned: bool) -> Vec<Schedule> {
        let mut good = Vec::new();
        for c in 0..=1 {
            let mut gen = if pruned {
                Generator::new(program, sys, 0)
            } else {
                Generator::without_pruning(sys, 0)
            };
            for_each_csp_set(sys, c, 0, &mut |set| {
                gen.run(set, &mut |order| {
                    let s = Schedule::new(order.to_vec(), sys.trace);
                    if validate(program, sys, &s).is_ok() {
                        good.push(s);
                    }
                    true
                })
            });
        }
        good
    }

    #[test]
    fn a_store_at_an_unknown_index_forgets_its_array() {
        // `w` stores through an index it received, which no prefix can
        // evaluate. Were main's read of a[0] ground to the initial value,
        // the path condition `x == 1` would prune every schedule that
        // reproduces the failure.
        let src = "global int a[2]; chan c(1);
             fn w() { let v: int = recv(c); a[v] = 1; }
             fn main() { let t: thread = fork w(); send(c, 0);
                         let x: int = a[0];
                         if (x == 1) { assert(x == 0, \"saw the store\"); }
                         join t; }";
        let (program, trace) = build_failure(src, MemModel::Sc, 2000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let pruned = accepted(&program, &sys, true);
        assert!(!pruned.is_empty(), "the failure reproduces");
        assert_eq!(pruned, accepted(&program, &sys, false));
    }

    #[test]
    fn generator_budget_stops_enumeration() {
        let (program, trace) = build_failure(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let mut gen = Generator::new(&program, &sys, 2);
        let mut n = 0;
        gen.run(&[], &mut |_| {
            n += 1;
            true
        });
        assert!(gen.generated() <= 2);
        assert_eq!(n as u64, gen.generated());
        let _ = program;
    }
}
