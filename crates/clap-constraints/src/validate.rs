//! Schedule validation: "validation is evaluation".
//!
//! Given a *total order* over the SAPs, everything else about the
//! execution is determined: each read observes the most recent write to
//! its cell, so the symbolic variables get concrete values, so the path
//! conditions and the bug predicate can simply be evaluated, and lock /
//! wait legality can be simulated in one pass. This is the cheap
//! per-candidate check of the §4.3 generate-and-validate search.
//!
//! The pass is a [`Walk`]: it applies one SAP at a time and keeps an undo
//! trail. [`validate`] walks a whole order; the schedule generator walks
//! its prefixes with the same rules and drops a prefix at the SAP where
//! the walk rejects it. A prefix does not show the SAPs after it, and one
//! rule needs them: a capacity-0 send completes only when a receiver is
//! positioned next. On a prefix that rule is unknown, and so are the
//! outcome of a capacity-0 `try_send`, every value that depends on it,
//! and the cells and queues that hold such values. An unknown never
//! rejects, so the walk rejects a prefix only where the validator rejects
//! every completion of it.
//!
//! Once the generator's walk has placed a whole candidate, it holds what
//! [`validate`] would: [`Walk::verdict`] evaluates the rest and builds
//! the witness. A walk that bound an unknown cannot decide, nor can one
//! over a trace that sends on a capacity-0 channel, since it assumed the
//! rendezvous completes; such a candidate is validated from scratch.

use crate::schedule::Schedule;
use crate::system::{ConstraintSystem, ReadSource};
use clap_ir::{ChanId, GlobalId, MutexId, Program};
use clap_symex::{ExprId, SapId, SapKind, SymAddr, SymTrace, SymVarId, ThreadIdx};
use std::collections::VecDeque;
use std::fmt;

/// Why a candidate schedule is infeasible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A hard memory-order / fork-join edge is violated.
    OrderViolation {
        /// The edge's source.
        before: SapId,
        /// The edge's target (scheduled too early).
        after: SapId,
    },
    /// A mutex operation is illegal at its position.
    LockViolation {
        /// The offending SAP.
        sap: SapId,
        /// Description.
        reason: &'static str,
    },
    /// A wait completion has no signal/broadcast to consume.
    UnmatchedWait {
        /// The wait-completion SAP.
        wait: SapId,
    },
    /// A channel or mailbox operation is illegal at its position.
    ChannelViolation {
        /// The offending SAP.
        sap: SapId,
        /// Description.
        reason: &'static str,
    },
    /// An address expression evaluated out of bounds (or not at all).
    BadAddress {
        /// The offending SAP.
        sap: SapId,
    },
    /// A path condition evaluated to false.
    PathViolation {
        /// Index into the trace's path conditions.
        index: usize,
    },
    /// The bug predicate evaluated to false: the schedule is a legal
    /// execution but does not reproduce the failure.
    BugNotManifested,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::OrderViolation { before, after } => {
                write!(f, "order violation: {before} must precede {after}")
            }
            ValidationError::LockViolation { sap, reason } => {
                write!(f, "lock violation at {sap}: {reason}")
            }
            ValidationError::UnmatchedWait { wait } => write!(f, "unmatched wait {wait}"),
            ValidationError::ChannelViolation { sap, reason } => {
                write!(f, "channel violation at {sap}: {reason}")
            }
            ValidationError::BadAddress { sap } => write!(f, "bad address at {sap}"),
            ValidationError::PathViolation { index } => {
                write!(f, "path condition {index} violated")
            }
            ValidationError::BugNotManifested => write!(f, "bug not manifested"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// A validated schedule's explanation: concrete values and reads-from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Concrete value of every symbolic variable, indexed by
    /// [`clap_symex::SymVarId`].
    pub assignment: Vec<i64>,
    /// For every read SAP: where its value came from.
    pub reads_from: Vec<(SapId, ReadSource)>,
}

/// Validates `schedule` against the full constraint system.
///
/// # Errors
///
/// Returns the first [`ValidationError`] encountered; a `BugNotManifested`
/// error means the schedule is executable but boring.
pub fn validate(
    program: &Program,
    system: &ConstraintSystem<'_>,
    schedule: &Schedule,
) -> Result<Witness, ValidationError> {
    Walk::new(program, system).validate(&schedule.order)
}

/// The position of a SAP not placed yet.
const UNPLACED: u32 = u32::MAX;

/// A message queue: one per channel, then one mailbox per thread.
#[derive(Debug, Clone, Default)]
struct Queue {
    /// Queued values, oldest first; `None` is a value the walk left
    /// unknown.
    items: VecDeque<Option<i64>>,
    closed: bool,
    /// The contents depend on a capacity-0 `try_send` whose outcome the
    /// walk left unknown. Nothing touches `items` while it is set.
    unknown: bool,
}

/// One undoable change to the walk, newest last on the trail.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// An unlock, signal or broadcast was placed.
    Place(SapId),
    /// A variable was bound (to `None` when unknown).
    Assign(SymVarId),
    /// A memory cell held this value, written by this SAP.
    Cell(u32, Option<i64>, ReadSource),
    /// A mutex had this owner.
    Owner(MutexId, Option<ThreadIdx>),
    /// A signal woke a wait.
    Consume(SapId),
    /// A value joined the back of a queue.
    Enqueue(u32),
    /// This value left the front of a queue.
    Dequeue(u32, Option<i64>),
    /// A channel was closed; it had this flag before.
    Close(u32, bool),
    /// A channel's contents became unknown.
    Unknown(u32),
}

/// The validator's state after a prefix of a schedule: the memory image
/// and the writer of each cell, the assignment, mutex owners, the wait
/// parks and wake-ups, channel and mailbox queues with their values, and
/// reads-from. [`Walk::push`] places the next SAP and returns the
/// validator's own error at it; [`Walk::mark`] and [`Walk::undo_to`]
/// retract SAPs through one undo trail. See the module docs for what a
/// prefix leaves unknown.
#[derive(Debug)]
pub struct Walk<'a> {
    program: &'a Program,
    system: &'a ConstraintSystem<'a>,
    /// First memory cell of each global.
    cell_base: Vec<u32>,
    /// Per unlock, signal and broadcast: the trail's length when it was
    /// placed, or [`UNPLACED`]. Only their order matters: a wait's park is
    /// its release's, and a signal or broadcast after the park can wake
    /// it.
    pos: Vec<u32>,
    /// Per SAP: whether it is a signal that woke a wait.
    consumed: Vec<bool>,
    /// Per read SAP: the write it read from.
    source: Vec<ReadSource>,
    /// Value of each symbolic variable: `None` until bound, or when bound
    /// to an unknown value.
    assignment: Vec<Option<i64>>,
    /// Variables bound to an unknown value.
    unknown_vars: u32,
    /// Whether the trace sends on a capacity-0 channel, a send that a
    /// walk with no lookahead assumes completes; looked up by the first
    /// [`Walk::verdict`], so a walk that only validates never pays for it.
    rendezvous: Option<bool>,
    /// Per path condition: its variables not bound yet.
    cond_open: Vec<u32>,
    /// One slot per cell of every global; `None` is unknown.
    memory: Vec<Option<i64>>,
    /// The last write to each cell.
    writer: Vec<ReadSource>,
    /// Owner of each mutex.
    owner: Vec<Option<ThreadIdx>>,
    /// Channel queues, then one mailbox per thread.
    queues: Vec<Queue>,
    trail: Vec<Undo>,
    /// Per SAP: its position in the schedule [`Walk::validate`] checks.
    order_pos: Vec<u32>,
    /// Per thread: seen while looking for a positioned receiver.
    seen: Vec<bool>,
}

impl<'a> Walk<'a> {
    /// An empty walk over `system`'s trace.
    pub fn new(program: &'a Program, system: &'a ConstraintSystem<'a>) -> Self {
        let trace = system.trace;
        let n = trace.sap_count();
        let mut memory = Vec::with_capacity(program.globals.iter().map(|g| g.cells()).sum());
        let mut cell_base = Vec::with_capacity(program.globals.len());
        for (g, decl) in program.globals.iter().enumerate() {
            cell_base.push(memory.len() as u32);
            let init = SymTrace::init_value(program, GlobalId(g as u32));
            memory.resize(memory.len() + decl.cells(), Some(init));
        }
        Walk {
            program,
            system,
            cell_base,
            pos: vec![UNPLACED; n],
            consumed: vec![false; n],
            source: vec![ReadSource::Init; n],
            assignment: vec![None; trace.sym_vars.len()],
            unknown_vars: 0,
            rendezvous: None,
            cond_open: system.cond_vars.clone(),
            writer: vec![ReadSource::Init; memory.len()],
            memory,
            owner: vec![None; program.mutexes.len()],
            queues: vec![Queue::default(); program.chans.len() + trace.thread_count()],
            trail: Vec::new(),
            order_pos: Vec::new(),
            seen: Vec::new(),
        }
    }

    /// Validates a whole schedule, starting from the empty walk: the hard
    /// edges, then the walk over the order with each SAP knowing the SAPs
    /// after it, then [`Walk::verdict`]'s checks.
    ///
    /// # Errors
    ///
    /// As [`validate`].
    pub fn validate(&mut self, order: &[SapId]) -> Result<Witness, ValidationError> {
        self.undo_to(0);
        self.order_pos.resize(order.len(), 0);
        for (i, s) in order.iter().enumerate() {
            self.order_pos[s.index()] = i as u32;
        }
        for &(a, b) in &self.system.hard_edges {
            if self.order_pos[a.index()] >= self.order_pos[b.index()] {
                return Err(ValidationError::OrderViolation {
                    before: a,
                    after: b,
                });
            }
        }
        for (i, &s) in order.iter().enumerate() {
            self.push(s, Some(&order[i + 1..]))?;
        }
        self.finish(order)
    }

    /// [`validate`]'s verdict on `order`, read off a walk that placed
    /// every SAP of it in that order with no lookahead and respecting the
    /// hard edges: the path conditions the walk has not decided, the bug
    /// predicate, then the witness. `None` when the walk bound an unknown
    /// value, or when the trace sends on a capacity-0 channel, since the
    /// walk assumed the rendezvous completes; only [`Walk::validate`]
    /// decides such an order.
    pub fn verdict(&mut self, order: &[SapId]) -> Option<Result<Witness, ValidationError>> {
        let (program, trace) = (self.program, self.system.trace);
        debug_assert_eq!(order.len(), trace.sap_count());
        let rendezvous = *self.rendezvous.get_or_insert_with(|| {
            trace.saps.iter().any(|sap| {
                matches!(sap.kind, SapKind::Send { chan, .. } if program.chans[chan.index()].cap == 0)
            })
        });
        (self.unknown_vars == 0 && !rendezvous).then(|| self.finish(order))
    }

    /// The trail's length, to [`undo_to`](Walk::undo_to) later.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undoes every change made since `mark`.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("walk trail") {
                Undo::Place(s) => self.pos[s.index()] = UNPLACED,
                Undo::Assign(var) => {
                    if self.assignment[var.index()].take().is_none() {
                        self.unknown_vars -= 1;
                    }
                    for &c in &self.system.var_conds[var.index()] {
                        self.cond_open[c as usize] += 1;
                    }
                }
                Undo::Cell(c, value, writer) => {
                    self.memory[c as usize] = value;
                    self.writer[c as usize] = writer;
                }
                Undo::Owner(m, prev) => self.owner[m.index()] = prev,
                Undo::Consume(signal) => self.consumed[signal.index()] = false,
                Undo::Enqueue(q) => {
                    self.queues[q as usize].items.pop_back();
                }
                Undo::Dequeue(q, value) => self.queues[q as usize].items.push_front(value),
                Undo::Close(q, prev) => self.queues[q as usize].closed = prev,
                Undo::Unknown(q) => self.queues[q as usize].unknown = false,
            }
        }
    }

    /// Places SAP `s` next. `rest` is the rest of the schedule after it,
    /// or `None` on a prefix whose completion is not known yet.
    ///
    /// # Errors
    ///
    /// The validator's error at `s`. On a prefix, the validator rejects
    /// every completion of it (possibly with another error at `s`, when
    /// the rendezvous rule rejects it first).
    pub fn push(&mut self, s: SapId, rest: Option<&[SapId]>) -> Result<(), ValidationError> {
        let sap = self.system.trace.sap(s);
        match sap.kind {
            SapKind::Read { addr, var } => {
                let value = match self.cell(s, addr)? {
                    Some(c) => {
                        self.source[s.index()] = self.writer[c as usize];
                        self.memory[c as usize]
                    }
                    None => None,
                };
                self.assign(var, value)?;
            }
            SapKind::Write { addr, value } => {
                let cell = self.cell(s, addr)?;
                let value = self.value(s, value)?;
                match cell {
                    Some(c) => self.store(c, value, s),
                    // The store may hit any cell of its global.
                    None => {
                        let base = self.cell_base[addr.global.index()];
                        let cells = self.program.globals[addr.global.index()].cells() as u32;
                        for c in base..base + cells {
                            self.store(c, None, s);
                        }
                    }
                }
            }
            SapKind::Lock(m) => self.lock(s, m, sap.thread, "mutex already held")?,
            SapKind::Unlock(m) => {
                if self.owner[m.index()] != Some(sap.thread) {
                    return Err(ValidationError::LockViolation {
                        sap: s,
                        reason: "unlock by non-owner",
                    });
                }
                self.set_owner(m, None);
                self.place(s);
            }
            SapKind::Wait { mutex, .. } => {
                self.wake(s)?;
                self.lock(s, mutex, sap.thread, "wait reacquisition while mutex held")?;
            }
            SapKind::Signal(_) | SapKind::Broadcast(_) => self.place(s),
            SapKind::Fork { .. } | SapKind::Join { .. } | SapKind::SpawnActor { .. } => {
                // Covered by hard edges.
            }
            SapKind::Send { chan, value } => {
                let q = chan.index();
                // A send on a closed channel silently drops the value.
                if !self.queues[q].closed {
                    if !self.queues[q].unknown {
                        let queued = self.queues[q].items.len();
                        let cap = self.program.chans[q].cap;
                        let reason = if cap > 0 {
                            (queued >= cap).then_some("send on full channel")
                        } else if queued > 0 {
                            Some("rendezvous slot occupied")
                        } else {
                            (self.receiver_next(rest, sap.thread, chan) == Some(false))
                                .then_some("rendezvous send without positioned receiver")
                        };
                        if let Some(reason) = reason {
                            return Err(ValidationError::ChannelViolation { sap: s, reason });
                        }
                    }
                    let value = self.value(s, value)?;
                    self.enqueue(q, value);
                }
            }
            SapKind::Recv { chan, var } => {
                let q = chan.index();
                let value = if self.queues[q].unknown {
                    None
                } else if let Some(value) = self.dequeue(q) {
                    value
                } else if self.queues[q].closed {
                    Some(-1)
                } else {
                    return Err(ValidationError::ChannelViolation {
                        sap: s,
                        reason: "recv on open empty channel",
                    });
                };
                self.assign(var, value)?;
            }
            SapKind::TrySend { chan, value, var } => {
                let q = chan.index();
                let queued = self.queues[q].items.len();
                let cap = self.program.chans[q].cap;
                let ok = if self.queues[q].closed {
                    Some(false)
                } else if self.queues[q].unknown {
                    None
                } else if cap > 0 {
                    Some(queued < cap)
                } else if queued > 0 {
                    Some(false)
                } else {
                    self.receiver_next(rest, sap.thread, chan)
                };
                match ok {
                    Some(true) => {
                        let value = self.value(s, value)?;
                        self.enqueue(q, value);
                    }
                    Some(false) => {}
                    None if self.queues[q].unknown => {}
                    None => {
                        self.queues[q].unknown = true;
                        self.trail.push(Undo::Unknown(q as u32));
                    }
                }
                self.assign(var, ok.map(i64::from))?;
            }
            SapKind::TryRecv { chan, var } => {
                let q = chan.index();
                let value = if self.queues[q].unknown {
                    None
                } else {
                    self.dequeue(q).unwrap_or(Some(-1))
                };
                self.assign(var, value)?;
            }
            SapKind::ChanClose(chan) => {
                let q = chan.index();
                let prev = std::mem::replace(&mut self.queues[q].closed, true);
                self.trail.push(Undo::Close(q as u32, prev));
            }
            SapKind::MailboxSend { target, value } => {
                let value = self.value(s, value)?;
                self.enqueue(self.program.chans.len() + target.index(), value);
            }
            SapKind::MailboxRecv { var } => {
                let Some(value) = self.dequeue(self.program.chans.len() + sap.thread.index())
                else {
                    return Err(ValidationError::ChannelViolation {
                        sap: s,
                        reason: "mailbox_recv on empty mailbox",
                    });
                };
                self.assign(var, value)?;
            }
            SapKind::AtomicLoad { global, var, .. } => {
                let c = self.cell_base[global.index()];
                self.source[s.index()] = self.writer[c as usize];
                self.assign(var, self.memory[c as usize])?;
            }
            SapKind::AtomicStore { global, value, .. } => {
                let value = self.value(s, value)?;
                self.store(self.cell_base[global.index()], value, s);
            }
            SapKind::AtomicRmw {
                global, var, value, ..
            }
            | SapKind::AtomicCas {
                global, var, value, ..
            } => {
                // One indivisible step: read the old value, ground the
                // RMW's variable with it, then evaluate and commit the
                // written expression (for CAS an ITE that folds a failed
                // swap back to the old value).
                let c = self.cell_base[global.index()];
                self.source[s.index()] = self.writer[c as usize];
                self.assign(var, self.memory[c as usize])?;
                let value = self.value(s, value)?;
                self.store(c, value, s);
            }
        }
        Ok(())
    }

    /// The path conditions the walk has not decided, then the bug
    /// predicate, once every SAP of `order` is placed; then the witness.
    fn finish(&self, order: &[SapId]) -> Result<Witness, ValidationError> {
        let trace = self.system.trace;
        for (index, pc) in trace.path_conds.iter().enumerate() {
            // `assign` checked each condition when it bound its last
            // variable.
            let checked = self.system.cond_vars[index] > 0 && self.cond_open[index] == 0;
            if !checked && self.eval(pc.expr).is_none_or(|v| v == 0) {
                return Err(ValidationError::PathViolation { index });
            }
        }
        if self.eval(trace.bug).is_none_or(|v| v == 0) {
            return Err(ValidationError::BugNotManifested);
        }
        let reads_from = order
            .iter()
            .filter(|&&s| {
                matches!(
                    trace.sap(s).kind,
                    SapKind::Read { .. }
                        | SapKind::AtomicLoad { .. }
                        | SapKind::AtomicRmw { .. }
                        | SapKind::AtomicCas { .. }
                )
            })
            .map(|&s| (s, self.source[s.index()]))
            .collect();
        Ok(Witness {
            assignment: self.assignment.iter().map(|v| v.unwrap_or(0)).collect(),
            reads_from,
        })
    }

    fn eval(&self, e: ExprId) -> Option<i64> {
        let assignment = &self.assignment;
        self.system
            .trace
            .arena
            .eval(e, &|v: SymVarId| assignment[v.index()])
    }

    /// `e`'s value at SAP `s`: `None` when it depends on an unknown. With
    /// no unknown bound, a failed evaluation needs a variable bound only
    /// after `s`, in every completion.
    fn value(&self, s: SapId, e: ExprId) -> Result<Option<i64>, ValidationError> {
        match self.eval(e) {
            Some(v) => Ok(Some(v)),
            None if self.unknown_vars > 0 => Ok(None),
            None => Err(ValidationError::BadAddress { sap: s }),
        }
    }

    /// The memory cell `addr` names at SAP `s`: `None` when its index is
    /// unknown.
    fn cell(&self, s: SapId, addr: SymAddr) -> Result<Option<u32>, ValidationError> {
        let idx = match addr.index {
            None => 0,
            Some(e) => match self.value(s, e)? {
                Some(idx) => idx,
                None => return Ok(None),
            },
        };
        let cells = self.program.globals[addr.global.index()].cells() as i64;
        if idx < 0 || idx >= cells {
            return Err(ValidationError::BadAddress { sap: s });
        }
        Ok(Some(self.cell_base[addr.global.index()] + idx as u32))
    }

    fn store(&mut self, c: u32, value: Option<i64>, writer: SapId) {
        let c = c as usize;
        let prev = std::mem::replace(&mut self.memory[c], value);
        let prev_writer = std::mem::replace(&mut self.writer[c], ReadSource::Write(writer));
        self.trail.push(Undo::Cell(c as u32, prev, prev_writer));
    }

    /// Binds `var`; a path condition whose last variable it is can reject
    /// the SAP.
    fn assign(&mut self, var: SymVarId, value: Option<i64>) -> Result<(), ValidationError> {
        debug_assert!(self.assignment[var.index()].is_none());
        self.assignment[var.index()] = value;
        self.unknown_vars += u32::from(value.is_none());
        self.trail.push(Undo::Assign(var));
        let system = self.system;
        let conds = &system.var_conds[var.index()];
        for &c in conds {
            self.cond_open[c as usize] -= 1;
        }
        for &c in conds {
            let c = c as usize;
            if self.cond_open[c] == 0 && self.eval(system.trace.path_conds[c].expr) == Some(0) {
                return Err(ValidationError::PathViolation { index: c });
            }
        }
        Ok(())
    }

    fn place(&mut self, s: SapId) {
        self.pos[s.index()] = self.trail.len() as u32;
        self.trail.push(Undo::Place(s));
    }

    fn set_owner(&mut self, m: MutexId, owner: Option<ThreadIdx>) {
        let prev = std::mem::replace(&mut self.owner[m.index()], owner);
        self.trail.push(Undo::Owner(m, prev));
    }

    fn lock(
        &mut self,
        s: SapId,
        m: MutexId,
        thread: ThreadIdx,
        reason: &'static str,
    ) -> Result<(), ValidationError> {
        if self.owner[m.index()].is_some() {
            return Err(ValidationError::LockViolation { sap: s, reason });
        }
        self.set_owner(m, Some(thread));
        Ok(())
    }

    /// Wakes wait completion `s`: a broadcast after its park, or else the
    /// earliest signal after it that no other wait consumed, which it
    /// consumes. Every placed SAP precedes `s`.
    fn wake(&mut self, s: SapId) -> Result<(), ValidationError> {
        let system = self.system;
        let row = system
            .waits
            .iter()
            .find(|w| w.wait == s)
            .expect("wait row exists");
        let park = self.pos[row.release.index()];
        if park == UNPLACED {
            return Err(ValidationError::UnmatchedWait { wait: s });
        }
        let after_park = |x: SapId| {
            let p = self.pos[x.index()];
            p != UNPLACED && p > park
        };
        if row.broadcasts.iter().any(|&b| after_park(b)) {
            return Ok(());
        }
        let Some(&signal) = row
            .signals
            .iter()
            .filter(|&&sig| !self.consumed[sig.index()] && after_park(sig))
            .min_by_key(|sig| self.pos[sig.index()])
        else {
            return Err(ValidationError::UnmatchedWait { wait: s });
        };
        self.consumed[signal.index()] = true;
        self.trail.push(Undo::Consume(signal));
        Ok(())
    }

    /// Whether some other thread's next SAP after the current one is a
    /// `recv` on `chan`, which a capacity-0 send needs; `None` when the
    /// rest of the schedule is not known.
    fn receiver_next(
        &mut self,
        rest: Option<&[SapId]>,
        sender: ThreadIdx,
        chan: ChanId,
    ) -> Option<bool> {
        let rest = rest?;
        let trace = self.system.trace;
        self.seen.clear();
        self.seen.resize(trace.thread_count(), false);
        self.seen[sender.index()] = true;
        for &x in rest {
            let sap = trace.sap(x);
            if !std::mem::replace(&mut self.seen[sap.thread.index()], true)
                && matches!(sap.kind, SapKind::Recv { chan: c, .. } if c == chan)
            {
                return Some(true);
            }
        }
        Some(false)
    }

    fn enqueue(&mut self, q: usize, value: Option<i64>) {
        if !self.queues[q].unknown {
            self.queues[q].items.push_back(value);
            self.trail.push(Undo::Enqueue(q as u32));
        }
    }

    /// Takes the value at the front of queue `q`, if any.
    fn dequeue(&mut self, q: usize) -> Option<Option<i64>> {
        let value = self.queues[q].items.pop_front()?;
        self.trail.push(Undo::Dequeue(q as u32, value));
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_symex::failing_trace;
    use clap_vm::MemModel;

    const LOST_UPDATE: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    /// Enumerates every linear extension of the hard edges (exact for
    /// small traces) and returns those that validate.
    fn all_valid_schedules(
        program: &clap_ir::Program,
        sys: &ConstraintSystem<'_>,
    ) -> (usize, Vec<Schedule>) {
        let n = sys.trace.sap_count();
        assert!(n <= 16, "exhaustive enumeration only for tiny traces");
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &sys.hard_edges {
            preds[b.index()].push(a.index());
        }
        let mut total = 0;
        let mut good = Vec::new();
        let mut placed = vec![false; n];
        let mut acc: Vec<SapId> = Vec::new();
        extend(n, &preds, &mut placed, &mut acc, &mut |perm| {
            total += 1;
            let schedule = Schedule {
                order: perm.to_vec(),
            };
            if validate(program, sys, &schedule).is_ok() {
                good.push(schedule);
            }
        });
        (total, good)
    }

    /// DFS over linear extensions: extend with any SAP whose hard-edge
    /// predecessors are all placed.
    fn extend(
        n: usize,
        preds: &[Vec<usize>],
        placed: &mut Vec<bool>,
        acc: &mut Vec<SapId>,
        f: &mut impl FnMut(&[SapId]),
    ) {
        if acc.len() == n {
            f(acc);
            return;
        }
        for x in 0..n {
            if placed[x] || !preds[x].iter().all(|&p| placed[p]) {
                continue;
            }
            placed[x] = true;
            acc.push(SapId(x as u32));
            extend(n, preds, placed, acc, f);
            acc.pop();
            placed[x] = false;
        }
    }

    #[test]
    fn lost_update_has_valid_and_invalid_schedules() {
        let (program, trace, _) = failing_trace(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let (total, good) = all_valid_schedules(&program, &sys);
        assert!(total > 0);
        assert!(!good.is_empty(), "some schedule reproduces the lost update");
        assert!(
            good.len() < total,
            "schedules that interleave correctly must be rejected (bug not manifested)"
        );
        // Every witness explains the bug: the final read of x sees 1.
        for g in &good {
            let w = validate(&program, &sys, g).unwrap();
            assert!(w.assignment.contains(&1));
        }
    }

    #[test]
    fn original_schedule_validates() {
        // The recorded failing execution itself must satisfy the system:
        // build the "as-recorded" schedule from per-thread po order merged
        // by a simple round-robin that respects hard edges... easiest:
        // brute force and check at least one valid schedule has the same
        // reads-from multiset as the VM run (implicitly covered by the
        // previous test); here we check hard-edge respect of a natural
        // sequential order: all of main's pre-fork SAPs, thread 1, thread
        // 2, main's tail.
        let (program, trace, _) = failing_trace(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let (_, good) = all_valid_schedules(&program, &sys);
        // A "serial" schedule (t1 fully, then t2 fully) cannot reproduce a
        // lost update; every good schedule interleaves the workers.
        for g in &good {
            let threads: Vec<_> = g
                .order
                .iter()
                .map(|&s| trace.sap(s).thread)
                .filter(|t| t.0 != 0)
                .collect();
            let mut switches = 0;
            for w in threads.windows(2) {
                if w[0] != w[1] {
                    switches += 1;
                }
            }
            assert!(switches >= 2, "workers must interleave: {threads:?}");
        }
    }

    #[test]
    fn lock_violation_detected() {
        let src = "global int x = 0; mutex m;
             fn w() { lock(m); let v: int = x; yield; x = v + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; let v: int = x; assert(v == 2, \"never\"); }";
        // This assertion cannot fail under locking… but we can still build
        // the system from a *passing* run? No: failing_trace needs a
        // failure. Instead craft: critical sections overlap in a candidate
        // schedule must be rejected. Use an assert that fails spuriously.
        let src_fail = src.replace("v == 2", "v == 3");
        let (program, trace, _) = failing_trace(&src_fail, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let (_, good) = all_valid_schedules(&program, &sys);
        // All valid schedules keep the two critical sections disjoint.
        for g in &good {
            let pos = g.positions();
            let m = program.mutex_by_name("m").unwrap();
            let regions = &sys.lock_regions[&m];
            assert_eq!(regions.len(), 2);
            let (a, b) = (&regions[0], &regions[1]);
            let (al, au) = (pos[a.lock.index()], pos[a.unlock.unwrap().index()]);
            let (bl, bu) = (pos[b.lock.index()], pos[b.unlock.unwrap().index()]);
            assert!(au < bl || bu < al, "critical sections must not overlap");
        }
    }

    #[test]
    fn schedule_context_switch_metric() {
        let (program, trace, _) = failing_trace(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let (_, good) = all_valid_schedules(&program, &sys);
        let min_cs = good
            .iter()
            .map(|g| g.context_switches(&trace))
            .min()
            .unwrap();
        // A lost update needs exactly one preemption (one worker's
        // read-modify-write interleaved by the other's).
        assert_eq!(min_cs, 1, "lost update reproduces with one preemption");
        let _ = sys;
    }
}
