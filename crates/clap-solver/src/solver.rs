//! The sequential constraint solver: a DPLL(T)-style backtracking search
//! whose theory is the incremental order graph.
//!
//! The paper observes (§4) that the solver "only needs to find a solution
//! for the order variables that essentially maps each Read to a certain
//! Write in a discrete finite domain, subject to the order constraints".
//! That is literally the search space here:
//!
//! * **decisions** — each read picks a source (a write or the initial
//!   value), each completed wait picks the signal/broadcast that woke it,
//!   and each leftover binary order disjunction (lock-region order,
//!   no-intervening-write exclusion) picks a side;
//! * **propagation** — order edges go into the [`OrderGraph`] (conflict =
//!   cycle), values flow from chosen writes into symbolic variables, and
//!   path/bug/index-equality conditions are evaluated as soon as their
//!   variables are grounded;
//! * **conflict** — chronological backtracking over the decision trail.
//!
//! A satisfying assignment is linearized into a [`Schedule`] with a
//! same-thread-preferring topological sort (few preemptions) and re-checked
//! with the independent validator as a safety net.

use crate::ordergraph::OrderGraph;
use clap_constraints::{validate, ConstraintSystem, ReadSource, Schedule, Witness};
use clap_ir::Program;
use clap_symex::{ExprId, SapId, SymVarId};
use std::time::{Duration, Instant};

/// The most shared access points the sequential solver takes on. Its
/// order graph keeps the transitive closure as a bitset of n²/8 bytes,
/// 512 MiB at this bound, so callers refuse larger traces rather than
/// hand them to [`solve`].
pub const MAX_SAPS: usize = 1 << 16;

/// Search effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Decisions taken.
    pub decisions: u64,
    /// Conflicts hit.
    pub conflicts: u64,
    /// Propagation passes executed.
    pub propagations: u64,
}

/// A bug-reproducing solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The computed schedule.
    pub schedule: Schedule,
    /// Its witness (values + reads-from), from the independent validator.
    pub witness: Witness,
    /// Search effort.
    pub stats: SolveStats,
}

/// The result of a solve call.
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// A schedule was found.
    Sat(Box<Solution>),
    /// No schedule satisfies the constraints.
    Unsat(SolveStats),
    /// The deadline or decision budget ran out first.
    Timeout(SolveStats),
}

impl SolveOutcome {
    /// The solution, if satisfiable.
    pub fn solution(&self) -> Option<&Solution> {
        match self {
            SolveOutcome::Sat(s) => Some(s),
            _ => None,
        }
    }
}

/// Solver limits.
///
/// The wall-clock budget is a [`Duration`], anchored when [`solve`] is
/// entered — not when the config is built — so time spent in earlier
/// pipeline phases never eats the solve budget.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverConfig {
    /// Wall-clock budget for this solve call (`None` = unbounded).
    pub timeout: Option<Duration>,
    /// Decision budget (0 = unlimited).
    pub max_decisions: u64,
}

/// Solves the constraint system, producing a bug-reproducing schedule.
pub fn solve(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: SolverConfig,
) -> SolveOutcome {
    let mut search = Search::new(program, system, config);
    search.deadline = config.timeout.map(|t| Instant::now() + t);
    let mut outcome = search.run();
    // Soundness valve: the channel/mailbox encoding is incomplete — the
    // try_send/try_recv result variables are grounded only by the
    // validator, and FIFO/capacity legality is re-checked rather than
    // encoded exhaustively — so an exhausted search over a trace with
    // channel operations must not claim unsatisfiability. The same holds
    // for C11 atomics: store-to-load forwarding is pinned with hard edges
    // and the seq_cst total order is approximated by fences, so the
    // encoding may exclude real executions.
    if system.trace.has_channel_ops() || system.trace.has_atomic_ops() {
        if let SolveOutcome::Unsat(stats) = outcome {
            outcome = SolveOutcome::Timeout(stats);
        }
    }
    let stats = match &outcome {
        SolveOutcome::Sat(s) => s.stats,
        SolveOutcome::Unsat(s) | SolveOutcome::Timeout(s) => *s,
    };
    clap_obs::add("solver.hb_edges", system.hard_edges.len() as u64);
    clap_obs::add("solver.decisions", stats.decisions);
    clap_obs::add("solver.conflicts", stats.conflicts);
    clap_obs::add("solver.propagations", stats.propagations);
    clap_obs::add("solver.order_graph.queries", search.graph.query_count());
    clap_obs::add(
        "solver.order_graph.row_updates",
        search.graph.row_update_count(),
    );
    clap_obs::add("solver.order_graph.edges", search.graph.edge_count());
    outcome
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Two expressions that must be equal (link index guards).
    Eq(ExprId, ExprId),
    /// A boolean expression that must be truthy (path conditions, bug).
    Truthy(ExprId),
    /// Under an optional equality guard, at least one edge must hold.
    Choice {
        guard: Option<(ExprId, ExprId)>,
        edges: Edges,
    },
}

/// The one or two order edges of a [`Pending::Choice`], inline.
#[derive(Debug, Clone, Copy)]
struct Edges {
    pairs: [(u32, u32); 2],
    len: usize,
}

impl Edges {
    fn one(edge: (u32, u32)) -> Self {
        Edges {
            pairs: [edge, edge],
            len: 1,
        }
    }

    fn two(first: (u32, u32), second: (u32, u32)) -> Self {
        Edges {
            pairs: [first, second],
            len: 2,
        }
    }

    fn as_slice(&self) -> &[(u32, u32)] {
        &self.pairs[..self.len]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecisionVar {
    Read(usize),
    Wait(usize),
    ChanRecv(usize),
    Choice(usize),
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    var: DecisionVar,
    cand: usize,
    graph_mark: usize,
    assign_mark: usize,
    resolved_mark: usize,
    pending_len: usize,
    consumed_mark: usize,
}

struct Search<'p, 'a, 't> {
    program: &'p Program,
    sys: &'a ConstraintSystem<'t>,
    config: SolverConfig,
    /// Wall-clock deadline, anchored at solve entry from `config.timeout`.
    deadline: Option<Instant>,
    graph: OrderGraph,
    assignment: Vec<Option<i64>>,
    assign_trail: Vec<SymVarId>,
    /// Chosen candidate per read (index into `sys.reads[i].candidates`).
    links: Vec<Option<usize>>,
    /// Chosen candidate per wait (index into signals ++ broadcasts).
    wait_choice: Vec<Option<usize>>,
    /// Chosen candidate per channel/mailbox recv (index into `sends`,
    /// or `sends.len()` for the drained-after-close outcome).
    recv_choice: Vec<Option<usize>>,
    /// Per SAP: whether a wait or recv already consumed this signal or
    /// send.
    consumed: Vec<bool>,
    consumed_trail: Vec<SapId>,
    pending: Vec<Pending>,
    resolved: Vec<bool>,
    resolved_trail: Vec<usize>,
    frames: Vec<Frame>,
    stats: SolveStats,
}

enum StepResult {
    Ok,
    Conflict,
}

impl<'p, 'a, 't> Search<'p, 'a, 't> {
    fn new(program: &'p Program, sys: &'a ConstraintSystem<'t>, config: SolverConfig) -> Self {
        Search {
            program,
            sys,
            config,
            deadline: None,
            graph: OrderGraph::new(sys.trace.sap_count()),
            assignment: vec![None; sys.trace.sym_vars.len()],
            assign_trail: Vec::new(),
            links: vec![None; sys.reads.len()],
            wait_choice: vec![None; sys.waits.len()],
            recv_choice: vec![None; sys.recvs.len()],
            consumed: vec![false; sys.trace.sap_count()],
            consumed_trail: Vec::new(),
            pending: Vec::new(),
            resolved: Vec::new(),
            resolved_trail: Vec::new(),
            frames: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    fn eval(&self, e: ExprId) -> Option<i64> {
        let a = &self.assignment;
        self.sys.trace.arena.eval(e, &|v: SymVarId| a[v.index()])
    }

    fn push_pending(&mut self, p: Pending) {
        self.pending.push(p);
        self.resolved.push(false);
    }

    fn mark_resolved(&mut self, idx: usize) {
        if !self.resolved[idx] {
            self.resolved[idx] = true;
            self.resolved_trail.push(idx);
        }
    }

    fn assign(&mut self, var: SymVarId, value: i64) {
        debug_assert!(self.assignment[var.index()].is_none());
        self.assignment[var.index()] = Some(value);
        self.assign_trail.push(var);
    }

    /// Installs the level-0 constraints. Returns `Conflict` for
    /// immediately unsatisfiable systems.
    fn install_base(&mut self) -> StepResult {
        let hard_edges = self.sys.hard_edges.iter().map(|&(a, b)| (a.0, b.0));
        if !self.graph.add_edges(hard_edges) {
            return StepResult::Conflict;
        }
        // Path conditions and the bug predicate.
        let trace = self.sys.trace;
        for e in trace.path_conds.iter().map(|pc| pc.expr) {
            self.push_pending(Pending::Truthy(e));
        }
        self.push_pending(Pending::Truthy(trace.bug));
        // Lock regions: pairwise mutual exclusion; open regions are last.
        for regions in self.sys.lock_regions.values() {
            let open: Vec<_> = regions.iter().filter(|r| r.unlock.is_none()).collect();
            if open.len() > 1 {
                return StepResult::Conflict;
            }
            for (i, a) in regions.iter().enumerate() {
                for b in regions.iter().skip(i + 1) {
                    match (a.unlock, b.unlock) {
                        (Some(ua), Some(ub)) => {
                            self.push_pending(Pending::Choice {
                                guard: None,
                                edges: Edges::two((ua.0, b.lock.0), (ub.0, a.lock.0)),
                            });
                        }
                        (None, Some(ub)) => {
                            if !self.graph.add_edge(ub.0, a.lock.0) {
                                return StepResult::Conflict;
                            }
                        }
                        (Some(ua), None) => {
                            if !self.graph.add_edge(ua.0, b.lock.0) {
                                return StepResult::Conflict;
                            }
                        }
                        (None, None) => unreachable!("checked above"),
                    }
                }
            }
        }
        StepResult::Ok
    }

    /// Runs propagation to a fixpoint.
    fn propagate(&mut self) -> StepResult {
        loop {
            self.stats.propagations += 1;
            let mut changed = false;
            // Value propagation: linked reads whose source value grounds.
            for i in 0..self.links.len() {
                let Some(j) = self.links[i] else { continue };
                let rc = &self.sys.reads[i];
                let var = rc.var;
                if self.assignment[var.index()].is_some() {
                    continue;
                }
                match rc.candidates[j] {
                    ReadSource::Init => {
                        let v = rc.init_value;
                        self.assign(var, v);
                        changed = true;
                    }
                    ReadSource::Write(w) => {
                        let value = match self.sys.trace.sap(w).kind {
                            clap_symex::SapKind::Write { value, .. }
                            | clap_symex::SapKind::AtomicStore { value, .. }
                            | clap_symex::SapKind::AtomicRmw { value, .. }
                            | clap_symex::SapKind::AtomicCas { value, .. } => value,
                            _ => unreachable!("candidate is a write"),
                        };
                        if let Some(v) = self.eval(value) {
                            self.assign(var, v);
                            changed = true;
                        }
                    }
                }
            }
            // Value propagation: matched recvs whose send value grounds.
            for i in 0..self.recv_choice.len() {
                let Some(j) = self.recv_choice[i] else {
                    continue;
                };
                let rc = &self.sys.recvs[i];
                if self.assignment[rc.var.index()].is_some() || j >= rc.sends.len() {
                    // Drained outcome: assigned -1 at decision time.
                    continue;
                }
                let value = match self.sys.trace.sap(rc.sends[j]).kind {
                    clap_symex::SapKind::Send { value, .. }
                    | clap_symex::SapKind::TrySend { value, .. }
                    | clap_symex::SapKind::MailboxSend { value, .. } => value,
                    _ => unreachable!("candidate is a send"),
                };
                let var = rc.var;
                if let Some(v) = self.eval(value) {
                    self.assign(var, v);
                    changed = true;
                }
            }
            // Pending constraints.
            for idx in 0..self.pending.len() {
                if self.resolved[idx] {
                    continue;
                }
                match self.pending[idx] {
                    Pending::Eq(a, b) => match (self.eval(a), self.eval(b)) {
                        (Some(x), Some(y)) if x == y => {
                            self.mark_resolved(idx);
                            changed = true;
                        }
                        (Some(x), Some(y)) if x != y => return StepResult::Conflict,
                        _ => {}
                    },
                    Pending::Truthy(e) => match self.eval(e) {
                        Some(0) => return StepResult::Conflict,
                        Some(_) => {
                            self.mark_resolved(idx);
                            changed = true;
                        }
                        None => {}
                    },
                    Pending::Choice { guard, edges } => {
                        if let Some((a, b)) = guard {
                            match (self.eval(a), self.eval(b)) {
                                (Some(x), Some(y)) if x != y => {
                                    // Guard false: vacuously satisfied.
                                    self.mark_resolved(idx);
                                    changed = true;
                                    continue;
                                }
                                (Some(_), Some(_)) => {} // guard holds
                                _ => continue,           // unknown: defer
                            }
                        }
                        let pairs = edges.as_slice();
                        if pairs.iter().any(|&(x, y)| self.graph.implies(x, y)) {
                            self.mark_resolved(idx);
                            changed = true;
                            continue;
                        }
                        match *self.live_edges(edges).as_slice() {
                            [] => return StepResult::Conflict,
                            [(x, y)] => {
                                if !self.graph.add_edge(x, y) {
                                    return StepResult::Conflict;
                                }
                                self.mark_resolved(idx);
                                changed = true;
                            }
                            _ => {}
                        }
                    }
                }
            }
            if !changed {
                return StepResult::Ok;
            }
        }
    }

    /// Picks the next decision variable (fail-first) or `None` when all
    /// constraints are decided/resolved.
    fn pick_decision(&mut self) -> Option<(DecisionVar, usize)> {
        debug_assert!(
            self.decided_vars_have_frames(),
            "a decided variable has no frame on the decision stack"
        );
        let mut best: Option<(DecisionVar, usize)> = None;
        for i in 0..self.links.len() {
            if self.links[i].is_some() {
                continue;
            }
            let count = self.feasible_read_cands(i);
            if best.map(|(_, c)| count < c).unwrap_or(true) {
                best = Some((DecisionVar::Read(i), count));
            }
        }
        for i in 0..self.wait_choice.len() {
            if self.wait_choice[i].is_some() {
                continue;
            }
            let count = self.feasible_wait_cands(i);
            if best.map(|(_, c)| count < c).unwrap_or(true) {
                best = Some((DecisionVar::Wait(i), count));
            }
        }
        for i in 0..self.recv_choice.len() {
            if self.recv_choice[i].is_some() {
                continue;
            }
            let count = self.feasible_recv_cands(i);
            if best.map(|(_, c)| count < c).unwrap_or(true) {
                best = Some((DecisionVar::ChanRecv(i), count));
            }
        }
        if best.is_none() {
            // All reads/waits decided: branch on an unresolved choice with
            // several live edges (guards are decidable by now).
            for idx in 0..self.pending.len() {
                if self.resolved[idx] {
                    continue;
                }
                if let Pending::Choice { guard, edges } = self.pending[idx] {
                    if let Some((a, b)) = guard {
                        match (self.eval(a), self.eval(b)) {
                            (Some(x), Some(y)) if x != y => continue,
                            _ => {}
                        }
                    }
                    let live = self.live_edges(edges).len;
                    if live >= 2 {
                        return Some((DecisionVar::Choice(idx), live));
                    }
                }
            }
        }
        best
    }

    /// Whether `var` has a candidate applied: a read, wait or recv with
    /// its choice set, or a resolved pending choice.
    fn decided(&self, var: DecisionVar) -> bool {
        match var {
            DecisionVar::Read(i) => self.links[i].is_some(),
            DecisionVar::Wait(i) => self.wait_choice[i].is_some(),
            DecisionVar::ChanRecv(i) => self.recv_choice[i].is_some(),
            DecisionVar::Choice(idx) => self.resolved[idx],
        }
    }

    /// Whether the decided read, wait and recv variables are exactly
    /// those of the frames on the stack. A frame dropped without undoing
    /// its candidate would leave its variable decided, with its edges and
    /// pending constraints gone.
    fn decided_vars_have_frames(&self) -> bool {
        let decided = self
            .links
            .iter()
            .chain(&self.wait_choice)
            .chain(&self.recv_choice)
            .filter(|c| c.is_some())
            .count();
        let mut framed = 0;
        for frame in &self.frames {
            if matches!(frame.var, DecisionVar::Choice(_)) {
                continue;
            }
            if !self.decided(frame.var) {
                return false;
            }
            framed += 1;
        }
        framed == decided
    }

    /// The edges of `edges` that the graph does not forbid. Every edge
    /// is queried, in order.
    fn live_edges(&mut self, edges: Edges) -> Edges {
        let mut live = Edges { len: 0, ..edges };
        for &(x, y) in edges.as_slice() {
            if !self.graph.forbids(x, y) {
                live.pairs[live.len] = (x, y);
                live.len += 1;
            }
        }
        live
    }

    /// How many of read `i`'s candidate sources the graph still allows.
    fn feasible_read_cands(&mut self, i: usize) -> usize {
        let rc = &self.sys.reads[i];
        let r = rc.read.0;
        let mut count = 0;
        for cand in &rc.candidates {
            match cand {
                ReadSource::Init => count += 1,
                ReadSource::Write(w) => {
                    if !self.graph.forbids(w.0, r) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// How many signals and broadcasts could still have woken wait `i`.
    fn feasible_wait_cands(&mut self, i: usize) -> usize {
        let wc = &self.sys.waits[i];
        let rel = wc.release.0;
        let w = wc.wait.0;
        let signals = wc.signals.iter().map(|&s| (s, true));
        let broadcasts = wc.broadcasts.iter().map(|&b| (b, false));
        let mut count = 0;
        for (s, exclusive) in signals.chain(broadcasts) {
            if exclusive && self.consumed[s.index()] {
                continue;
            }
            if self.graph.forbids(rel, s.0) || self.graph.forbids(s.0, w) {
                continue;
            }
            count += 1;
        }
        count
    }

    /// How many sends (and the drained-after-close outcome) recv `i`
    /// could still match.
    fn feasible_recv_cands(&mut self, i: usize) -> usize {
        let rc = &self.sys.recvs[i];
        let r = rc.recv.0;
        let mut count = 0;
        for s in &rc.sends {
            if self.consumed[s.index()] {
                continue;
            }
            if self.graph.forbids(s.0, r) {
                continue;
            }
            count += 1;
        }
        if rc.closes.iter().any(|&c| !self.graph.forbids(c.0, r)) {
            count += 1;
        }
        count
    }

    /// Applies a candidate for a decision variable, which must be
    /// undecided: applying a second candidate on top of the first would
    /// find a signal or send the first consumed and conflict spuriously.
    fn apply(&mut self, var: DecisionVar, cand: usize) -> StepResult {
        debug_assert!(!self.decided(var), "{var:?} is already decided");
        match var {
            DecisionVar::Read(i) => {
                let rc = &self.sys.reads[i];
                self.links[i] = Some(cand);
                match rc.candidates[cand] {
                    ReadSource::Init => {
                        // No aliasing write may precede the read.
                        for &w2 in &rc.aliasing_writes {
                            let guard = self.alias_guard(rc.addr, w2);
                            self.push_pending(Pending::Choice {
                                guard,
                                edges: Edges::one((rc.read.0, w2.0)),
                            });
                        }
                    }
                    ReadSource::Write(w) => {
                        if !self.graph.add_edge(w.0, rc.read.0) {
                            return StepResult::Conflict;
                        }
                        // The link itself requires the addresses to match.
                        if let Some(guard) = self.alias_guard(rc.addr, w) {
                            self.push_pending(Pending::Eq(guard.0, guard.1));
                        }
                        // No aliasing write between w and the read.
                        for &w2 in &rc.aliasing_writes {
                            if w2 == w {
                                continue;
                            }
                            let guard = self.alias_guard(rc.addr, w2);
                            self.push_pending(Pending::Choice {
                                guard,
                                edges: Edges::two((w2.0, w.0), (rc.read.0, w2.0)),
                            });
                        }
                    }
                }
                StepResult::Ok
            }
            DecisionVar::Wait(i) => {
                let wc = &self.sys.waits[i];
                self.wait_choice[i] = Some(cand);
                // Candidates are the signals, then the broadcasts.
                let picked = match wc.signals.get(cand) {
                    Some(&s) => Some((s, true)),
                    None => wc
                        .broadcasts
                        .get(cand - wc.signals.len())
                        .map(|&b| (b, false)),
                };
                let Some((s, exclusive)) = picked else {
                    return StepResult::Conflict;
                };
                if exclusive && !self.consume(s) {
                    return StepResult::Conflict;
                }
                if !self.graph.add_edge(wc.release.0, s.0) || !self.graph.add_edge(s.0, wc.wait.0) {
                    return StepResult::Conflict;
                }
                StepResult::Ok
            }
            DecisionVar::ChanRecv(i) => {
                let rc = &self.sys.recvs[i];
                self.recv_choice[i] = Some(cand);
                if cand < rc.sends.len() {
                    // Match a send: consumed exclusively, ordered before
                    // the recv. (FIFO order within the channel is the
                    // validator's job.)
                    let s = rc.sends[cand];
                    if !self.consume(s) {
                        return StepResult::Conflict;
                    }
                    if !self.graph.add_edge(s.0, rc.recv.0) {
                        return StepResult::Conflict;
                    }
                } else {
                    // Drained outcome: some close precedes the recv and it
                    // returns -1.
                    let Some(&close) = rc
                        .closes
                        .iter()
                        .find(|&&c| !self.graph.forbids(c.0, rc.recv.0))
                    else {
                        return StepResult::Conflict;
                    };
                    if !self.graph.add_edge(close.0, rc.recv.0) {
                        return StepResult::Conflict;
                    }
                    if self.assignment[rc.var.index()].is_none() {
                        self.assign(rc.var, -1);
                    }
                }
                StepResult::Ok
            }
            DecisionVar::Choice(idx) => {
                let Pending::Choice { edges, .. } = self.pending[idx] else {
                    unreachable!("choice decision on a non-choice")
                };
                let live = self.live_edges(edges);
                let Some(&(x, y)) = live.as_slice().get(cand) else {
                    return StepResult::Conflict;
                };
                if !self.graph.add_edge(x, y) {
                    return StepResult::Conflict;
                }
                self.mark_resolved(idx);
                StepResult::Ok
            }
        }
    }

    /// Marks signal or send `s` consumed; `false` when it already was.
    fn consume(&mut self, s: SapId) -> bool {
        if std::mem::replace(&mut self.consumed[s.index()], true) {
            return false;
        }
        self.consumed_trail.push(s);
        true
    }

    /// The index-equality guard for "this read aliases this write", or
    /// `None` when aliasing is definite.
    fn alias_guard(&self, raddr: clap_symex::SymAddr, w: SapId) -> Option<(ExprId, ExprId)> {
        let windex = match self.sys.trace.sap(w).kind {
            clap_symex::SapKind::Write { addr: waddr, .. } => waddr.index,
            // Atomic writes target scalar locations: aliasing is definite.
            clap_symex::SapKind::AtomicStore { .. }
            | clap_symex::SapKind::AtomicRmw { .. }
            | clap_symex::SapKind::AtomicCas { .. } => None,
            _ => unreachable!("aliasing entry is a write"),
        };
        match (raddr.index, windex) {
            (Some(a), Some(b)) => {
                let arena = &self.sys.trace.arena;
                match (arena.as_const(a), arena.as_const(b)) {
                    (Some(_), Some(_)) => None, // concrete: prefiltered equal
                    _ => Some((a, b)),
                }
            }
            _ => None,
        }
    }

    fn cand_count(&mut self, var: DecisionVar) -> usize {
        match var {
            DecisionVar::Read(i) => self.sys.reads[i].candidates.len(),
            DecisionVar::Wait(i) => {
                self.sys.waits[i].signals.len() + self.sys.waits[i].broadcasts.len()
            }
            DecisionVar::ChanRecv(i) => {
                let rc = &self.sys.recvs[i];
                rc.sends.len() + usize::from(!rc.closes.is_empty())
            }
            DecisionVar::Choice(idx) => match &self.pending[idx] {
                Pending::Choice { edges, .. } => edges.len,
                _ => 0,
            },
        }
    }

    fn undo_frame(&mut self, frame: &Frame) {
        match frame.var {
            DecisionVar::Read(i) => self.links[i] = None,
            DecisionVar::Wait(i) => self.wait_choice[i] = None,
            DecisionVar::ChanRecv(i) => self.recv_choice[i] = None,
            DecisionVar::Choice(_) => {}
        }
        self.graph.undo_to(frame.graph_mark);
        while self.assign_trail.len() > frame.assign_mark {
            let v = self.assign_trail.pop().expect("assign trail");
            self.assignment[v.index()] = None;
        }
        while self.resolved_trail.len() > frame.resolved_mark {
            let idx = self.resolved_trail.pop().expect("resolved trail");
            if idx < frame.pending_len {
                self.resolved[idx] = false;
            }
        }
        self.pending.truncate(frame.pending_len);
        self.resolved.truncate(frame.pending_len);
        while self.consumed_trail.len() > frame.consumed_mark {
            let s = self.consumed_trail.pop().expect("consumed trail");
            self.consumed[s.index()] = false;
        }
    }

    fn out_of_budget(&self) -> bool {
        if self.config.max_decisions > 0 && self.stats.decisions >= self.config.max_decisions {
            return true;
        }
        if let Some(deadline) = self.deadline {
            // Checking time every decision is cheap relative to search.
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }

    fn run(&mut self) -> SolveOutcome {
        if matches!(self.install_base(), StepResult::Conflict) {
            return SolveOutcome::Unsat(self.stats);
        }
        if matches!(self.propagate(), StepResult::Conflict) {
            return SolveOutcome::Unsat(self.stats);
        }
        loop {
            if self.out_of_budget() {
                return SolveOutcome::Timeout(self.stats);
            }
            let Some((var, _)) = self.pick_decision() else {
                // Everything decided and propagated: extract the schedule.
                if let Some(solution) = self.extract() {
                    return SolveOutcome::Sat(Box::new(solution));
                }
                // The validator rejected the linearized order: a conflict
                // of the top frame's current candidate.
                if self.frames.is_empty() {
                    return SolveOutcome::Unsat(self.stats);
                }
                self.next_candidate();
                if !self.try_current() {
                    return SolveOutcome::Unsat(self.stats);
                }
                continue;
            };
            // Open a decision frame at candidate 0.
            self.stats.decisions += 1;
            let frame = Frame {
                var,
                cand: 0,
                graph_mark: self.graph.mark(),
                assign_mark: self.assign_trail.len(),
                resolved_mark: self.resolved_trail.len(),
                pending_len: self.pending.len(),
                consumed_mark: self.consumed_trail.len(),
            };
            self.frames.push(frame);
            if !self.try_current() {
                return SolveOutcome::Unsat(self.stats);
            }
        }
    }

    /// Tries candidates of the top frame (starting at its `cand`),
    /// backtracking deeper frames as needed. Returns `false` on overall
    /// UNSAT.
    fn try_current(&mut self) -> bool {
        loop {
            let Some(&top) = self.frames.last() else {
                return false;
            };
            if top.cand >= self.cand_count(top.var) {
                if !self.backtrack() {
                    return false;
                }
                continue;
            }
            let applied = matches!(self.apply(top.var, top.cand), StepResult::Ok);
            if applied && matches!(self.propagate(), StepResult::Ok) {
                return true;
            }
            self.next_candidate();
        }
    }

    /// Counts a conflict of the top frame's current candidate, undoes the
    /// candidate, and moves the frame on to its next one.
    fn next_candidate(&mut self) {
        self.stats.conflicts += 1;
        let top = *self.frames.last().expect("frame");
        self.undo_frame(&top);
        self.frames.last_mut().expect("frame").cand += 1;
    }

    /// Pops the top frame, whose candidates are exhausted and whose last
    /// candidate is already undone, and moves its parent on to its next
    /// candidate, which the caller then tries. Returns `false` when the
    /// root is exhausted (UNSAT).
    fn backtrack(&mut self) -> bool {
        self.frames.pop();
        if self.frames.is_empty() {
            return false;
        }
        self.next_candidate();
        true
    }

    /// Linearizes the order graph and validates the schedule.
    fn extract(&mut self) -> Option<Solution> {
        let trace = self.sys.trace;
        let order = self
            .graph
            .linearize(|x, last| {
                last.is_some_and(|l| trace.sap(SapId(x)).thread == trace.sap(SapId(l)).thread)
            })
            .expect("order graph is acyclic by construction");
        let schedule = Schedule::new(order.into_iter().map(SapId).collect(), trace);
        match validate(self.program, self.sys, &schedule) {
            Ok(witness) => Some(Solution {
                schedule,
                witness,
                stats: self.stats,
            }),
            Err(_) => None,
        }
    }
}
