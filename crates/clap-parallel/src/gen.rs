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
use clap_symex::{SapId, SapKind, SymTrace};
use std::collections::HashMap;

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
    /// Per thread: SAPs in program order and how many were emitted.
    emitted: Vec<u32>,
    /// Signal/broadcast wake-up candidates per wait SAP.
    wait_candidates: HashMap<u32, Vec<u32>>,
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
    /// condition or lock rule is violated (massive search-space cut; the
    /// final validator remains the arbiter).
    prune: Option<PruneState<'a>>,
}

/// A concrete memory cell: (global, evaluated index).
type MemKey = (u32, i64);

/// Incremental evaluation state for prefix pruning.
struct PruneState<'p> {
    program: &'p Program,
    /// Concrete value per symbolic variable (assigned when its read is
    /// emitted).
    assignment: Vec<Option<i64>>,
    assign_trail: Vec<u32>,
    /// Concrete memory image keyed by (global, cell); cells absent use
    /// the initial value, `None` marks an unknown (unevaluable) cell.
    memory: HashMap<(u32, i64), Option<i64>>,
    mem_trail: Vec<(MemKey, Option<Option<i64>>)>,
    /// Per path condition: how many of its variables are unassigned.
    cond_remaining: Vec<u32>,
    cond_trail: Vec<usize>,
    /// var -> path conditions that mention it.
    var_conds: HashMap<u32, Vec<usize>>,
    /// Mutex owner by id (thread index), with trail.
    owner: HashMap<u32, u32>,
    owner_trail: Vec<(u32, Option<u32>)>,
}

impl<'p> PruneState<'p> {
    fn new(program: &'p Program, trace: &SymTrace) -> Self {
        let mut var_conds: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut cond_remaining = Vec::with_capacity(trace.path_conds.len());
        for (ci, pc) in trace.path_conds.iter().enumerate() {
            let vars = trace.arena.vars(pc.expr);
            cond_remaining.push(vars.len() as u32);
            for v in vars {
                var_conds.entry(v.0).or_default().push(ci);
            }
        }
        PruneState {
            program,
            assignment: vec![None; trace.sym_vars.len()],
            assign_trail: Vec::new(),
            memory: HashMap::new(),
            mem_trail: Vec::new(),
            cond_remaining,
            cond_trail: Vec::new(),
            var_conds,
            owner: HashMap::new(),
            owner_trail: Vec::new(),
        }
    }

    fn marks(&self) -> (usize, usize, usize, usize) {
        (
            self.assign_trail.len(),
            self.mem_trail.len(),
            self.cond_trail.len(),
            self.owner_trail.len(),
        )
    }

    fn undo_to(&mut self, marks: (usize, usize, usize, usize)) {
        while self.assign_trail.len() > marks.0 {
            let v = self.assign_trail.pop().expect("assign trail");
            self.assignment[v as usize] = None;
        }
        while self.mem_trail.len() > marks.1 {
            let (key, prev) = self.mem_trail.pop().expect("mem trail");
            match prev {
                Some(v) => {
                    self.memory.insert(key, v);
                }
                None => {
                    self.memory.remove(&key);
                }
            }
        }
        while self.cond_trail.len() > marks.2 {
            let ci = self.cond_trail.pop().expect("cond trail");
            self.cond_remaining[ci] += 1;
        }
        while self.owner_trail.len() > marks.3 {
            let (m, prev) = self.owner_trail.pop().expect("owner trail");
            match prev {
                Some(t) => {
                    self.owner.insert(m, t);
                }
                None => {
                    self.owner.remove(&m);
                }
            }
        }
    }

    fn eval(&self, trace: &SymTrace, e: clap_symex::ExprId) -> Option<i64> {
        let a = &self.assignment;
        trace.arena.eval(e, &|v: clap_symex::SymVarId| a[v.index()])
    }

    fn cell(&self, trace: &SymTrace, addr: clap_symex::SymAddr) -> Option<(u32, i64)> {
        let idx = match addr.index {
            None => 0,
            Some(e) => self.eval(trace, e)?,
        };
        Some((addr.global.0, idx))
    }

    fn read_cell(&self, key: (u32, i64)) -> Option<i64> {
        match self.memory.get(&key) {
            Some(v) => *v,
            None => {
                let g = clap_ir::GlobalId(key.0);
                Some(SymTrace::init_value(self.program, g))
            }
        }
    }

    fn write_cell(&mut self, key: (u32, i64), value: Option<i64>) {
        let prev = self.memory.insert(key, value);
        self.mem_trail.push((key, prev));
    }

    fn assign(&mut self, trace: &SymTrace, var: u32, value: i64) -> bool {
        debug_assert!(self.assignment[var as usize].is_none());
        self.assignment[var as usize] = Some(value);
        self.assign_trail.push(var);
        // Path conditions whose last variable just grounded can now veto.
        if let Some(conds) = self.var_conds.get(&var) {
            let conds = conds.clone();
            for ci in conds {
                self.cond_remaining[ci] -= 1;
                self.cond_trail.push(ci);
                if self.cond_remaining[ci] == 0 {
                    let expr = trace.path_conds[ci].expr;
                    if self.eval(trace, expr) == Some(0) {
                        return false;
                    }
                }
            }
        }
        true
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
    /// generate-then-validate split; kept for the ablation benches).
    pub fn without_pruning(sys: &'a ConstraintSystem<'t>, budget: u64) -> Self {
        let n = sys.trace.sap_count();
        let mut succ = vec![Vec::new(); n];
        let mut indeg = vec![0u32; n];
        for &(a, b) in &sys.hard_edges {
            succ[a.index()].push(b.0);
            indeg[b.index()] += 1;
        }
        let mut wait_candidates = HashMap::new();
        for w in &sys.waits {
            let cands: Vec<u32> = w
                .signals
                .iter()
                .chain(w.broadcasts.iter())
                .map(|s| s.0)
                .collect();
            wait_candidates.insert(w.wait.0, cands);
        }
        Generator {
            sys,
            succ,
            indeg,
            emitted: vec![0; sys.trace.thread_count()],
            wait_candidates,
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
        // CSPs keyed by (t1, k) for O(1) lookup; each fires at most once.
        let csp_map: HashMap<(u32, u32), (u32, usize)> = csps
            .iter()
            .enumerate()
            .map(|(i, c)| ((c.t1, c.k), (c.t2, i)))
            .collect();
        self.csp_used = vec![false; csps.len()];
        self.dfs(0, &csp_map, emit)
    }

    /// The SAPs of `thread` that are ready (all hard predecessors done)
    /// and wake-up-feasible.
    fn ready_of(&self, thread: u32) -> Vec<u32> {
        self.sys.trace.per_thread[thread as usize]
            .iter()
            .map(|s| s.0)
            .filter(|&s| !self.done[s as usize] && self.indeg[s as usize] == 0)
            .filter(|&s| self.wake_feasible(s))
            .collect()
    }

    /// A wait completion is only emittable once a candidate signal or
    /// broadcast is already in the schedule (cheap necessary condition;
    /// the validator enforces exact matching).
    fn wake_feasible(&self, s: u32) -> bool {
        match self.wait_candidates.get(&s) {
            None => true,
            Some(cands) => cands.iter().any(|&c| self.done[c as usize]),
        }
    }

    /// Emits a SAP; returns the pruning-trail marks and whether the
    /// prefix is still viable (on `false` the caller must retract).
    fn emit_sap(&mut self, s: u32) -> ((usize, usize, usize, usize), bool) {
        self.done[s as usize] = true;
        self.order.push(SapId(s));
        let t = self.sys.trace.sap(SapId(s)).thread.0;
        self.emitted[t as usize] += 1;
        for i in 0..self.succ[s as usize].len() {
            let y = self.succ[s as usize][i];
            self.indeg[y as usize] -= 1;
        }
        let Some(prune) = self.prune.as_mut() else {
            return ((0, 0, 0, 0), true);
        };
        let marks = prune.marks();
        let trace = self.sys.trace;
        let ok = match trace.sap(SapId(s)).kind {
            SapKind::Read { addr, var } => match prune.cell(trace, addr) {
                Some(key) => match prune.read_cell(key) {
                    Some(v) => prune.assign(trace, var.0, v),
                    None => true, // unknown cell: cannot prune
                },
                None => true,
            },
            SapKind::Write { addr, value } => {
                let v = prune.eval(trace, value);
                match prune.cell(trace, addr) {
                    Some(key) => {
                        prune.write_cell(key, v);
                        true
                    }
                    None => true, // unknown index: cannot track this cell
                }
            }
            SapKind::Lock(m) | SapKind::Wait { mutex: m, .. } => {
                if let std::collections::hash_map::Entry::Vacant(e) = prune.owner.entry(m.0) {
                    e.insert(t);
                    prune.owner_trail.push((m.0, None));
                    true
                } else {
                    false // mutex already held: illegal prefix
                }
            }
            SapKind::Unlock(m) => {
                if prune.owner.get(&m.0) == Some(&t) {
                    let prev = prune.owner.remove(&m.0);
                    prune.owner_trail.push((m.0, prev));
                    true
                } else {
                    false
                }
            }
            // Atomics are scalar cells: in the total-order model a SAP's
            // position is its commit, so the cell image evolves exactly
            // like the validator's.
            SapKind::AtomicLoad { global, var, .. } => match prune.read_cell((global.0, 0)) {
                Some(v) => prune.assign(trace, var.0, v),
                None => true,
            },
            SapKind::AtomicStore { global, value, .. } => {
                let v = prune.eval(trace, value);
                prune.write_cell((global.0, 0), v);
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
                match prune.read_cell((global.0, 0)) {
                    Some(old) => {
                        let ok = prune.assign(trace, var.0, old);
                        let v = prune.eval(trace, value);
                        prune.write_cell((global.0, 0), v);
                        ok
                    }
                    None => {
                        prune.write_cell((global.0, 0), None);
                        true
                    }
                }
            }
            _ => true,
        };
        (marks, ok)
    }

    fn retract_sap(&mut self, s: u32, marks: (usize, usize, usize, usize)) {
        if let Some(prune) = self.prune.as_mut() {
            prune.undo_to(marks);
        }
        for i in 0..self.succ[s as usize].len() {
            let y = self.succ[s as usize][i];
            self.indeg[y as usize] += 1;
        }
        let t = self.sys.trace.sap(SapId(s)).thread.0;
        self.emitted[t as usize] -= 1;
        self.order.pop();
        self.done[s as usize] = false;
    }

    /// Runs thread `cur` greedily, branching at choice points. Returns
    /// `false` to abort the whole enumeration.
    fn dfs(
        &mut self,
        cur: u32,
        csps: &HashMap<(u32, u32), (u32, usize)>,
        emit: &mut impl FnMut(&[SapId]) -> bool,
    ) -> bool {
        if self.order.len() == self.done.len() {
            self.generated += 1;
            let keep_going = emit(&self.order);
            let in_budget = self.budget == 0 || self.generated < self.budget;
            return keep_going && in_budget;
        }
        // A pending CSP preempts the current thread before its next SAP,
        // firing at most once.
        let next_k = self.emitted[cur as usize] + 1;
        if let Some(&(t2, idx)) = csps.get(&(cur, next_k)) {
            // Only a real preemption: the thread must actually have a
            // ready SAP to be preempted from.
            if !self.csp_used[idx] && !self.ready_of(cur).is_empty() {
                self.csp_used[idx] = true;
                let cont = self.switch_to(t2, csps, emit);
                self.csp_used[idx] = false;
                return cont;
            }
        }
        let ready = self.ready_of(cur);
        if ready.is_empty() {
            // Non-preemptive switch: branch over all threads with work.
            let threads: Vec<u32> = (0..self.sys.trace.thread_count() as u32)
                .filter(|&t| t != cur && !self.ready_of(t).is_empty())
                .collect();
            if threads.is_empty() {
                // Dead end (e.g. a wait with no emitted signal yet whose
                // signaller is itself blocked by a CSP mid-state).
                return true;
            }
            for t in threads {
                if !self.switch_to(t, csps, emit) {
                    return false;
                }
            }
            return true;
        }
        // Branch over the thread's ready SAPs (a chain under SC — single
        // choice; a DAG frontier under TSO/PSO — the paper's SAP-tree).
        for s in ready {
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
            let (marks, viable) = self.emit_sap(s);
            let cont = if viable {
                self.dfs(cur, csps, emit)
            } else {
                true
            };
            self.retract_sap(s, marks);
            if !cont {
                return false;
            }
        }
        true
    }

    fn switch_to(
        &mut self,
        t2: u32,
        csps: &HashMap<(u32, u32), (u32, usize)>,
        emit: &mut impl FnMut(&[SapId]) -> bool,
    ) -> bool {
        if self.ready_of(t2).is_empty() {
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
