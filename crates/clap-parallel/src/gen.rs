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
//!
//! The generator walks each prefix with the validator's rules and drops
//! it at the first SAP the validator rejects for every completion, so a
//! complete candidate arrives with its verdict already walked: see
//! [`Generator::run`].

use clap_constraints::{ConstraintSystem, ValidationError, Walk, Witness};
use clap_ir::Program;
use clap_symex::{SapId, SapKind};

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

/// Generates schedules for one CSP set, invoking `emit` per schedule with
/// its verdict. `emit` returns `false` to stop the enumeration early.
pub struct Generator<'a, 't> {
    program: &'a Program,
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
    /// Prefix pruning: the validator's walk over the prefix, which
    /// abandons it at the first SAP the validator rejects for every
    /// completion (massive search-space cut), and gives a complete
    /// candidate's verdict.
    walk: Option<Walk<'a>>,
    /// The walk that validates from scratch a candidate the pruning walk
    /// cannot decide, built on first use.
    scratch: Option<Walk<'a>>,
}

impl<'a, 't> Generator<'a, 't> {
    /// Creates a generator over the constraint system with prefix pruning
    /// enabled. `budget` caps the number of schedules emitted across all
    /// calls since the counters were last reset (0 = unlimited).
    pub fn new(program: &'a Program, sys: &'a ConstraintSystem<'t>, budget: u64) -> Self {
        let mut generator = Self::without_pruning(program, sys, budget);
        generator.walk = Some(Walk::new(program, sys));
        generator
    }

    /// Creates a generator that enumerates blindly and validates every
    /// candidate from scratch (the paper's plain generate-then-validate
    /// split). Its users are the property tests, which hold the pruned
    /// generator to it, the validator's verdict snapshot, which judges its
    /// candidates, and `bench_pipeline`'s `pruning_off` row.
    pub fn without_pruning(
        program: &'a Program,
        sys: &'a ConstraintSystem<'t>,
        budget: u64,
    ) -> Self {
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
            program,
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
            walk: None,
            scratch: None,
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

    /// `true` when a node budget or deadline stopped a run early since
    /// the counters were last reset.
    pub fn hit_budget(&self) -> bool {
        self.out_of_budget
    }

    /// Number of schedules generated since the counters were last reset.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Zeroes the schedule and node counts the budgets cap, and clears
    /// [`hit_budget`](Generator::hit_budget): the next runs start a fresh
    /// preemption-bound rung.
    pub fn reset_counters(&mut self) {
        self.generated = 0;
        self.nodes = 0;
        self.out_of_budget = false;
    }

    /// Runs the enumeration for one CSP set, handing `emit` each complete
    /// candidate with [`validate`](clap_constraints::validate())'s verdict
    /// on it. The pruning walk has placed every SAP of the candidate
    /// with the validator's rules, so the verdict is read off it; a
    /// candidate it cannot decide, or any candidate of a blind generator,
    /// is validated from scratch. Returns `false` when `emit` asked to
    /// stop or the budget ran out.
    pub fn run(
        &mut self,
        csps: &[Csp],
        emit: &mut impl FnMut(&[SapId], Result<Witness, ValidationError>) -> bool,
    ) -> bool {
        debug_assert!(self.order.is_empty());
        // Each CSP fires at most once.
        self.csp_used.clear();
        self.csp_used.resize(csps.len(), false);
        self.dfs(0, csps, emit)
    }

    /// The complete candidate's verdict: the pruning walk's, or else a
    /// validation from scratch.
    fn verdict(&mut self) -> Result<Witness, ValidationError> {
        if let Some(verdict) = self.walk.as_mut().and_then(|w| w.verdict(&self.order)) {
            return verdict;
        }
        let (program, sys) = (self.program, self.sys);
        self.scratch
            .get_or_insert_with(|| Walk::new(program, sys))
            .validate(&self.order)
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
        let Some(walk) = self.walk.as_mut() else {
            return (0, true);
        };
        let mark = walk.mark();
        (mark, walk.push(SapId(s), None).is_ok())
    }

    fn retract_sap(&mut self, s: u32, mark: usize) {
        if let Some(walk) = self.walk.as_mut() {
            walk.undo_to(mark);
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
    fn dfs(
        &mut self,
        cur: u32,
        csps: &[Csp],
        emit: &mut impl FnMut(&[SapId], Result<Witness, ValidationError>) -> bool,
    ) -> bool {
        if self.order.len() == self.done.len() {
            return self.complete(emit);
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

    /// Counts the complete candidate and hands it to `emit` with its
    /// verdict. Kept out of line: inlined, the verdict's temporaries
    /// would grow every frame of the recursive DFS.
    #[inline(never)]
    fn complete(
        &mut self,
        emit: &mut impl FnMut(&[SapId], Result<Witness, ValidationError>) -> bool,
    ) -> bool {
        self.generated += 1;
        let verdict = self.verdict();
        let keep_going = emit(&self.order, verdict);
        let in_budget = self.budget == 0 || self.generated < self.budget;
        keep_going && in_budget
    }

    fn switch_to(
        &mut self,
        t2: u32,
        csps: &[Csp],
        emit: &mut impl FnMut(&[SapId], Result<Witness, ValidationError>) -> bool,
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
    use clap_constraints::{validate, ConstraintSystem, Schedule};
    use clap_symex::failing_trace;
    use clap_vm::MemModel;

    const LOST_UPDATE: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    #[test]
    fn zero_csp_schedules_respect_hard_edges() {
        let (program, trace, _) = failing_trace(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let mut gen = Generator::new(&program, &sys, 0);
        let mut all = Vec::new();
        gen.run(&[], &mut |order, _| {
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
        let (program, trace, _) = failing_trace(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let mut found = None;
        for_each_csp_set(&sys, 1, 0, &mut |set| {
            let mut gen = Generator::new(&program, &sys, 0);
            let mut keep = true;
            gen.run(set, &mut |order, _| {
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
        let (program, trace, _) = failing_trace(LOST_UPDATE, MemModel::Sc, 500);
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
                Generator::without_pruning(program, sys, 0)
            };
            for_each_csp_set(sys, c, 0, &mut |set| {
                gen.run(set, &mut |order, _| {
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
        // `w` stores through the result of a rendezvous `try_send`, which
        // no prefix can evaluate: it succeeds only if `r` is positioned at
        // its `recv` next. Were main's read of a[1] ground to the initial
        // value, the path condition `x == 1` would prune every schedule
        // that reproduces the failure.
        let src = "global int a[2]; chan c(0);
             fn w() { let ok: int = try_send(c, 5); a[ok] = 1; }
             fn r() { let v: int = recv(c); }
             fn main() { let u: thread = fork r(); let t: thread = fork w();
                         let x: int = a[1];
                         if (x == 1) { assert(x == 0, \"saw the store\"); }
                         join t; join u; }";
        let (program, trace, _) = failing_trace(src, MemModel::Sc, 2000);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let pruned = accepted(&program, &sys, true);
        assert!(!pruned.is_empty(), "the failure reproduces");
        assert_eq!(pruned, accepted(&program, &sys, false));
    }

    #[test]
    fn generator_budget_stops_enumeration() {
        let (program, trace, _) = failing_trace(LOST_UPDATE, MemModel::Sc, 500);
        let sys = ConstraintSystem::build(&program, &trace, MemModel::Sc);
        let mut gen = Generator::new(&program, &sys, 2);
        let mut n = 0;
        gen.run(&[], &mut |_, _| {
            n += 1;
            true
        });
        assert!(gen.generated() <= 2);
        assert_eq!(n as u64, gen.generated());
        let _ = program;
    }
}
