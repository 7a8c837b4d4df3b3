//! An incremental directed graph over order variables with cycle
//! rejection and trail-based undo — the solver's order theory.
//!
//! `add_edge(a, b)` asserts `O_a < O_b`; it fails (and leaves the graph
//! unchanged) when the opposite is already implied, i.e. when `b` reaches
//! `a`. Beside the edge lists the graph keeps its transitive closure as a
//! bitset, one row of `n.div_ceil(64)` words per node, so every
//! reachability query is one bit test. An accepted edge `a → b` ORs row
//! `b` (and bit `b`) into every row that reaches `a`, touching only the
//! words between the first and last set word of row `b`: O(n²/64) word
//! operations at worst, O(n) for an edge that extends a chain forward.
//! `add_edges` takes a whole set of edges that will never be undone,
//! such as the solver's base constraints, and fills in the closure once
//! in reverse topological order.
//!
//! Every accepted edge is recorded on a trail, and so is the old content
//! of a closure row the first time an edge rewrites it after a
//! [`OrderGraph::mark`] (or an undo), so the backtracking search can
//! rewind to any earlier mark in O(rows restored). Edges added before
//! the first mark can never be undone and save nothing. The trail thus
//! holds at most one row per node for each mark under which rows
//! changed.

/// The incremental order graph.
#[derive(Debug, Clone)]
pub struct OrderGraph {
    succ: Vec<Vec<u32>>,
    /// Words per closure row.
    words: usize,
    /// The transitive closure: bit `y` of row `x` is set when a path
    /// `x ⇒ y` of at least one edge exists.
    reach: Vec<u64>,
    /// Per accepted edge: its source and the length of `saved_rows`
    /// before the edge rewrote any row.
    trail: Vec<(u32, usize)>,
    /// Closure rows overwritten by accepted edges, newest last.
    saved_rows: Vec<u32>,
    /// Their previous contents, `words` per saved row.
    saved_words: Vec<u64>,
    /// The save epoch, advanced by every mark and undo; 0 before the
    /// first mark, when nothing needs saving.
    epoch: u64,
    /// Per row: the epoch in which it was last saved. A row rewritten
    /// again in the same epoch already has its older content saved.
    saved_in: Vec<u64>,
    /// Row `b` plus bit `b` while `add_edge(_, b)` spreads it.
    scratch: Vec<u64>,
    queries: u64,
    row_updates: u64,
    edges_added: u64,
}

impl OrderGraph {
    /// Creates a graph over `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        OrderGraph {
            succ: vec![Vec::new(); n],
            words,
            reach: vec![0; n * words],
            trail: Vec::new(),
            saved_rows: Vec::new(),
            saved_words: Vec::new(),
            epoch: 0,
            saved_in: vec![0; n],
            scratch: vec![0; words],
            queries: 0,
            row_updates: 0,
            edges_added: 0,
        }
    }

    /// Reachability queries answered over the graph's lifetime.
    pub fn query_count(&self) -> u64 {
        self.queries
    }

    /// Closure rows rewritten by accepted edges (the propagation work).
    pub fn row_update_count(&self) -> u64 {
        self.row_updates
    }

    /// Edges accepted over the graph's lifetime (including later-undone
    /// ones).
    pub fn edge_count(&self) -> u64 {
        self.edges_added
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// `true` when a directed path `a ⇒ b` exists (including `a == b`).
    pub fn reaches(&mut self, a: u32, b: u32) -> bool {
        if a == b {
            return true;
        }
        self.queries += 1;
        self.reach[a as usize * self.words + b as usize / 64] >> (b % 64) & 1 == 1
    }

    /// `true` when `O_a < O_b` is already implied.
    pub fn implies(&mut self, a: u32, b: u32) -> bool {
        a != b && self.reaches(a, b)
    }

    /// `true` when asserting `O_a < O_b` would create a cycle (i.e. the
    /// graph implies `O_b <= O_a`).
    pub fn forbids(&mut self, a: u32, b: u32) -> bool {
        self.reaches(b, a)
    }

    /// Asserts `O_a < O_b`. Returns `false` (graph unchanged) when this
    /// would create a cycle.
    pub fn add_edge(&mut self, a: u32, b: u32) -> bool {
        if self.reaches(b, a) {
            return false;
        }
        // Duplicate edges are skipped so that the edge lists, which
        // `linearize` walks, stay small on undo-heavy searches; a linear
        // scan is fine at the degrees we see.
        if self.succ[a as usize].contains(&b) {
            return true;
        }
        self.succ[a as usize].push(b);
        self.trail.push((a, self.saved_rows.len()));
        self.edges_added += 1;
        // Everything that reaches `a`, and `a` itself, now also reaches
        // `b` and everything `b` reaches: the words `lo..hi` of `scratch`.
        let words = self.words;
        let b_row = b as usize * words;
        self.scratch
            .copy_from_slice(&self.reach[b_row..b_row + words]);
        self.scratch[b as usize / 64] |= 1 << (b % 64);
        let set = |&w: &u64| w != 0;
        let lo = self.scratch.iter().position(set).expect("bit b");
        let hi = self.scratch.iter().rposition(set).expect("bit b") + 1;
        let spread = &self.scratch[lo..hi];
        let (a_word, a_bit) = (a as usize / 64, 1 << (a % 64));
        for x in 0..self.succ.len() {
            let start = x * words;
            if x != a as usize && self.reach[start + a_word] & a_bit == 0 {
                continue;
            }
            let row = &self.reach[start + lo..start + hi];
            if row.iter().zip(spread).all(|(r, s)| s & !r == 0) {
                continue;
            }
            if self.saved_in[x] != self.epoch {
                self.saved_in[x] = self.epoch;
                self.saved_rows.push(x as u32);
                self.saved_words
                    .extend_from_slice(&self.reach[start..start + words]);
            }
            for (r, s) in self.reach[start + lo..start + hi].iter_mut().zip(spread) {
                *r |= s;
            }
            self.row_updates += 1;
        }
        true
    }

    /// Asserts every edge of `edges`, in order, as [`OrderGraph::add_edge`]
    /// would one at a time, but fills in the closure once for the whole
    /// set: in reverse topological order each row becomes the union of
    /// its successors' rows and bits, O((n + e)·n/64) word operations in
    /// all. For edges that are never undone: nothing is saved for them.
    /// Returns `false` when the edges close a cycle, and the graph must
    /// then be dropped.
    ///
    /// # Panics
    ///
    /// Panics once a mark has been taken.
    pub(crate) fn add_edges(&mut self, edges: impl IntoIterator<Item = (u32, u32)>) -> bool {
        assert_eq!(self.epoch, 0, "add_edges after a mark");
        for (a, b) in edges {
            if a == b {
                return false;
            }
            // The query `add_edge` asks before accepting the edge.
            self.queries += 1;
            if self.succ[a as usize].contains(&b) {
                continue;
            }
            self.succ[a as usize].push(b);
            self.trail.push((a, 0));
            self.edges_added += 1;
        }
        // Kahn's algorithm; a node left out lies on a cycle.
        let n = self.succ.len();
        let mut indeg = vec![0u32; n];
        for &y in self.succ.iter().flatten() {
            indeg[y as usize] += 1;
        }
        let mut order: Vec<u32> = (0..n as u32).filter(|&x| indeg[x as usize] == 0).collect();
        let mut next = 0;
        while let Some(&x) = order.get(next) {
            next += 1;
            for &y in &self.succ[x as usize] {
                indeg[y as usize] -= 1;
                if indeg[y as usize] == 0 {
                    order.push(y);
                }
            }
        }
        if order.len() < n {
            return false;
        }
        let words = self.words;
        for &x in order.iter().rev() {
            let row = x as usize * words;
            let mut changed = false;
            for &y in &self.succ[x as usize] {
                let from = y as usize * words;
                for w in 0..words {
                    let old = self.reach[row + w];
                    self.reach[row + w] |= self.reach[from + w];
                    changed |= self.reach[row + w] != old;
                }
                let (word, bit) = (row + y as usize / 64, 1 << (y % 64));
                changed |= self.reach[word] & bit == 0;
                self.reach[word] |= bit;
            }
            self.row_updates += u64::from(changed);
        }
        true
    }

    /// A rewind point for [`OrderGraph::undo_to`]. Starts a new save
    /// epoch, so each closure row is saved at most once until the next
    /// mark or undo.
    pub fn mark(&mut self) -> usize {
        self.epoch += 1;
        self.trail.len()
    }

    /// Removes every edge added after `mark`, with its closure rows.
    pub fn undo_to(&mut self, mark: usize) {
        if self.trail.len() <= mark {
            return;
        }
        let saved = self.trail[mark].1;
        for (a, _) in self.trail.drain(mark..) {
            self.succ[a as usize].pop();
        }
        let words = self.words;
        while self.saved_rows.len() > saved {
            let x = self.saved_rows.pop().expect("saved row") as usize;
            let from = self.saved_words.len() - words;
            self.reach[x * words..(x + 1) * words].copy_from_slice(&self.saved_words[from..]);
            self.saved_words.truncate(from);
        }
        // The rows saved in this epoch are restored and their copies
        // gone: the next rewrite must save them again.
        self.epoch += 1;
    }

    /// A topological order of all nodes that prefers to keep emitting
    /// nodes accepted by `prefer` (used to linearize schedules with few
    /// preemptions: `prefer` says "same thread as the last emitted SAP").
    ///
    /// Returns `None` if the graph has a cycle (cannot happen when all
    /// edges went through [`OrderGraph::add_edge`]).
    pub fn linearize(&self, mut prefer: impl FnMut(u32, Option<u32>) -> bool) -> Option<Vec<u32>> {
        let n = self.succ.len();
        let mut indeg = vec![0usize; n];
        for succs in &self.succ {
            for &y in succs {
                indeg[y as usize] += 1;
            }
        }
        let mut ready: Vec<u32> = (0..n as u32).filter(|&x| indeg[x as usize] == 0).collect();
        let mut out = Vec::with_capacity(n);
        let mut last: Option<u32> = None;
        while !ready.is_empty() {
            // Prefer a ready node the caller likes (e.g. same thread).
            let pick = ready.iter().position(|&x| prefer(x, last)).unwrap_or(0);
            let x = ready.swap_remove(pick);
            out.push(x);
            last = Some(x);
            for &y in &self.succ[x as usize] {
                indeg[y as usize] -= 1;
                if indeg[y as usize] == 0 {
                    ready.push(y);
                }
            }
        }
        (out.len() == n).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_cycles() {
        let mut g = OrderGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(2, 0), "closing the cycle is rejected");
        assert!(g.implies(0, 2));
        assert!(g.forbids(2, 0));
        assert!(!g.forbids(0, 2));
    }

    #[test]
    fn undo_restores_state() {
        let mut g = OrderGraph::new(4);
        g.add_edge(0, 1);
        let mark = g.mark();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.implies(0, 3));
        g.undo_to(mark);
        assert!(!g.implies(0, 3));
        assert!(g.implies(0, 1));
        // The previously-cyclic edge is now acceptable.
        assert!(g.add_edge(3, 0));
    }

    #[test]
    fn duplicate_edges_are_noops() {
        let mut g = OrderGraph::new(2);
        assert!(g.add_edge(0, 1));
        let mark = g.mark();
        assert!(g.add_edge(0, 1));
        assert_eq!(g.trail.len(), mark, "duplicate adds nothing to the trail");
    }

    /// Two chains of several thousand nodes added forward, the way F_mo
    /// adds a thread's program order. Row `x` of a chain is rewritten by
    /// every later edge of it, but saved at most once per mark, and not
    /// at all before the first mark.
    #[test]
    fn forward_chains_save_each_row_at_most_once_per_mark() {
        const LEN: u32 = 2_000;
        let per_chain = u64::from(LEN - 1) * u64::from(LEN) / 2;
        let mut g = OrderGraph::new(2 * LEN as usize);
        for x in 0..LEN - 1 {
            assert!(g.add_edge(x, x + 1));
        }
        assert_eq!(g.row_update_count(), per_chain);
        assert!(g.saved_rows.is_empty() && g.saved_words.is_empty());
        // Installed at once, the chain gets the same closure, writing
        // each row once.
        let mut at_once = OrderGraph::new(2 * LEN as usize);
        assert!(at_once.add_edges((0..LEN - 1).map(|x| (x, x + 1))));
        assert!(at_once.reach == g.reach);
        assert_eq!(at_once.row_update_count(), u64::from(LEN - 1));
        assert!(at_once.saved_rows.is_empty() && at_once.trail.len() == g.trail.len());
        let mark = g.mark();
        for x in LEN..2 * LEN - 1 {
            assert!(g.add_edge(x, x + 1));
        }
        assert_eq!(g.row_update_count(), 2 * per_chain);
        // Every row of the second chain but its last changed.
        assert_eq!(g.saved_rows.len(), LEN as usize - 1);
        assert_eq!(g.saved_words.len(), (LEN as usize - 1) * g.words);
        assert!(g.reaches(LEN, 2 * LEN - 1));
        g.undo_to(mark);
        assert!(g.saved_rows.is_empty() && g.saved_words.is_empty());
        assert!(!g.reaches(LEN, LEN + 1));
        assert!(g.reaches(0, LEN - 1));
        // After the undo the rows are saved afresh.
        g.mark();
        assert!(g.add_edge(LEN - 1, LEN));
        assert_eq!(g.saved_rows.len(), LEN as usize);
        assert!(g.reaches(0, LEN));
    }

    #[test]
    fn linearize_respects_edges_and_preference() {
        let mut g = OrderGraph::new(6);
        // Two "threads": 0→1→2 and 3→4→5.
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            g.add_edge(a, b);
        }
        // Prefer continuing the same "thread" (nodes 0-2 vs 3-5).
        let order = g
            .linearize(|x, last| last.is_some_and(|l| (l < 3) == (x < 3)))
            .unwrap();
        assert_eq!(order.len(), 6);
        let pos = |x: u32| order.iter().position(|&y| y == x).unwrap();
        for (a, b) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            assert!(pos(a) < pos(b));
        }
        // With the preference, the two chains come out contiguously.
        let firsts: Vec<bool> = order.iter().map(|&x| x < 3).collect();
        let switches = firsts.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 1);
    }

    /// Reference reachability: a plain DFS over the edge lists.
    fn dfs_reaches(g: &OrderGraph, a: u32, b: u32) -> bool {
        let mut seen = vec![false; g.len()];
        let mut stack = vec![a];
        while let Some(x) = stack.pop() {
            if x == b {
                return true;
            }
            for &y in &g.succ[x as usize] {
                if !std::mem::replace(&mut seen[y as usize], true) {
                    stack.push(y);
                }
            }
        }
        false
    }

    /// Random sequences of `add_edge`, `mark` and `undo_to` over up to
    /// 130 nodes; half the cases have over 128, so that a closure row spans
    /// three words. They start from a base installed with `add_edges`,
    /// which must leave the graph and its counts as `add_edge` one edge at
    /// a time does, and must report a cycle exactly when one of those calls
    /// would. Besides fresh random edges they re-add accepted edges
    /// (duplicates), add their reverses (cycles, rejected) and chain
    /// neighbours (long paths). After every operation the closure must
    /// agree with a DFS over the edge lists on every pair, no row may be
    /// saved twice in one save epoch (none before the first mark), and the
    /// graph must stay acyclic.
    #[test]
    fn random_edge_sets_stay_acyclic() {
        let mut rng =
            clap_vm::Rng::for_test("clap_solver::ordergraph::tests::random_edge_sets_stay_acyclic");
        for _ in 0..32 {
            let n = if rng.below(2) == 0 {
                1 + rng.below(130)
            } else {
                129 + rng.below(2)
            };
            // Mostly forward edges, so that most bases are acyclic.
            let base: Vec<(u32, u32)> = (0..rng.below(60))
                .map(|_| {
                    let (x, y) = (rng.below(n) as u32, rng.below(n) as u32);
                    if rng.below(10) == 0 {
                        (x, y)
                    } else {
                        (x.min(y), x.max(y))
                    }
                })
                .collect();
            let n = n as u32;
            let mut g = OrderGraph::new(n as usize);
            let mut one_by_one = OrderGraph::new(n as usize);
            let acyclic = base.iter().all(|&(a, b)| one_by_one.add_edge(a, b));
            assert_eq!(g.add_edges(base.iter().copied()), acyclic);
            if acyclic {
                assert_eq!(&g.succ, &one_by_one.succ);
                assert_eq!(&g.reach, &one_by_one.reach);
                assert_eq!(g.query_count(), one_by_one.query_count());
                assert_eq!(g.edge_count(), one_by_one.edge_count());
            } else {
                g = OrderGraph::new(n as usize);
            }
            // Accepted, non-duplicate edges in order, and the marks taken
            // with the edge count at the time.
            let mut accepted: Vec<(u32, u32)> = Vec::new();
            let mut marks: Vec<(usize, usize)> = Vec::new();
            // Where the current save epoch's rows start in `saved_rows`.
            let mut epoch_start = 0;
            for _ in 0..rng.below(80) {
                let kind = rng.below(10);
                let (x, y) = (rng.below(130) as u32, rng.below(130) as u32);
                let last = accepted.last().copied();
                let edge = match kind {
                    0..=3 => Some((x % n, y % n)),
                    4 => Some((x % n, (x + 1 + y % 4) % n)),
                    5 => last,
                    6 => last.map(|(a, b)| (b, a)),
                    _ => None,
                };
                if let Some((a, b)) = edge {
                    let expect = !dfs_reaches(&g, b, a);
                    let duplicate = g.succ[a as usize].contains(&b);
                    let len = g.trail.len();
                    assert_eq!(g.add_edge(a, b), expect);
                    if expect && !duplicate {
                        accepted.push((a, b));
                    } else {
                        assert_eq!(g.trail.len(), len);
                    }
                } else if kind == 7 || marks.is_empty() {
                    marks.push((g.mark(), accepted.len()));
                    epoch_start = g.saved_rows.len();
                } else {
                    let keep = y as usize % marks.len();
                    let (mark, len) = marks[keep];
                    marks.truncate(keep + 1);
                    g.undo_to(mark);
                    accepted.truncate(len);
                    assert_eq!(g.trail.len(), mark);
                    epoch_start = g.saved_rows.len();
                }
                if marks.is_empty() {
                    assert!(g.saved_rows.is_empty());
                }
                let mut fresh = g.saved_rows[epoch_start..].to_vec();
                fresh.sort_unstable();
                fresh.dedup();
                assert_eq!(fresh.len(), g.saved_rows.len() - epoch_start);
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(g.reaches(a, b), dfs_reaches(&g, a, b));
                    }
                }
            }
            let order = g.linearize(|_, _| false).expect("acyclic");
            let mut pos = vec![0; n as usize];
            for (i, &x) in order.iter().enumerate() {
                pos[x as usize] = i;
            }
            for (a, b) in accepted {
                assert!(pos[a as usize] < pos[b as usize]);
            }
        }
    }
}
