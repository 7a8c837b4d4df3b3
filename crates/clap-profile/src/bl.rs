//! Ball–Larus path numbering over each function's CFG.
//!
//! Back edges are split in the classical way: a back edge `u → v` becomes a
//! pseudo edge `u → EXIT` (ending the current acyclic path) plus a pseudo
//! edge `ENTRY → v` (starting the next one), so every recorded path id is a
//! complete entry-to-exit path number in `0..num_paths` and decoding a path
//! id recovers both the blocks traversed *and* which back edge (if any)
//! ended the segment. This matches the paper's instrumentation points (§5):
//! function entry/exit, back-edge targets, and Ball–Larus branch points.
//!
//! Increments additionally have the standard prefix-sum property that the
//! running register value at *any* node uniquely identifies the partial
//! path from the segment start — which is what lets the final, truncated
//! segment of a crashing thread be reconstructed from `(register, block)`.

use clap_ir::{BlockId, FuncId, Function, Program};

/// Where a DAG edge leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeTarget {
    /// A real basic block.
    Block(BlockId),
    /// The virtual exit node.
    Exit,
}

/// Why an edge exists in the acyclic path DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// A real CFG edge.
    Real,
    /// `u → EXIT` standing in for back edge `u → header`: taking it ends
    /// the segment and the next segment starts at `header`.
    BackEdgeExit {
        /// The loop header the original back edge targets.
        header: BlockId,
        /// Initial register of the next segment: the increment of the
        /// `ENTRY → header` pseudo edge, kept here so the recorder's back
        /// edges need no lookup.
        restart: u64,
    },
    /// `ENTRY → header`: a segment that starts at a loop header rather
    /// than at the function entry.
    HeaderEntry {
        /// The loop header.
        header: BlockId,
    },
    /// A return block's edge to the virtual exit.
    ReturnExit,
}

/// One DAG edge with its Ball–Larus increment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlEdge {
    /// Destination.
    pub to: EdgeTarget,
    /// Register increment when the edge is taken.
    pub inc: u64,
    /// Edge provenance.
    pub kind: EdgeKind,
}

/// Ball–Larus tables for one function.
#[derive(Debug, Clone)]
pub struct BlFunc {
    /// Ordered out-edges per block (pseudo edges included). Order is part
    /// of the numbering: recorder and decoder must agree on it.
    pub edges: Vec<Vec<BlEdge>>,
    /// Number of distinct entry-to-exit paths (`ENTRY` pseudo edges
    /// included).
    pub num_paths: u64,
    /// The function's entry block.
    pub entry: BlockId,
}

impl BlFunc {
    /// The increment for the real CFG transition `from → to`, together
    /// with whether it ends the segment (back edge). Returns `None` for
    /// transitions that are not real CFG edges.
    pub fn transition(&self, from: BlockId, to: BlockId) -> Option<Transition> {
        for e in &self.edges[from.index()] {
            match e.kind {
                EdgeKind::Real if e.to == EdgeTarget::Block(to) => {
                    return Some(Transition::Forward { inc: e.inc });
                }
                EdgeKind::BackEdgeExit { header, restart } if header == to => {
                    return Some(Transition::Back {
                        exit_inc: e.inc,
                        restart,
                    });
                }
                _ => {}
            }
        }
        None
    }

    /// Initial register value for a segment starting at `header` (the
    /// increment of the `ENTRY → header` pseudo edge); `None` when
    /// `header` heads no loop.
    pub fn header_init(&self, header: BlockId) -> Option<u64> {
        header_entry_inc(&self.edges[self.entry.index()], header)
    }

    /// The increment of the return block's edge to EXIT.
    pub fn return_inc(&self, block: BlockId) -> Option<u64> {
        self.edges[block.index()]
            .iter()
            .find(|e| e.kind == EdgeKind::ReturnExit)
            .map(|e| e.inc)
    }
}

/// Classification of a real CFG transition for the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// A forward (DAG) edge: add `inc` to the register.
    Forward {
        /// Register increment.
        inc: u64,
    },
    /// A back edge: the segment ends with final value `register +
    /// exit_inc`; the next segment starts with `register = restart`.
    Back {
        /// Increment of the pseudo `u → EXIT` edge.
        exit_inc: u64,
        /// Initial register of the next segment (pseudo `ENTRY → header`).
        restart: u64,
    },
}

/// Ball–Larus tables for every function of a program.
#[derive(Debug, Clone)]
pub struct BlTables {
    funcs: Vec<BlFunc>,
}

impl BlTables {
    /// Builds tables for all functions.
    ///
    /// # Panics
    ///
    /// Panics if a function has more than `u64::MAX` acyclic paths (cannot
    /// happen for realistic CFGs).
    pub fn build(program: &Program) -> Self {
        BlTables {
            funcs: program.functions.iter().map(build_func).collect(),
        }
    }

    /// The tables for one function.
    pub fn func(&self, f: FuncId) -> &BlFunc {
        &self.funcs[f.index()]
    }
}

fn build_func(func: &Function) -> BlFunc {
    let n = func.blocks.len();
    // 1. Find back edges by DFS from the entry (gray-node detection).
    let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new();
    {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; n];
        // Iterative DFS with an explicit edge stack.
        let mut stack: Vec<(BlockId, usize)> = vec![(func.entry, 0)];
        color[func.entry.index()] = Color::Gray;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = func.block(node).term.successors();
            if *next < succs.len() {
                let succ = succs[*next];
                *next += 1;
                match color[succ.index()] {
                    Color::Gray => back_edges.push((node, succ)),
                    Color::White => {
                        color[succ.index()] = Color::Gray;
                        stack.push((succ, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color[node.index()] = Color::Black;
                stack.pop();
            }
        }
    }
    let is_back = |from: BlockId, to: BlockId| back_edges.contains(&(from, to));

    // 2. Build ordered DAG out-edge lists (increments filled in later).
    let mut edges: Vec<Vec<BlEdge>> = vec![Vec::new(); n];
    for (i, block) in func.blocks.iter().enumerate() {
        let from = BlockId::from(i);
        let succs = block.term.successors();
        if succs.is_empty() {
            edges[i].push(BlEdge {
                to: EdgeTarget::Exit,
                inc: 0,
                kind: EdgeKind::ReturnExit,
            });
            continue;
        }
        for succ in succs {
            if is_back(from, succ) {
                edges[i].push(BlEdge {
                    to: EdgeTarget::Exit,
                    inc: 0,
                    kind: EdgeKind::BackEdgeExit {
                        header: succ,
                        restart: 0, // set once the increments are known
                    },
                });
            } else {
                edges[i].push(BlEdge {
                    to: EdgeTarget::Block(succ),
                    inc: 0,
                    kind: EdgeKind::Real,
                });
            }
        }
    }
    // Pseudo ENTRY → header edges, appended to the entry block's list in
    // deterministic (discovery) order, deduplicated.
    let mut headers: Vec<BlockId> = Vec::new();
    for &(_, h) in &back_edges {
        if !headers.contains(&h) {
            headers.push(h);
        }
    }
    for &h in &headers {
        edges[func.entry.index()].push(BlEdge {
            to: EdgeTarget::Block(h),
            inc: 0,
            kind: EdgeKind::HeaderEntry { header: h },
        });
    }

    // 3. NumPaths over the DAG in reverse topological order.
    let order = topo_order(n, func.entry, &edges);
    let mut num_paths_at = vec![0u64; n];
    for &node in order.iter().rev() {
        let mut total = 0u64;
        let mut prefix = 0u64;
        let node_edges = &mut edges[node.index()];
        // First pass computes targets' counts via a scratch copy to avoid
        // double borrow; targets are strictly later in topo order, so their
        // counts are final.
        let counts: Vec<u64> = node_edges
            .iter()
            .map(|e| match e.to {
                EdgeTarget::Exit => 1,
                EdgeTarget::Block(_) => 0, // placeholder, fixed below
            })
            .collect();
        let mut counts = counts;
        for (ci, e) in node_edges.iter().enumerate() {
            if let EdgeTarget::Block(b) = e.to {
                counts[ci] = num_paths_at[b.index()];
            }
        }
        for (e, &c) in node_edges.iter_mut().zip(&counts) {
            e.inc = prefix;
            prefix = prefix.checked_add(c).expect("path count overflow");
            total = prefix;
        }
        num_paths_at[node.index()] = total.max(1);
    }

    // 4. Give each back edge its header's segment-start register.
    let entry_edges = edges[func.entry.index()].clone();
    for e in edges.iter_mut().flatten() {
        if let EdgeKind::BackEdgeExit { header, restart } = &mut e.kind {
            *restart = header_entry_inc(&entry_edges, *header).expect("back edges target headers");
        }
    }

    BlFunc {
        num_paths: num_paths_at[func.entry.index()],
        edges,
        entry: func.entry,
    }
}

/// The increment of the `ENTRY → header` pseudo edge among the entry
/// block's out-edges, if `header` heads a loop.
fn header_entry_inc(entry_edges: &[BlEdge], header: BlockId) -> Option<u64> {
    entry_edges
        .iter()
        .find(|e| e.kind == EdgeKind::HeaderEntry { header })
        .map(|e| e.inc)
}

/// Topological order of the reachable DAG nodes starting at `entry`.
fn topo_order(n: usize, entry: BlockId, edges: &[Vec<BlEdge>]) -> Vec<BlockId> {
    let mut visited = vec![false; n];
    let mut order = Vec::new();
    // Iterative post-order DFS.
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    visited[entry.index()] = true;
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        let node_edges = &edges[node.index()];
        if *next < node_edges.len() {
            let e = node_edges[*next];
            *next += 1;
            if let EdgeTarget::Block(b) = e.to {
                if !visited[b.index()] {
                    visited[b.index()] = true;
                    stack.push((b, 0));
                }
            }
        } else {
            order.push(node);
            stack.pop();
        }
    }
    order.reverse();
    order
}

/// Decodes a complete path id into the block walk of one segment.
///
/// Returns the blocks visited (starting at the segment start — the entry or
/// a loop header) and, when the segment ended by a back edge, the header at
/// which the *next* segment starts.
///
/// # Panics
///
/// Panics if `id >= num_paths` (corrupt log).
pub fn decode_path(bl: &BlFunc, id: u64) -> (Vec<BlockId>, Option<BlockId>) {
    assert!(
        id < bl.num_paths,
        "path id {id} out of range (< {})",
        bl.num_paths
    );
    let mut remaining = id;
    let mut blocks: Vec<BlockId> = Vec::new();
    let mut node = bl.entry;
    loop {
        // Pick the out-edge with the greatest increment <= remaining.
        let node_edges = &bl.edges[node.index()];
        let e = node_edges
            .iter()
            .rev()
            .find(|e| e.inc <= remaining)
            .expect("every node has an out-edge with inc 0");
        remaining -= e.inc;
        match e.kind {
            EdgeKind::HeaderEntry { header } => {
                // The segment really starts at the loop header; nothing has
                // been emitted yet, so just move there.
                debug_assert!(blocks.is_empty(), "ENTRY pseudo edge only at segment start");
                node = header;
            }
            EdgeKind::Real => {
                if blocks.is_empty() {
                    blocks.push(node);
                }
                let EdgeTarget::Block(b) = e.to else {
                    unreachable!("real edges go to blocks")
                };
                blocks.push(b);
                node = b;
            }
            EdgeKind::BackEdgeExit { header, .. } => {
                if blocks.is_empty() {
                    blocks.push(node);
                }
                debug_assert_eq!(remaining, 0, "leftover id after exit");
                return (blocks, Some(header));
            }
            EdgeKind::ReturnExit => {
                if blocks.is_empty() {
                    blocks.push(node);
                }
                debug_assert_eq!(remaining, 0, "leftover id after exit");
                return (blocks, None);
            }
        }
    }
}

/// Decodes a *truncated* segment: the partial path from `start` whose
/// running register equals `register` and which currently sits in `end`.
///
/// Uses DFS with backtracking; the Ball–Larus prefix-sum property makes the
/// answer unique.
pub fn decode_truncated(
    bl: &BlFunc,
    start: BlockId,
    register: u64,
    end: BlockId,
) -> Option<Vec<BlockId>> {
    fn dfs(
        bl: &BlFunc,
        node: BlockId,
        remaining: u64,
        end: BlockId,
        path: &mut Vec<BlockId>,
    ) -> bool {
        path.push(node);
        if node == end && remaining == 0 {
            return true;
        }
        for e in &bl.edges[node.index()] {
            if e.kind != EdgeKind::Real || e.inc > remaining {
                continue;
            }
            let EdgeTarget::Block(b) = e.to else { continue };
            if dfs(bl, b, remaining - e.inc, end, path) {
                return true;
            }
        }
        path.pop();
        false
    }
    let mut path = Vec::new();
    if dfs(bl, start, register, end, &mut path) {
        Some(path)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_ir::parse;

    fn tables(src: &str) -> (clap_ir::Program, BlTables) {
        let p = parse(src).unwrap();
        let t = BlTables::build(&p);
        (p, t)
    }

    #[test]
    fn straight_line_has_one_path() {
        let (p, t) = tables("global int x = 0; fn main() { x = 1; x = 2; }");
        assert_eq!(t.func(p.main).num_paths, 1);
        let (blocks, next) = decode_path(t.func(p.main), 0);
        assert_eq!(blocks, vec![BlockId(0)]);
        assert_eq!(next, None);
    }

    #[test]
    fn diamond_has_two_paths_with_distinct_ids() {
        let (p, t) = tables(
            "global int x = 0;
             fn main() { if (x == 0) { x = 1; } else { x = 2; } }",
        );
        let bl = t.func(p.main);
        assert_eq!(bl.num_paths, 2);
        let (p0, _) = decode_path(bl, 0);
        let (p1, _) = decode_path(bl, 1);
        assert_ne!(p0, p1);
        // Both paths start at the entry and end at the same join/return.
        assert_eq!(p0[0], bl.entry);
        assert_eq!(p1[0], bl.entry);
        assert_eq!(p0.last(), p1.last());
    }

    #[test]
    fn nested_ifs_multiply_paths() {
        let (p, t) = tables(
            "global int x = 0;
             fn main() {
                 if (x == 0) { x = 1; } else { x = 2; }
                 if (x == 1) { x = 3; } else { x = 4; }
             }",
        );
        let bl = t.func(p.main);
        assert_eq!(bl.num_paths, 4);
        // All 4 ids decode to distinct complete paths.
        let mut seen = std::collections::HashSet::new();
        for id in 0..4 {
            let (blocks, next) = decode_path(bl, id);
            assert_eq!(next, None);
            assert!(seen.insert(blocks));
        }
    }

    #[test]
    fn loop_splits_into_header_segments() {
        let (p, t) = tables(
            "global int x = 0;
             fn main() { let i: int = 0; while (i < 3) { i = i + 1; } x = i; }",
        );
        let bl = t.func(p.main);
        // Paths: entry→header→exit (no iteration), entry→header→body→back,
        // header→body→back (from ENTRY pseudo), header→exit (from pseudo).
        assert_eq!(bl.num_paths, 4);
        let mut saw_back = false;
        let mut saw_return = false;
        for id in 0..bl.num_paths {
            let (_, next) = decode_path(bl, id);
            match next {
                Some(h) => {
                    saw_back = true;
                    assert!(bl.header_init(h).is_some());
                }
                None => saw_return = true,
            }
        }
        assert!(saw_back && saw_return);
    }

    #[test]
    fn transition_classifies_edges() {
        let (p, t) = tables(
            "global int x = 0;
             fn main() { let i: int = 0; while (i < 3) { i = i + 1; } x = i; }",
        );
        let bl = t.func(p.main);
        let f = p.function(p.main);
        // Find the back edge by scanning terminators.
        let mut found_back = false;
        for (i, b) in f.blocks.iter().enumerate() {
            for s in b.term.successors() {
                match bl.transition(BlockId::from(i), s) {
                    Some(Transition::Back { restart, .. }) => {
                        found_back = true;
                        assert_eq!(Some(restart), bl.header_init(s));
                    }
                    Some(Transition::Forward { .. }) => {}
                    None => panic!("every real edge classifies"),
                }
            }
        }
        assert!(found_back);
    }

    #[test]
    fn truncated_decode_recovers_partial_path() {
        let (p, t) = tables(
            "global int x = 0;
             fn main() { if (x == 0) { x = 1; } else { x = 2; } x = 3; }",
        );
        let bl = t.func(p.main);
        // Walk the then-branch manually to get its register value, then
        // check decode_truncated finds the same prefix.
        let f = p.function(p.main);
        let entry = bl.entry;
        let clap_ir::Terminator::Branch { then_bb, .. } = f.block(entry).term else {
            panic!("entry branches")
        };
        let Some(Transition::Forward { inc }) = bl.transition(entry, then_bb) else {
            panic!("forward edge")
        };
        let path = decode_truncated(bl, entry, inc, then_bb).unwrap();
        assert_eq!(path, vec![entry, then_bb]);
        // Register 0 at the entry is the empty prefix.
        assert_eq!(decode_truncated(bl, entry, 0, entry).unwrap(), vec![entry]);
    }

    #[test]
    fn return_inc_present_on_return_blocks() {
        let (p, t) = tables("fn main() { }");
        let bl = t.func(p.main);
        assert_eq!(bl.return_inc(bl.entry), Some(0));
    }
}
