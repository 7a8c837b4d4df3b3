//! Constraint and variable counting, feeding Table 1's `#Constraints` and
//! `#Variables` columns and mirroring the complexity analysis of §4.1.

use crate::system::ConstraintSystem;

/// Size statistics of one constraint system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConstraintStats {
    /// Clauses contributed by `F_path` (plus 1 for `F_bug`).
    pub path_clauses: usize,
    /// Clauses contributed by `F_rw` (matching + exclusion terms).
    pub rw_clauses: usize,
    /// Clauses contributed by `F_so` (locking + partial order + signals).
    pub so_clauses: usize,
    /// Clauses contributed by `F_mo`.
    pub mo_clauses: usize,
    /// Symbolic value variables (one per shared read).
    pub value_vars: usize,
    /// Order variables (one per SAP).
    pub order_vars: usize,
    /// Binary wait/signal matching variables (`b_x` of §3.2).
    pub match_vars: usize,
}

impl ConstraintStats {
    /// Total clause count.
    pub fn total_clauses(&self) -> usize {
        self.path_clauses + self.rw_clauses + self.so_clauses + self.mo_clauses
    }

    /// Total variable count.
    pub fn total_vars(&self) -> usize {
        self.value_vars + self.order_vars + self.match_vars
    }
}

/// Counts the system using the paper's clause-shape accounting:
///
/// * `F_rw` — per read, each candidate write contributes its ordering
///   literal plus one "no intervening write" disjunct per other aliasing
///   write (the `4·N_r·N_w²` worst case of §4.1);
/// * locking — `2·|S|² + 2·|S|` per mutex (§3.2);
/// * wait/signal — `2·|SG|·|WT| + |SG|`;
/// * `F_mo` — one clause per order edge;
/// * `F_path` — one clause per recorded branch condition plus the bug.
pub fn count(system: &ConstraintSystem<'_>) -> ConstraintStats {
    let trace = system.trace;
    let path_clauses = trace.path_conds.len() + 1;

    let mut rw_clauses = 0usize;
    for r in &system.reads {
        for _cand in &r.candidates {
            // value binding + order literal + exclusion disjuncts
            rw_clauses += 2 + r.aliasing_writes.len().saturating_sub(1);
        }
    }

    let mut so_clauses = 0usize;
    for regions in system.lock_regions.values() {
        let s = regions.len();
        so_clauses += 2 * s * s + 2 * s;
    }
    let mut match_vars = 0usize;
    for w in &system.waits {
        let sg = w.signals.len() + w.broadcasts.len();
        // Each candidate wake-up source gets a binary matching variable.
        match_vars += sg;
        so_clauses += 2 * sg + 1;
    }
    for r in &system.recvs {
        // Send/recv matching mirrors wait/signal: one binary variable per
        // candidate send, plus one for the drained-after-close outcome.
        let cands = r.sends.len() + usize::from(!r.closes.is_empty());
        match_vars += cands;
        so_clauses += 2 * cands + 1;
    }
    // fork/join partial-order edges are part of F_so.
    let fork_join_edges = system.hard_edges.len() - system.mo_edge_count;
    so_clauses += fork_join_edges;

    let stats = ConstraintStats {
        path_clauses,
        rw_clauses,
        so_clauses,
        mo_clauses: system.mo_edge_count,
        value_vars: trace.sym_vars.len(),
        order_vars: trace.sap_count(),
        match_vars,
    };
    // Mirror Table 1's per-class breakdown into the metrics stream.
    let g = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
    clap_obs::gauge("constrain.path_clauses", g(stats.path_clauses));
    clap_obs::gauge("constrain.rw_clauses", g(stats.rw_clauses));
    clap_obs::gauge("constrain.so_clauses", g(stats.so_clauses));
    clap_obs::gauge("constrain.mo_clauses", g(stats.mo_clauses));
    clap_obs::gauge("constrain.value_vars", g(stats.value_vars));
    clap_obs::gauge("constrain.order_vars", g(stats.order_vars));
    clap_obs::gauge("constrain.match_vars", g(stats.match_vars));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ConstraintSystem;
    use clap_symex::failing_trace;
    use clap_vm::MemModel;

    #[test]
    fn counts_scale_with_trace() {
        let small = failing_trace(
            "global int x = 0;
             fn w() { let v: int = x; yield; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2, \"l\"); }",
            MemModel::Sc,
            500,
        );
        let big = failing_trace(
            "global int x = 0;
             fn w() { let i: int = 0; while (i < 5) { let v: int = x; yield; x = v + 1; i = i + 1; } }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 10, \"l\"); }",
            MemModel::Sc,
            3000,
        );
        let ss = count(&ConstraintSystem::build(&small.0, &small.1, MemModel::Sc));
        let bs = count(&ConstraintSystem::build(&big.0, &big.1, MemModel::Sc));
        assert!(bs.total_clauses() > ss.total_clauses());
        assert!(bs.total_vars() > ss.total_vars());
        assert_eq!(ss.order_vars, small.1.sap_count());
        assert_eq!(ss.value_vars, small.1.sym_vars.len());
        // Lost update: 3 reads, 2 writes → rw clauses within the paper's
        // 4·N_r·N_w² worst case.
        assert!(ss.rw_clauses <= 4 * 3 * 2 * 2);
    }

    #[test]
    fn lock_clauses_follow_formula() {
        let (p, t, _) = failing_trace(
            "global int x = 0; mutex m;
             fn w() { lock(m); let v: int = x; yield; x = v + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; let v: int = x; assert(v == 3, \"never\"); }",
            MemModel::Sc,
            500,
        );
        let sys = ConstraintSystem::build(&p, &t, MemModel::Sc);
        let stats = count(&sys);
        // Two regions on m: 2·2² + 2·2 = 12 lock clauses, plus fork/join
        // edges.
        assert!(stats.so_clauses >= 12);
    }
}
