//! Symbolic expressions: an interned DAG arena with constant folding.
//!
//! Every value the symbolic executor manipulates is an [`ExprId`] into an
//! [`ExprArena`]. Shared loads introduce fresh [`SymVarId`]s; everything
//! else is built from constants and operators. Interning keeps the racey-
//! style iterated mixing functions polynomial in memory, and evaluation
//! under a partial assignment is memoized per call, so shared subterms are
//! evaluated once.

use clap_ir::ast::{BinOp, UnOp};
use clap_ir::{eval_binop, eval_unop};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

/// A fresh symbolic value: the unknown result of one shared read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymVarId(pub u32);

impl SymVarId {
    /// Underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A node handle in an [`ExprArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

impl ExprId {
    /// Underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A concrete 64-bit value.
    Const(i64),
    /// A symbolic read result.
    Sym(SymVarId),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation (semantics of [`clap_ir::eval_binop`]).
    Binary(BinOp, ExprId, ExprId),
    /// If-then-else over an integer condition (0 = false); used by
    /// symbolic address resolution.
    Ite(ExprId, ExprId, ExprId),
}

/// The memo behind [`ExprArena::eval`] (whose stamps [`ExprArena::vars`]
/// also uses to mark visited nodes): slot `i` holds the value of node
/// `i` when its stamp is the current call's. Each call takes a fresh
/// stamp, which invalidates every slot at once, so the array is reused
/// across calls (and arenas) without being cleared. It grows to the
/// largest arena evaluated on its thread and lives as long as the thread.
#[derive(Default)]
struct EvalMemo {
    stamp: u64,
    slots: Vec<(u64, i64)>,
}

thread_local! {
    static EVAL_MEMO: Cell<EvalMemo> = const {
        Cell::new(EvalMemo {
            stamp: 0,
            slots: Vec::new(),
        })
    };
}

/// The interned expression store.
#[derive(Debug, Clone, Default)]
pub struct ExprArena {
    nodes: Vec<Node>,
    dedup: HashMap<Node, ExprId>,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different arena.
    pub fn node(&self, id: ExprId) -> Node {
        self.nodes[id.index()]
    }

    fn intern(&mut self, node: Node) -> ExprId {
        if let Some(&id) = self.dedup.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.dedup.insert(node, id);
        id
    }

    /// Interns a constant.
    pub fn constant(&mut self, v: i64) -> ExprId {
        self.intern(Node::Const(v))
    }

    /// Interns a symbolic variable reference.
    pub fn sym(&mut self, var: SymVarId) -> ExprId {
        self.intern(Node::Sym(var))
    }

    /// Builds a unary operation, constant-folding when possible.
    pub fn unary(&mut self, op: UnOp, a: ExprId) -> ExprId {
        if let Node::Const(v) = self.node(a) {
            return self.constant(eval_unop(op, v));
        }
        self.intern(Node::Unary(op, a))
    }

    /// Builds a binary operation, constant-folding when possible.
    pub fn binary(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        if let (Node::Const(x), Node::Const(y)) = (self.node(a), self.node(b)) {
            return self.constant(eval_binop(op, x, y));
        }
        // Light algebraic identities keep racey-style chains compact.
        match (op, self.node(a), self.node(b)) {
            (BinOp::Add, _, Node::Const(0)) | (BinOp::Sub, _, Node::Const(0)) => return a,
            (BinOp::Add, Node::Const(0), _) => return b,
            (BinOp::Mul, _, Node::Const(1)) => return a,
            (BinOp::Mul, Node::Const(1), _) => return b,
            (BinOp::And, _, Node::Const(c)) if c != 0 => return self.truthy(a),
            (BinOp::And, Node::Const(c), _) if c != 0 => return self.truthy(b),
            _ => {}
        }
        self.intern(Node::Binary(op, a, b))
    }

    /// Builds an if-then-else.
    pub fn ite(&mut self, cond: ExprId, then_e: ExprId, else_e: ExprId) -> ExprId {
        if let Node::Const(c) = self.node(cond) {
            return if c != 0 { then_e } else { else_e };
        }
        if then_e == else_e {
            return then_e;
        }
        self.intern(Node::Ite(cond, then_e, else_e))
    }

    /// Normalizes an integer to a 0/1 boolean (`e != 0`).
    pub fn truthy(&mut self, e: ExprId) -> ExprId {
        match self.node(e) {
            Node::Const(c) => self.constant((c != 0) as i64),
            Node::Binary(op, _, _) if op.is_comparison() || op.is_logical() => e,
            Node::Unary(UnOp::Not, _) => e,
            _ => {
                let zero = self.constant(0);
                self.intern(Node::Binary(BinOp::Ne, e, zero))
            }
        }
    }

    /// Logical negation of a boolean-valued expression.
    pub fn not(&mut self, e: ExprId) -> ExprId {
        let b = self.truthy(e);
        self.unary(UnOp::Not, b)
    }

    /// Evaluates `id` under a full/partial assignment of symbolic
    /// variables. Returns `None` when an unassigned variable is reached.
    ///
    /// Shared subterms are evaluated once per call, so the cost stays
    /// linear in the DAG's size. The memo is a dense per-thread array
    /// that is reused across calls without allocating.
    pub fn eval(&self, id: ExprId, assignment: &impl Fn(SymVarId) -> Option<i64>) -> Option<i64> {
        // A leaf shares nothing: no memo needed.
        match self.node(id) {
            Node::Const(c) => return Some(c),
            Node::Sym(s) => return assignment(s),
            _ => {}
        }
        EVAL_MEMO.with(|cell| {
            // Taken for the call, so that an `eval` from inside
            // `assignment` starts from an empty memo instead of this one.
            let mut memo = cell.take();
            memo.stamp += 1;
            if memo.slots.len() < self.nodes.len() {
                memo.slots.resize(self.nodes.len(), (0, 0));
            }
            let v = self.eval_in(id, assignment, &mut memo);
            cell.set(memo);
            v
        })
    }

    fn eval_in(
        &self,
        id: ExprId,
        assignment: &impl Fn(SymVarId) -> Option<i64>,
        memo: &mut EvalMemo,
    ) -> Option<i64> {
        let (stamp, v) = memo.slots[id.index()];
        if stamp == memo.stamp {
            return Some(v);
        }
        let v = match self.node(id) {
            Node::Const(c) => c,
            Node::Sym(s) => assignment(s)?,
            Node::Unary(op, a) => eval_unop(op, self.eval_in(a, assignment, memo)?),
            Node::Binary(op, a, b) => {
                let x = self.eval_in(a, assignment, memo)?;
                let y = self.eval_in(b, assignment, memo)?;
                eval_binop(op, x, y)
            }
            Node::Ite(c, t, e) => {
                if self.eval_in(c, assignment, memo)? != 0 {
                    self.eval_in(t, assignment, memo)?
                } else {
                    self.eval_in(e, assignment, memo)?
                }
            }
        };
        memo.slots[id.index()] = (memo.stamp, v);
        Some(v)
    }

    /// Collects the symbolic variables an expression depends on. Shared
    /// subterms are visited once, marked with a fresh stamp in the
    /// evaluation memo, so no call builds a set of its own.
    pub fn vars(&self, id: ExprId) -> Vec<SymVarId> {
        EVAL_MEMO.with(|cell| {
            let mut memo = cell.take();
            memo.stamp += 1;
            if memo.slots.len() < self.nodes.len() {
                memo.slots.resize(self.nodes.len(), (0, 0));
            }
            let mut vars = Vec::new();
            let mut stack = vec![id];
            while let Some(e) = stack.pop() {
                let seen = &mut memo.slots[e.index()].0;
                if std::mem::replace(seen, memo.stamp) == memo.stamp {
                    continue;
                }
                match self.node(e) {
                    Node::Const(_) => {}
                    Node::Sym(s) => {
                        if !vars.contains(&s) {
                            vars.push(s);
                        }
                    }
                    Node::Unary(_, a) => stack.push(a),
                    Node::Binary(_, a, b) => stack.extend([a, b]),
                    Node::Ite(c, t, e2) => stack.extend([c, t, e2]),
                }
            }
            cell.set(memo);
            vars
        })
    }

    /// `Some(v)` when the expression is a constant.
    pub fn as_const(&self, id: ExprId) -> Option<i64> {
        match self.node(id) {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Renders an expression as text (for Figure 3-style dumps).
    pub fn display(&self, id: ExprId) -> String {
        match self.node(id) {
            Node::Const(c) => c.to_string(),
            Node::Sym(s) => s.to_string(),
            Node::Unary(UnOp::Neg, a) => format!("-({})", self.display(a)),
            Node::Unary(UnOp::Not, a) => format!("!({})", self.display(a)),
            Node::Binary(op, a, b) => {
                format!("({} {} {})", self.display(a), op, self.display(b))
            }
            Node::Ite(c, t, e) => format!(
                "ite({}, {}, {})",
                self.display(c),
                self.display(t),
                self.display(e)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let mut a = ExprArena::new();
        let c1 = a.constant(7);
        let c2 = a.constant(7);
        assert_eq!(c1, c2);
        let s = a.sym(SymVarId(0));
        let e1 = a.binary(BinOp::Add, s, c1);
        let e2 = a.binary(BinOp::Add, s, c2);
        assert_eq!(e1, e2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn constant_folding() {
        let mut a = ExprArena::new();
        let x = a.constant(6);
        let y = a.constant(7);
        let m = a.binary(BinOp::Mul, x, y);
        assert_eq!(a.as_const(m), Some(42));
        let n = a.unary(UnOp::Neg, m);
        assert_eq!(a.as_const(n), Some(-42));
    }

    #[test]
    fn identities_simplify() {
        let mut a = ExprArena::new();
        let s = a.sym(SymVarId(1));
        let zero = a.constant(0);
        let one = a.constant(1);
        assert_eq!(a.binary(BinOp::Add, s, zero), s);
        assert_eq!(a.binary(BinOp::Mul, one, s), s);
    }

    #[test]
    fn eval_with_assignment() {
        let mut a = ExprArena::new();
        let s0 = a.sym(SymVarId(0));
        let s1 = a.sym(SymVarId(1));
        let sum = a.binary(BinOp::Add, s0, s1);
        let two = a.constant(2);
        let cmp = a.binary(BinOp::Gt, sum, two);
        let assign = |v: SymVarId| Some(if v.0 == 0 { 2 } else { 1 });
        assert_eq!(a.eval(cmp, &assign), Some(1));
        let partial = |v: SymVarId| if v.0 == 0 { Some(2) } else { None };
        assert_eq!(a.eval(cmp, &partial), None);
    }

    #[test]
    fn ite_folds_and_evaluates() {
        let mut a = ExprArena::new();
        let s = a.sym(SymVarId(0));
        let t = a.constant(10);
        let e = a.constant(20);
        let one = a.constant(1);
        assert_eq!(a.ite(one, t, e), t);
        let ite = a.ite(s, t, e);
        assert_eq!(a.eval(ite, &|_| Some(0)), Some(20));
        assert_eq!(a.eval(ite, &|_| Some(5)), Some(10));
        // Same branches collapse.
        assert_eq!(a.ite(s, t, t), t);
    }

    #[test]
    fn vars_collects_dependencies() {
        let mut a = ExprArena::new();
        let s0 = a.sym(SymVarId(0));
        let s1 = a.sym(SymVarId(1));
        let e = a.binary(BinOp::BitXor, s0, s1);
        let e = a.binary(BinOp::Add, e, s0);
        let mut vs = a.vars(e);
        vs.sort();
        assert_eq!(vs, vec![SymVarId(0), SymVarId(1)]);
    }

    #[test]
    fn truthy_and_not() {
        let mut a = ExprArena::new();
        let s = a.sym(SymVarId(0));
        let b = a.truthy(s);
        assert_eq!(a.eval(b, &|_| Some(42)), Some(1));
        let n = a.not(s);
        assert_eq!(a.eval(n, &|_| Some(42)), Some(0));
        assert_eq!(a.eval(n, &|_| Some(0)), Some(1));
        // Comparisons are already boolean: truthy is the identity.
        let zero = a.constant(0);
        let cmp = a.binary(BinOp::Lt, s, zero);
        assert_eq!(a.truthy(cmp), cmp);
    }

    #[test]
    fn display_is_readable() {
        let mut a = ExprArena::new();
        let s = a.sym(SymVarId(3));
        let c = a.constant(1);
        let e = a.binary(BinOp::Add, s, c);
        assert_eq!(a.display(e), "(R3 + 1)");
    }

    #[test]
    fn ite_skips_its_untaken_branch() {
        let mut a = ExprArena::new();
        let c = a.sym(SymVarId(0));
        let t = a.constant(5);
        let e = a.sym(SymVarId(1));
        let ite = a.ite(c, t, e);
        let only_cond = |v: SymVarId| (v.0 == 0).then_some(1);
        assert_eq!(a.eval(ite, &only_cond), Some(5));
        let cond_false = |v: SymVarId| (v.0 == 0).then_some(0);
        assert_eq!(a.eval(ite, &cond_false), None);
    }

    #[test]
    fn shared_subgraph_evaluates_linearly() {
        // A 64-deep chain in which each node uses its child twice: a walk
        // without the memo would take 2^64 steps.
        let mut a = ExprArena::new();
        let mut e = a.sym(SymVarId(0));
        for _ in 0..64 {
            e = a.binary(BinOp::Mul, e, e);
        }
        for x in [3i64, 1, -5, 3] {
            let mut want = x;
            for _ in 0..64 {
                want = want.wrapping_mul(want);
            }
            // Calls in a row must not see each other's memo.
            assert_eq!(a.eval(e, &|_| Some(x)), Some(want));
        }
        assert_eq!(a.eval(e, &|_| None), None);
    }

    /// The reference evaluator: a plain recursive walk, no memo.
    fn reference_eval(a: &ExprArena, id: ExprId, assignment: &[Option<i64>]) -> Option<i64> {
        Some(match a.node(id) {
            Node::Const(c) => c,
            Node::Sym(s) => assignment[s.index()]?,
            Node::Unary(op, x) => eval_unop(op, reference_eval(a, x, assignment)?),
            Node::Binary(op, x, y) => {
                let x = reference_eval(a, x, assignment)?;
                eval_binop(op, x, reference_eval(a, y, assignment)?)
            }
            Node::Ite(c, t, e) => {
                let branch = if reference_eval(a, c, assignment)? != 0 {
                    t
                } else {
                    e
                };
                reference_eval(a, branch, assignment)?
            }
        })
    }

    const BINOPS: [BinOp; 18] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::BitAnd,
        BinOp::BitOr,
        BinOp::BitXor,
        BinOp::Shl,
        BinOp::Shr,
    ];

    /// Random `Unary`/`Binary`/`Ite` DAGs over four symbolic variables
    /// under random partial assignments: `eval` agrees with the reference
    /// on every node, `None` included, evaluated in an order that revisits
    /// shared subterms across calls.
    #[test]
    fn eval_matches_a_recursive_reference() {
        let mut rng =
            clap_vm::Rng::for_test("clap_symex::expr::tests::eval_matches_a_recursive_reference");
        for _ in 0..32 {
            // A variable is unassigned one time in three, else in -4..=4.
            let assignment: Vec<Option<i64>> = (0..4)
                .map(|_| (rng.below(3) != 0).then(|| rng.below(9) as i64 - 4))
                .collect();
            let mut a = ExprArena::new();
            let mut pool: Vec<ExprId> = (0..4).map(|v| a.sym(SymVarId(v))).collect();
            pool.extend([0, 1, 7].map(|c| a.constant(c)));
            for _ in 0..1 + rng.below(39) {
                let mut pick = || pool[rng.below(pool.len())];
                let (x, y, z) = (pick(), pick(), pick());
                let node = match rng.below(4) {
                    0 => a.unary([UnOp::Neg, UnOp::Not][rng.below(2)], x),
                    1 | 2 => a.binary(BINOPS[rng.below(BINOPS.len())], x, y),
                    _ => a.ite(x, y, z),
                };
                pool.push(node);
            }
            for &id in pool.iter().rev().chain(&pool) {
                let got = a.eval(id, &|v: SymVarId| assignment[v.index()]);
                assert_eq!(got, reference_eval(&a, id, &assignment));
            }
        }
    }
}
