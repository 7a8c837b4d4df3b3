//! Path-directed symbolic execution (the reproduction's KLEE, adapted as
//! §5 describes): each thread is re-executed along its decoded block walk,
//! every shared load returns a fresh symbolic value, branch outcomes become
//! path conditions, and the failing assert becomes the bug predicate.
//!
//! Threads are processed in creation order so fork-argument expressions
//! flow from parent to child; otherwise threads are independent — there is
//! exactly one memory state per thread, never a path search.

use crate::expr::{ExprArena, ExprId, SymVarId};
use crate::trace::{PathCond, Sap, SapId, SapKind, SymAddr, SymTrace, SymVarOrigin, ThreadIdx};
use clap_ir::ast::BinOp;
use clap_ir::{AssertId, GlobalId, Instr, Operand, Program, Rvalue, Terminator};
use clap_profile::{ActivationPath, ThreadPath};
use clap_vm::{Lineage, SharedSpec, Status, Vm};
use std::collections::HashMap;
use std::fmt;

/// Where each still-live thread stopped when the bug fired — the crash
/// context. The paper gets the equivalent information from the core dump /
/// runtime assertion site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureContext {
    /// The failing assert site.
    pub assert: AssertId,
    /// The thread that executed the failing assert.
    pub failing: Lineage,
    /// Per still-live thread: the instruction offsets of every frame
    /// (outermost first) and whether the thread had completed the release
    /// phase of a `wait`.
    pub stops: HashMap<Lineage, ThreadStop>,
}

/// One live thread's stop position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadStop {
    /// Instruction offset of each frame, outermost first. The offset is
    /// the index of the *next unexecuted* instruction of that frame's
    /// current block (for the failing thread's top frame: the assert
    /// itself).
    pub frame_ips: Vec<usize>,
    /// `true` when the thread is parked in a `wait` whose mutex-release
    /// phase already happened (so the release SAP is part of the trace).
    pub wait_released: bool,
}

impl FailureContext {
    /// Builds the context from a VM that stopped with
    /// [`clap_vm::Outcome::AssertFailed`].
    ///
    /// # Panics
    ///
    /// Panics if the VM did not stop at an assert failure.
    pub fn from_vm(vm: &Vm<'_>) -> Self {
        let Some(clap_vm::Outcome::AssertFailed { assert, thread }) = vm.outcome().cloned() else {
            panic!("FailureContext requires an assert-failed outcome");
        };
        let failing = vm.thread(thread).lineage.clone();
        let compiled = vm.compiled();
        let mut stops = HashMap::new();
        for t in vm.threads() {
            if t.status == Status::Exited {
                continue;
            }
            stops.insert(
                t.lineage.clone(),
                ThreadStop {
                    frame_ips: t
                        .frames
                        .iter()
                        .map(|f| compiled.info(f.pc).ip as usize)
                        .collect(),
                    wait_released: t.waiting_reacquire.is_some(),
                },
            );
        }
        FailureContext {
            assert,
            failing,
            stops,
        }
    }
}

/// Errors when the log, the program and the failure context disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymexError(pub String);

impl fmt::Display for SymexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "symbolic execution failed: {}", self.0)
    }
}

impl std::error::Error for SymexError {}

/// Runs path-directed symbolic execution over decoded thread paths.
///
/// `shared` decides which globals produce SAPs and symbolic values;
/// everything else stays concrete (or symbolically thread-local).
///
/// # Errors
///
/// Returns [`SymexError`] when the paths cannot be walked against the
/// program (corrupt logs or a mismatched failure context).
pub fn execute(
    program: &Program,
    shared: &SharedSpec,
    paths: &[ThreadPath],
    failure: &FailureContext,
) -> Result<SymTrace, SymexError> {
    let mut exec = Executor {
        program,
        shared,
        failure,
        arena: ExprArena::new(),
        saps: Vec::new(),
        per_thread: vec![Vec::new(); paths.len()],
        path_conds: Vec::new(),
        sym_vars: Vec::new(),
        bug: None,
        lineage_to_idx: paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.lineage.clone(), ThreadIdx(i as u32)))
            .collect(),
        pending_args: HashMap::new(),
        nonshared: HashMap::new(),
        instrs: 0,
    };
    // Main takes no arguments.
    exec.pending_args.insert(Lineage::main(), Vec::new());
    for (i, path) in paths.iter().enumerate() {
        exec.run_thread(ThreadIdx(i as u32), path)?;
    }
    clap_obs::add("symex.instructions", exec.instrs);
    clap_obs::add("symex.saps", exec.saps.len() as u64);
    clap_obs::add("symex.expr_nodes", exec.arena.len() as u64);
    let bug = exec
        .bug
        .ok_or_else(|| SymexError("failing assert never reached on the recorded path".into()))?;
    Ok(SymTrace {
        arena: exec.arena,
        saps: exec.saps,
        per_thread: exec.per_thread,
        lineages: paths.iter().map(|p| p.lineage.clone()).collect(),
        path_conds: exec.path_conds,
        bug,
        sym_vars: exec.sym_vars,
    })
}

struct Executor<'a> {
    program: &'a Program,
    shared: &'a SharedSpec,
    failure: &'a FailureContext,
    arena: ExprArena,
    saps: Vec<Sap>,
    per_thread: Vec<Vec<SapId>>,
    path_conds: Vec<PathCond>,
    sym_vars: Vec<SymVarOrigin>,
    bug: Option<ExprId>,
    lineage_to_idx: HashMap<Lineage, ThreadIdx>,
    /// Entry arguments for threads not yet executed (set by parent forks).
    pending_args: HashMap<Lineage, Vec<ExprId>>,
    /// Symbolic images of non-shared global cells, keyed by (global, cell).
    nonshared: HashMap<(GlobalId, usize), ExprId>,
    /// Instructions symbolically executed, across all threads.
    instrs: u64,
}

/// Per-thread execution bookkeeping.
struct ThreadCtx<'p> {
    idx: ThreadIdx,
    lineage: Lineage,
    po: u64,
    forks: u32,
    /// Remaining frame stop offsets (outermost first) for truncated
    /// activations.
    stops: &'p [usize],
    wait_released: bool,
    is_failing: bool,
}

impl<'a> Executor<'a> {
    fn err(&self, msg: impl Into<String>) -> SymexError {
        SymexError(msg.into())
    }

    fn run_thread(&mut self, idx: ThreadIdx, path: &ThreadPath) -> Result<(), SymexError> {
        let args = self
            .pending_args
            .remove(&path.lineage)
            .ok_or_else(|| self.err(format!("thread {} was never forked", path.lineage)))?;
        let stop = self.failure.stops.get(&path.lineage);
        let stops: Vec<usize> = stop.map(|s| s.frame_ips.clone()).unwrap_or_default();
        let mut ctx = ThreadCtx {
            idx,
            lineage: path.lineage.clone(),
            po: 0,
            forks: 0,
            stops: &stops,
            wait_released: stop.map(|s| s.wait_released).unwrap_or(false),
            is_failing: path.lineage == self.failure.failing,
        };
        self.run_activation(&mut ctx, &path.root, args)?;
        Ok(())
    }

    fn push_sap(&mut self, ctx: &mut ThreadCtx<'_>, kind: SapKind) -> SapId {
        let id = SapId(self.saps.len() as u32);
        self.saps.push(Sap {
            thread: ctx.idx,
            po: ctx.po,
            kind,
        });
        self.per_thread[ctx.idx.index()].push(id);
        ctx.po += 1;
        id
    }

    fn operand(&mut self, locals: &[ExprId], op: Operand) -> ExprId {
        match op {
            Operand::Local(l) => locals[l.index()],
            Operand::Const(c) => self.arena.constant(c),
        }
    }

    /// Executes one activation; returns its return-value expression.
    fn run_activation(
        &mut self,
        ctx: &mut ThreadCtx<'_>,
        act: &ActivationPath,
        args: Vec<ExprId>,
    ) -> Result<Option<ExprId>, SymexError> {
        let func = self.program.function(act.func);
        let zero = self.arena.constant(0);
        let mut locals = vec![zero; func.locals.len()];
        locals[..args.len()].copy_from_slice(&args);

        // Truncated activations consume the next frame stop offset.
        let my_stop = if act.completed {
            None
        } else {
            let Some((&ip, rest)) = ctx.stops.split_first() else {
                return Err(self.err(format!(
                    "truncated activation of `{}` without a stop offset",
                    func.name
                )));
            };
            ctx.stops = rest;
            Some(ip)
        };

        if act.blocks.first() != Some(&func.entry) {
            return Err(self.err(format!(
                "activation of `{}` does not start at entry",
                func.name
            )));
        }

        let mut call_iter = act.calls.iter();
        for (bi, &block_id) in act.blocks.iter().enumerate() {
            let block = func.block(block_id);
            let is_last = bi + 1 == act.blocks.len();
            let limit = match (is_last, my_stop) {
                (true, Some(ip)) => ip,
                _ => block.instrs.len(),
            };
            self.instrs += limit as u64;
            if limit > block.instrs.len() {
                return Err(self.err("stop offset beyond block length"));
            }
            for instr in &block.instrs[..limit] {
                self.exec_instr(ctx, instr, &mut locals, &mut call_iter)?;
            }
            if is_last {
                if let Some(ip) = my_stop {
                    // The failing thread stops *at* its assert: evaluate it
                    // as the bug predicate.
                    if ctx.is_failing && ctx.stops.is_empty() {
                        let Some(Instr::Assert { cond, id }) = block.instrs.get(ip) else {
                            return Err(self.err(format!(
                                "failing thread stops at a non-assert in `{}`",
                                func.name
                            )));
                        };
                        if *id != self.failure.assert {
                            return Err(self.err("stopped at a different assert site"));
                        }
                        let c = self.operand(&locals, *cond);
                        let bug = self.arena.not(c);
                        self.bug = Some(bug);
                    } else if ctx.wait_released && ctx.stops.is_empty() {
                        // Parked in a wait whose release phase executed:
                        // the release SAP is part of the trace.
                        if let Some(Instr::Wait { mutex, .. }) = block.instrs.get(ip) {
                            self.push_sap(ctx, SapKind::Unlock(*mutex));
                        } else {
                            return Err(self.err("wait_released but not stopped at a wait"));
                        }
                    }
                    return Ok(None);
                }
                // Completed activation: the final block must return.
                let Terminator::Return(v) = &block.term else {
                    return Err(self.err(format!(
                        "activation of `{}` ends without a return",
                        func.name
                    )));
                };
                return Ok(v.map(|op| self.operand(&locals, op)));
            }
            // Interior block: derive the path condition from the edge taken.
            let next = act.blocks[bi + 1];
            match &block.term {
                Terminator::Goto(t) => {
                    if *t != next {
                        return Err(self.err("goto does not match recorded path"));
                    }
                }
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.operand(&locals, *cond);
                    let taken_then = next == *then_bb;
                    if !taken_then && next != *else_bb {
                        return Err(self.err("branch target does not match recorded path"));
                    }
                    let constraint = if taken_then {
                        self.arena.truthy(c)
                    } else {
                        self.arena.not(c)
                    };
                    // Concrete conditions fold to 1 and carry no information.
                    if self.arena.as_const(constraint) != Some(1) {
                        self.path_conds.push(PathCond {
                            thread: ctx.idx,
                            expr: constraint,
                        });
                    }
                    if self.arena.as_const(constraint) == Some(0) {
                        return Err(self.err("recorded path contradicts concrete branch"));
                    }
                }
                Terminator::Return(_) => {
                    return Err(self.err("return in the middle of a recorded path"));
                }
            }
        }
        Err(self.err("activation with no blocks"))
    }

    fn exec_instr<'c>(
        &mut self,
        ctx: &mut ThreadCtx<'_>,
        instr: &Instr,
        locals: &mut [ExprId],
        call_iter: &mut impl Iterator<Item = &'c ActivationPath>,
    ) -> Result<(), SymexError> {
        match instr {
            Instr::Assign { dst, rv } => {
                let v = match rv {
                    Rvalue::Use(op) => self.operand(locals, *op),
                    Rvalue::Unary(op, a) => {
                        let a = self.operand(locals, *a);
                        self.arena.unary(*op, a)
                    }
                    Rvalue::Binary(op, a, b) => {
                        let a = self.operand(locals, *a);
                        let b = self.operand(locals, *b);
                        self.arena.binary(*op, a, b)
                    }
                };
                locals[dst.index()] = v;
            }
            Instr::Load { dst, global, index } => {
                let idx = index.map(|op| self.operand(locals, op));
                if self.shared.contains(*global) {
                    let var = SymVarId(self.sym_vars.len() as u32);
                    let sap = self.push_sap(
                        ctx,
                        SapKind::Read {
                            addr: SymAddr {
                                global: *global,
                                index: idx,
                            },
                            var,
                        },
                    );
                    self.sym_vars.push(SymVarOrigin { read: sap });
                    locals[dst.index()] = self.arena.sym(var);
                } else {
                    locals[dst.index()] = self.read_nonshared(*global, idx)?;
                }
            }
            Instr::Store { global, index, src } => {
                let idx = index.map(|op| self.operand(locals, op));
                let value = self.operand(locals, *src);
                if self.shared.contains(*global) {
                    self.push_sap(
                        ctx,
                        SapKind::Write {
                            addr: SymAddr {
                                global: *global,
                                index: idx,
                            },
                            value,
                        },
                    );
                } else {
                    self.write_nonshared(*global, idx, value)?;
                }
            }
            Instr::Lock(m) => {
                self.push_sap(ctx, SapKind::Lock(*m));
            }
            Instr::Unlock(m) => {
                self.push_sap(ctx, SapKind::Unlock(*m));
            }
            Instr::Fork { dst, func, args } => {
                ctx.forks += 1;
                let child_lineage = ctx.lineage.child(ctx.forks);
                let child = *self
                    .lineage_to_idx
                    .get(&child_lineage)
                    .ok_or_else(|| self.err(format!("no path log for thread {child_lineage}")))?;
                let argv: Vec<ExprId> = args.iter().map(|a| self.operand(locals, *a)).collect();
                // The child's entry function must match the fork target.
                let _ = func;
                self.pending_args.insert(child_lineage, argv);
                self.push_sap(ctx, SapKind::Fork { child });
                locals[dst.index()] = self.arena.constant(child.0 as i64);
            }
            Instr::Join { handle } => {
                let h = self.operand(locals, *handle);
                let Some(child) = self.arena.as_const(h) else {
                    return Err(self.err("join handle is not concrete"));
                };
                if child < 0 || child as usize >= self.per_thread.len() {
                    return Err(self.err(format!("join of unknown thread {child}")));
                }
                self.push_sap(
                    ctx,
                    SapKind::Join {
                        child: ThreadIdx(child as u32),
                    },
                );
            }
            Instr::Wait { cond, mutex } => {
                // A completed wait contributes both phases: the release
                // (an unlock) and the completion (reacquire + match with a
                // signal).
                self.push_sap(ctx, SapKind::Unlock(*mutex));
                self.push_sap(
                    ctx,
                    SapKind::Wait {
                        cond: *cond,
                        mutex: *mutex,
                    },
                );
            }
            Instr::Signal(c) => {
                self.push_sap(ctx, SapKind::Signal(*c));
            }
            Instr::Broadcast(c) => {
                self.push_sap(ctx, SapKind::Broadcast(*c));
            }
            Instr::Send { chan, src } => {
                let value = self.operand(locals, *src);
                self.push_sap(ctx, SapKind::Send { chan: *chan, value });
            }
            Instr::Recv { dst, chan } => {
                // The received value depends on the schedule: fresh
                // symbolic, resolved by the send-matching constraints.
                let var = SymVarId(self.sym_vars.len() as u32);
                let sap = self.push_sap(ctx, SapKind::Recv { chan: *chan, var });
                self.sym_vars.push(SymVarOrigin { read: sap });
                locals[dst.index()] = self.arena.sym(var);
            }
            Instr::TrySend { dst, chan, src } => {
                let value = self.operand(locals, *src);
                let var = SymVarId(self.sym_vars.len() as u32);
                let sap = self.push_sap(
                    ctx,
                    SapKind::TrySend {
                        chan: *chan,
                        value,
                        var,
                    },
                );
                self.sym_vars.push(SymVarOrigin { read: sap });
                locals[dst.index()] = self.arena.sym(var);
            }
            Instr::TryRecv { dst, chan } => {
                let var = SymVarId(self.sym_vars.len() as u32);
                let sap = self.push_sap(ctx, SapKind::TryRecv { chan: *chan, var });
                self.sym_vars.push(SymVarOrigin { read: sap });
                locals[dst.index()] = self.arena.sym(var);
            }
            Instr::ChanClose(c) => {
                self.push_sap(ctx, SapKind::ChanClose(*c));
            }
            Instr::SpawnActor { dst, func, args } => {
                ctx.forks += 1;
                let child_lineage = ctx.lineage.child(ctx.forks);
                let child = *self
                    .lineage_to_idx
                    .get(&child_lineage)
                    .ok_or_else(|| self.err(format!("no path log for actor {child_lineage}")))?;
                let argv: Vec<ExprId> = args.iter().map(|a| self.operand(locals, *a)).collect();
                let _ = func;
                self.pending_args.insert(child_lineage, argv);
                self.push_sap(ctx, SapKind::SpawnActor { child });
                locals[dst.index()] = self.arena.constant(child.0 as i64);
            }
            Instr::MailboxSend { target, src } => {
                let h = self.operand(locals, *target);
                let Some(target) = self.arena.as_const(h) else {
                    return Err(self.err("mailbox_send target is not concrete"));
                };
                if target < 0 || target as usize >= self.per_thread.len() {
                    return Err(self.err(format!("mailbox_send to unknown thread {target}")));
                }
                let value = self.operand(locals, *src);
                self.push_sap(
                    ctx,
                    SapKind::MailboxSend {
                        target: ThreadIdx(target as u32),
                        value,
                    },
                );
            }
            Instr::MailboxRecv { dst } => {
                let var = SymVarId(self.sym_vars.len() as u32);
                let sap = self.push_sap(ctx, SapKind::MailboxRecv { var });
                self.sym_vars.push(SymVarOrigin { read: sap });
                locals[dst.index()] = self.arena.sym(var);
            }
            Instr::AtomicLoad { dst, global, ord } => {
                // Like a shared read: the observed value depends on the
                // schedule, so it is a fresh symbolic resolved by the
                // modification-order constraints.
                let var = SymVarId(self.sym_vars.len() as u32);
                let sap = self.push_sap(
                    ctx,
                    SapKind::AtomicLoad {
                        global: *global,
                        ord: *ord,
                        var,
                    },
                );
                self.sym_vars.push(SymVarOrigin { read: sap });
                locals[dst.index()] = self.arena.sym(var);
            }
            Instr::AtomicStore { global, src, ord } => {
                let value = self.operand(locals, *src);
                self.push_sap(
                    ctx,
                    SapKind::AtomicStore {
                        global: *global,
                        ord: *ord,
                        value,
                    },
                );
            }
            Instr::AtomicRmw {
                dst,
                global,
                src,
                ord,
            } => {
                // One indivisible read-modify-write: the old value is a
                // fresh symbolic, the written value is `old + delta`.
                let delta = self.operand(locals, *src);
                let var = SymVarId(self.sym_vars.len() as u32);
                let old = self.arena.sym(var);
                let value = self.arena.binary(BinOp::Add, old, delta);
                let sap = self.push_sap(
                    ctx,
                    SapKind::AtomicRmw {
                        global: *global,
                        ord: *ord,
                        var,
                        value,
                    },
                );
                self.sym_vars.push(SymVarOrigin { read: sap });
                locals[dst.index()] = old;
            }
            Instr::AtomicCas {
                dst,
                global,
                expected,
                desired,
                ord,
            } => {
                // Modelled as an unconditional write of
                // `ite(old == expected, desired, old)`: a failed CAS
                // rewrites the old value, keeping every CAS in the
                // modification order without a success flag.
                let expected = self.operand(locals, *expected);
                let desired = self.operand(locals, *desired);
                let var = SymVarId(self.sym_vars.len() as u32);
                let old = self.arena.sym(var);
                let eq = self.arena.binary(BinOp::Eq, old, expected);
                let value = self.arena.ite(eq, desired, old);
                let sap = self.push_sap(
                    ctx,
                    SapKind::AtomicCas {
                        global: *global,
                        ord: *ord,
                        var,
                        expected,
                        value,
                    },
                );
                self.sym_vars.push(SymVarOrigin { read: sap });
                locals[dst.index()] = old;
            }
            Instr::Yield => {}
            Instr::Assert { cond, id } => {
                // Asserts on the executed path passed: that is part of the
                // observed behaviour (the failing assert is handled at the
                // stop offset, never here).
                let _ = id;
                let c = self.operand(locals, *cond);
                let constraint = self.arena.truthy(c);
                if self.arena.as_const(constraint) != Some(1) {
                    self.path_conds.push(PathCond {
                        thread: ctx.idx,
                        expr: constraint,
                    });
                }
            }
            Instr::Call { dst, func, args } => {
                let argv: Vec<ExprId> = args.iter().map(|a| self.operand(locals, *a)).collect();
                let callee = call_iter
                    .next()
                    .ok_or_else(|| self.err("call without a recorded activation"))?;
                if callee.func != *func {
                    return Err(self.err(format!(
                        "recorded activation is `{}`, call targets `{}`",
                        self.program.function(callee.func).name,
                        self.program.function(*func).name
                    )));
                }
                let ret = self.run_activation(ctx, callee, argv)?;
                if let (Some(d), Some(v)) = (dst, ret) {
                    locals[d.index()] = v;
                }
            }
        }
        Ok(())
    }

    /// Reads a thread-local global cell, building an ITE chain when the
    /// index is symbolic (the ordered-write-list treatment of §5, applied
    /// to the thread-local image).
    fn read_nonshared(
        &mut self,
        global: GlobalId,
        idx: Option<ExprId>,
    ) -> Result<ExprId, SymexError> {
        let decl = &self.program.globals[global.index()];
        let cells = decl.cells();
        let init = if decl.len.is_some() { 0 } else { decl.init };
        let cell_value = |this: &mut Self, c: usize| {
            this.nonshared
                .get(&(global, c))
                .copied()
                .unwrap_or_else(|| this.arena.constant(init))
        };
        match idx {
            None => Ok(cell_value(self, 0)),
            Some(i) => {
                if let Some(c) = self.arena.as_const(i) {
                    if c < 0 || c as usize >= cells {
                        return Err(self.err(format!("index {c} out of bounds for {}", decl.name)));
                    }
                    return Ok(cell_value(self, c as usize));
                }
                // Symbolic index: fold an ITE over all cells.
                let mut result = self.arena.constant(init);
                for c in 0..cells {
                    let cv = cell_value(self, c);
                    let cc = self.arena.constant(c as i64);
                    let eq = self.arena.binary(BinOp::Eq, i, cc);
                    result = self.arena.ite(eq, cv, result);
                }
                Ok(result)
            }
        }
    }

    fn write_nonshared(
        &mut self,
        global: GlobalId,
        idx: Option<ExprId>,
        value: ExprId,
    ) -> Result<(), SymexError> {
        let decl = &self.program.globals[global.index()];
        let cells = decl.cells();
        match idx {
            None => {
                self.nonshared.insert((global, 0), value);
            }
            Some(i) => {
                if let Some(c) = self.arena.as_const(i) {
                    if c < 0 || c as usize >= cells {
                        return Err(self.err(format!("index {c} out of bounds for {}", decl.name)));
                    }
                    self.nonshared.insert((global, c as usize), value);
                } else {
                    // Symbolic index: every cell conditionally updates.
                    let init = if decl.len.is_some() { 0 } else { decl.init };
                    for c in 0..cells {
                        let old = self
                            .nonshared
                            .get(&(global, c))
                            .copied()
                            .unwrap_or_else(|| self.arena.constant(init));
                        let cc = self.arena.constant(c as i64);
                        let eq = self.arena.binary(BinOp::Eq, i, cc);
                        let nv = self.arena.ite(eq, value, old);
                        self.nonshared.insert((global, c), nv);
                    }
                }
            }
        }
        Ok(())
    }
}
