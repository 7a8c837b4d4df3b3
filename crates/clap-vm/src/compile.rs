//! Lowering from the CFG [`Program`] to flat bytecode.
//!
//! Two passes per function: the first lays out block start addresses (each
//! block occupies `instrs.len() + 1` slots — its instructions followed by
//! exactly one terminator op), the second emits ops with every `goto` /
//! `branch` target rewritten to the absolute address from the first pass.
//! Argument vectors of `call` / `fork` are interned into one shared pool so
//! the emitted [`Op`]s stay `Copy`.

use crate::bytecode::{ArgsRef, CompiledProgram, FuncInfo, Op, PcInfo, Rv};
use clap_ir::{BlockId, Instr, Operand, Program, Rvalue, Terminator};

/// Lowers `program` into a [`CompiledProgram`].
pub fn compile(program: &Program) -> CompiledProgram {
    let total_ops: usize = program
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter())
        .map(|b| b.instrs.len() + 1)
        .sum();
    let mut code = Vec::with_capacity(total_ops);
    let mut info = Vec::with_capacity(total_ops);
    let mut arg_pool = Vec::new();
    let mut funcs = Vec::with_capacity(program.functions.len());

    for f in &program.functions {
        // Pass 1: block start addresses.
        let mut block_entry = Vec::with_capacity(f.blocks.len());
        let mut next = code.len() as u32;
        for b in &f.blocks {
            block_entry.push(next);
            next += b.instrs.len() as u32 + 1;
        }
        funcs.push(FuncInfo {
            entry: block_entry[f.entry.index()],
            locals: f.locals.len() as u32,
        });

        // Pass 2: emit ops with targets resolved against pass 1.
        let target = |b: BlockId| block_entry[b.index()];
        for (bi, b) in f.blocks.iter().enumerate() {
            let block = BlockId(bi as u32);
            for (ip, instr) in b.instrs.iter().enumerate() {
                info.push(PcInfo {
                    block,
                    ip: ip as u32,
                });
                code.push(lower_instr(instr, &mut arg_pool));
            }
            info.push(PcInfo {
                block,
                ip: b.instrs.len() as u32,
            });
            code.push(match &b.term {
                Terminator::Goto(t) => Op::Jump { target: target(*t) },
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => Op::Branch {
                    cond: *cond,
                    then_pc: target(*then_bb),
                    else_pc: target(*else_bb),
                },
                Terminator::Return(value) => Op::Return { value: *value },
            });
        }
    }

    CompiledProgram {
        code,
        arg_pool,
        funcs,
        info,
    }
}

fn lower_instr(instr: &Instr, arg_pool: &mut Vec<Operand>) -> Op {
    match instr {
        Instr::Assign { dst, rv } => Op::Assign {
            dst: *dst,
            rv: lower_rvalue(rv),
        },
        Instr::Load { dst, global, index } => Op::Load {
            dst: *dst,
            global: *global,
            index: *index,
        },
        Instr::Store { global, index, src } => Op::Store {
            global: *global,
            index: *index,
            src: *src,
        },
        Instr::Lock(m) => Op::Lock(*m),
        Instr::Unlock(m) => Op::Unlock(*m),
        Instr::Fork { dst, func, args } => Op::Fork {
            dst: *dst,
            func: *func,
            args: intern(args, arg_pool),
        },
        Instr::Join { handle } => Op::Join { handle: *handle },
        Instr::Wait { cond, mutex } => Op::Wait {
            cond: *cond,
            mutex: *mutex,
        },
        Instr::Signal(c) => Op::Signal(*c),
        Instr::Broadcast(c) => Op::Broadcast(*c),
        Instr::Send { chan, src } => Op::Send {
            chan: *chan,
            src: *src,
        },
        Instr::Recv { dst, chan } => Op::Recv {
            dst: *dst,
            chan: *chan,
        },
        Instr::TrySend { dst, chan, src } => Op::TrySend {
            dst: *dst,
            chan: *chan,
            src: *src,
        },
        Instr::TryRecv { dst, chan } => Op::TryRecv {
            dst: *dst,
            chan: *chan,
        },
        Instr::ChanClose(c) => Op::ChanClose(*c),
        Instr::SpawnActor { dst, func, args } => Op::SpawnActor {
            dst: *dst,
            func: *func,
            args: intern(args, arg_pool),
        },
        Instr::MailboxSend { target, src } => Op::MailboxSend {
            target: *target,
            src: *src,
        },
        Instr::MailboxRecv { dst } => Op::MailboxRecv { dst: *dst },
        Instr::AtomicLoad { dst, global, ord } => Op::AtomicLoad {
            dst: *dst,
            global: *global,
            ord: *ord,
        },
        Instr::AtomicStore { global, src, ord } => Op::AtomicStore {
            global: *global,
            src: *src,
            ord: *ord,
        },
        Instr::AtomicRmw {
            dst,
            global,
            src,
            ord,
        } => Op::AtomicRmw {
            dst: *dst,
            global: *global,
            src: *src,
            ord: *ord,
        },
        Instr::AtomicCas {
            dst,
            global,
            expected,
            desired,
            ord,
        } => Op::AtomicCas {
            dst: *dst,
            global: *global,
            expected: *expected,
            desired: *desired,
            ord: *ord,
        },
        Instr::Yield => Op::Yield,
        Instr::Assert { cond, id } => Op::Assert {
            cond: *cond,
            id: *id,
        },
        Instr::Call { dst, func, args } => Op::Call {
            dst: *dst,
            func: *func,
            args: intern(args, arg_pool),
        },
    }
}

fn lower_rvalue(rv: &Rvalue) -> Rv {
    match rv {
        Rvalue::Use(op) => Rv::Use(*op),
        Rvalue::Unary(un, op) => Rv::Unary(*un, *op),
        Rvalue::Binary(bin, a, b) => Rv::Binary(*bin, *a, *b),
    }
}

fn intern(args: &[Operand], pool: &mut Vec<Operand>) -> ArgsRef {
    let start = pool.len() as u32;
    pool.extend_from_slice(args);
    ArgsRef {
        start,
        len: args.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_ir::parse;

    #[test]
    fn entry_points_at_entry_block() {
        let p = parse(
            "global int x = 0;
             fn w(a: int, b: int) { x = a + b; }
             fn main() { let t: thread = fork w(1, 2); join t; }",
        )
        .unwrap();
        let c = compile(&p);
        for (fi, f) in p.functions.iter().enumerate() {
            let func = clap_ir::FuncId(fi as u32);
            let meta = c.func(func);
            let at = c.info(meta.entry);
            assert_eq!((at.block, at.ip), (f.entry, 0));
            assert_eq!(meta.locals as usize, f.locals.len());
        }
    }

    #[test]
    fn fork_args_interned_in_order() {
        let p = parse(
            "global int x = 0;
             fn w(a: int, b: int) { x = a + b; }
             fn main() { let t: thread = fork w(4, 9); join t; }",
        )
        .unwrap();
        let c = compile(&p);
        let fork = (0..c.len() as u32)
            .map(|pc| c.op(pc))
            .find_map(|op| match op {
                Op::Fork { args, .. } => Some(args),
                _ => None,
            })
            .expect("fork op exists");
        assert_eq!(
            c.args(fork),
            &[Operand::Const(4), Operand::Const(9)],
            "argument order preserved in the pool"
        );
    }
}
