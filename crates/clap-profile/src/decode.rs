//! Offline log decoding: turns a [`PathLog`] back into the exact
//! per-thread, per-activation block walks the threads executed, which then
//! drive the path-directed symbolic execution.

use crate::bl::{decode_path, decode_truncated, BlTables};
use crate::codec::read_varint;
use crate::recorder::{PathLog, TAG_ENTER, TAG_EXIT, TAG_PATH, TAG_TRUNC};
use clap_ir::{BlockId, FuncId, Program};
use clap_vm::Lineage;
use std::fmt;

/// A decoded function activation: the blocks it traversed and the callee
/// activations it performed, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivationPath {
    /// The function executed.
    pub func: FuncId,
    /// Blocks visited, in order, starting with the entry block.
    pub blocks: Vec<BlockId>,
    /// Nested activations (calls and nothing else), in call order.
    pub calls: Vec<ActivationPath>,
    /// `true` if the activation returned; `false` if execution stopped
    /// inside it (the failure point).
    pub completed: bool,
}

/// One thread's decoded path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPath {
    /// Canonical thread identity.
    pub lineage: Lineage,
    /// The entry activation.
    pub root: ActivationPath,
}

/// Errors from decoding a (corrupt) log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended mid-record or a varint was malformed.
    Truncated,
    /// An unknown event tag was found.
    BadTag(u8),
    /// Events were structurally inconsistent (exit without enter, …).
    Structure(String),
    /// A path id or register value did not decode against the CFG.
    BadPath(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "log ended unexpectedly"),
            DecodeError::BadTag(t) => write!(f, "unknown event tag {t:#x}"),
            DecodeError::Structure(m) => write!(f, "inconsistent log structure: {m}"),
            DecodeError::BadPath(m) => write!(f, "path decoding failed: {m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes every thread of a [`PathLog`].
///
/// # Errors
///
/// Returns a [`DecodeError`] if the log does not describe a valid walk of
/// `program`'s CFGs.
pub fn decode_log(
    program: &Program,
    tables: &BlTables,
    log: &PathLog,
) -> Result<Vec<ThreadPath>, DecodeError> {
    clap_obs::add("decode.bytes", log.size_bytes() as u64);
    clap_obs::add("decode.paths", log.threads.len() as u64);
    log.threads
        .iter()
        .map(|t| {
            Ok(ThreadPath {
                lineage: t.lineage.clone(),
                root: decode_thread(program, tables, &t.bytes)?,
            })
        })
        .collect()
}

struct Building {
    func: FuncId,
    blocks: Vec<BlockId>,
    calls: Vec<ActivationPath>,
    /// Where the next segment must start and its initial register value.
    seg_start: BlockId,
    seg_init: u64,
    /// Set once a segment ended at a return (the next event must be Exit).
    returned: bool,
}

fn decode_thread(
    program: &Program,
    tables: &BlTables,
    bytes: &[u8],
) -> Result<ActivationPath, DecodeError> {
    let mut pos = 0usize;
    let mut stack: Vec<Building> = Vec::new();
    let mut root: Option<ActivationPath> = None;

    let attach = |stack: &mut Vec<Building>,
                  root: &mut Option<ActivationPath>,
                  act: ActivationPath|
     -> Result<(), DecodeError> {
        match stack.last_mut() {
            Some(parent) => {
                parent.calls.push(act);
                Ok(())
            }
            None => {
                if root.is_some() {
                    return Err(DecodeError::Structure("multiple root activations".into()));
                }
                *root = Some(act);
                Ok(())
            }
        }
    };

    while pos < bytes.len() {
        let tag = bytes[pos];
        pos += 1;
        match tag {
            TAG_ENTER => {
                let f = read_varint(bytes, &mut pos).ok_or(DecodeError::Truncated)?;
                if f as usize >= program.functions.len() {
                    return Err(DecodeError::Structure(format!(
                        "function id {f} out of range"
                    )));
                }
                let func = FuncId(f as u32);
                let entry = tables.func(func).entry;
                stack.push(Building {
                    func,
                    blocks: Vec::new(),
                    calls: Vec::new(),
                    seg_start: entry,
                    seg_init: 0,
                    returned: false,
                });
            }
            TAG_PATH => {
                let id = read_varint(bytes, &mut pos).ok_or(DecodeError::Truncated)?;
                let top = stack
                    .last_mut()
                    .ok_or_else(|| DecodeError::Structure("path outside activation".into()))?;
                if top.returned {
                    return Err(DecodeError::Structure("path after return".into()));
                }
                let bl = tables.func(top.func);
                if id >= bl.num_paths {
                    return Err(DecodeError::BadPath(format!(
                        "id {id} >= {} in {}",
                        bl.num_paths,
                        program.function(top.func).name
                    )));
                }
                let (blocks, next_header) = decode_path(bl, id);
                if blocks.first() != Some(&top.seg_start) {
                    return Err(DecodeError::BadPath(format!(
                        "segment starts at {:?}, expected {:?}",
                        blocks.first(),
                        top.seg_start
                    )));
                }
                top.blocks.extend_from_slice(&blocks);
                match next_header {
                    Some(h) => {
                        top.seg_start = h;
                        top.seg_init = bl.header_init(h).ok_or_else(|| {
                            DecodeError::BadPath(format!("no header init for {h}"))
                        })?;
                    }
                    None => top.returned = true,
                }
            }
            TAG_EXIT => {
                let top = stack
                    .pop()
                    .ok_or_else(|| DecodeError::Structure("exit without enter".into()))?;
                if !top.returned {
                    return Err(DecodeError::Structure("exit without a final path".into()));
                }
                let act = ActivationPath {
                    func: top.func,
                    blocks: top.blocks,
                    calls: top.calls,
                    completed: true,
                };
                attach(&mut stack, &mut root, act)?;
            }
            TAG_TRUNC => {
                let register = read_varint(bytes, &mut pos).ok_or(DecodeError::Truncated)?;
                let block = read_varint(bytes, &mut pos).ok_or(DecodeError::Truncated)?;
                let top = stack
                    .pop()
                    .ok_or_else(|| DecodeError::Structure("trunc without enter".into()))?;
                let bl = tables.func(top.func);
                let rel = register
                    .checked_sub(top.seg_init)
                    .ok_or_else(|| DecodeError::BadPath("register below segment init".into()))?;
                let partial = decode_truncated(bl, top.seg_start, rel, BlockId(block as u32))
                    .ok_or_else(|| {
                        DecodeError::BadPath(format!(
                            "no partial path with register {rel} ending at bb{block}"
                        ))
                    })?;
                let mut blocks = top.blocks;
                blocks.extend_from_slice(&partial);
                let act = ActivationPath {
                    func: top.func,
                    blocks,
                    calls: top.calls,
                    completed: false,
                };
                attach(&mut stack, &mut root, act)?;
            }
            other => return Err(DecodeError::BadTag(other)),
        }
    }
    if !stack.is_empty() {
        return Err(DecodeError::Structure(
            "unfinished activations at end of log".into(),
        ));
    }
    root.ok_or_else(|| DecodeError::Structure("empty thread log".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bl::BlTables;
    use crate::recorder::PathRecorder;
    use clap_ir::parse;
    use clap_vm::{MemModel, Monitor, RandomScheduler, ThreadId, Vm};

    /// A monitor that records the ground-truth block walk directly.
    #[derive(Default)]
    struct TruthMonitor {
        walks: Vec<Vec<(FuncId, BlockId)>>,
    }

    impl Monitor for TruthMonitor {
        fn on_thread_start(&mut self, _: ThreadId, _: &Lineage, _: FuncId) {
            self.walks.push(Vec::new());
        }
        fn on_func_enter(&mut self, t: ThreadId, f: FuncId) {
            self.walks[t.index()].push((f, BlockId(u32::MAX))); // marker
        }
        fn on_edge(&mut self, t: ThreadId, f: FuncId, _from: BlockId, to: BlockId) {
            self.walks[t.index()].push((f, to));
        }
    }

    fn record_and_decode(src: &str, seed: u64) -> (Vec<ThreadPath>, clap_vm::Outcome) {
        let p = parse(src).unwrap();
        let t = BlTables::build(&p);
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut sched = RandomScheduler::new(seed);
        let mut rec = PathRecorder::new(&t);
        let outcome = vm.run(&mut sched, &mut rec);
        let log = rec.finish();
        (decode_log(&p, &t, &log).unwrap(), outcome)
    }

    /// Flattens an activation's block walk (ignoring calls) for comparison.
    fn flatten(act: &ActivationPath, out: &mut Vec<(FuncId, BlockId)>) {
        for &b in &act.blocks {
            out.push((act.func, b));
        }
        for c in &act.calls {
            flatten(c, out);
        }
    }

    #[test]
    fn decode_recovers_loop_walk_exactly() {
        let src = "global int x = 0;
             fn main() { let i: int = 0; while (i < 5) { if (i % 2 == 0) { x = x + i; } i = i + 1; } }";
        let p = parse(src).unwrap();
        let t = BlTables::build(&p);
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut sched = RandomScheduler::new(0);
        let mut rec = PathRecorder::new(&t);
        let mut truth = TruthMonitor::default();
        let mut multi = clap_vm::MultiMonitor::new();
        multi.push(&mut rec);
        multi.push(&mut truth);
        vm.run(&mut sched, &mut multi);
        let log = rec.finish();
        let decoded = decode_log(&p, &t, &log).unwrap();
        // Ground truth walk: entry block + every edge target.
        let mut expect = vec![p.function(p.main).entry];
        expect.extend(
            truth.walks[0]
                .iter()
                .filter(|(_, b)| b.0 != u32::MAX)
                .map(|(_, b)| *b),
        );
        assert_eq!(decoded[0].root.blocks, expect);
        assert!(decoded[0].root.completed);
    }

    #[test]
    fn decode_handles_calls_and_recursion() {
        let (paths, o) = record_and_decode(
            "global int r = 0;
             fn fact(n: int) { if (n <= 1) { return 1; } let rec: int = fact(n - 1); return n * rec; }
             fn main() { r = fact(4); }",
            0,
        );
        assert_eq!(o, clap_vm::Outcome::Completed);
        // main calls fact, which nests 3 more activations.
        let root = &paths[0].root;
        assert_eq!(root.calls.len(), 1);
        let mut depth = 0;
        let mut cur = &root.calls[0];
        loop {
            depth += 1;
            if cur.calls.is_empty() {
                break;
            }
            cur = &cur.calls[0];
        }
        assert_eq!(depth, 4); // fact(4), fact(3), fact(2), fact(1)
    }

    #[test]
    fn truncated_thread_decodes_to_failure_point() {
        let (paths, o) = record_and_decode(
            "global int x = 0;
             fn main() { let i: int = 0; while (i < 10) { i = i + 1; if (i == 3) { assert(false, \"boom\"); } } }",
            0,
        );
        assert!(o.is_failure());
        let root = &paths[0].root;
        assert!(!root.completed, "main did not exit");
        assert!(root.blocks.len() > 3, "walked into the loop");
    }

    #[test]
    fn multithreaded_logs_decode_independently() {
        let (paths, _) = record_and_decode(
            "global int x = 0; mutex m;
             fn w(n: int) { let i: int = 0; while (i < n) { lock(m); x = x + 1; unlock(m); i = i + 1; } }
             fn main() { let a: thread = fork w(3); let b: thread = fork w(4); join a; join b; }",
            11,
        );
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|t| t.root.completed));
        assert_eq!(paths[1].lineage.to_string(), "0.1");
    }

    #[test]
    fn corrupt_log_rejected() {
        let p = parse("fn main() {}").unwrap();
        let t = BlTables::build(&p);
        let log = PathLog {
            threads: vec![crate::recorder::ThreadLog {
                lineage: Lineage::main(),
                bytes: vec![0x77],
            }],
        };
        assert!(matches!(
            decode_log(&p, &t, &log),
            Err(DecodeError::BadTag(0x77))
        ));
        let log = PathLog {
            threads: vec![crate::recorder::ThreadLog {
                lineage: Lineage::main(),
                bytes: vec![TAG_EXIT],
            }],
        };
        assert!(matches!(
            decode_log(&p, &t, &log),
            Err(DecodeError::Structure(_))
        ));
    }

    #[test]
    fn flatten_smoke() {
        let (paths, _) = record_and_decode(
            "global int x = 0; fn f() { x = x + 1; } fn main() { f(); f(); }",
            0,
        );
        let mut out = Vec::new();
        flatten(&paths[0].root, &mut out);
        assert!(out.len() >= 3);
        assert_eq!(paths[0].root.calls.len(), 2);
    }
}
