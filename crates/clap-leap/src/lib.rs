//! The LEAP baseline (Huang, Liu, Zhang — FSE 2010), reimplemented as a
//! VM monitor: the state-of-the-art record/replay technique the paper
//! compares against in Table 2.
//!
//! LEAP records, **per shared variable**, the global order of accesses to
//! it (an *access vector* of thread ids). Doing so requires synchronizing
//! the recorder itself: every shared access acquires a per-variable lock
//! before appending to that variable's vector. This is exactly the cost
//! CLAP avoids — and the reason LEAP's overhead explodes on benchmarks
//! with dense shared accesses (racey: 4289% in the paper) while CLAP's
//! stays proportional to control-flow density only.
//!
//! The recorder here takes a real [`std::sync::Mutex`] per variable so
//! the measured overhead includes genuine atomic operations, and the log
//! is the varint-encoded access vectors, giving the Table 2 space column.
//!
//! [`LeapReplayer`] enforces a recorded log by gating each thread's next
//! shared access on the per-variable vectors — LEAP's replay semantics
//! (sound for SC executions, which is what LEAP supports).

use clap_vm::{AccessEvent, Action, Monitor, Scheduler, StepPreview, SyncEvent, ThreadId, Vm};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// One recorded access-order entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// The accessing thread.
    pub thread: ThreadId,
    /// `true` for writes.
    pub is_write: bool,
}

/// The per-variable access vectors plus sync-object orders.
#[derive(Debug, Default)]
pub struct LeapLog {
    /// Access vectors keyed by flattened address.
    pub accesses: HashMap<u32, Vec<AccessRecord>>,
    /// Acquisition orders per mutex (lock/wait-reacquire events).
    pub mutex_orders: HashMap<u32, Vec<ThreadId>>,
}

impl LeapLog {
    /// Encoded size in bytes: one varint thread id plus a read/write bit
    /// per access record, plus per-vector headers — the "Space" column.
    pub fn size_bytes(&self) -> usize {
        let mut bytes = 0usize;
        let varint_len = |mut v: u64| {
            let mut n = 1;
            while v >= 0x80 {
                v >>= 7;
                n += 1;
            }
            n
        };
        for (addr, vec) in &self.accesses {
            bytes += varint_len(*addr as u64) + varint_len(vec.len() as u64);
            for r in vec {
                bytes += varint_len(((r.thread.0 as u64) << 1) | r.is_write as u64);
            }
        }
        for (m, vec) in &self.mutex_orders {
            bytes += varint_len(*m as u64) + varint_len(vec.len() as u64);
            bytes += vec.iter().map(|t| varint_len(t.0 as u64)).sum::<usize>();
        }
        bytes
    }

    /// Total number of recorded access events.
    pub fn event_count(&self) -> usize {
        self.accesses.values().map(Vec::len).sum::<usize>()
            + self.mutex_orders.values().map(Vec::len).sum::<usize>()
    }
}

/// The LEAP recorder monitor.
///
/// Each shared variable gets its own lock-protected access vector; each
/// access pays one lock acquisition plus an append — the synchronization
/// the paper's Table 2 measures.
pub struct LeapRecorder {
    /// One locked vector per flattened address, created on demand.
    vectors: HashMap<u32, Mutex<Vec<AccessRecord>>>,
    mutex_vectors: HashMap<u32, Mutex<Vec<ThreadId>>>,
}

impl Default for LeapRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl LeapRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LeapRecorder {
            vectors: HashMap::new(),
            mutex_vectors: HashMap::new(),
        }
    }

    /// Finalizes into the log artifact.
    pub fn finish(self) -> LeapLog {
        LeapLog {
            accesses: self
                .vectors
                .into_iter()
                .map(|(a, v)| (a, v.into_inner().unwrap_or_else(PoisonError::into_inner)))
                .collect(),
            mutex_orders: self
                .mutex_vectors
                .into_iter()
                .map(|(m, v)| (m, v.into_inner().unwrap_or_else(PoisonError::into_inner)))
                .collect(),
        }
    }
}

impl std::fmt::Debug for LeapRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LeapRecorder({} variables)", self.vectors.len())
    }
}

impl Monitor for LeapRecorder {
    fn on_access(&mut self, thread: ThreadId, event: &AccessEvent) {
        // The entry may need creating first (outside the hot path in real
        // LEAP, which preallocates per static variable).
        let cell: &Mutex<_> = self
            .vectors
            .entry(event.addr.0)
            .or_insert_with(|| Mutex::new(Vec::new()));
        // The measured cost: a real lock acquisition per shared access
        // (through a shared borrow, so it is not `get_mut`).
        cell.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(AccessRecord {
                thread,
                is_write: event.is_write,
            });
    }

    fn on_sync(&mut self, thread: ThreadId, event: &SyncEvent) {
        let m = match event {
            SyncEvent::Lock(m) | SyncEvent::Wait(_, m) => m.0,
            _ => return,
        };
        let cell: &Mutex<_> = self
            .mutex_vectors
            .entry(m)
            .or_insert_with(|| Mutex::new(Vec::new()));
        cell.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(thread);
    }
}

/// Replays a [`LeapLog`]: each thread's next shared access (or lock
/// acquisition) is released only when it heads the per-object vector.
#[derive(Debug)]
pub struct LeapReplayer {
    log: LeapLog,
    /// Consumption cursor per address.
    access_pos: HashMap<u32, usize>,
    mutex_pos: HashMap<u32, usize>,
    stuck: bool,
}

impl LeapReplayer {
    /// Creates a replayer from a recorded log.
    pub fn new(log: LeapLog) -> Self {
        LeapReplayer {
            access_pos: log.accesses.keys().map(|&a| (a, 0)).collect(),
            mutex_pos: log.mutex_orders.keys().map(|&m| (m, 0)).collect(),
            log,
            stuck: false,
        }
    }

    /// `true` when the replayer could not follow the log.
    pub fn is_stuck(&self) -> bool {
        self.stuck
    }

    fn access_allowed(&self, addr: u32, t: ThreadId, is_write: bool) -> bool {
        match self.log.accesses.get(&addr) {
            None => true, // unrecorded variable: unconstrained
            Some(vec) => {
                let pos = self.access_pos[&addr];
                vec.get(pos)
                    .is_some_and(|r| r.thread == t && r.is_write == is_write)
            }
        }
    }

    fn mutex_allowed(&self, m: u32, t: ThreadId) -> bool {
        match self.log.mutex_orders.get(&m) {
            None => true,
            Some(vec) => {
                let pos = self.mutex_pos[&m];
                vec.get(pos).is_some_and(|&x| x == t)
            }
        }
    }
}

impl Scheduler for LeapReplayer {
    fn pick(&mut self, vm: &Vm<'_>, actions: &[Action]) -> usize {
        use clap_vm::SapPreviewKind as K;
        let mut fallback = None;
        for (i, action) in actions.iter().enumerate() {
            let Action::Step(t) = *action else {
                // LEAP replays SC executions: no drains exist.
                continue;
            };
            match vm.preview_step(t) {
                StepPreview::Invisible
                | StepPreview::AssertStep
                | StepPreview::ThreadExit
                | StepPreview::BufferedStore { .. } => {
                    fallback.get_or_insert(i);
                }
                StepPreview::Sap { kind, .. } => {
                    let allowed = match kind {
                        K::Read(addr) | K::AtomicLoad(addr, _) => {
                            self.access_allowed(addr.0, t, false)
                        }
                        K::Write(addr)
                        | K::AtomicStore(addr, _)
                        | K::AtomicRmw(addr, _)
                        | K::AtomicCas(addr, _) => self.access_allowed(addr.0, t, true),
                        K::Lock(m) => self.mutex_allowed(m.0, t),
                        K::WaitAcquire(_) => true,
                        // Unlock/fork/join/signal orders follow from the
                        // above plus program order.
                        _ => true,
                    };
                    if allowed {
                        // Consume the cursor eagerly: this action will be
                        // the one executed.
                        match kind {
                            K::Read(addr)
                            | K::Write(addr)
                            | K::AtomicLoad(addr, _)
                            | K::AtomicStore(addr, _)
                            | K::AtomicRmw(addr, _)
                            | K::AtomicCas(addr, _)
                                if self.log.accesses.contains_key(&addr.0) =>
                            {
                                *self.access_pos.get_mut(&addr.0).expect("cursor") += 1;
                            }
                            K::Lock(m) if self.log.mutex_orders.contains_key(&m.0) => {
                                *self.mutex_pos.get_mut(&m.0).expect("cursor") += 1;
                            }
                            _ => {}
                        }
                        return i;
                    }
                }
                StepPreview::WouldBlock => {}
            }
        }
        match fallback {
            Some(i) => i,
            None => {
                self.stuck = true;
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_ir::parse;
    use clap_vm::{MemModel, Outcome, RandomScheduler, Vm};

    const RACY: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    #[test]
    fn records_access_vectors() {
        let p = parse(RACY).unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut rec = LeapRecorder::new();
        let mut sched = RandomScheduler::new(1);
        vm.run(&mut sched, &mut rec);
        let log = rec.finish();
        // x has 3 reads + 2 writes = 5 accesses.
        assert_eq!(log.event_count(), 5);
        assert!(log.size_bytes() > 0);
    }

    #[test]
    fn log_grows_with_shared_accesses_unlike_clap() {
        let small_src = "global int x = 0; fn main() { x = 1; }";
        let large_src = "global int x = 0;
             fn main() { let i: int = 0; while (i < 100) { x = x + 1; i = i + 1; } }";
        let size = |src: &str| {
            let p = parse(src).unwrap();
            let mut vm = Vm::new(&p, MemModel::Sc);
            let mut rec = LeapRecorder::new();
            vm.run(&mut RandomScheduler::new(0), &mut rec);
            rec.finish().size_bytes()
        };
        let (small, large) = (size(small_src), size(large_src));
        assert!(
            large > small + 150,
            "LEAP logs scale with access count: {small} vs {large}"
        );
    }

    #[test]
    fn leap_replay_reproduces_failing_interleaving() {
        let p = parse(RACY).unwrap();
        // Find a failing seed while recording with LEAP.
        for seed in 0..500 {
            let mut vm = Vm::new(&p, MemModel::Sc);
            let mut rec = LeapRecorder::new();
            let outcome = vm.run(&mut RandomScheduler::new(seed), &mut rec);
            if let Outcome::AssertFailed { assert, .. } = outcome {
                let log = rec.finish();
                let mut replay_vm = Vm::new(&p, MemModel::Sc);
                let mut replayer = LeapReplayer::new(log);
                let replay_outcome = replay_vm.run(&mut replayer, &mut clap_vm::NullMonitor);
                assert!(!replayer.is_stuck());
                assert_eq!(
                    replay_outcome,
                    Outcome::AssertFailed {
                        assert,
                        thread: clap_vm::ThreadId(0)
                    },
                    "LEAP replay reproduces the same failure"
                );
                return;
            }
        }
        panic!("no failing seed");
    }

    #[test]
    fn mutex_orders_recorded() {
        let p = parse(
            "global int x = 0; mutex m;
             fn w() { lock(m); x = x + 1; unlock(m); }
             fn main() { let a: thread = fork w(); let b: thread = fork w(); join a; join b; }",
        )
        .unwrap();
        let mut vm = Vm::new(&p, MemModel::Sc);
        let mut rec = LeapRecorder::new();
        vm.run(&mut RandomScheduler::new(5), &mut rec);
        let log = rec.finish();
        let m_order = log.mutex_orders.values().next().expect("mutex recorded");
        assert_eq!(m_order.len(), 2, "two acquisitions");
    }
}
