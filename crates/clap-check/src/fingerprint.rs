//! Execution fingerprints: the canonical visible-event sequence of one run.
//!
//! Two executions are *the same interleaving* exactly when their fingerprints
//! are equal: the sequence of globally visible events — shared reads (with
//! the value observed), store **commits** (the moment a write becomes
//! visible, which under TSO/PSO is the drain/flush, not the buffering), and
//! synchronization operations — with every thread named by its canonical
//! [`Lineage`] rather than its runtime id. This is what lets the oracle's
//! enumerated executions be compared against a pipeline replay that may have
//! created the same logical threads under different runtime ids.

use clap_ir::AssertId;
use clap_vm::{AccessEvent, Lineage, Monitor, SyncEvent, ThreadId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One canonical visible event. Addresses, mutexes and condvars are plain
/// indices (stable across runs of the same program); threads are named by
/// `T`, which is a [`Lineage`] in every public [`Fingerprint`]. (The
/// monitor records runtime [`ThreadId`]s mid-run and dedups on interned
/// lineage ids; see [`FingerprintMonitor`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event<T = Lineage> {
    /// A shared load observed `value`.
    Read {
        /// Executing thread.
        thread: T,
        /// Flattened address.
        addr: u32,
        /// The value read.
        value: i64,
    },
    /// A store became globally visible (SC store, drain, or fence flush).
    Commit {
        /// The thread whose store committed.
        thread: T,
        /// Flattened address.
        addr: u32,
        /// The value written.
        value: i64,
    },
    /// Mutex acquired.
    Lock {
        /// Executing thread.
        thread: T,
        /// Mutex index.
        mutex: u32,
    },
    /// Mutex released (including the release phase of `wait`).
    Unlock {
        /// Executing thread.
        thread: T,
        /// Mutex index.
        mutex: u32,
    },
    /// Thread forked.
    Fork {
        /// The forking thread.
        thread: T,
        /// The new thread.
        child: T,
    },
    /// Join completed.
    Join {
        /// The joining thread.
        thread: T,
        /// The joined thread.
        child: T,
    },
    /// Cond-wait completed (mutex reacquired).
    Wait {
        /// Executing thread.
        thread: T,
        /// Condvar index.
        cond: u32,
    },
    /// Cond signalled.
    Signal {
        /// Executing thread.
        thread: T,
        /// Condvar index.
        cond: u32,
    },
    /// Cond broadcast.
    Broadcast {
        /// Executing thread.
        thread: T,
        /// Condvar index.
        cond: u32,
    },
    /// Channel send completed (value enqueued or rendezvoused; sends on a
    /// closed channel complete too — the drop is itself visible ordering).
    ChanSend {
        /// Executing thread.
        thread: T,
        /// Channel index.
        chan: u32,
    },
    /// Channel receive completed.
    ChanRecv {
        /// Executing thread.
        thread: T,
        /// Channel index.
        chan: u32,
    },
    /// Non-blocking channel send.
    ChanTrySend {
        /// Executing thread.
        thread: T,
        /// Channel index.
        chan: u32,
        /// Whether the value was enqueued.
        ok: bool,
    },
    /// Non-blocking channel receive.
    ChanTryRecv {
        /// Executing thread.
        thread: T,
        /// Channel index.
        chan: u32,
        /// Whether a value was dequeued.
        ok: bool,
    },
    /// Channel closed.
    ChanClose {
        /// Executing thread.
        thread: T,
        /// Channel index.
        chan: u32,
    },
    /// Actor spawned.
    SpawnActor {
        /// The spawning thread.
        thread: T,
        /// The new actor thread.
        child: T,
    },
    /// Mailbox append.
    MailboxSend {
        /// Executing thread.
        thread: T,
        /// The mailbox owner.
        target: T,
    },
    /// Mailbox dequeue completed.
    MailboxRecv {
        /// Executing thread.
        thread: T,
    },
}

impl<T> Event<T> {
    /// The thread that performed the event.
    pub fn thread(&self) -> &T {
        match self {
            Event::Read { thread, .. }
            | Event::Commit { thread, .. }
            | Event::Lock { thread, .. }
            | Event::Unlock { thread, .. }
            | Event::Fork { thread, .. }
            | Event::Join { thread, .. }
            | Event::Wait { thread, .. }
            | Event::Signal { thread, .. }
            | Event::Broadcast { thread, .. }
            | Event::ChanSend { thread, .. }
            | Event::ChanRecv { thread, .. }
            | Event::ChanTrySend { thread, .. }
            | Event::ChanTryRecv { thread, .. }
            | Event::ChanClose { thread, .. }
            | Event::SpawnActor { thread, .. }
            | Event::MailboxSend { thread, .. }
            | Event::MailboxRecv { thread } => thread,
        }
    }

    /// The same event with every thread renamed through `name`.
    pub(crate) fn map_threads<U>(&self, mut name: impl FnMut(&T) -> U) -> Event<U> {
        match self {
            Event::Read {
                thread,
                addr,
                value,
            } => Event::Read {
                thread: name(thread),
                addr: *addr,
                value: *value,
            },
            Event::Commit {
                thread,
                addr,
                value,
            } => Event::Commit {
                thread: name(thread),
                addr: *addr,
                value: *value,
            },
            Event::Lock { thread, mutex } => Event::Lock {
                thread: name(thread),
                mutex: *mutex,
            },
            Event::Unlock { thread, mutex } => Event::Unlock {
                thread: name(thread),
                mutex: *mutex,
            },
            Event::Fork { thread, child } => Event::Fork {
                thread: name(thread),
                child: name(child),
            },
            Event::Join { thread, child } => Event::Join {
                thread: name(thread),
                child: name(child),
            },
            Event::Wait { thread, cond } => Event::Wait {
                thread: name(thread),
                cond: *cond,
            },
            Event::Signal { thread, cond } => Event::Signal {
                thread: name(thread),
                cond: *cond,
            },
            Event::Broadcast { thread, cond } => Event::Broadcast {
                thread: name(thread),
                cond: *cond,
            },
            Event::ChanSend { thread, chan } => Event::ChanSend {
                thread: name(thread),
                chan: *chan,
            },
            Event::ChanRecv { thread, chan } => Event::ChanRecv {
                thread: name(thread),
                chan: *chan,
            },
            Event::ChanTrySend { thread, chan, ok } => Event::ChanTrySend {
                thread: name(thread),
                chan: *chan,
                ok: *ok,
            },
            Event::ChanTryRecv { thread, chan, ok } => Event::ChanTryRecv {
                thread: name(thread),
                chan: *chan,
                ok: *ok,
            },
            Event::ChanClose { thread, chan } => Event::ChanClose {
                thread: name(thread),
                chan: *chan,
            },
            Event::SpawnActor { thread, child } => Event::SpawnActor {
                thread: name(thread),
                child: name(child),
            },
            Event::MailboxSend { thread, target } => Event::MailboxSend {
                thread: name(thread),
                target: name(target),
            },
            Event::MailboxRecv { thread } => Event::MailboxRecv {
                thread: name(thread),
            },
        }
    }
}

/// The canonical identity of one execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint {
    /// Visible events in execution order.
    pub events: Vec<Event>,
    /// The assert that failed, when the run ended in a failure.
    pub assert: Option<AssertId>,
}

impl Fingerprint {
    /// One letter per visible event: `M` for main, `A`, `B`, … for worker
    /// lineages in their canonical (lexicographic) order. Commit events
    /// are lowercase so delayed store visibility is legible at a glance.
    pub fn letters(&self) -> String {
        let mut workers: Vec<&Lineage> = self
            .events
            .iter()
            .map(Event::thread)
            .filter(|l| l.components() != [0])
            .collect();
        workers.sort();
        workers.dedup();
        let letter = |l: &Lineage| -> char {
            if l.components() == [0] {
                'M'
            } else {
                let i = workers.iter().position(|w| *w == l).expect("worker known");
                (b'A' + (i % 26) as u8) as char
            }
        };
        self.events
            .iter()
            .map(|e| {
                let c = letter(e.thread());
                if matches!(e, Event::Commit { .. }) {
                    c.to_ascii_lowercase()
                } else {
                    c
                }
            })
            .collect()
    }
}

/// A rewind point for DFS backtracking (see [`FingerprintMonitor::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    events: usize,
    threads: usize,
}

/// A [`Fingerprint`] with every lineage replaced by its id in one
/// monitor's intern table: two keys from the same monitor are equal
/// exactly when the fingerprints they stand for are.
///
/// The key carries a hash of its contents, computed once when it is built.
/// It is the first field, so key equality compares the one word before it
/// reads any event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FingerprintKey {
    hash: u64,
    events: Vec<Event<u32>>,
    assert: Option<AssertId>,
}

impl FingerprintKey {
    /// The content hash, for indexing keys by it.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }

    /// The [`Fingerprint`] this key stands for under the intern table
    /// `lineages`.
    pub(crate) fn fingerprint(&self, lineages: &[Lineage]) -> Fingerprint {
        Fingerprint {
            events: self
                .events
                .iter()
                .map(|e| e.map_threads(|&id| lineages[id as usize].clone()))
                .collect(),
            assert: self.assert,
        }
    }

    /// Recomputes `hash` from the contents.
    fn rehash(&mut self) {
        let mut hasher = WordHasher::default();
        self.events.hash(&mut hasher);
        self.assert.hash(&mut hasher);
        self.hash = hasher.finish();
    }
}

/// The content hash of a [`FingerprintKey`]: one multiply-rotate step per
/// field (the FxHash mix), where SipHash would run rounds over every field
/// of every event. It is unkeyed, as `DefaultHasher::new()` is; the
/// oracle's index hashes this value again with its own keyed hasher, and
/// key equality stays exact.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte.into());
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A [`Monitor`] that records the visible-event sequence of a run and
/// finalizes it into a [`Fingerprint`].
///
/// Designed for enumeration: [`FingerprintMonitor::mark`] /
/// [`FingerprintMonitor::rewind`] snapshot and restore the recorded prefix
/// in O(1)/O(suffix), mirroring `Vm::snapshot`/`Vm::restore` during a DFS.
/// Events name threads by runtime id and are canonicalized only when a
/// fingerprint is asked for, because a `Fork` event arrives before the
/// child's [`Monitor::on_thread_start`]. Lineages are interned in a table
/// that survives rewinds, so a DFS can dedup its failing leaves on compact
/// [`FingerprintKey`]s and keep them in that form; the public
/// [`Fingerprint`] is built from a key and the table on demand.
#[derive(Debug, Default)]
pub struct FingerprintMonitor {
    events: Vec<Event<ThreadId>>,
    /// Runtime id → interned lineage, in announcement order (append-only
    /// within a path; truncated on rewind).
    threads: Vec<(ThreadId, u32)>,
    /// Every lineage announced so far, by intern id (never rewound).
    lineages: Vec<Lineage>,
    lineage_ids: HashMap<Lineage, u32>,
}

impl FingerprintMonitor {
    /// A fresh, empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a thread without going through a VM callback — needed for
    /// the main thread under caller-driven stepping, where `Vm::run`'s
    /// announcement never happens.
    pub fn register_thread(&mut self, thread: ThreadId, lineage: Lineage) {
        self.announce(thread, &lineage);
    }

    /// Names runtime id `thread` by `lineage` for the rest of the path.
    fn announce(&mut self, thread: ThreadId, lineage: &Lineage) {
        let id = self.intern(lineage);
        self.threads.push((thread, id));
    }

    /// The intern id of `lineage`, added to the table when it is new.
    pub(crate) fn intern(&mut self, lineage: &Lineage) -> u32 {
        if let Some(&id) = self.lineage_ids.get(lineage) {
            return id;
        }
        let id = self.lineages.len() as u32;
        self.lineages.push(lineage.clone());
        self.lineage_ids.insert(lineage.clone(), id);
        id
    }

    /// The intern id of the lineage runtime id `thread` names on the
    /// current path: the one announced under it last.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was never announced.
    pub(crate) fn lineage_id(&self, thread: ThreadId) -> u32 {
        self.threads
            .iter()
            .rev()
            .find(|&&(id, _)| id == thread)
            .unwrap_or_else(|| panic!("thread {thread} never announced"))
            .1
    }

    /// Recorded event `i` with its thread named by intern id.
    ///
    /// # Panics
    ///
    /// As [`FingerprintMonitor::lineage_id`], and when `i` is out of range.
    pub(crate) fn event_key(&self, i: usize) -> Event<u32> {
        self.events[i].map_threads(|&t| self.lineage_id(t))
    }

    /// The current rewind point.
    pub fn mark(&self) -> Mark {
        Mark {
            events: self.events.len(),
            threads: self.threads.len(),
        }
    }

    /// Drops everything recorded after `mark`.
    pub fn rewind(&mut self, mark: Mark) {
        self.events.truncate(mark.events);
        self.threads.truncate(mark.threads);
    }

    /// Number of visible events recorded so far.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Canonicalizes the recorded prefix into a [`Fingerprint`].
    ///
    /// # Panics
    ///
    /// Panics if an event references a thread that was never announced
    /// (a monitor wired past [`FingerprintMonitor::register_thread`]).
    pub fn fingerprint(&self, assert: Option<AssertId>) -> Fingerprint {
        let mut key = FingerprintKey::default();
        self.key_into(assert, &mut key);
        key.fingerprint(&self.lineages)
    }

    /// The lineage intern table: a key's ids index it. Append-only, so
    /// the table at the end of a search resolves every key taken during
    /// it.
    pub(crate) fn lineages(&self) -> &[Lineage] {
        &self.lineages
    }

    /// Overwrites `key` with the recorded prefix's dedup key.
    ///
    /// # Panics
    ///
    /// As [`FingerprintMonitor::fingerprint`].
    pub(crate) fn key_into(&self, assert: Option<AssertId>, key: &mut FingerprintKey) {
        key.events.clear();
        key.events.extend(
            self.events
                .iter()
                .map(|e| e.map_threads(|&t| self.lineage_id(t))),
        );
        key.assert = assert;
        key.rehash();
    }
}

impl Monitor for FingerprintMonitor {
    fn on_thread_start(&mut self, thread: ThreadId, lineage: &Lineage, _func: clap_ir::FuncId) {
        self.announce(thread, lineage);
    }

    fn on_access(&mut self, thread: ThreadId, event: &AccessEvent) {
        // Writes are recorded at *commit* time (visibility), not here.
        if !event.is_write {
            self.events.push(Event::Read {
                thread,
                addr: event.addr.0,
                value: event.value,
            });
        }
    }

    fn on_commit(&mut self, thread: ThreadId, addr: clap_vm::Addr, value: i64) {
        self.events.push(Event::Commit {
            thread,
            addr: addr.0,
            value,
        });
    }

    fn on_sync(&mut self, thread: ThreadId, event: &SyncEvent) {
        self.events.push(match *event {
            SyncEvent::Lock(m) => Event::Lock { thread, mutex: m.0 },
            SyncEvent::Unlock(m) => Event::Unlock { thread, mutex: m.0 },
            SyncEvent::Fork(child) => Event::Fork { thread, child },
            SyncEvent::Join(child) => Event::Join { thread, child },
            SyncEvent::Wait(c, _) => Event::Wait { thread, cond: c.0 },
            SyncEvent::Signal(c) => Event::Signal { thread, cond: c.0 },
            SyncEvent::Broadcast(c) => Event::Broadcast { thread, cond: c.0 },
            SyncEvent::ChanSend(ch) => Event::ChanSend { thread, chan: ch.0 },
            SyncEvent::ChanRecv(ch) => Event::ChanRecv { thread, chan: ch.0 },
            SyncEvent::ChanTrySend(ch, ok) => Event::ChanTrySend {
                thread,
                chan: ch.0,
                ok,
            },
            SyncEvent::ChanTryRecv(ch, ok) => Event::ChanTryRecv {
                thread,
                chan: ch.0,
                ok,
            },
            SyncEvent::ChanClose(ch) => Event::ChanClose { thread, chan: ch.0 },
            SyncEvent::SpawnActor(child) => Event::SpawnActor { thread, child },
            SyncEvent::MailboxSend(target) => Event::MailboxSend { thread, target },
            SyncEvent::MailboxRecv => Event::MailboxRecv { thread },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_vm::{run_with_seed, MemModel};

    #[test]
    fn mark_rewind_round_trip() {
        let mut mon = FingerprintMonitor::new();
        mon.register_thread(ThreadId::MAIN, Lineage::main());
        mon.on_commit(ThreadId::MAIN, clap_vm::Addr(0), 7);
        let mark = mon.mark();
        mon.on_commit(ThreadId::MAIN, clap_vm::Addr(1), 8);
        assert_eq!(mon.event_count(), 2);
        mon.rewind(mark);
        assert_eq!(mon.event_count(), 1);
        let fp = mon.fingerprint(None);
        assert_eq!(
            fp.events,
            vec![Event::Commit {
                thread: Lineage::main(),
                addr: 0,
                value: 7
            }]
        );
    }

    #[test]
    fn keys_resolve_threads_at_the_leaf_and_survive_rewinds() {
        let mut mon = FingerprintMonitor::new();
        mon.register_thread(ThreadId::MAIN, Lineage::main());
        let start = mon.mark();
        let child = ThreadId(1);
        // One path: main forks `child` as `lineage`, which then commits.
        // The fork event names `child` before its announcement.
        let leaf = |mon: &mut FingerprintMonitor, lineage: Lineage| {
            mon.rewind(start);
            mon.on_sync(ThreadId::MAIN, &SyncEvent::Fork(child));
            mon.on_thread_start(child, &lineage, clap_ir::FuncId(0));
            mon.on_commit(child, clap_vm::Addr(0), 1);
            let mut key = FingerprintKey::default();
            mon.key_into(None, &mut key);
            (key, mon.fingerprint(None))
        };
        let (key_a, fp_a) = leaf(&mut mon, Lineage::main().child(1));
        let (key_b, fp_b) = leaf(&mut mon, Lineage::main().child(2));
        let (key_c, fp_c) = leaf(&mut mon, Lineage::main().child(1));
        assert_eq!(
            fp_a.events,
            vec![
                Event::Fork {
                    thread: Lineage::main(),
                    child: Lineage::main().child(1),
                },
                Event::Commit {
                    thread: Lineage::main().child(1),
                    addr: 0,
                    value: 1,
                },
            ]
        );
        assert_eq!(key_a.fingerprint(mon.lineages()), fp_a);
        // The runtime id was reused for another lineage in between, yet
        // keys still compare exactly as their fingerprints do.
        assert_ne!(fp_a, fp_b);
        assert_ne!(key_a, key_b);
        assert_eq!(fp_a, fp_c);
        assert_eq!(key_a, key_c);
    }

    #[test]
    fn same_seed_same_fingerprint_different_seed_may_differ() {
        let program = clap_ir::parse(
            "global int x = 0;
             fn w() { let v: int = x; x = v + 1; }
             fn main() { let a: thread = fork w(); let b: thread = fork w();
                         join a; join b; assert(x == 2); }",
        )
        .unwrap();
        let fp = |seed| {
            let mut mon = FingerprintMonitor::new();
            let (outcome, _) = run_with_seed(&program, MemModel::Sc, seed, &mut mon);
            let assert = match outcome {
                clap_vm::Outcome::AssertFailed { assert, .. } => Some(assert),
                _ => None,
            };
            mon.fingerprint(assert)
        };
        assert_eq!(fp(3), fp(3), "fingerprints are deterministic per seed");
    }

    #[test]
    fn letters_use_canonical_worker_order() {
        let t1 = Lineage::main().child(1);
        let t2 = Lineage::main().child(2);
        let fp = Fingerprint {
            events: vec![
                Event::Lock {
                    thread: Lineage::main(),
                    mutex: 0,
                },
                Event::Read {
                    thread: t2.clone(),
                    addr: 0,
                    value: 0,
                },
                Event::Commit {
                    thread: t1.clone(),
                    addr: 0,
                    value: 1,
                },
                Event::Read {
                    thread: t1,
                    addr: 0,
                    value: 1,
                },
            ],
            assert: None,
        };
        assert_eq!(fp.letters(), "MBaA");
    }
}
