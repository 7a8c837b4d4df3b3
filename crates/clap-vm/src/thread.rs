//! Thread state: call frames, lineage-based canonical identity, run status.

use clap_ir::{ChanId, CondId, FuncId, LocalId, MutexId};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dense runtime thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The main thread's id.
    pub const MAIN: ThreadId = ThreadId(0);

    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<usize> for ThreadId {
    fn from(i: usize) -> Self {
        ThreadId(i as u32)
    }
}

/// Ordinal chains up to this long (main, its children and its
/// grandchildren) are stored inline.
const INLINE: usize = 3;

/// The canonical, schedule-independent identity of a thread: the chain of
/// fork ordinals from the main thread, following the paper's `t_{i:j}`
/// scheme (§3.2): main is `0`, main's second forked child is `0.2`, that
/// child's first fork is `0.2.1`, and so on.
///
/// Because each thread forks its children in program order, a lineage names
/// the same logical thread in every interleaving, which is what lets path
/// logs recorded in one execution drive replay in another.
///
/// Chains of up to three ordinals live inline, so forking and cloning them
/// never allocates; longer ones fall back to the heap. Equality, ordering
/// and hashing follow [`Lineage::components`], and `Debug` prints
/// `Lineage([0, 2])` whichever way the chain is stored.
#[derive(Clone)]
pub struct Lineage(Chain);

/// A lineage's ordinals: inline exactly when there are at most [`INLINE`].
#[derive(Clone)]
enum Chain {
    Inline { len: u8, ordinals: [u32; INLINE] },
    Heap(Vec<u32>),
}

impl Lineage {
    /// The main thread's lineage.
    pub fn main() -> Self {
        Self::from_components(&[0])
    }

    /// The lineage of this thread's `ordinal`-th forked child (1-based).
    pub fn child(&self, ordinal: u32) -> Self {
        match self.0 {
            Chain::Inline { len, mut ordinals } if usize::from(len) < INLINE => {
                ordinals[usize::from(len)] = ordinal;
                Lineage(Chain::Inline {
                    len: len + 1,
                    ordinals,
                })
            }
            _ => Lineage(Chain::Heap([self.components(), &[ordinal]].concat())),
        }
    }

    /// The raw ordinal chain.
    pub fn components(&self) -> &[u32] {
        match &self.0 {
            Chain::Inline { len, ordinals } => &ordinals[..usize::from(*len)],
            Chain::Heap(chain) => chain,
        }
    }

    /// Rebuilds a lineage from a raw ordinal chain (see
    /// [`Lineage::components`]).
    pub fn from_components(components: &[u32]) -> Self {
        Lineage(if components.len() <= INLINE {
            let mut ordinals = [0; INLINE];
            ordinals[..components.len()].copy_from_slice(components);
            Chain::Inline {
                len: components.len() as u8,
                ordinals,
            }
        } else {
            Chain::Heap(components.to_vec())
        })
    }

    /// Overwrites this lineage in place, reusing a heap chain's buffer
    /// when the new chain needs the heap too — the snapshot-restore fast
    /// path.
    pub fn assign(&mut self, components: &[u32]) {
        match &mut self.0 {
            Chain::Heap(chain) if components.len() > INLINE => {
                chain.clear();
                chain.extend_from_slice(components);
            }
            chain => *chain = Self::from_components(components).0,
        }
    }
}

impl PartialEq for Lineage {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl Eq for Lineage {}

impl PartialOrd for Lineage {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Lineage {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.components().cmp(other.components())
    }
}

impl Hash for Lineage {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Lineage").field(&self.components()).finish()
    }
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.components().iter().map(|c| c.to_string()).collect();
        write!(f, "{}", parts.join("."))
    }
}

/// One activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// Local slots (parameters first), zero-initialized.
    pub locals: Vec<i64>,
    /// Where the caller wants the return value, if anywhere.
    pub ret_dst: Option<LocalId>,
    /// Flat-bytecode address of the next op (see [`crate::bytecode`]), the
    /// frame's only position: [`crate::CompiledProgram::info`] maps it to
    /// its `(block, ip)` coordinates in the CFG.
    pub pc: u32,
}

impl Frame {
    /// Creates a frame for `func` with the given arguments; the caller
    /// sets `pc` to the function's entry.
    pub fn new(func: FuncId, locals_len: usize, args: &[i64]) -> Self {
        let mut locals = vec![0i64; locals_len];
        locals[..args.len()].copy_from_slice(args);
        Frame {
            func,
            locals,
            ret_dst: None,
            pc: 0,
        }
    }
}

/// Why a thread is not currently runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Ready to execute.
    Runnable,
    /// Waiting to acquire a mutex (initial acquisition or cond-wait
    /// reacquisition).
    BlockedLock(MutexId),
    /// Waiting for another thread to exit.
    BlockedJoin(ThreadId),
    /// Parked on a condition variable (pre-signal).
    BlockedWait(CondId),
    /// Parked on a `send` to a full (or, for capacity 0, receiver-less)
    /// channel.
    BlockedSend(ChanId),
    /// Parked on a `recv` from an empty, still-open channel.
    BlockedRecv(ChanId),
    /// Parked on a `mailbox_recv` with an empty mailbox.
    BlockedMailbox,
    /// Finished.
    Exited,
}

/// The complete state of one simulated thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Dense runtime id.
    pub id: ThreadId,
    /// Canonical identity.
    pub lineage: Lineage,
    /// Call stack; empty iff the thread has exited.
    pub frames: Vec<Frame>,
    /// Run status.
    pub status: Status,
    /// Number of children forked so far (for child lineage ordinals).
    pub forks: u32,
    /// Program-order index of the *next* shared access point this thread
    /// executes (counts shared loads/stores/sync operations).
    pub next_sap_index: u64,
    /// The mutex a `wait` must reacquire once signalled, plus the resume
    /// point semantics: when set, a successful lock acquisition completes
    /// the pending `wait` instead of a `lock` instruction.
    pub waiting_reacquire: Option<MutexId>,
}

impl Thread {
    /// Creates a runnable thread with a single frame.
    pub fn new(id: ThreadId, lineage: Lineage, frame: Frame) -> Self {
        Thread {
            id,
            lineage,
            frames: vec![frame],
            status: Status::Runnable,
            forks: 0,
            next_sap_index: 0,
            waiting_reacquire: None,
        }
    }

    /// The active frame.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited.
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("thread has a frame")
    }

    /// The active frame, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the thread has exited.
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has a frame")
    }

    /// `true` when the thread can be stepped.
    pub fn is_runnable(&self) -> bool {
        self.status == Status::Runnable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineage_scheme_matches_paper() {
        let main = Lineage::main();
        assert_eq!(main.to_string(), "0");
        let second_child = main.child(2);
        assert_eq!(second_child.to_string(), "0.2");
        assert_eq!(second_child.child(1).to_string(), "0.2.1");
        assert_eq!(second_child.components(), &[0, 2]);
    }

    #[test]
    fn lineage_ordering_is_stable() {
        let main = Lineage::main();
        assert!(main.child(1) < main.child(2));
        assert!(main < main.child(1));
    }

    /// The shape `Lineage` had before it stored chains inline: its derived
    /// `Debug` is the text the snapshot digests hash.
    mod vec_backed {
        #[derive(Debug)]
        pub struct Lineage(#[allow(dead_code)] pub Vec<u32>);
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = std::hash::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    fn is_inline(lineage: &Lineage) -> bool {
        matches!(lineage.0, Chain::Inline { .. })
    }

    #[test]
    fn lineage_debug_prints_the_chain() {
        let lineage = Lineage::main().child(2).child(1);
        assert_eq!(format!("{lineage:?}"), "Lineage([0, 2, 1])");
        for chain in [vec![0], vec![0, 2, 1], vec![0, 2, 1, 3, 5]] {
            let lineage = Lineage::from_components(&chain);
            let old = vec_backed::Lineage(chain);
            assert_eq!(format!("{lineage:?}"), format!("{old:?}"));
            assert_eq!(format!("{lineage:#?}"), format!("{old:#?}"));
        }
    }

    #[test]
    fn lineage_eq_ord_and_hash_follow_components() {
        // Shorter than, equal to and longer than the inline capacity.
        let chains: [&[u32]; 10] = [
            &[0],
            &[0, 1],
            &[0, 2],
            &[0, 1, 1],
            &[0, 1, 2],
            &[0, 2, 1],
            &[0, 1, 1, 1],
            &[0, 1, 1, 2],
            &[0, 2, 1, 1, 1],
            &[0, 3],
        ];
        for a in chains {
            let la = Lineage::from_components(a);
            assert_eq!(la.components(), a);
            assert_eq!(is_inline(&la), a.len() <= INLINE);
            assert_eq!(hash_of(&la), hash_of(a));
            for b in chains {
                let lb = Lineage::from_components(b);
                assert_eq!(la == lb, a == b, "{a:?} == {b:?}");
                assert_eq!(la.cmp(&lb), a.cmp(b), "{a:?} cmp {b:?}");
                assert_eq!(la.partial_cmp(&lb), a.partial_cmp(b));
            }
        }
        assert_eq!(
            std::mem::size_of::<Lineage>(),
            std::mem::size_of::<Vec<u32>>()
        );
    }

    #[test]
    fn child_and_assign_cross_the_inline_boundary() {
        let full = Lineage::main().child(2).child(1);
        assert!(is_inline(&full));
        let deep = full.child(3);
        assert!(!is_inline(&deep));
        assert_eq!(deep.components(), &[0, 2, 1, 3]);
        assert_eq!(deep, Lineage::from_components(&[0, 2, 1, 3]));
        assert!(full < deep && deep < Lineage::main().child(3));
        assert_eq!(deep.child(5).components(), &[0, 2, 1, 3, 5]);

        // Up, down, up, heap to heap, down, inline to inline.
        let mut lineage = Lineage::main();
        for chain in [
            &[0, 2, 1, 3, 5][..],
            &[0, 2],
            &[0, 2, 1, 3],
            &[0, 1, 1, 1, 1, 1],
            &[0, 2, 1],
            &[0],
        ] {
            lineage.assign(chain);
            assert_eq!(lineage.components(), chain);
            assert_eq!(is_inline(&lineage), chain.len() <= INLINE);
            assert_eq!(lineage, Lineage::from_components(chain));
            assert_eq!(hash_of(&lineage), hash_of(chain));
            let child = lineage.child(7);
            assert_eq!(child.components(), [chain, &[7]].concat());
            assert_eq!(is_inline(&child), chain.len() < INLINE);
        }
    }

    #[test]
    fn frame_initializes_args() {
        let f = Frame::new(FuncId(0), 4, &[7, 8]);
        assert_eq!(f.locals, vec![7, 8, 0, 0]);
    }

    #[test]
    fn thread_runnable_lifecycle() {
        let mut t = Thread::new(
            ThreadId::MAIN,
            Lineage::main(),
            Frame::new(FuncId(0), 0, &[]),
        );
        assert!(t.is_runnable());
        t.status = Status::BlockedJoin(ThreadId(1));
        assert!(!t.is_runnable());
    }
}
