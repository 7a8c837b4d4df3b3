//! The ground-truth oracle: bounded exhaustive enumeration of
//! interleavings over the [`clap_vm`] interpreter.
//!
//! A depth-first search over the VM's *scheduler choices* — which runnable
//! thread steps next, and (under TSO/PSO) which buffered store drains next
//! — enumerates every execution of a program up to a preemption bound,
//! classifying each leaf (completed / deadlock / fault / assert failure)
//! and returning the complete set of failing executions, each identified
//! by its visible-event [`Fingerprint`]. A failing execution keeps its
//! identity in compact key form (lineages as ids into one intern table
//! the whole report shares), and builds the [`Fingerprint`] only when
//! asked: most consumers read counts. No symbolic execution, no
//! constraint solving: pure operational semantics, which is what makes the
//! result usable as ground truth for the whole CLAP pipeline.
//!
//! # Partial-order reduction
//!
//! Steps that are invisible to other threads — pure computation,
//! terminators, store-buffer *pushes* (visibility happens at the drain),
//! passing asserts, and thread exits with an empty buffer — are executed
//! eagerly without branching: they commute with every concurrent action,
//! so exploring their interleavings would only re-derive identical
//! fingerprints. Branching happens exclusively on *visible* actions:
//! shared reads, SC stores, synchronization operations, buffer drains, and
//! failing asserts.
//!
//! # Preemption bounding
//!
//! Following context bounding (CHESS-style), a branch costs one unit of
//! budget when it switches away from a thread that could still act; forced
//! switches (previous thread blocked or exited) are free, and so is
//! executing a failing assert. Schedules beyond
//! [`OracleConfig::max_preemptions`] are pruned and counted in
//! [`OracleReport::bound_prunes`], so the report can say exactly what its
//! "no failure" verdict covers.
//!
//! # Directed membership
//!
//! Whether one given failing execution is in the oracle's space is decided
//! without enumerating it: a directed search walks the same rules (eager
//! local runs, held exits, the same branch points) but takes only the
//! branches whose emitted events extend the given fingerprint, so it costs
//! about one execution. The fingerprint fixes the path, so no preemption
//! bound applies and no cap can cut the search short; it snapshots the VM
//! only where two branches both extend the fingerprint, to backtrack.

use crate::fingerprint::{Event, Fingerprint, FingerprintKey, FingerprintMonitor};
use clap_ir::{AssertId, Program};
use clap_vm::{
    Action, CompiledProgram, Lineage, MemModel, NullMonitor, Outcome, SapPreviewKind, SharedSpec,
    Snapshot, StepPreview, ThreadId, Vm,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Bounds for one enumeration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Memory model to enumerate under.
    pub model: MemModel,
    /// Maximum preemptive context switches per execution.
    pub max_preemptions: usize,
    /// Per-execution step fuse (loops that never terminate truncate the
    /// search rather than hanging it).
    pub max_steps: u64,
    /// Total executions (leaves) to explore before giving up on
    /// completeness.
    pub max_executions: u64,
    /// Cap on distinct failing executions collected.
    pub max_failing: usize,
}

impl OracleConfig {
    /// Defaults (preemption bound 2) for `model`.
    pub fn new(model: MemModel) -> Self {
        OracleConfig {
            model,
            max_preemptions: 2,
            max_steps: 10_000,
            max_executions: 200_000,
            max_failing: 4_096,
        }
    }

    /// Overrides the preemption bound.
    pub fn with_max_preemptions(mut self, bound: usize) -> Self {
        self.max_preemptions = bound;
        self
    }

    /// Overrides the execution cap.
    pub fn with_max_executions(mut self, cap: u64) -> Self {
        self.max_executions = cap;
        self
    }
}

/// One failing execution found by the oracle.
#[derive(Debug, Clone)]
pub struct FailingExecution {
    /// The scheduler-decision script that reproduces it: index `k` picks
    /// the `k`-th entry of `Vm::enabled` at step `k`. Feed it to
    /// [`clap_vm::ScriptScheduler`] to re-execute the interleaving.
    pub choices: Vec<u32>,
    /// The assert that fired.
    pub assert: AssertId,
    /// Preemptive context switches the execution used.
    pub preemptions: usize,
    /// Canonical identity of the execution, with lineages as ids into
    /// `lineages`.
    key: FingerprintKey,
    /// The search's lineage intern table, shared by every failing
    /// execution of one report.
    lineages: Arc<[Lineage]>,
}

impl FailingExecution {
    /// Canonical identity of the execution, built from its compact key.
    pub fn fingerprint(&self) -> Fingerprint {
        self.key.fingerprint(&self.lineages)
    }

    /// The fingerprint rendered one letter per visible event (see
    /// [`Fingerprint::letters`]).
    pub fn letters(&self) -> String {
        self.fingerprint().letters()
    }
}

/// What an enumeration found.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Distinct failing executions (deduplicated by fingerprint), in
    /// deterministic DFS order.
    pub failing: Vec<FailingExecution>,
    /// Leaves explored (failing + completed + deadlocked + faulted +
    /// truncated paths).
    pub executions: u64,
    /// Leaves where every thread exited.
    pub completed: u64,
    /// Deadlocked leaves.
    pub deadlocks: u64,
    /// Faulted leaves (out-of-bounds, unlock-not-held, …).
    pub faults: u64,
    /// Branches pruned by the preemption bound.
    pub bound_prunes: u64,
    /// `true` when a cap ([`OracleConfig::max_steps`],
    /// [`OracleConfig::max_executions`], [`OracleConfig::max_failing`])
    /// cut the search short of the bounded space.
    pub truncated: bool,
}

impl OracleReport {
    /// The search covered *every* execution within the preemption bound:
    /// the failing set is complete for schedules of ≤ bound preemptions.
    pub fn complete_within_bound(&self) -> bool {
        !self.truncated
    }

    /// The search covered the entire schedule space — nothing was pruned
    /// by the preemption bound, so an empty failing set certifies the
    /// program correct (under the enumerated memory model).
    pub fn exhaustive(&self) -> bool {
        !self.truncated && self.bound_prunes == 0
    }

    /// The canonical schedule string: the lexicographically smallest
    /// failing letters rendering (stable across enumeration-order
    /// refactors), used by the snapshot tests.
    pub fn canonical_letters(&self) -> Option<String> {
        self.failing
            .iter()
            .map(FailingExecution::letters)
            .min_by(|a, b| a.len().cmp(&b.len()).then(a.cmp(b)))
    }
}

/// Enumerates `program` under the sharing analysis the pipeline itself
/// uses (so oracle fingerprints and pipeline-replay fingerprints see the
/// same event vocabulary).
pub fn enumerate(program: &Program, config: &OracleConfig) -> OracleReport {
    enumerate_with_shared(
        program,
        clap_analysis::analyze(program).shared_spec(),
        config,
    )
}

/// Enumerates `program` with an explicit [`SharedSpec`].
pub fn enumerate_with_shared(
    program: &Program,
    shared: SharedSpec,
    config: &OracleConfig,
) -> OracleReport {
    let compiled = Arc::new(CompiledProgram::new(program));
    enumerate_compiled(program, compiled, shared, config)
}

/// [`enumerate_with_shared`] on bytecode the caller already compiled from
/// `program`.
pub(crate) fn enumerate_compiled(
    program: &Program,
    compiled: Arc<CompiledProgram>,
    shared: SharedSpec,
    config: &OracleConfig,
) -> OracleReport {
    let _span = clap_obs::span("check.oracle");
    let vm = Vm::with_compiled(program, compiled, config.model, shared);
    let e = Enumerator::run(vm, config);
    let r = &e.report;
    clap_obs::add("check.oracle.executions", r.executions);
    clap_obs::add("check.oracle.failing", r.failing.len() as u64);
    clap_obs::add("check.oracle.bound_prunes", r.bound_prunes);
    // Deadlocked leaves are part of the channel contract (blocked sends
    // and recvs with no matching peer), so they get their own counter.
    clap_obs::add("check.oracle.deadlocks", r.deadlocks);
    clap_obs::add(
        "check.oracle.atomics",
        program.globals.iter().filter(|g| g.atomic).count() as u64,
    );
    clap_obs::add("check.oracle.steps", e.walk.steps);
    clap_obs::add("check.oracle.scans", e.walk.scans);
    clap_obs::add("check.oracle.snapshots", e.snapshots);
    clap_obs::add("check.oracle.restores", e.restores);
    e.report
}

/// Whether `target` is the fingerprint of a failing execution that the
/// enumeration's rules reach from `vm`'s state, under any number of
/// preemptions: a run that ends in `target`'s failing assert after
/// exactly `target`'s visible events. `step_limit` fuses each path.
///
/// The search follows `target` (see the module docs), so a member costs
/// about one execution.
pub(crate) fn is_member(vm: Vm<'_>, target: &Fingerprint, step_limit: u64) -> bool {
    let _span = clap_obs::span("check.member");
    let mut search = Follower::new(vm, target, step_limit);
    let member = search.follow(0);
    clap_obs::add("check.member.steps", search.walk.steps);
    member
}

/// The end of a `same_hash` chain.
const NO_RUN: u32 = u32::MAX;

/// A visible branch point at the current DFS state.
#[derive(Debug, Clone, Copy)]
struct Branch {
    /// Index into the enabled actions.
    index: usize,
    /// The thread that acts.
    thread: ThreadId,
    /// Taking it never costs a preemption (a failing assert).
    free: bool,
    /// Preemptions the run has used once it takes this branch.
    preemptions: usize,
}

/// How the DFS treats a thread's next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Commutes with every concurrent action: taken eagerly, never branched
    /// on (computation, terminators, store-buffer pushes, passing asserts,
    /// exits with an empty buffer).
    Local,
    /// A branch point; `free` when taking it costs no preemption (a failing
    /// assert).
    Visible { free: bool },
    /// Held back: an exit whose store buffer has not drained yet.
    Held,
    /// Would block: the step changes nothing, and `last` blocked makes a
    /// switch away from it free.
    Blocked,
}

/// One DFS level's scratch buffers, pooled so that steady-state search
/// allocates nothing per step.
#[derive(Debug, Default)]
struct StepBuffers {
    actions: Vec<Action>,
    branches: Vec<Branch>,
}

/// Where [`Walk::advance`] stopped.
enum Stop {
    /// The run ended: an assert failed or a step faulted.
    Outcome(Outcome),
    /// The path reached the step fuse.
    Fuse,
    /// Nothing is enabled: every thread exited, or the rest deadlocked.
    Terminal,
    /// A visible branch point; the buffers hold its actions and branches.
    Branch,
}

/// One run under search, and the rules every search here steps it by:
/// local steps run eagerly, exits wait for their buffers to drain, and
/// only visible actions branch.
struct Walk<'p> {
    vm: Vm<'p>,
    mon: FingerprintMonitor,
    /// Scheduler decisions taken on the current path (every step, eager
    /// ones included, so the path replays through a `ScriptScheduler`).
    choices: Vec<u32>,
    /// Steps one path may take.
    fuse: u64,
    /// VM steps taken and reads of the enabled set, over the whole search.
    steps: u64,
    scans: u64,
}

impl<'p> Walk<'p> {
    fn new(vm: Vm<'p>, fuse: u64) -> Self {
        let mut mon = FingerprintMonitor::new();
        mon.register_thread(ThreadId::MAIN, vm.thread(ThreadId::MAIN).lineage.clone());
        Walk {
            vm,
            mon,
            choices: Vec::new(),
            fuse,
            steps: 0,
            scans: 0,
        }
    }

    /// Steps the run until it ends, reaches the fuse (`steps` counts the
    /// path's steps) or reaches a visible branch point, running local
    /// steps eagerly on the way.
    fn advance(
        &mut self,
        buffers: &mut StepBuffers,
        last: Option<ThreadId>,
        preemptions: usize,
        steps: &mut u64,
    ) -> Stop {
        loop {
            if let Some(outcome) = self.vm.outcome() {
                return Stop::Outcome(outcome.clone());
            }
            if *steps >= self.fuse {
                return Stop::Fuse;
            }
            buffers.actions.clear();
            buffers.actions.extend_from_slice(self.vm.enabled());
            self.scans += 1;
            if buffers.actions.is_empty() {
                return Stop::Terminal;
            }
            match self.classify(buffers, last, preemptions) {
                // Eagerly run local (commuting) steps without branching.
                Some(i) => *steps = self.local_run(&buffers.actions, i, *steps),
                // Everything would block: execute one blocking step so the
                // VM parks the thread and the run can reach Deadlock.
                None if buffers.branches.is_empty() => {
                    self.take(&buffers.actions, 0);
                    *steps += 1;
                }
                None => return Stop::Branch,
            }
        }
    }

    /// Takes the local step at enabled index `i`, then keeps stepping its
    /// thread at the same index for as long as the next step is local too,
    /// checking the outcome and the step fuse before each one. The run
    /// ends right after the thread exits. Returns the path's step count.
    ///
    /// This is exactly what rescanning before every step would do. Whether
    /// a step is local depends only on the op and its own thread's frame
    /// and buffer size, and no local step but an exit changes another
    /// thread's frame, buffer or status. So every action ahead of `i` stays
    /// non-local, runnable threads keep their positions (a buffered store
    /// only appends a drain), and [`Walk::classify`] would pick `i` again.
    fn local_run(&mut self, actions: &[Action], i: usize, mut steps: u64) -> u64 {
        let t = actions[i].thread();
        loop {
            self.take(actions, i);
            steps += 1;
            if steps >= self.fuse
                || self.vm.outcome().is_some()
                || !self.vm.thread(t).is_runnable()
                || self.kind(t) != Kind::Local
            {
                return steps;
            }
        }
    }

    fn take(&mut self, actions: &[Action], i: usize) {
        self.choices.push(i as u32);
        self.vm.step(actions[i], &mut self.mon);
        self.steps += 1;
    }

    /// Classifies every enabled action once, previewing each at most once.
    ///
    /// Returns the first action in enabled order whose step commutes with
    /// every concurrent action (the deterministic eager pick; matches the
    /// fallback order the replay scheduler uses). Otherwise fills
    /// `branches` with the visible branch points, each priced in
    /// preemptions, and returns `None`.
    ///
    /// A switch away from `last` costs one preemption when `last` could
    /// still act. A failing assert is a branch (its position among other
    /// threads' visible events distinguishes failures) but costs no
    /// preemption budget — the bug firing should never be priced out of
    /// the bounded space.
    fn classify(
        &self,
        buffers: &mut StepBuffers,
        last: Option<ThreadId>,
        preemptions: usize,
    ) -> Option<usize> {
        buffers.branches.clear();
        let mut last_active = false;
        for (i, &action) in buffers.actions.iter().enumerate() {
            let thread = action.thread();
            // `Some(free)` for a branch point, `None` for a held step.
            let branch = match action {
                Action::Step(t) => match self.kind(t) {
                    Kind::Local => return Some(i),
                    Kind::Visible { free } => Some(free),
                    Kind::Held => None,
                    Kind::Blocked => continue,
                },
                Action::Drain(..) => Some(false),
            };
            last_active |= Some(thread) == last;
            if let Some(free) = branch {
                buffers.branches.push(Branch {
                    index: i,
                    thread,
                    free,
                    preemptions,
                });
            }
        }
        if last_active {
            for b in &mut buffers.branches {
                if !b.free && Some(b.thread) != last {
                    b.preemptions += 1;
                }
            }
        }
        None
    }

    /// What stepping thread `t` next means to the search.
    fn kind(&self, t: ThreadId) -> Kind {
        match self.vm.preview_step(t) {
            StepPreview::Invisible | StepPreview::BufferedStore { .. } => Kind::Local,
            StepPreview::ThreadExit if self.vm.buffered_store_count(t) == 0 => Kind::Local,
            // Exits with a non-empty buffer are held until the buffered
            // stores drain (an exit-flush is equivalent to draining
            // everything and then exiting, so nothing is lost).
            StepPreview::ThreadExit => Kind::Held,
            StepPreview::AssertStep => match self.vm.assert_preview(t) {
                Some((_, true)) => Kind::Local,
                Some((_, false)) => Kind::Visible { free: true },
                None => Kind::Held,
            },
            StepPreview::Sap { .. } => Kind::Visible { free: false },
            StepPreview::WouldBlock => Kind::Blocked,
        }
    }
}

struct Enumerator<'p, 'c> {
    config: &'c OracleConfig,
    walk: Walk<'p>,
    /// Report position of a failing execution by its key's hash; the
    /// positions of earlier executions whose keys share that hash are
    /// chained through `same_hash`.
    seen: HashMap<u64, u32>,
    /// Per report position: the next earlier position whose key has the
    /// same hash, or [`NO_RUN`].
    same_hash: Vec<u32>,
    /// Scratch key for the failing leaf at hand.
    key: FingerprintKey,
    report: OracleReport,
    stop: bool,
    /// VM snapshots taken (one per fork) and restored (one per fork
    /// branch after the first), for the `check.oracle.*` counters.
    snapshots: u64,
    restores: u64,
    /// Retired fork snapshots, reused at the next fork: `Vm::snapshot_into`
    /// overwrites a pooled snapshot's buffers in place.
    pool: Vec<Snapshot>,
    /// Retired per-level buffers, pooled the same way.
    step_pool: Vec<StepBuffers>,
}

impl<'p, 'c> Enumerator<'p, 'c> {
    /// Runs the whole search from `vm`'s state.
    fn run(vm: Vm<'p>, config: &'c OracleConfig) -> Self {
        let mut e = Enumerator {
            config,
            walk: Walk::new(vm, config.max_steps),
            seen: HashMap::new(),
            same_hash: Vec::new(),
            key: FingerprintKey::default(),
            report: OracleReport::default(),
            stop: false,
            snapshots: 0,
            restores: 0,
            pool: Vec::new(),
            step_pool: Vec::new(),
        };
        e.explore(None, 0, 0);
        // The intern table only grows, so its final state resolves every
        // key the search took.
        let lineages: Arc<[Lineage]> = e.walk.mon.lineages().into();
        for f in &mut e.report.failing {
            f.lineages = Arc::clone(&lineages);
        }
        e
    }

    /// Whether the scratch key is already in the report.
    fn seen_key(&self) -> bool {
        let mut pos = self.seen.get(&self.key.hash()).copied().unwrap_or(NO_RUN);
        while pos != NO_RUN {
            if self.report.failing[pos as usize].key == self.key {
                return true;
            }
            pos = self.same_hash[pos as usize];
        }
        false
    }

    fn explore(&mut self, last: Option<ThreadId>, preemptions: usize, steps: u64) {
        let mut buffers = self.step_pool.pop().unwrap_or_default();
        self.explore_with(&mut buffers, last, preemptions, steps);
        self.step_pool.push(buffers);
    }

    fn explore_with(
        &mut self,
        buffers: &mut StepBuffers,
        last: Option<ThreadId>,
        preemptions: usize,
        mut steps: u64,
    ) {
        match self.walk.advance(buffers, last, preemptions, &mut steps) {
            Stop::Outcome(outcome) => self.outcome_leaf(&outcome, preemptions),
            Stop::Fuse => {
                self.report.truncated = true;
                self.count_leaf();
            }
            Stop::Terminal => self.terminal_leaf(),
            Stop::Branch => self.branch(buffers, steps),
        }
    }

    /// Explores every branch point that survives the preemption bound, in
    /// enabled order. The VM is snapshotted only at a fork, where two or
    /// more survive: a lone survivor leaves no sibling to restore for.
    fn branch(&mut self, buffers: &StepBuffers, steps: u64) {
        let bound = self.config.max_preemptions;
        let fork = buffers
            .branches
            .iter()
            .filter(|b| b.preemptions <= bound)
            .nth(1)
            .is_some();
        let snap = fork.then(|| {
            let mut snap = self.pool.pop().unwrap_or_default();
            self.walk.vm.snapshot_into(&mut snap);
            self.snapshots += 1;
            snap
        });
        let mark = self.walk.mon.mark();
        let depth = self.walk.choices.len();
        let mut first = true;
        for b in &buffers.branches {
            if b.preemptions > bound {
                self.report.bound_prunes += 1;
                continue;
            }
            if !first {
                let snap = snap.as_ref().expect("a second survivor means a fork");
                self.walk.vm.restore(snap);
                self.restores += 1;
                self.walk.mon.rewind(mark);
                self.walk.choices.truncate(depth);
            }
            first = false;
            self.walk.take(&buffers.actions, b.index);
            self.explore(Some(b.thread), b.preemptions, steps + 1);
            if self.stop {
                break;
            }
        }
        if let Some(snap) = snap {
            self.pool.push(snap);
        }
    }

    fn count_leaf(&mut self) {
        self.report.executions += 1;
        if self.report.executions >= self.config.max_executions {
            self.report.truncated = true;
            self.stop = true;
        }
    }

    fn terminal_leaf(&mut self) {
        let all_exited = self
            .walk
            .vm
            .threads()
            .iter()
            .all(|t| t.status == clap_vm::Status::Exited);
        if all_exited {
            self.report.completed += 1;
        } else {
            self.report.deadlocks += 1;
        }
        self.count_leaf();
    }

    fn outcome_leaf(&mut self, outcome: &Outcome, preemptions: usize) {
        match outcome {
            Outcome::AssertFailed { assert, .. } => {
                self.walk.mon.key_into(Some(*assert), &mut self.key);
                if !self.seen_key() {
                    let pos = self.report.failing.len() as u32;
                    let earlier = self.seen.insert(self.key.hash(), pos);
                    self.same_hash.push(earlier.unwrap_or(NO_RUN));
                    self.report.failing.push(FailingExecution {
                        choices: self.walk.choices.clone(),
                        assert: *assert,
                        preemptions,
                        key: std::mem::take(&mut self.key),
                        // Set once the search ends.
                        lineages: Arc::default(),
                    });
                    if self.report.failing.len() >= self.config.max_failing {
                        self.report.truncated = true;
                        self.stop = true;
                    }
                }
            }
            Outcome::Fault { .. } => self.report.faults += 1,
            // `step` never sets these; `run`-only outcomes.
            Outcome::Completed | Outcome::Deadlock | Outcome::StepLimit => {}
        }
        self.count_leaf();
    }
}

/// The directed search behind [`is_member`]: the enumeration's walk,
/// restricted at every branch point to the branches whose events extend
/// the target.
struct Follower<'p> {
    walk: Walk<'p>,
    /// The target's events, threads named by their ids in the walk
    /// monitor's intern table.
    target: Vec<Event<u32>>,
    /// The target's failing assert.
    assert: Option<AssertId>,
    /// Events of the current path already matched against `target`.
    matched: usize,
}

impl<'p> Follower<'p> {
    fn new(vm: Vm<'p>, target: &Fingerprint, step_limit: u64) -> Self {
        let mut walk = Walk::new(vm, step_limit);
        let events = target
            .events
            .iter()
            .map(|e| e.map_threads(|l| walk.mon.intern(l)))
            .collect();
        Follower {
            walk,
            target: events,
            assert: target.assert,
            matched: 0,
        }
    }

    /// Follows the target from the current state of a path that has taken
    /// `steps` steps; `true` once a run ends in the target's failure.
    fn follow(&mut self, mut steps: u64) -> bool {
        let buffers = &mut StepBuffers::default();
        loop {
            let stop = self.walk.advance(buffers, None, 0, &mut steps);
            if !self.extends_target() {
                return false;
            }
            match stop {
                Stop::Outcome(Outcome::AssertFailed { assert, .. }) => {
                    return Some(assert) == self.assert && self.matched == self.target.len();
                }
                Stop::Branch => {}
                Stop::Outcome(_) | Stop::Fuse | Stop::Terminal => return false,
            }
            buffers
                .branches
                .retain(|b| self.may_extend(&buffers.actions, b));
            match buffers.branches[..] {
                [] => return false,
                [only] => {
                    self.walk.take(&buffers.actions, only.index);
                    steps += 1;
                    if !self.extends_target() {
                        return false;
                    }
                }
                _ => return self.fork(buffers, steps),
            }
        }
    }

    /// Tries each remaining branch in enabled order from one snapshot,
    /// until one leads to the target.
    fn fork(&mut self, buffers: &StepBuffers, steps: u64) -> bool {
        let snap = self.walk.vm.snapshot();
        let mark = self.walk.mon.mark();
        let depth = self.walk.choices.len();
        let matched = self.matched;
        for (n, b) in buffers.branches.iter().enumerate() {
            if n > 0 {
                self.walk.vm.restore(&snap);
                self.walk.mon.rewind(mark);
                self.walk.choices.truncate(depth);
                self.matched = matched;
            }
            self.walk.take(&buffers.actions, b.index);
            if self.extends_target() && self.follow(steps + 1) {
                return true;
            }
        }
        false
    }

    /// Whether the events recorded since the last check continue the
    /// target; counts them as matched when they do.
    fn extends_target(&mut self) -> bool {
        let recorded = self.walk.mon.event_count();
        if recorded > self.target.len() {
            return false;
        }
        while self.matched < recorded {
            if self.walk.mon.event_key(self.matched) != self.target[self.matched] {
                return false;
            }
            self.matched += 1;
        }
        true
    }

    /// Whether branch `b` can extend the target: its first event must be
    /// the target's next one, which names its thread, and a drain commits
    /// and a shared load reads the address named. A failing assert emits
    /// nothing and ends the run, so it fits only once the target is
    /// matched in full. A necessary condition: the events a step emits are
    /// compared once it is taken.
    fn may_extend(&self, actions: &[Action], b: &Branch) -> bool {
        if b.free {
            return self.matched == self.target.len()
                && self.walk.vm.assert_preview(b.thread).map(|(id, _)| id) == self.assert;
        }
        let Some(next) = self.target.get(self.matched) else {
            return false;
        };
        if *next.thread() != self.walk.mon.lineage_id(b.thread) {
            return false;
        }
        match actions[b.index] {
            Action::Drain(_, addr) => {
                matches!(*next, Event::Commit { addr: a, .. } if a == addr.0)
            }
            Action::Step(t) => match self.walk.vm.preview_step(t) {
                StepPreview::Sap {
                    kind: SapPreviewKind::Read(addr),
                    ..
                } => matches!(*next, Event::Read { addr: a, .. } if a == addr.0),
                _ => true,
            },
        }
    }
}

/// Re-executes a decision script and returns the `(lineage, per-thread SAP
/// index)` sequence of its visible SAPs in execution order — buffered
/// stores are placed at their *visibility* point (their drain, or
/// immediately before the fence that flushes them), which is exactly the
/// convention of [`clap_constraints::Schedule`]. The second component is
/// the run's outcome.
///
/// This is the bridge from an oracle [`FailingExecution`] to the
/// pipeline's replayer: map each `(lineage, po)` through a `SymTrace`'s
/// `lineages`/`per_thread` tables to get a `SapId` order.
///
/// # Panics
///
/// Panics when `choices` does not fit the program (an index out of range
/// of the enabled actions at some step) — scripts must come from an
/// enumeration of the same program under the same model.
pub fn schedule_of_choices(
    program: &Program,
    model: MemModel,
    shared: SharedSpec,
    choices: &[u32],
) -> (Vec<(Lineage, u64)>, Option<Outcome>) {
    let mut vm = Vm::with_shared(program, model, shared);
    let mut order: Vec<(Lineage, u64)> = Vec::new();
    for &c in choices {
        if vm.outcome().is_some() {
            break;
        }
        let enabled = vm.enabled();
        let action = *enabled
            .get(c as usize)
            .unwrap_or_else(|| panic!("choice {c} out of range ({} enabled)", enabled.len()));
        match action {
            Action::Step(t) => {
                let lineage = vm.thread(t).lineage.clone();
                let flush_buffer_of = |vm: &Vm<'_>, order: &mut Vec<(Lineage, u64)>| {
                    for store in vm.buffer(t).iter() {
                        order.push((lineage.clone(), store.po_index));
                    }
                };
                match vm.preview_step(t) {
                    StepPreview::Sap { po_index, kind } => {
                        // Fencing SAPs flush the executing thread's buffer
                        // first; those commits precede the SAP itself.
                        // Atomic fences mirror the VM: everything fences
                        // fully except — under C11 — relaxed/acquire
                        // loads (no flush) and relaxed/acquire RMW/CAS
                        // (FIFO prefix up to their own location only).
                        use clap_ir::AtomicOrd;
                        let weak = |ord: AtomicOrd| {
                            model == MemModel::C11
                                && matches!(ord, AtomicOrd::Relaxed | AtomicOrd::Acquire)
                        };
                        match kind {
                            SapPreviewKind::Read(_) | SapPreviewKind::Write(_) => {}
                            SapPreviewKind::AtomicLoad(_, ord) if weak(ord) => {}
                            SapPreviewKind::AtomicRmw(addr, ord)
                            | SapPreviewKind::AtomicCas(addr, ord)
                                if weak(ord) =>
                            {
                                let entries: Vec<_> =
                                    vm.buffer(t).iter().map(|s| (s.addr, s.po_index)).collect();
                                if let Some(last) = entries.iter().rposition(|&(a, _)| a == addr) {
                                    for &(_, po) in &entries[..=last] {
                                        order.push((lineage.clone(), po));
                                    }
                                }
                            }
                            _ => flush_buffer_of(&vm, &mut order),
                        }
                        order.push((lineage.clone(), po_index));
                    }
                    StepPreview::ThreadExit => flush_buffer_of(&vm, &mut order),
                    StepPreview::Invisible
                    | StepPreview::BufferedStore { .. }
                    | StepPreview::AssertStep
                    | StepPreview::WouldBlock => {}
                }
            }
            Action::Drain(t, addr) => {
                let po = vm.drain_preview(t, addr).expect("drain has a source store");
                order.push((vm.thread(t).lineage.clone(), po));
            }
        }
        vm.step(action, &mut NullMonitor);
    }
    // Stores still buffered when the run ended (e.g. the assert fired
    // first) never became visible, but their SAPs are part of the trace —
    // a full schedule must place them somewhere, so they go at the end,
    // in thread order, FIFO per buffer (the replayer only consumes these
    // positions if it ever drains them, which a reproducing run stops
    // short of).
    for thread in vm.threads() {
        for store in vm.buffer(thread.id).iter() {
            order.push((thread.lineage.clone(), store.po_index));
        }
    }
    let outcome = vm.outcome().cloned();
    (order, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clap_vm::{RandomScheduler, ScriptScheduler};
    use std::collections::HashSet;

    const LOST_UPDATE: &str = "global int x = 0;
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    const LOCKED: &str = "global int x = 0; mutex m;
         fn w() { lock(m); let v: int = x; x = v + 1; unlock(m); }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2); }";

    const SB: &str = "global int x = 0; global int y = 0;
         global int r1 = -1; global int r2 = -1;
         fn t1() { x = 1; r1 = y; }
         fn t2() { y = 1; r2 = x; }
         fn main() {
             let a: thread = fork t1(); let b: thread = fork t2();
             join a; join b;
             assert(r1 + r2 > 0, \"SB\");
         }";

    const MP: &str = "global int data = 0; global int flag = 0; global int seen = -1;
         fn writer() { data = 1; flag = 1; }
         fn reader() { let f: int = flag; if (f == 1) { seen = data; } }
         fn main() {
             let w: thread = fork writer(); let r: thread = fork reader();
             join w; join r;
             assert(seen != 0, \"MP\");
         }";

    /// A worker whose failing assert follows a local loop of 20 turns,
    /// while `main` waits in `join`.
    const LOCAL_LOOP: &str = "global int x = 0;
         fn w() { let i: int = 0; while (i < 20) { i = i + 1; } assert(x == 1, \"late\"); }
         fn main() { let a: thread = fork w(); join a; }";

    /// Two workers whose writes are followed by a local loop that runs
    /// straight into the worker's exit, while `main` waits in `join`.
    const LOCAL_EXIT: &str = "global int x = 0;
         fn w() { let v: int = x; x = v + 1; let i: int = 0; while (i < 3) { i = i + 1; } }
         fn main() { let a: thread = fork w(); let b: thread = fork w();
                     join a; join b; assert(x == 2, \"lost\"); }";

    #[test]
    fn step_fuse_cuts_a_local_run_where_rescanning_would() {
        let program = clap_ir::parse(LOCAL_LOOP).unwrap();
        let shared = clap_analysis::analyze(&program).shared_spec();
        let search = |max_steps| {
            let config = OracleConfig {
                max_steps,
                ..OracleConfig::new(MemModel::Sc)
            };
            let vm = Vm::with_shared(&program, config.model, shared.clone());
            let e = Enumerator::run(vm, &config);
            (e.report, e.walk.steps)
        };
        let (report, _) = search(10_000);
        let [failing] = &report.failing[..] else {
            panic!("one failing execution: {report:?}");
        };
        let path = failing.choices.len() as u64;
        // The loop is one local run of the worker, well over its 20 turns,
        // right before the assert.
        let worker = failing.choices[path as usize - 1];
        let run = failing.choices.iter().rev().skip(1);
        assert!(run.take_while(|&&c| c == worker).count() > 40);

        let (at_path, steps) = search(path);
        assert_eq!(at_path.failing.len(), 1, "{at_path:?}");
        assert_eq!(at_path.failing[0].choices, failing.choices);
        assert_eq!(steps, path);

        // One step less, the fuse ends the run before the assert; ten
        // less, it stops the run midway. Either way the path is only a
        // truncated leaf, cut exactly at the fuse.
        for fuse in [path - 1, path - 10] {
            let (short, steps) = search(fuse);
            assert!(short.failing.is_empty(), "{short:?}");
            assert!(short.truncated);
            assert_eq!(short.executions, 1);
            assert_eq!(steps, fuse);
        }
    }

    #[test]
    fn local_runs_into_an_exit_replay_through_script_scheduler() {
        let program = clap_ir::parse(LOCAL_EXIT).unwrap();
        let shared = clap_analysis::analyze(&program).shared_spec();
        for model in [MemModel::Sc, MemModel::Tso] {
            let report = enumerate(&program, &OracleConfig::new(model));
            assert!(
                !report.failing.is_empty(),
                "{model:?}: the lost update is found"
            );
            for failing in &report.failing {
                let mut vm = Vm::with_shared(&program, model, shared.clone());
                let mut sched = ScriptScheduler::new(failing.choices.clone());
                let mut mon = FingerprintMonitor::new();
                let outcome = vm.run(&mut sched, &mut mon);
                assert!(!sched.overran(), "{model:?}: script fits the program");
                let Outcome::AssertFailed { assert, .. } = outcome else {
                    panic!("{model:?}: script must re-fail the assert, got {outcome:?}");
                };
                assert_eq!(mon.fingerprint(Some(assert)), failing.fingerprint());
            }
        }
    }

    #[test]
    fn lost_update_failures_found_under_sc() {
        let program = clap_ir::parse(LOST_UPDATE).unwrap();
        let report = enumerate(&program, &OracleConfig::new(MemModel::Sc));
        assert!(report.complete_within_bound());
        assert!(!report.failing.is_empty(), "the lost update must be found");
        assert!(report.completed > 0, "correct interleavings exist too");
        for f in &report.failing {
            assert_eq!(f.fingerprint().assert, Some(f.assert));
            assert!(f.preemptions <= 2);
        }
    }

    #[test]
    fn locked_program_certified_correct() {
        let program = clap_ir::parse(LOCKED).unwrap();
        let config = OracleConfig::new(MemModel::Sc).with_max_preemptions(8);
        let report = enumerate(&program, &config);
        assert!(report.exhaustive(), "small program, wide bound: {report:?}");
        assert!(report.failing.is_empty());
        assert_eq!(report.deadlocks, 0);
    }

    #[test]
    fn store_buffering_litmus_differentiates_sc_from_tso() {
        let program = clap_ir::parse(SB).unwrap();
        let sc = enumerate(
            &program,
            &OracleConfig::new(MemModel::Sc).with_max_preemptions(8),
        );
        assert!(sc.exhaustive(), "{sc:?}");
        assert!(
            sc.failing.is_empty(),
            "SC forbids r1 == 0 && r2 == 0: {:?}",
            sc.canonical_letters()
        );
        let tso = enumerate(&program, &OracleConfig::new(MemModel::Tso));
        assert!(
            !tso.failing.is_empty(),
            "TSO store buffering admits the SB weak result"
        );
    }

    #[test]
    fn message_passing_litmus_differentiates_tso_from_pso() {
        let program = clap_ir::parse(MP).unwrap();
        let tso = enumerate(
            &program,
            &OracleConfig::new(MemModel::Tso).with_max_preemptions(8),
        );
        assert!(tso.exhaustive(), "{tso:?}");
        assert!(
            tso.failing.is_empty(),
            "TSO drains FIFO, so flag=1 implies data=1: {:?}",
            tso.canonical_letters()
        );
        let pso = enumerate(&program, &OracleConfig::new(MemModel::Pso));
        assert!(!pso.failing.is_empty(), "PSO reorders the data/flag stores");
    }

    #[test]
    fn enumeration_is_deterministic() {
        let program = clap_ir::parse(LOST_UPDATE).unwrap();
        let config = OracleConfig::new(MemModel::Sc);
        let a = enumerate(&program, &config);
        let b = enumerate(&program, &config);
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.failing.len(), b.failing.len());
        for (x, y) in a.failing.iter().zip(&b.failing) {
            assert_eq!(x.choices, y.choices);
            assert_eq!(x.letters(), y.letters());
        }
    }

    #[test]
    fn choices_replay_through_script_scheduler() {
        // The chooser-hook contract: a recorded decision script re-executes
        // the exact interleaving through the ordinary `Vm::run` loop.
        let program = clap_ir::parse(LOST_UPDATE).unwrap();
        let shared = clap_analysis::analyze(&program).shared_spec();
        let report = enumerate(&program, &OracleConfig::new(MemModel::Sc));
        let failing = report.failing.first().expect("failures exist");
        let mut vm = Vm::with_shared(&program, MemModel::Sc, shared);
        let mut sched = ScriptScheduler::new(failing.choices.clone());
        let mut mon = FingerprintMonitor::new();
        let outcome = vm.run(&mut sched, &mut mon);
        assert!(!sched.overran(), "script fits the program");
        let Outcome::AssertFailed { assert, .. } = outcome else {
            panic!("script must re-fail the assert, got {outcome:?}");
        };
        assert_eq!(mon.fingerprint(Some(assert)), failing.fingerprint());
    }

    /// Every failing run of `src` under `model` — each one the enumeration
    /// found, replayed from its script, and each one a seeded random run
    /// ends in — with its fingerprint.
    fn failing_runs(src: &str, model: MemModel) -> (Program, SharedSpec, Vec<Fingerprint>) {
        let program = clap_ir::parse(src).unwrap();
        let shared = clap_analysis::analyze(&program).shared_spec();
        let report = enumerate(&program, &OracleConfig::new(model));
        assert!(!report.failing.is_empty(), "{model:?}: {src}");
        let mut runs = Vec::new();
        let mut keep = |outcome: Outcome, mon: FingerprintMonitor| {
            if let Outcome::AssertFailed { assert, .. } = outcome {
                runs.push(mon.fingerprint(Some(assert)));
            }
        };
        for failing in &report.failing {
            let mut vm = Vm::with_shared(&program, model, shared.clone());
            let mut mon = FingerprintMonitor::new();
            let outcome = vm.run(&mut ScriptScheduler::new(failing.choices.clone()), &mut mon);
            assert!(
                matches!(outcome, Outcome::AssertFailed { .. }),
                "{model:?}: script must re-fail the assert, got {outcome:?}"
            );
            keep(outcome, mon);
        }
        for seed in 0..200 {
            let mut vm = Vm::with_shared(&program, model, shared.clone());
            let mut mon = FingerprintMonitor::new();
            let outcome = vm.run(&mut RandomScheduler::with_stickiness(seed, 0.5), &mut mon);
            keep(outcome, mon);
        }
        (program, shared, runs)
    }

    #[test]
    fn directed_search_accepts_replayed_runs_and_rejects_a_changed_read() {
        for (src, model) in [
            (LOST_UPDATE, MemModel::Sc),
            (LOCAL_EXIT, MemModel::Tso),
            (SB, MemModel::Tso),
            (MP, MemModel::Pso),
        ] {
            let (program, shared, runs) = failing_runs(src, model);
            let member = |fp: &Fingerprint| {
                let vm = Vm::with_shared(&program, model, shared.clone());
                is_member(vm, fp, 1_000_000)
            };
            for mut fp in runs {
                assert!(member(&fp), "{model:?}: {}", fp.letters());
                let read = fp
                    .events
                    .iter_mut()
                    .find_map(|e| match e {
                        Event::Read { value, .. } => Some(value),
                        _ => None,
                    })
                    .expect("every failing run reads");
                *read += 1;
                assert!(!member(&fp), "{model:?}: {}", fp.letters());
            }
        }
    }

    #[test]
    fn directed_search_needs_the_whole_target_and_its_assert() {
        let (program, shared, runs) = failing_runs(LOST_UPDATE, MemModel::Sc);
        let member = |fp: &Fingerprint| {
            let vm = Vm::with_shared(&program, MemModel::Sc, shared.clone());
            is_member(vm, fp, 1_000_000)
        };
        let fp = &runs[0];
        let mut short = fp.clone();
        short.events.pop();
        assert!(!member(&short), "a strict prefix: {}", short.letters());
        let mut other = fp.clone();
        other.assert = None;
        assert!(!member(&other), "no assert failed");
        // A path longer than the fuse is cut short of the failure.
        let vm = Vm::with_shared(&program, MemModel::Sc, shared.clone());
        assert!(!is_member(vm, fp, 3));
    }

    #[test]
    fn schedule_of_choices_places_buffered_stores_at_visibility() {
        let program = clap_ir::parse(SB).unwrap();
        let shared = clap_analysis::analyze(&program).shared_spec();
        let report = enumerate(&program, &OracleConfig::new(MemModel::Tso));
        let failing = report.failing.first().expect("TSO SB failures exist");
        let (order, outcome) =
            schedule_of_choices(&program, MemModel::Tso, shared, &failing.choices);
        assert!(matches!(outcome, Some(Outcome::AssertFailed { .. })));
        // Every (lineage, po) pair is unique: each SAP becomes visible once.
        let mut seen = HashSet::new();
        for pair in &order {
            assert!(seen.insert(pair.clone()), "duplicate visibility: {pair:?}");
        }
        // Per thread, drains of the same thread appear in po order only
        // under TSO for same-address stores; but program order of *sync*
        // SAPs is always preserved.
        assert!(!order.is_empty());
    }
}
