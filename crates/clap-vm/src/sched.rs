//! Scheduling: the VM exposes its enabled actions each step and a
//! [`Scheduler`] picks one.
//!
//! An [`Action`] is either stepping a runnable thread by one instruction or
//! draining one buffered store to memory (TSO/PSO only). Making drains
//! schedulable is what lets relaxed-memory reorderings — and the bugs they
//! cause — arise organically during exploration and be pinned down exactly
//! during replay.

use crate::mem::Addr;
use crate::rng::Rng;
use crate::thread::ThreadId;
use crate::vm::Vm;

/// One schedulable step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Execute the next instruction (or terminator) of a runnable thread.
    Step(ThreadId),
    /// Commit the oldest buffered store to `addr` by the thread.
    Drain(ThreadId, Addr),
}

impl Action {
    /// The thread the action belongs to.
    pub fn thread(&self) -> ThreadId {
        match self {
            Action::Step(t) | Action::Drain(t, _) => *t,
        }
    }
}

/// Picks the next action from the enabled set.
pub trait Scheduler {
    /// Chooses an index into `actions` (guaranteed non-empty).
    fn pick(&mut self, vm: &Vm<'_>, actions: &[Action]) -> usize;
}

/// A seeded random scheduler.
///
/// With probability `stickiness` it keeps driving the thread it drove last
/// step (when that thread still has an enabled action); otherwise it picks
/// uniformly. Low stickiness yields fine-grained interleaving; high
/// stickiness yields long sequential bursts — sweeping seeds across both
/// regimes is how buggy interleavings are found, standing in for the
/// paper's manually inserted timing delays.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: Rng,
    stickiness: f64,
    last: Option<ThreadId>,
}

impl RandomScheduler {
    /// Creates a scheduler from a seed with the default stickiness (0.9).
    pub fn new(seed: u64) -> Self {
        Self::with_stickiness(seed, 0.9)
    }

    /// Creates a scheduler with an explicit stickiness in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `stickiness` is not in `[0, 1]`.
    pub fn with_stickiness(seed: u64, stickiness: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&stickiness),
            "stickiness must be in [0, 1]"
        );
        RandomScheduler {
            rng: Rng::new(seed),
            stickiness,
            last: None,
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, _vm: &Vm<'_>, actions: &[Action]) -> usize {
        debug_assert!(!actions.is_empty());
        if let Some(last) = self.last {
            if self.rng.chance(self.stickiness) {
                if let Some(i) = actions
                    .iter()
                    .position(|a| matches!(a, Action::Step(t) if *t == last))
                {
                    return i;
                }
            }
        }
        let i = self.rng.below(actions.len());
        self.last = Some(actions[i].thread());
        i
    }
}

/// A scheduler that always picks the first enabled action: deterministic,
/// mostly-sequential execution (useful as a fast smoke-test schedule).
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, _vm: &Vm<'_>, _actions: &[Action]) -> usize {
        0
    }
}

/// The chooser hook for enumeration tools: replays a fixed sequence of
/// decision indices against the VM's (deterministically ordered)
/// [`Vm::enabled_actions`] list, one index per scheduler step.
///
/// This is how the bounded model checker (`clap-check`) re-executes one
/// enumerated interleaving — including its buffer-drain choices — exactly:
/// the `k`-th entry names which enabled action the `k`-th step takes. Once
/// the script runs out (or an entry is out of range, which means the script
/// was recorded against a different program or model), the scheduler falls
/// back to the first action and latches [`ScriptScheduler::overran`].
#[derive(Debug, Clone)]
pub struct ScriptScheduler {
    choices: Vec<u32>,
    pos: usize,
    overran: bool,
}

impl ScriptScheduler {
    /// A scheduler that will follow `choices` step by step.
    pub fn new(choices: Vec<u32>) -> Self {
        ScriptScheduler {
            choices,
            pos: 0,
            overran: false,
        }
    }

    /// How many scripted decisions have been consumed.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// `true` when the run needed more decisions than the script held, or
    /// a scripted index did not exist in the enabled-action list — the
    /// execution diverged from the recorded one.
    pub fn overran(&self) -> bool {
        self.overran
    }
}

impl Scheduler for ScriptScheduler {
    fn pick(&mut self, _vm: &Vm<'_>, actions: &[Action]) -> usize {
        let Some(&choice) = self.choices.get(self.pos) else {
            self.overran = true;
            return 0;
        };
        self.pos += 1;
        let i = choice as usize;
        if i < actions.len() {
            i
        } else {
            self.overran = true;
            0
        }
    }
}

/// Adapts a closure into a [`Scheduler`] — the lightweight way for a tool
/// to drive scheduling and drain nondeterminism without a named type.
#[derive(Debug)]
pub struct FnScheduler<F>(pub F);

impl<F: FnMut(&Vm<'_>, &[Action]) -> usize> Scheduler for FnScheduler<F> {
    fn pick(&mut self, vm: &Vm<'_>, actions: &[Action]) -> usize {
        (self.0)(vm, actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_thread_accessor() {
        assert_eq!(Action::Step(ThreadId(3)).thread(), ThreadId(3));
        assert_eq!(Action::Drain(ThreadId(1), Addr(0)).thread(), ThreadId(1));
    }

    #[test]
    #[should_panic(expected = "stickiness")]
    fn stickiness_validated() {
        let _ = RandomScheduler::with_stickiness(0, 1.5);
    }
}
