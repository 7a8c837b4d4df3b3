//! Seeded random generator of small concurrent programs for differential
//! fuzzing.
//!
//! Each generated program is 1–3 workers, each a short list of operations
//! drawn from racy and safe templates — plain read-modify-writes, a
//! lock-protected counter, array cells addressed through a *computed*
//! index, and a condvar handoff — with a `main` that forks every worker,
//! joins them all, and asserts the serial outcome. Any lost update,
//! reordered store, or broken handoff fails the assert, which is exactly
//! what both the oracle and the pipeline go looking for.
//!
//! Determinism matters here: [`ProgramSpec::from_seed`] is a pure function
//! of the seed, so a failing fuzz case is re-runnable from its seed alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Number of array cells the generated programs declare.
pub const CELLS: usize = 3;

/// One worker operation template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOp {
    /// Unprotected read-modify-write of `x` (racy; `yield` widens the
    /// window).
    IncX,
    /// Unprotected read-modify-write of `y` (racy).
    IncY,
    /// Lock-protected increment of `x` (safe).
    LockedIncX,
    /// Unprotected increment of `a[base + k]` — the index is computed at
    /// runtime, so the symbolic layer sees a non-constant address.
    IncCell(usize),
    /// Lock-protected increment of `ready` plus a `signal` (the producer
    /// half of a condvar handoff).
    NotifyReady,
    /// Blocks until `ready >= 1` via `wait` in a guard loop (the consumer
    /// half).
    AwaitReady,
}

/// A generated program: one op list per worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Worker bodies, in fork order.
    pub workers: Vec<Vec<WorkerOp>>,
}

impl ProgramSpec {
    /// Deterministically derives a spec from `seed`: 1–3 workers of 1–3
    /// ops each. If any worker waits for the handoff but nobody notifies,
    /// a notify is appended to the first worker so the program cannot
    /// trivially deadlock on a lost signal.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let workers = (0..rng.gen_range(1..4usize))
            .map(|_| {
                (0..rng.gen_range(1..4usize))
                    .map(|_| match rng.gen_range(0..8usize) {
                        0 | 1 => WorkerOp::IncX,
                        2 => WorkerOp::IncY,
                        3 => WorkerOp::LockedIncX,
                        4 | 5 => WorkerOp::IncCell(rng.gen_range(0..CELLS)),
                        6 => WorkerOp::NotifyReady,
                        _ => WorkerOp::AwaitReady,
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        let mut spec = ProgramSpec { workers };
        let awaits = spec.count(|op| op == WorkerOp::AwaitReady);
        if awaits > 0 && spec.count(|op| op == WorkerOp::NotifyReady) == 0 {
            spec.workers[0].push(WorkerOp::NotifyReady);
        }
        spec
    }

    fn count(&self, f: impl Fn(WorkerOp) -> bool) -> usize {
        self.workers.iter().flatten().filter(|&&op| f(op)).count()
    }

    /// Renders the spec to `.clap` source. The final assert demands the
    /// serial outcome of every counter.
    pub fn source(&self) -> String {
        let mut out = String::from(
            "global int x = 0; global int y = 0; global int base = 0;\n\
             global int ready = 0;\n",
        );
        let _ = writeln!(out, "global int a[{CELLS}];");
        out.push_str("mutex m; cond c;\n");
        for (w, ops) in self.workers.iter().enumerate() {
            let _ = writeln!(out, "fn w{w}() {{");
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    WorkerOp::IncX => {
                        let _ = writeln!(out, "  let t{i}: int = x; yield; x = t{i} + 1;");
                    }
                    WorkerOp::IncY => {
                        let _ = writeln!(out, "  let t{i}: int = y; yield; y = t{i} + 1;");
                    }
                    WorkerOp::LockedIncX => {
                        let _ = writeln!(
                            out,
                            "  lock(m); let t{i}: int = x; x = t{i} + 1; unlock(m);"
                        );
                    }
                    WorkerOp::IncCell(k) => {
                        let _ = writeln!(
                            out,
                            "  let i{i}: int = base + {k}; let t{i}: int = a[i{i}]; \
                             yield; a[i{i}] = t{i} + 1;"
                        );
                    }
                    WorkerOp::NotifyReady => {
                        let _ = writeln!(
                            out,
                            "  lock(m); let r{i}: int = ready; ready = r{i} + 1; \
                             signal(c); unlock(m);"
                        );
                    }
                    WorkerOp::AwaitReady => {
                        let _ = writeln!(
                            out,
                            "  lock(m); while (ready < 1) {{ wait(c, m); }} unlock(m);"
                        );
                    }
                }
            }
            out.push_str("}\n");
        }
        out.push_str("fn main() {\n");
        for w in 0..self.workers.len() {
            let _ = writeln!(out, "  let h{w}: thread = fork w{w}();");
        }
        for w in 0..self.workers.len() {
            let _ = writeln!(out, "  join h{w};");
        }
        let nx = self.count(|op| matches!(op, WorkerOp::IncX | WorkerOp::LockedIncX));
        let ny = self.count(|op| op == WorkerOp::IncY);
        let nready = self.count(|op| op == WorkerOp::NotifyReady);
        let mut cond = format!("x == {nx} && y == {ny} && ready == {nready}");
        for k in 0..CELLS {
            let nk = self.count(|op| op == WorkerOp::IncCell(k));
            let _ = write!(cond, " && a[{k}] == {nk}");
        }
        let _ = writeln!(out, "  assert({cond}, \"serial outcome\");");
        out.push_str("}\n");
        out
    }
}

/// One worker operation template for channel programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanOp {
    /// Blocking `send(ch, v)`. Drops the value when the channel is
    /// already closed — the lost-close race.
    Send(i64),
    /// Blocking `recv(ch)` folded into `sum` under the lock. Yields `-1`
    /// once the channel is closed and drained.
    Recv,
    /// `try_send(ch, v)`: sheds the value when the queue is full, adding
    /// the 0/1 outcome to `sent`.
    TrySend(i64),
    /// `try_recv(ch)`: non-negative results fold into `sum`; an empty
    /// queue yields `-1`, which is skipped.
    TryRecv,
    /// `close(ch)` from a worker (main also always closes after forking,
    /// so no generated program can deadlock on a starved `recv`).
    Close,
}

/// A generated channel/actor program: a bounded channel of capacity
/// 0–3, one op list per worker, and an optional actor mailbox leg.
///
/// The skeleton guarantees termination on *every* interleaving: main
/// closes the channel right after forking, so blocked senders drop and
/// blocked receivers drain to `-1` once the close lands. The final
/// assert demands the full-delivery outcome (`sum` equals the sum of
/// every sent value, all `try_send`s accepted), so any shed, dropped, or
/// drained message fails it on the schedules where the race bites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChanSpec {
    /// Channel capacity (0 = rendezvous).
    pub cap: usize,
    /// Worker bodies, in fork order.
    pub workers: Vec<Vec<ChanOp>>,
    /// Values main delivers to a `spawn_actor` mailbox (empty = no
    /// actor leg).
    pub actor_msgs: Vec<i64>,
}

impl ChanSpec {
    /// Deterministically derives a spec from `seed`: capacity 0–3, 1–3
    /// workers of 1–3 ops each, and an actor leg on half the seeds. If
    /// no worker ever receives, a `Recv` is appended to the last worker
    /// so sends have at least one potential partner.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let cap = rng.gen_range(0..4usize);
        let workers: Vec<Vec<ChanOp>> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                (0..rng.gen_range(1..4usize))
                    .map(|_| match rng.gen_range(0..8usize) {
                        0 | 1 => ChanOp::Send(rng.gen_range(1i64..6)),
                        2 | 3 => ChanOp::Recv,
                        4 => ChanOp::TrySend(rng.gen_range(1i64..6)),
                        5 => ChanOp::TryRecv,
                        6 => ChanOp::Close,
                        _ => ChanOp::Recv,
                    })
                    .collect()
            })
            .collect();
        let actor_msgs = if rng.gen_range(0..2usize) == 1 {
            (0..rng.gen_range(1..3usize))
                .map(|_| rng.gen_range(1i64..6))
                .collect()
        } else {
            Vec::new()
        };
        let mut spec = ChanSpec {
            cap,
            workers,
            actor_msgs,
        };
        let receives = spec
            .workers
            .iter()
            .flatten()
            .any(|op| matches!(op, ChanOp::Recv | ChanOp::TryRecv));
        let sends = spec
            .workers
            .iter()
            .flatten()
            .any(|op| matches!(op, ChanOp::Send(_) | ChanOp::TrySend(_)));
        if sends && !receives {
            spec.workers
                .last_mut()
                .expect("≥1 worker")
                .push(ChanOp::Recv);
        }
        spec
    }

    /// Sum of every value any op might deliver — the full-delivery
    /// outcome the assert demands.
    fn total(&self) -> i64 {
        let chan: i64 = self
            .workers
            .iter()
            .flatten()
            .map(|op| match op {
                ChanOp::Send(v) | ChanOp::TrySend(v) => *v,
                _ => 0,
            })
            .sum();
        chan + self.actor_msgs.iter().sum::<i64>()
    }

    /// Number of `try_send` ops (the expected value of `sent` under full
    /// delivery).
    fn try_sends(&self) -> i64 {
        self.workers
            .iter()
            .flatten()
            .filter(|op| matches!(op, ChanOp::TrySend(_)))
            .count() as i64
    }

    /// Renders the spec to `.clap` source.
    pub fn source(&self) -> String {
        let mut out = String::from("global int sum = 0; global int sent = 0;\nmutex m;\n");
        let _ = writeln!(out, "chan ch({});", self.cap);
        for (w, ops) in self.workers.iter().enumerate() {
            let _ = writeln!(out, "fn w{w}() {{");
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    ChanOp::Send(v) => {
                        let _ = writeln!(out, "  send(ch, {v});");
                    }
                    ChanOp::Recv => {
                        let _ = writeln!(
                            out,
                            "  let r{i}: int = recv(ch); \
                             lock(m); sum = sum + r{i}; unlock(m);"
                        );
                    }
                    ChanOp::TrySend(v) => {
                        let _ = writeln!(
                            out,
                            "  let o{i}: int = try_send(ch, {v}); \
                             lock(m); sent = sent + o{i}; unlock(m);"
                        );
                    }
                    ChanOp::TryRecv => {
                        let _ = writeln!(
                            out,
                            "  let r{i}: int = try_recv(ch); \
                             lock(m); if (r{i} >= 0) {{ sum = sum + r{i}; }} unlock(m);"
                        );
                    }
                    ChanOp::Close => {
                        let _ = writeln!(out, "  close(ch);");
                    }
                }
            }
            out.push_str("}\n");
        }
        if !self.actor_msgs.is_empty() {
            let _ = writeln!(out, "fn act() {{");
            for (i, _) in self.actor_msgs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  let a{i}: int = mailbox_recv(); \
                     lock(m); sum = sum + a{i}; unlock(m);"
                );
            }
            out.push_str("}\n");
        }
        out.push_str("fn main() {\n");
        for w in 0..self.workers.len() {
            let _ = writeln!(out, "  let h{w}: thread = fork w{w}();");
        }
        if !self.actor_msgs.is_empty() {
            out.push_str("  let ha: thread = spawn_actor act();\n");
            for v in &self.actor_msgs {
                let _ = writeln!(out, "  mailbox_send(ha, {v});");
            }
        }
        out.push_str("  close(ch);\n");
        for w in 0..self.workers.len() {
            let _ = writeln!(out, "  join h{w};");
        }
        if !self.actor_msgs.is_empty() {
            out.push_str("  join ha;\n");
        }
        let _ = writeln!(
            out,
            "  assert(sum == {} && sent == {}, \"full delivery\");",
            self.total(),
            self.try_sends()
        );
        out.push_str("}\n");
        out
    }
}

/// The four C11 orderings the atomic generator draws from.
const ORDERINGS: [&str; 4] = ["relaxed", "acquire", "release", "seq_cst"];

/// One worker operation template for atomic programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// Racy unprotected increment of `p` via a load/store pair — lost
    /// updates under every model. The two indices pick the load and
    /// store orderings from `ORDERINGS`.
    IncP(usize, usize),
    /// `fetch_add(q, delta, ord)` — atomic, so `q`'s final value is the
    /// sum of all deltas on every schedule.
    FetchAddQ(i64, usize),
    /// `cas(f, 0, 1, ord)` with a lock-protected winner count — exactly
    /// one CAS in the program wins, on every schedule.
    CasFlag(usize),
    /// The message-passing producer half: a relaxed `data` store
    /// followed by a `flag` store at the chosen ordering. A relaxed or
    /// acquire flag publish is reorderable under C11 only.
    Publish(usize),
    /// The consumer half: acquire-load `flag`, and if set, assert the
    /// published `data` value is visible.
    Consume,
}

/// A generated atomic program: one op list per worker.
///
/// Every op is non-blocking and the bodies are straight-line, so every
/// generated program terminates on every interleaving. The final assert
/// demands the serial outcome of `p` (violable by a lost update under
/// any model) plus the schedule-independent invariants on `q` and the
/// CAS winner count; the in-worker `Consume` assert is violable only
/// under C11 when the matching publish is weak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSpec {
    /// Worker bodies, in fork order.
    pub workers: Vec<Vec<AtomicOp>>,
}

impl AtomicSpec {
    /// Deterministically derives a spec from `seed`: 1–3 workers of 1–3
    /// ops each.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA70311C);
        let workers = (0..rng.gen_range(1..4usize))
            .map(|_| {
                (0..rng.gen_range(1..4usize))
                    .map(|_| match rng.gen_range(0..8usize) {
                        0 | 1 => AtomicOp::IncP(rng.gen_range(0..4usize), rng.gen_range(0..4usize)),
                        2 => AtomicOp::FetchAddQ(rng.gen_range(1i64..4), rng.gen_range(0..4usize)),
                        3 => AtomicOp::CasFlag(rng.gen_range(0..4usize)),
                        4 | 5 => AtomicOp::Publish(rng.gen_range(0..4usize)),
                        _ => AtomicOp::Consume,
                    })
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>();
        AtomicSpec { workers }
    }

    fn count(&self, f: impl Fn(AtomicOp) -> bool) -> usize {
        self.workers.iter().flatten().filter(|&&op| f(op)).count()
    }

    /// Renders the spec to `.clap` source.
    pub fn source(&self) -> String {
        let mut out = String::from(
            "atomic int p = 0; atomic int q = 0; atomic int f = 0;\n\
             atomic int data = 0; atomic int flag = 0;\n\
             global int wins = 0;\nmutex m;\n",
        );
        for (w, ops) in self.workers.iter().enumerate() {
            let _ = writeln!(out, "fn w{w}() {{");
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    AtomicOp::IncP(lo, so) => {
                        let _ = writeln!(
                            out,
                            "  let t{i}: int = load(p, {}); store(p, t{i} + 1, {});",
                            ORDERINGS[lo], ORDERINGS[so]
                        );
                    }
                    AtomicOp::FetchAddQ(delta, o) => {
                        let _ = writeln!(
                            out,
                            "  let t{i}: int = fetch_add(q, {delta}, {});",
                            ORDERINGS[o]
                        );
                    }
                    AtomicOp::CasFlag(o) => {
                        let _ = writeln!(
                            out,
                            "  let t{i}: int = cas(f, 0, 1, {});\n  \
                             if (t{i} == 0) {{ lock(m); wins = wins + 1; unlock(m); }}",
                            ORDERINGS[o]
                        );
                    }
                    AtomicOp::Publish(o) => {
                        let _ = writeln!(
                            out,
                            "  store(data, 7, relaxed); store(flag, 1, {});",
                            ORDERINGS[o]
                        );
                    }
                    AtomicOp::Consume => {
                        let _ = writeln!(
                            out,
                            "  let f{i}: int = load(flag, acquire);\n  \
                             if (f{i} == 1) {{\n    \
                             let d{i}: int = load(data, acquire);\n    \
                             assert(d{i} == 7, \"published data visible\");\n  }}"
                        );
                    }
                }
            }
            out.push_str("}\n");
        }
        out.push_str("fn main() {\n");
        for w in 0..self.workers.len() {
            let _ = writeln!(out, "  let h{w}: thread = fork w{w}();");
        }
        for w in 0..self.workers.len() {
            let _ = writeln!(out, "  join h{w};");
        }
        let nincs = self.count(|op| matches!(op, AtomicOp::IncP(..)));
        let sum_deltas: i64 = self
            .workers
            .iter()
            .flatten()
            .map(|op| match op {
                AtomicOp::FetchAddQ(d, _) => *d,
                _ => 0,
            })
            .sum();
        let cas_winners = usize::from(self.count(|op| matches!(op, AtomicOp::CasFlag(_))) > 0);
        out.push_str("  let fp: int = load(p, seq_cst);\n");
        out.push_str("  let fq: int = load(q, seq_cst);\n");
        let _ = writeln!(
            out,
            "  assert(fp == {nincs} && fq == {sum_deltas} && wins == {cas_winners}, \
             \"serial outcome\");"
        );
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_parses() {
        for seed in 0..50 {
            let spec = ProgramSpec::from_seed(seed);
            assert_eq!(spec, ProgramSpec::from_seed(seed), "seed {seed}");
            let src = spec.source();
            clap_ir::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn await_without_notify_is_fixed_up() {
        for seed in 0..500 {
            let spec = ProgramSpec::from_seed(seed);
            let awaits = spec.count(|op| op == WorkerOp::AwaitReady);
            let notifies = spec.count(|op| op == WorkerOp::NotifyReady);
            assert!(awaits == 0 || notifies > 0, "seed {seed}: {spec:?}");
        }
    }

    #[test]
    fn chan_generation_is_deterministic_and_parses() {
        for seed in 0..50 {
            let spec = ChanSpec::from_seed(seed);
            assert_eq!(spec, ChanSpec::from_seed(seed), "seed {seed}");
            let src = spec.source();
            clap_ir::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        }
    }

    #[test]
    fn chan_generator_covers_every_template_and_cap() {
        let mut ops = [false; 5];
        let mut caps = [false; 4];
        let mut actor = false;
        for seed in 0..200 {
            let spec = ChanSpec::from_seed(seed);
            caps[spec.cap] = true;
            actor |= !spec.actor_msgs.is_empty();
            for &op in spec.workers.iter().flatten() {
                let i = match op {
                    ChanOp::Send(_) => 0,
                    ChanOp::Recv => 1,
                    ChanOp::TrySend(_) => 2,
                    ChanOp::TryRecv => 3,
                    ChanOp::Close => 4,
                };
                ops[i] = true;
            }
        }
        assert_eq!(ops, [true; 5], "200 seeds hit every channel op");
        assert_eq!(caps, [true; 4], "200 seeds hit every capacity 0–3");
        assert!(actor, "200 seeds include actor legs");
    }

    #[test]
    fn chan_sends_always_have_a_potential_receiver() {
        for seed in 0..500 {
            let spec = ChanSpec::from_seed(seed);
            let sends = spec
                .workers
                .iter()
                .flatten()
                .any(|op| matches!(op, ChanOp::Send(_) | ChanOp::TrySend(_)));
            let receives = spec
                .workers
                .iter()
                .flatten()
                .any(|op| matches!(op, ChanOp::Recv | ChanOp::TryRecv));
            assert!(!sends || receives, "seed {seed}: {spec:?}");
        }
    }

    #[test]
    fn atomic_generation_is_deterministic_and_parses() {
        for seed in 0..50 {
            let spec = AtomicSpec::from_seed(seed);
            assert_eq!(spec, AtomicSpec::from_seed(seed), "seed {seed}");
            let src = spec.source();
            let program =
                clap_ir::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert!(
                program.globals.iter().any(|g| g.atomic),
                "seed {seed} declares atomics"
            );
        }
    }

    #[test]
    fn atomic_generator_covers_every_template_and_ordering() {
        let mut ops = [false; 5];
        let mut ords = [false; 4];
        for seed in 0..200 {
            for &op in AtomicSpec::from_seed(seed).workers.iter().flatten() {
                let i = match op {
                    AtomicOp::IncP(lo, so) => {
                        ords[lo] = true;
                        ords[so] = true;
                        0
                    }
                    AtomicOp::FetchAddQ(_, o) => {
                        ords[o] = true;
                        1
                    }
                    AtomicOp::CasFlag(o) => {
                        ords[o] = true;
                        2
                    }
                    AtomicOp::Publish(o) => {
                        ords[o] = true;
                        3
                    }
                    AtomicOp::Consume => 4,
                };
                ops[i] = true;
            }
        }
        assert_eq!(ops, [true; 5], "200 seeds hit every atomic op");
        assert_eq!(ords, [true; 4], "200 seeds hit every ordering");
    }

    #[test]
    fn atomic_programs_terminate_on_every_interleaving() {
        // Straight-line bodies: even an adversarial scheduler cannot
        // starve them. Spot-check with random runs under C11.
        use clap_vm::{MemModel, NullMonitor, Outcome, RandomScheduler, Vm};
        for seed in 0..20 {
            let src = AtomicSpec::from_seed(seed).source();
            let program = clap_ir::parse(&src).unwrap();
            for vm_seed in 0..20 {
                let mut vm = Vm::new(&program, MemModel::C11);
                vm.set_step_limit(200_000);
                let mut sched = RandomScheduler::with_stickiness(vm_seed, 0.5);
                let outcome = vm.run(&mut sched, &mut NullMonitor);
                assert!(
                    !matches!(outcome, Outcome::StepLimit | Outcome::Deadlock),
                    "seed {seed} vm_seed {vm_seed}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn generator_covers_every_template() {
        let mut seen = [false; 6];
        for seed in 0..200 {
            for &op in ProgramSpec::from_seed(seed).workers.iter().flatten() {
                let i = match op {
                    WorkerOp::IncX => 0,
                    WorkerOp::IncY => 1,
                    WorkerOp::LockedIncX => 2,
                    WorkerOp::IncCell(_) => 3,
                    WorkerOp::NotifyReady => 4,
                    WorkerOp::AwaitReady => 5,
                };
                seen[i] = true;
            }
        }
        assert_eq!(seen, [true; 6], "200 seeds hit every op template");
    }
}
