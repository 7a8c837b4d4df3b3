//! Oracle-vs-replayer differential suite: every failing schedule the
//! bounded enumeration oracle finds must replay through the *production*
//! replayer and fire the assert.
//!
//! This closes the loop from the other side of `clap-check::diff`: the
//! diff harness checks pipeline-produced schedules against the oracle,
//! while this suite feeds oracle-produced schedules into the pipeline's
//! replayer. Silent replayer drift — a gating rule that diverges from VM
//! semantics, a drain misplaced relative to its fence — shows up here as
//! a schedule the oracle proved failing that the replayer can no longer
//! drive to the bug.
//!
//! Plumbing per failing execution: re-run the oracle's decision script
//! under a `ScriptScheduler` with the path recorder attached, decode and
//! symbolically re-execute that log into a `SymTrace`, convert the
//! script's visible-event order into a `Schedule` over the trace's SAP
//! ids, and hand it to `replay_under`.

use clap_analysis::analyze;
use clap_check::{enumerate_with_shared, schedule_of_choices, OracleConfig};
use clap_constraints::Schedule;
use clap_ir::Program;
use clap_profile::{decode_log, BlTables, PathRecorder};
use clap_replay::replay_under;
use clap_symex::{execute, FailureContext, SymTrace};
use clap_vm::{Lineage, MemModel, NullMonitor, Outcome, ScriptScheduler, Vm};

/// Maps the oracle's `(lineage, per-thread SAP index)` visibility order
/// onto the trace's `SapId` space.
fn schedule_from_pairs(trace: &SymTrace, pairs: &[(Lineage, u64)]) -> Schedule {
    let order = pairs
        .iter()
        .map(|(lineage, po)| {
            let idx = trace
                .lineages
                .iter()
                .position(|l| l == lineage)
                .unwrap_or_else(|| panic!("lineage {lineage:?} not in trace"));
            trace.per_thread[idx][*po as usize]
        })
        .collect();
    Schedule::new(order, trace)
}

/// Replays every oracle-enumerated failing execution of `src` under
/// `model` (up to `cap` schedules) and asserts each one reproduces.
/// Returns how many schedules were exercised.
fn replay_oracle_failures(src: &str, model: MemModel, cap: usize) -> usize {
    let program: Program = clap_ir::parse(src).expect("test program parses");
    let sharing = analyze(&program);
    let shared = sharing.shared_spec();
    let tables = BlTables::build(&program);
    let report = enumerate_with_shared(&program, shared.clone(), &OracleConfig::new(model));
    assert!(
        report.complete_within_bound(),
        "oracle truncated on a corpus-sized program"
    );
    for failing in report.failing.iter().take(cap) {
        // Re-execute the decision script with the recorder attached.
        let mut vm = Vm::with_shared(&program, model, shared.clone());
        let mut sched = ScriptScheduler::new(failing.choices.clone());
        let mut rec = PathRecorder::new(&tables);
        let outcome = vm.run(&mut sched, &mut rec);
        assert!(!sched.overran(), "script fits: {}", failing.letters());
        let Outcome::AssertFailed { assert, .. } = outcome else {
            panic!(
                "script must re-fail, got {outcome:?} for {}",
                failing.letters()
            );
        };
        assert_eq!(assert, failing.assert);

        // Decode + symbolically re-execute into a trace, then build the
        // schedule from the oracle's visibility order.
        let failure = FailureContext::from_vm(&vm);
        let paths = decode_log(&program, &tables, &rec.finish()).expect("log decodes");
        let trace = execute(&program, &shared, &paths, &failure).expect("symex accepts");
        let (pairs, replay_outcome) =
            schedule_of_choices(&program, model, shared.clone(), &failing.choices);
        assert!(
            matches!(replay_outcome, Some(Outcome::AssertFailed { .. })),
            "schedule_of_choices re-execution diverged for {}",
            failing.letters()
        );
        let schedule = schedule_from_pairs(&trace, &pairs);

        // The production replayer must drive this schedule to the bug.
        let report = replay_under(
            &program,
            model,
            shared.clone(),
            &trace,
            &schedule,
            assert,
            &mut NullMonitor,
        )
        .unwrap_or_else(|e| panic!("replay failed for {}: {e:?}", failing.letters()));
        assert!(
            report.reproduced,
            "assert must fire for {}",
            failing.letters()
        );
    }
    report.failing.len().min(cap)
}

const LOST_UPDATE: &str = "global int x = 0;
     fn w() { let v: int = x; yield; x = v + 1; }
     fn main() { let a: thread = fork w(); let b: thread = fork w();
                 join a; join b; assert(x == 2, \"lost\"); }";

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

const HANDOFF: &str = "global int ready = 0; global int x = 0; mutex m; cond c;
     fn worker() {
         lock(m);
         while (ready == 0) { wait(c, m); }
         unlock(m);
         let v: int = x; yield; x = v + 1;
     }
     fn main() {
         let a: thread = fork worker(); let b: thread = fork worker();
         lock(m); ready = 1; broadcast(c); unlock(m);
         join a; join b;
         assert(x == 2, \"handoff race\");
     }";

/// The lost-close race: main closes the channel concurrently with the
/// producer's sends, so closed-channel drops and drained `-1`s make the
/// full-delivery assert fail on some schedules.
const CHAN_LOST_CLOSE: &str = "global int sum = 0;
     chan ch(1);
     fn producer() { send(ch, 5); send(ch, 7); }
     fn consumer() {
         let a: int = recv(ch);
         let b: int = recv(ch);
         sum = a + b;
     }
     fn main() {
         let p: thread = fork producer();
         let c: thread = fork consumer();
         close(ch);
         join p; join c;
         assert(sum == 12, \"lost send\");
     }";

/// Load shedding: `try_send` into a cap-1 channel drops whenever the
/// consumer has not yet drained the slot, and the close race can strand
/// a value — the assert demands full delivery.
const CHAN_TRY_SHED: &str = "global int sum = 0;
     chan ch(1);
     fn producer() {
         let a: int = try_send(ch, 5);
         let b: int = try_send(ch, 7);
     }
     fn consumer() {
         let x: int = recv(ch);
         let y: int = recv(ch);
         sum = x + y;
     }
     fn main() {
         let p: thread = fork producer();
         let c: thread = fork consumer();
         close(ch);
         join p; join c;
         assert(sum == 12, \"shed work\");
     }";

/// Rendezvous handoff into a racy read-modify-write: the cap-0 sends
/// synchronize the handoff itself, but the unprotected increment after
/// it still loses updates.
const CHAN_RENDEZVOUS_RACE: &str = "global int x = 0;
     chan ch(0);
     fn worker() {
         let v: int = recv(ch);
         let t: int = x; yield; x = t + v;
     }
     fn main() {
         let a: thread = fork worker();
         let b: thread = fork worker();
         send(ch, 1);
         send(ch, 1);
         join a; join b;
         assert(x == 2, \"rendezvous lost update\");
     }";

/// Actor mailbox race: main snapshots the actor's output before joining
/// it, so the assert fails whenever the actor has not finished summing
/// its mailbox by the time main reads.
const ACTOR_MAILBOX_RACE: &str = "global int got = 0;
     fn act() {
         let a: int = mailbox_recv();
         let b: int = mailbox_recv();
         got = a + b;
     }
     fn main() {
         let h: thread = spawn_actor act();
         mailbox_send(h, 3);
         mailbox_send(h, 4);
         let snap: int = got;
         join h;
         assert(snap == 7, \"actor raced main\");
     }";

#[test]
fn every_sc_lost_update_schedule_replays() {
    let n = replay_oracle_failures(LOST_UPDATE, MemModel::Sc, usize::MAX);
    assert!(n >= 5, "expected a rich failing set, got {n}");
}

#[test]
fn tso_store_buffering_schedules_replay() {
    let n = replay_oracle_failures(SB, MemModel::Tso, 12);
    assert!(n > 0, "TSO SB failures must exist");
}

#[test]
fn pso_message_passing_schedules_replay() {
    let n = replay_oracle_failures(MP, MemModel::Pso, 12);
    assert!(n > 0, "PSO MP failures must exist");
}

#[test]
fn condvar_handoff_schedules_replay() {
    let n = replay_oracle_failures(HANDOFF, MemModel::Sc, 8);
    assert!(n > 0, "handoff race failures must exist");
}

#[test]
fn chan_lost_close_schedules_replay() {
    let n = replay_oracle_failures(CHAN_LOST_CLOSE, MemModel::Sc, 12);
    assert!(n > 0, "lost-close failures must exist");
}

#[test]
fn chan_lost_close_schedules_replay_under_tso() {
    let n = replay_oracle_failures(CHAN_LOST_CLOSE, MemModel::Tso, 12);
    assert!(n > 0, "lost-close failures must exist under TSO");
}

#[test]
fn chan_try_shed_schedules_replay() {
    let n = replay_oracle_failures(CHAN_TRY_SHED, MemModel::Sc, 12);
    assert!(n > 0, "try_send shedding failures must exist");
}

#[test]
fn chan_rendezvous_race_schedules_replay() {
    let n = replay_oracle_failures(CHAN_RENDEZVOUS_RACE, MemModel::Sc, 12);
    assert!(n > 0, "rendezvous lost-update failures must exist");
}

#[test]
fn actor_mailbox_race_schedules_replay() {
    let n = replay_oracle_failures(ACTOR_MAILBOX_RACE, MemModel::Sc, 12);
    assert!(n > 0, "actor/main race failures must exist");
}
