//! Regression corpus: every program under `tests/corpus/` has its oracle
//! verdict pinned in `tests/corpus/verdicts.snap` — failing-schedule
//! count, search status, and one canonical schedule string, per memory
//! model. Any change to VM semantics, the sharing analysis, or the
//! enumerator that shifts a verdict shows up as a snapshot diff here
//! before it can silently skew the differential checker. The
//! differential check's verdict tag for each program and model is pinned
//! the same way, in `tests/corpus/diff_verdicts.snap`.
//!
//! Regenerate the snapshots after an *intended* semantic change with:
//!
//! ```text
//! CLAP_BLESS=1 cargo test --test corpus
//! ```

use clap_check::{enumerate, shrink_source, DiffConfig, OracleConfig, Verdict};
use clap_vm::MemModel;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Corpus membership is explicit so a stray file cannot silently widen
/// the snapshot, and the snapshot order is stable.
const PROGRAMS: &[&str] = &[
    "actor_deadlock",
    "array_index",
    "atomic_shrunk_min",
    "cas_aba",
    "chan_rendezvous",
    "chan_shrunk_min",
    "cond_handoff",
    "lost_update",
    "mp_reorder",
    "pfscan",
    "sb_litmus",
    "seqlock_torn_read",
    "shrunk_min",
    "three_workers",
];

const MODELS: &[MemModel] = &[MemModel::Sc, MemModel::Tso, MemModel::Pso, MemModel::C11];

/// Deterministic, debug-friendly oracle bounds for the snapshot: large
/// enough that every small program is complete within the preemption
/// bound, small enough that pfscan's TSO/PSO drain explosion truncates
/// quickly instead of burning CI minutes.
fn snapshot_config(model: MemModel) -> OracleConfig {
    OracleConfig::new(model).with_max_executions(20_000)
}

fn corpus_source(name: &str) -> String {
    let path = format!("tests/corpus/{name}.clap");
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn bless() -> bool {
    std::env::var_os("CLAP_BLESS").is_some()
}

#[test]
fn corpus_files_and_program_list_agree() {
    let mut on_disk: Vec<String> = fs::read_dir("tests/corpus")
        .expect("corpus dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let p = e.path();
            (p.extension()? == "clap")
                .then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    on_disk.sort();
    assert_eq!(
        on_disk, PROGRAMS,
        "keep PROGRAMS in sync with tests/corpus/"
    );
}

#[test]
fn corpus_verdicts_match_snapshot() {
    let mut actual = String::new();
    for name in PROGRAMS {
        let program =
            clap_ir::parse(&corpus_source(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        for &model in MODELS {
            let r = enumerate(&program, &snapshot_config(model));
            let status = if r.exhaustive() {
                "exhaustive"
            } else if r.complete_within_bound() {
                "complete"
            } else {
                "truncated"
            };
            let canonical = r.canonical_letters().unwrap_or_else(|| "-".into());
            let _ = writeln!(
                actual,
                "{name} {model:?} failing={} {status} canonical={canonical}",
                r.failing.len(),
            );
        }
    }
    let path = Path::new("tests/corpus/verdicts.snap");
    if bless() {
        fs::write(path, &actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(path)
        .expect("tests/corpus/verdicts.snap missing — run CLAP_BLESS=1 cargo test --test corpus");
    assert_eq!(
        actual, expected,
        "oracle verdicts drifted from the snapshot; if the change is \
         intended, regenerate with CLAP_BLESS=1 cargo test --test corpus"
    );
}

/// The committed `shrunk_min.clap` really is what the shrinker produces
/// from its noisy progenitor: a racy core with every distractor (an
/// innocent helper thread, an unused global, dead statements) deleted.
#[test]
fn shrunk_min_is_the_shrinker_fixpoint() {
    let noisy = "global int x = 0; global int unused = 0; mutex m;
         fn noise() { lock(m); unlock(m); }
         fn w() { let v: int = x; yield; x = v + 1; }
         fn main() {
             let n: thread = fork noise();
             let a: thread = fork w();
             let b: thread = fork w();
             join n; join a; join b;
             let pad: int = 7;
             assert(x == 2, \"lost\");
         }";
    // Keep programs whose SC oracle still shows a *concurrency* failure
    // (some schedules fail, some pass).
    let pred = |s: &str| {
        let p = clap_ir::parse(s).expect("candidates parse");
        let r = enumerate(&p, &snapshot_config(MemModel::Sc));
        !r.failing.is_empty() && r.completed > 0
    };
    let shrunk = shrink_source(noisy, pred).expect("noisy program fails");
    let path = Path::new("tests/corpus/shrunk_min.clap");
    if bless() {
        fs::write(path, &shrunk).expect("write shrunk corpus program");
        return;
    }
    let committed = corpus_source("shrunk_min");
    assert_eq!(
        shrunk, committed,
        "shrinker output drifted from tests/corpus/shrunk_min.clap; \
         regenerate with CLAP_BLESS=1 cargo test --test corpus"
    );
}

/// The committed `chan_shrunk_min.clap` is the shrinker fixpoint of a
/// noisy lost-close program: the unused channel, the spectator worker,
/// and the dead statements must all be deleted (exercising the chan-decl
/// deletion candidates), leaving only the load-bearing close race.
#[test]
fn chan_shrunk_min_is_the_shrinker_fixpoint() {
    let noisy = "global int sum = 0; global int unused = 0; mutex m;
         chan ch(1); chan spare(2);
         fn noise() { lock(m); unlock(m); }
         fn producer() { send(ch, 5); send(ch, 7); }
         fn consumer() {
             let a: int = recv(ch);
             let b: int = recv(ch);
             sum = a + b;
         }
         fn main() {
             let n: thread = fork noise();
             let p: thread = fork producer();
             let c: thread = fork consumer();
             close(ch);
             join n; join p; join c;
             let pad: int = 7;
             assert(sum == 12, \"lost send\");
         }";
    let pred = |s: &str| {
        let p = clap_ir::parse(s).expect("candidates parse");
        let r = enumerate(&p, &snapshot_config(MemModel::Sc));
        !r.failing.is_empty() && r.completed > 0
    };
    let shrunk = shrink_source(noisy, pred).expect("noisy channel program fails");
    assert!(
        !shrunk.contains("spare") && !shrunk.contains("noise") && !shrunk.contains("unused"),
        "distractors must be deleted:\n{shrunk}"
    );
    let path = Path::new("tests/corpus/chan_shrunk_min.clap");
    if bless() {
        fs::write(path, &shrunk).expect("write shrunk corpus program");
        return;
    }
    let committed = corpus_source("chan_shrunk_min");
    assert_eq!(
        shrunk, committed,
        "shrinker output drifted from tests/corpus/chan_shrunk_min.clap; \
         regenerate with CLAP_BLESS=1 cargo test --test corpus"
    );
}

/// The committed `atomic_shrunk_min.clap` is the shrinker fixpoint of a
/// noisy relaxed message-passing program: the spare atomic cell
/// (exercising the atomic-decl deletion candidates), the spectator
/// worker, and the dead statements must all be deleted, leaving only the
/// load-bearing weak publish.
#[test]
fn atomic_shrunk_min_is_the_shrinker_fixpoint() {
    let noisy = "atomic int flag = 0; atomic int data = 0; atomic int spare = 0;
         global int seen = -1; global int unused = 0; mutex m;
         fn noise() { lock(m); unlock(m); }
         fn writer() { store(data, 1, relaxed); store(flag, 1, relaxed); }
         fn reader() {
             let f: int = load(flag, acquire);
             if (f == 1) { let d: int = load(data, acquire); seen = d; }
         }
         fn main() {
             let n: thread = fork noise();
             let w: thread = fork writer();
             let r: thread = fork reader();
             join n; join w; join r;
             let pad: int = 7;
             assert(seen != 0, \"MP relaxation\");
         }";
    // Keep programs whose C11 oracle still shows a *weak-memory*
    // failure (some drain schedules fail, some pass).
    let pred = |s: &str| {
        let p = clap_ir::parse(s).expect("candidates parse");
        let r = enumerate(&p, &snapshot_config(MemModel::C11));
        !r.failing.is_empty() && r.completed > 0
    };
    let shrunk = shrink_source(noisy, pred).expect("noisy atomic program fails");
    assert!(
        !shrunk.contains("spare") && !shrunk.contains("noise") && !shrunk.contains("unused"),
        "distractors must be deleted:\n{shrunk}"
    );
    assert!(
        shrunk.contains("relaxed"),
        "the weak publish is load-bearing:\n{shrunk}"
    );
    let path = Path::new("tests/corpus/atomic_shrunk_min.clap");
    if bless() {
        fs::write(path, &shrunk).expect("write shrunk corpus program");
        return;
    }
    let committed = corpus_source("atomic_shrunk_min");
    assert_eq!(
        shrunk, committed,
        "shrinker output drifted from tests/corpus/atomic_shrunk_min.clap; \
         regenerate with CLAP_BLESS=1 cargo test --test corpus"
    );
}

/// Differential agreement on the corpus: the pipeline and the oracle
/// must not hard-disagree on any corpus program under any memory model.
/// (pfscan is checked under SC only here — its TSO/PSO oracle runs
/// truncate, and the full-budget version runs in the CI smoke step.)
/// Each program's verdict tag per model is pinned in
/// `tests/corpus/diff_verdicts.snap`.
#[test]
fn corpus_diffs_clean_against_pipeline() {
    let mut actual = String::new();
    for name in PROGRAMS {
        let models: Vec<MemModel> = if *name == "pfscan" {
            vec![MemModel::Sc]
        } else {
            MODELS.to_vec()
        };
        let config = DiffConfig::default()
            .with_models(models)
            .with_seed_budget(2_000, vec![0.9, 0.5, 0.3])
            .with_max_executions(20_000);
        let report = clap_check::diff_source(&corpus_source(name), &config)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.ok(), "{name}:\n{}", report.summary());
        for o in &report.outcomes {
            let _ = writeln!(actual, "{name} {:?} {}", o.model, o.verdict.tag());
        }
        // Every failing corpus program must actually be reproduced by the
        // pipeline under SC — a record miss here would make the corpus
        // toothless.
        if *name != "mp_reorder" && *name != "sb_litmus" {
            let sc = &report.outcomes[0];
            assert!(
                sc.verdict == Verdict::Sound || sc.oracle.failing.is_empty(),
                "{name}: pipeline failed to reproduce under SC:\n{}",
                report.summary()
            );
        }
    }
    let path = Path::new("tests/corpus/diff_verdicts.snap");
    if bless() {
        fs::write(path, &actual).expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(path).expect(
        "tests/corpus/diff_verdicts.snap missing — run CLAP_BLESS=1 cargo test --test corpus",
    );
    assert_eq!(
        actual, expected,
        "differential verdicts drifted from the snapshot; if the change is \
         intended, regenerate with CLAP_BLESS=1 cargo test --test corpus"
    );
}
