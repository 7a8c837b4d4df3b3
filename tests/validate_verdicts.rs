//! Golden pin of the schedule validator's verdicts.
//!
//! For each program, `clap_constraints::validate` judges a fixed set of
//! candidate schedules: the blind generator's first [`CANDIDATES`]
//! candidates over preemption bounds 0 and 1, then the sequential
//! solver's schedule when it finds one. One line per program in
//! `tests/snapshots/validate_verdicts.snap` holds the candidate and
//! acceptance counts and an FNV digest of every verdict, in order: an
//! accepted schedule contributes its witness (the assignment and the
//! reads-from list), a rejected one only the fact of its rejection, so
//! the error variant is free to change. Programs: every
//! `clap_workloads` program under its own model, plus generated seeds
//! that cover rendezvous sends, capacity-0 `try_send`, condvar waits and
//! C11 read-modify-writes and compare-and-swaps. Regenerate after an
//! *intended* change with:
//!
//! ```text
//! CLAP_BLESS=1 cargo test --test validate_verdicts
//! ```

mod common;

use clap_constraints::{validate, ConstraintSystem, ReadSource, Schedule};
use clap_core::{Pipeline, PipelineConfig};
use clap_parallel::{for_each_csp_set, Generator};
use clap_solver::SolverConfig;
use clap_vm::MemModel;
use common::Fnv;
use std::fs;
use std::path::Path;
use std::sync::Mutex;

const SNAPSHOT: &str = "tests/snapshots/validate_verdicts.snap";

/// Blind candidates judged per program.
const CANDIDATES: usize = 2_000;

/// Generated programs: (line name, source, model).
fn seeded_programs() -> Vec<(String, String, MemModel)> {
    let mut programs = Vec::new();
    // Rendezvous channels: blocking sends and capacity-0 `try_send`s,
    // with actor mailboxes on some.
    for seed in [4, 20, 32, 41] {
        let source = clap_check::ChanSpec::from_seed(seed).source();
        programs.push((format!("chan_spec_{seed}"), source, MemModel::Sc));
    }
    // Condvar waits, under SC and TSO.
    for (seed, model) in [
        (177, MemModel::Sc),
        (170, MemModel::Tso),
        (302, MemModel::Tso),
    ] {
        let source = clap_check::ProgramSpec::from_seed(seed).source();
        programs.push((format!("program_spec_{seed}"), source, model));
    }
    // C11 fetch-adds and compare-and-swaps.
    for seed in [1, 14, 44] {
        let source = clap_check::AtomicSpec::from_seed(seed).source();
        programs.push((format!("atomic_spec_{seed}"), source, MemModel::C11));
    }
    programs
}

/// Records `pipeline`'s failure under `config` and returns the program's
/// snapshot line.
fn verdict_line(name: &str, pipeline: &Pipeline, config: &PipelineConfig) -> String {
    let recorded = pipeline
        .record_failure(config)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let trace = pipeline
        .symbolic_trace(&recorded)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let program = pipeline.program();
    let system = ConstraintSystem::build(program, &trace, config.model);

    let mut candidates: Vec<Schedule> = Vec::new();
    for c in 0..=1 {
        let mut generator = Generator::without_pruning(&system, 0);
        for_each_csp_set(&system, c, 0, &mut |set| {
            generator.run(set, &mut |order| {
                candidates.push(Schedule {
                    order: order.to_vec(),
                });
                candidates.len() < CANDIDATES
            })
        });
        if candidates.len() >= CANDIDATES {
            break;
        }
    }
    let blind = candidates.len();
    if let Some(solution) = clap_solver::solve(program, &system, SolverConfig::default()).solution()
    {
        candidates.push(solution.schedule.clone());
    }

    let mut digest = Fnv::new();
    let mut accepted = 0;
    for schedule in &candidates {
        match validate(program, &system, schedule) {
            Ok(witness) => {
                accepted += 1;
                digest.bytes(b"ok");
                for value in &witness.assignment {
                    digest.bytes(&value.to_le_bytes());
                }
                digest.bytes(b"|");
                for (read, source) in &witness.reads_from {
                    digest.bytes(&read.0.to_le_bytes());
                    match source {
                        ReadSource::Init => digest.bytes(b"i"),
                        ReadSource::Write(write) => {
                            digest.bytes(b"w");
                            digest.bytes(&write.0.to_le_bytes());
                        }
                    }
                }
            }
            Err(_) => digest.bytes(b"err"),
        }
        digest.bytes(b"\n");
    }
    format!(
        "{name} {:?} blind={blind} solver={} accepted={accepted} verdicts={:016x}",
        config.model,
        candidates.len() - blind,
        digest.0
    )
}

/// The snapshot order: every workload, then the generated programs.
fn every_name() -> Vec<String> {
    let mut names: Vec<String> = clap_workloads::all()
        .into_iter()
        .chain(clap_workloads::channels())
        .chain(clap_workloads::lockfree())
        .map(|w| w.name.to_owned())
        .collect();
    names.extend(seeded_programs().into_iter().map(|(name, _, _)| name));
    names
}

/// Compares `lines` with their lines in [`SNAPSHOT`], or rewrites those
/// lines under `CLAP_BLESS`. The tests below share the snapshot and run
/// concurrently; each owns only its own programs' lines.
fn check_snapshot(lines: &[String]) {
    static BLESS: Mutex<()> = Mutex::new(());
    fn name(line: &str) -> &str {
        line.split(' ').next().unwrap_or(line)
    }
    let file = Path::new(SNAPSHOT);
    if std::env::var_os("CLAP_BLESS").is_some() {
        let _guard = BLESS.lock().unwrap_or_else(|e| e.into_inner());
        let mut all: Vec<String> = fs::read_to_string(file)
            .unwrap_or_default()
            .lines()
            .filter(|old| !lines.iter().any(|new| name(new) == name(old)))
            .map(str::to_owned)
            .chain(lines.iter().cloned())
            .collect();
        let order = every_name();
        all.sort_by_key(|line| order.iter().position(|n| n == name(line)));
        fs::create_dir_all(file.parent().expect("snapshot dir")).expect("create snapshot dir");
        fs::write(file, all.join("\n") + "\n").expect("write snapshot");
        return;
    }
    let expected = fs::read_to_string(file).unwrap_or_else(|_| {
        panic!("{SNAPSHOT} missing — run CLAP_BLESS=1 cargo test --test validate_verdicts")
    });
    for line in lines {
        let pinned = expected.lines().find(|old| name(old) == name(line));
        assert_eq!(
            pinned,
            Some(line.as_str()),
            "{SNAPSHOT} drifted; if the change is intended, \
             regenerate with CLAP_BLESS=1 cargo test --test validate_verdicts"
        );
    }
}

fn workload_lines(workloads: Vec<clap_workloads::Workload>) -> Vec<String> {
    workloads
        .iter()
        .map(|w| {
            let pipeline = Pipeline::new(w.program());
            verdict_line(w.name, &pipeline, &clap_bench::workload_config(w))
        })
        .collect()
}

#[test]
fn paper_workload_verdicts_are_pinned() {
    check_snapshot(&workload_lines(clap_workloads::all()));
}

#[test]
fn channel_workload_verdicts_are_pinned() {
    check_snapshot(&workload_lines(clap_workloads::channels()));
}

#[test]
fn lockfree_workload_verdicts_are_pinned() {
    check_snapshot(&workload_lines(clap_workloads::lockfree()));
}

#[test]
fn generated_program_verdicts_are_pinned() {
    let lines: Vec<String> = seeded_programs()
        .iter()
        .map(|(name, source, model)| {
            let pipeline = Pipeline::from_source(source).expect("generated source parses");
            let mut config = PipelineConfig::new(*model);
            config.seed_budget = 200;
            config.stickiness = vec![0.7, 0.3];
            verdict_line(name, &pipeline, &config)
        })
        .collect();
    check_snapshot(&lines);
}
