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
use common::{check_snapshot_lines, Fnv};

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
        let mut generator = Generator::without_pruning(program, &system, 0);
        for_each_csp_set(&system, c, 0, &mut |set| {
            generator.run(set, &mut |order, _| {
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
    check_snapshot_lines(SNAPSHOT, &workload_lines(clap_workloads::all()), every_name);
}

#[test]
fn channel_workload_verdicts_are_pinned() {
    check_snapshot_lines(
        SNAPSHOT,
        &workload_lines(clap_workloads::channels()),
        every_name,
    );
}

#[test]
fn lockfree_workload_verdicts_are_pinned() {
    check_snapshot_lines(
        SNAPSHOT,
        &workload_lines(clap_workloads::lockfree()),
        every_name,
    );
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
    check_snapshot_lines(SNAPSHOT, &lines, every_name);
}
