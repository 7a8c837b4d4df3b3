//! Pipeline benchmark for the CLAP reproduction: time to reproduce, offline
//! solve and differential check, end to end and per layer.
//!
//! ```text
//! pipebench --workload <paper|nonblocking> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload is a corpus of failing programs from `clap_workloads`, each
//! run under its own memory model and exploration hints. The seed prefixes
//! every identifier of every program and orders the passes; the programs'
//! structure, and so the work they cause, stays the same, which keeps runs
//! on different seeds comparable. After set-up the run passes over the
//! corpus, in a fresh seeded order each time, until `--seconds` have gone
//! by (at least [`MIN_PASSES`] times). Each pass takes every program through
//!
//! - **reproduce**: the record sweep (`Pipeline::record_failure`) followed
//!   by the offline half (`Pipeline::reproduce_from`: decode, symex,
//!   constrain, solve, replay), which together are `Pipeline::reproduce`;
//! - **check**: the differential check (`clap_check::diff_program`), the
//!   bounded oracle against the pipeline under the program's own model.
//!
//! With `--trace 1` a pass instead calls each layer on its own and times
//! it: record, decode, symex, constrain, solve, replay and the oracle,
//! plus the work each did. Every pass checks that the bug reproduces, that
//! the check finds the pipeline sound, and that the schedule stays the same.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, the fastest run of a fixed reference kernel,
//! every set-up time, the metric names and units, and each program's
//! fastest pass per metric. `run.py` combines copies of this program into
//! the benchmark's metrics.

use clap_check::{diff_program, enumerate_with_shared, DiffConfig, OracleConfig, Verdict};
use clap_constraints::{count, ConstraintSystem};
use clap_core::{solve_auto, AutoConfig, Pipeline, PipelineConfig, PortfolioOutcome, SolverChoice};
use clap_ir::lexer::lex;
use clap_ir::token::TokenKind;
use clap_ir::{AtomicOrd, Instr, Program};
use clap_parallel::ParallelConfig;
use clap_profile::{decode_log, BlTables};
use clap_solver::{solve, SolveOutcome, SolverConfig};
use clap_symex::execute;
use clap_vm::{MemModel, NullMonitor};
use clap_workloads::Workload;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds one workload's corpus.
type Corpus = fn() -> Vec<Workload>;

/// The workloads by name.
const FAMILIES: [(&str, Corpus); 2] =
    [("paper", clap_workloads::all), ("nonblocking", nonblocking)];

/// Message passing and lock-free code: the channel and actor programs
/// (SC) and the C11 atomics programs.
fn nonblocking() -> Vec<Workload> {
    let mut programs = clap_workloads::channels();
    programs.extend(clap_workloads::lockfree());
    programs
}

/// Passes a run makes even when they outlast `--seconds`, so that each
/// program's fastest pass is picked from several.
const MIN_PASSES: usize = 5;

/// Runs of [`reference_kernel`] before every pass.
const REFERENCE_RUNS: usize = 3;

/// A solve deadline far above any workload's solve.
const SOLVE_TIMEOUT: Duration = Duration::from_secs(60);

/// The offline solver for `program`, in reproduction and check alike: the
/// sequential search, the CLI's default, unless the program passes
/// messages. The sequential search alone gives up on some channel traces,
/// so those get the adaptive portfolio, with one validator worker so that
/// runs do not depend on how a shared host schedules a pool.
fn solver_for(program: &Program) -> SolverChoice {
    let passes_messages = program
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.instrs)
        .any(|instr| {
            matches!(
                instr,
                Instr::Send { .. }
                    | Instr::Recv { .. }
                    | Instr::TrySend { .. }
                    | Instr::TryRecv { .. }
                    | Instr::ChanClose(_)
                    | Instr::SpawnActor { .. }
                    | Instr::MailboxSend { .. }
                    | Instr::MailboxRecv { .. }
            )
        });
    if passes_messages {
        SolverChoice::Auto(AutoConfig {
            parallel: ParallelConfig {
                workers: 1,
                ..ParallelConfig::default()
            },
            ..AutoConfig::default().with_solve_timeout(SOLVE_TIMEOUT)
        })
    } else {
        SolverChoice::Sequential(SolverConfig {
            timeout: Some(SOLVE_TIMEOUT),
            max_decisions: 0,
        })
    }
}

/// End-to-end metrics measured per program in a `--trace 0` pass.
const END_TO_END: [(&str, &str); 3] = [
    ("reproduce_ms", "ms"),
    ("offline_ms", "ms"),
    ("check_ms", "ms"),
];

/// Per-layer metrics measured per program in a `--trace 1` pass.
const PER_LAYER: [(&str, &str); 14] = [
    ("record_ms", "ms"),
    ("decode_ms", "ms"),
    ("symex_ms", "ms"),
    ("constrain_ms", "ms"),
    ("solve_ms", "ms"),
    ("replay_ms", "ms"),
    ("oracle_ms", "ms"),
    ("record_seeds", "count"),
    ("saps", "count"),
    ("order_vars", "count"),
    ("clauses", "count"),
    ("solver_search", "count"),
    ("replay_steps", "count"),
    ("oracle_executions", "count"),
];

struct Args {
    family: Corpus,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let family = FAMILIES
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, family)| family)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    Ok(Args {
        family,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One corpus program, set up for every measured call.
struct Subject {
    name: &'static str,
    model: MemModel,
    pipeline: Pipeline,
    tables: BlTables,
    config: PipelineConfig,
    diff: DiffConfig,
}

impl Subject {
    fn new(workload: &Workload, prefix: &str) -> Self {
        let source = respell(&workload.source, prefix);
        let program = clap_ir::parse(&source).expect("a respelled workload still parses");
        let solver = solver_for(&program);
        let pipeline = Pipeline::new(program);
        let tables = BlTables::build(pipeline.program());
        let mut config = PipelineConfig::new(workload.model);
        config.seed_budget = workload.seed_budget;
        config.stickiness = workload.stickiness.to_vec();
        config.solver = solver.clone();
        // One record worker: a run measures the pipeline, not how a shared
        // host schedules a thread pool.
        config.explore_workers = 1;
        let mut diff = DiffConfig::default()
            .with_models(vec![workload.model])
            .with_seed_budget(workload.seed_budget, workload.stickiness.to_vec());
        diff.solver = solver;
        Subject {
            name: workload.name,
            model: workload.model,
            pipeline,
            tables,
            config,
            diff,
        }
    }

    /// The oracle bounds `diff_program` gives this subject's model.
    fn oracle_config(&self) -> OracleConfig {
        let mut oracle = OracleConfig::new(self.model);
        oracle.max_preemptions = self.diff.max_preemptions;
        oracle.max_steps = self.diff.max_steps;
        oracle.max_executions = self.diff.max_executions;
        oracle
    }

    /// One `--trace 0` measurement, in [`END_TO_END`] order, plus the
    /// computed schedule (which must not change between passes).
    fn end_to_end(&self) -> Result<(Vec<f64>, String), String> {
        let start = Instant::now();
        let recorded = self
            .pipeline
            .record_failure(&self.config)
            .map_err(|e| format!("record: {e}"))?;
        let offline = Instant::now();
        let report = self
            .pipeline
            .reproduce_from(&self.config, &recorded)
            .map_err(|e| format!("reproduce: {e}"))?;
        let end = Instant::now();
        if !report.reproduced {
            return Err("replay did not reach the recorded assert".into());
        }

        let check_start = Instant::now();
        let check = diff_program(self.pipeline.program(), &self.diff);
        let check_time = check_start.elapsed();
        let sound = check
            .outcomes
            .iter()
            .all(|o| matches!(o.verdict, Verdict::Sound { .. }));
        if !check.ok() || !sound {
            return Err(format!("check: {}", check.summary()));
        }
        Ok((
            vec![
                millis(end - start),
                millis(end - offline),
                millis(check_time),
            ],
            report.schedule_letters,
        ))
    }

    /// One `--trace 1` measurement, in [`PER_LAYER`] order: each layer
    /// called on its own, as `reproduce_from` and `diff_program` chain
    /// them, plus the computed schedule.
    fn per_layer(&self) -> Result<(Vec<f64>, String), String> {
        let program = self.pipeline.program();
        let sharing = self.pipeline.sharing();
        clap_obs::reset();

        let (recorded, record) = timed(|| self.pipeline.record_failure(&self.config));
        let recorded = recorded.map_err(|e| format!("record: {e}"))?;

        let (paths, decode) = timed(|| decode_log(program, &self.tables, &recorded.log));
        let paths = paths.map_err(|e| format!("decode: {e}"))?;

        let (trace, symex) =
            timed(|| execute(program, &sharing.shared_spec(), &paths, &recorded.failure));
        let trace = trace.map_err(|e| format!("symex: {e}"))?;

        let ((system, stats), constrain) = timed(|| {
            let system = ConstraintSystem::build(program, &trace, self.model);
            let stats = count(&system);
            (system, stats)
        });

        let (schedule, solve_time) = timed(|| match &self.config.solver {
            SolverChoice::Sequential(config) => match solve(program, &system, *config) {
                SolveOutcome::Sat(solution) => Some(solution.schedule),
                _ => None,
            },
            SolverChoice::Auto(config) => match solve_auto(program, &system, config) {
                PortfolioOutcome::Found { schedule, .. } => Some(schedule),
                _ => None,
            },
            SolverChoice::Parallel(_) => None,
        });
        let schedule = schedule.ok_or("solve: no schedule")?;

        let (replay, replay_time) = timed(|| {
            clap_replay::replay_compiled(
                program,
                Arc::clone(self.pipeline.compiled()),
                self.model,
                sharing.shared_spec(),
                &trace,
                &schedule,
                recorded.assert,
                &mut NullMonitor,
            )
        });
        let replay = replay.map_err(|e| format!("replay: {e}"))?;
        if !replay.reproduced {
            return Err("replay did not reach the recorded assert".into());
        }

        let (oracle, oracle_time) =
            timed(|| enumerate_with_shared(program, sharing.shared_spec(), &self.oracle_config()));
        if oracle.failing.is_empty() && oracle.exhaustive() {
            return Err("the exhaustive oracle denies the recorded failure".into());
        }
        let counters = clap_obs::snapshot().counters;
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;

        Ok((
            vec![
                millis(record),
                millis(decode),
                millis(symex),
                millis(constrain),
                millis(solve_time),
                millis(replay_time),
                millis(oracle_time),
                counter("explore.seeds"),
                trace.sap_count() as f64,
                stats.order_vars as f64,
                stats.total_clauses() as f64,
                counter("solver.decisions") + counter("parallel.generated"),
                replay.steps as f64,
                oracle.executions as f64,
            ],
            schedule.thread_letters(&trace),
        ))
    }
}

/// A fixed computation that shares no code with the repository: a small
/// interpreter stepping pseudo-random instructions over a 32 KiB memory.
/// Its fastest time in a run tells how fast the host let this process go,
/// so that `run.py` can scale the run's times to one reference speed.
fn reference_kernel() -> i64 {
    let mut mem = vec![0i64; 4096];
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut acc: i64 = 0;
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x >> 8) as usize & 4095;
        let b = (x >> 20) as usize & 4095;
        match x & 7 {
            0 => mem[a] = acc,
            1 => acc = acc.wrapping_add(mem[b]),
            2 => acc ^= mem[a].rotate_left(3),
            3 => mem[b] = mem[a].wrapping_mul(31),
            4 => acc += if mem[a] > mem[b] { 1 } else { -1 },
            5 => mem.swap(a, b),
            6 => acc = acc.wrapping_mul(mem[a] | 1),
            _ => mem[a] = mem[b].wrapping_sub(acc),
        }
    }
    std::hint::black_box(acc.wrapping_add(mem[0]))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: a small, fixed pseudo-random stream, so the same seed
/// gives the same corpus on every platform.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `items`.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Prefixes every user identifier of `source` with `prefix`. Keywords,
/// the `main` entry point and atomic orderings keep their spelling, as do
/// string literals and comments. A common prefix keeps the names' relative
/// order, so only the spelling changes.
fn respell(source: &str, prefix: &str) -> String {
    let idents: BTreeSet<String> = lex(source)
        .expect("workload sources lex")
        .into_iter()
        .filter_map(|token| match token.kind {
            TokenKind::Ident(name) => Some(name),
            _ => None,
        })
        .filter(|name| name != "main" && AtomicOrd::from_name(name).is_none())
        .collect();
    let mut out = String::with_capacity(source.len() * 2);
    let mut rest = source;
    while let Some(c) = rest.chars().next() {
        let len = if c == '"' {
            let mut escaped = false;
            rest[1..]
                .find(|ch: char| {
                    let end = ch == '"' && !escaped;
                    escaped = ch == '\\' && !escaped;
                    end
                })
                .map_or(rest.len(), |i| i + 2)
        } else if rest.starts_with("//") {
            rest.find('\n').unwrap_or(rest.len())
        } else if rest.starts_with("/*") {
            rest.find("*/").map_or(rest.len(), |i| i + 2)
        } else if c.is_ascii_alphanumeric() || c == '_' {
            let len = rest
                .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_'))
                .unwrap_or(rest.len());
            if idents.contains(&rest[..len]) {
                out.push_str(prefix);
            }
            len
        } else {
            c.len_utf8()
        };
        out.push_str(&rest[..len]);
        rest = &rest[len..];
    }
    out
}

/// Builds the run's corpus from `--seed`: the family's programs in a
/// seeded order, every identifier carrying a seeded prefix.
fn set_up(family: Corpus, seed: u64) -> Vec<Subject> {
    let prefix = format!("s{:08x}_", SplitMix(seed).next() >> 32);
    family().iter().map(|w| Subject::new(w, &prefix)).collect()
}

fn run(args: &Args) -> String {
    // One set-up before every pass: spread over the run, the samples see
    // the host as the measured passes do.
    let mut setups = Vec::new();
    let timed_set_up = |setups: &mut Vec<f64>| {
        let (built, took) = timed(|| set_up(args.family, args.seed));
        setups.push(took.as_secs_f64());
        built
    };
    let subjects = timed_set_up(&mut setups);

    if args.trace {
        clap_obs::enable();
    }
    let metrics: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    // `[subject][metric]`: the fastest pass so far.
    let mut fastest = vec![vec![f64::INFINITY; metrics.len()]; subjects.len()];
    let mut schedules: Vec<Option<String>> = vec![None; subjects.len()];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut correct = true;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes = 0;
    // A fresh seeded order every pass, so that no program is always timed
    // right after the same neighbour.
    let mut order: Vec<usize> = (0..subjects.len()).collect();
    let mut rng = SplitMix(!args.seed);
    let mut reference = f64::INFINITY;
    while passes < MIN_PASSES || Instant::now() < deadline {
        if passes > 0 {
            timed_set_up(&mut setups);
        }
        for _ in 0..REFERENCE_RUNS {
            reference = reference.min(millis(timed(reference_kernel).1));
        }
        rng.shuffle(&mut order);
        for &i in &order {
            let subject = &subjects[i];
            attempted += 1;
            let measured = if args.trace {
                subject.per_layer()
            } else {
                subject.end_to_end()
            };
            match measured {
                Ok((values, schedule)) => {
                    for (best, v) in fastest[i].iter_mut().zip(values) {
                        *best = best.min(v);
                    }
                    let first = schedules[i].get_or_insert_with(|| schedule.clone());
                    if *first != schedule {
                        eprintln!(
                            "{}: schedule changed between passes ({first} then {schedule})",
                            subject.name
                        );
                        correct = false;
                    }
                }
                Err(e) => {
                    eprintln!("{}: {e}", subject.name);
                    failed += 1;
                    correct = false;
                }
            }
        }
        passes += 1;
    }
    eprintln!(
        "{} programs, {passes} passes; fastest pass per program:",
        subjects.len()
    );
    let names: Vec<&str> = metrics.iter().map(|&(name, _)| name).collect();
    eprintln!("  {:<16} {}", "", names.join(" "));
    let mut programs = Vec::new();
    for (subject, row) in subjects.iter().zip(&fastest) {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.3}")).collect();
        eprintln!("  {:<16} {}", subject.name, cells.join(" "));
        programs.push(format!("\"{}\": [{}]", subject.name, json_numbers(row)));
    }
    let metrics = metrics
        .iter()
        .map(|(name, unit)| format!("[\"{name}\", \"{unit}\"]"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"reference_ms\": {reference}, \"setup_s\": [{}], \"metrics\": [{metrics}], \"programs\": {{{}}}}}",
        json_numbers(&setups),
        programs.join(", ")
    )
}

/// Numbers as a JSON list body; a program that never succeeded has no
/// fastest pass and shows as `null`.
fn json_numbers(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <paper|nonblocking> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", run(&args));
    ExitCode::SUCCESS
}
