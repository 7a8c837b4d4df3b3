//! `clap-reproduce` — the command-line front end of the CLAP reproduction.
//!
//! ```text
//! clap-reproduce check     [prog.clap] [--all-examples] [--model sc,tso,pso,c11]
//!                          [--fuzz N] [--chan-fuzz N] [--atomic-fuzz N] [--fuzz-seed S]
//!                          [--max-preemptions K]
//!                          [--max-executions N] [--strict-record]
//!                          [--shrink-out PATH] [--budget N] [--solver ...]
//! clap-reproduce dump      prog.clap                    pretty-print the lowered CFG
//! clap-reproduce run       prog.clap [--model M] [--seed N] [--stickiness S]
//! clap-reproduce explore   prog.clap [--model M] [--budget N]
//! clap-reproduce reproduce prog.clap [--model M] [--budget N]
//!                          [--solver seq|par|auto] [--solve-timeout SECS] [--sync-order]
//! ```
//!
//! `check` is the differential harness: each target program runs through
//! both the bounded enumeration oracle (`clap-check`) and the full
//! pipeline, per memory model, and any **hard disagreement** — an
//! unsound schedule, a false `Unsat`, or a structural pipeline failure —
//! makes the command shrink the offending program, write it to
//! `--shrink-out` (default `check-counterexample.clap`), and exit
//! non-zero. Soft notes (the randomized record phase missing a rare
//! interleaving, a solver giving up within budget) are reported but do
//! not fail the run. The last line of `check`'s output, `tally: ...`,
//! counts each verdict over every (program, model) pair. `--model` takes
//! a comma-separated list for `check`; the other commands take a single
//! model.
//!
//! `M` is one of `sc` (default), `tso`, `pso`, `c11`. `explore` and
//! `reproduce` record with one sequential sweep of up to `--budget`
//! seeds per stickiness level; `--workers` sizes only the `serve`
//! daemon's job pool. `--solver auto` runs the adaptive portfolio: the
//! parallel engine escalates up a preemption-bound ladder, then the
//! sequential solver takes the rest of the `--solve-timeout` budget.
//! `--parallel` is shorthand for `--solver par`.
//!
//! Every command that executes the program (`check`, `run`, `explore`,
//! `reproduce`) also accepts the observability flags: `--trace <path>`
//! writes a Chrome `trace_event` JSON timeline (loadable in Perfetto or
//! `about:tracing`), `--metrics <path>` writes the JSONL metric stream,
//! and `-v`/`--verbose` prints the collector summary to stderr.

use clap_check::{AtomicSpec, ChanSpec, DiffConfig, ProgramSpec};
use clap_core::{AutoConfig, Pipeline, PipelineConfig, ReproductionReport, SolverChoice};
use clap_obs::Observer;
use clap_parallel::ParallelConfig;
use clap_serve::{Client, ServeConfig, Server, SolverKind, SubmitRequest};
use clap_solver::SolverConfig;
use clap_vm::{MemModel, NullMonitor, RandomScheduler, Vm};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  clap-reproduce check     [prog.clap] [--all-examples] [--examples-dir DIR]
                           [--model sc,tso,pso,c11] [--fuzz N] [--chan-fuzz N]
                           [--atomic-fuzz N] [--fuzz-seed S]
                           [--max-preemptions K] [--max-executions N]
                           [--strict-record] [--shrink-out PATH]
                           [--budget N] [--solver seq|par|auto] [--solve-timeout SECS]
  clap-reproduce dump      <prog.clap>
  clap-reproduce run       <prog.clap> [--model sc|tso|pso|c11] [--seed N] [--stickiness S]
  clap-reproduce explore   <prog.clap> [--model sc|tso|pso|c11] [--budget N]
  clap-reproduce reproduce <prog.clap> [--model sc|tso|pso|c11] [--budget N]
                           [--solver seq|par|auto] [--solve-timeout SECS] [--sync-order]
                           [--json]
  clap-reproduce serve     [--addr HOST:PORT] [--workers N] [--queue-cap N]
                           [--cache-dir DIR] [--trace PATH] [--metrics PATH] [-v]
  clap-reproduce submit    <prog.clap> [--addr HOST:PORT] [--model M] [--budget N]
                           [--solver seq|par|auto] [--sync-order] [--wait]
                           [--wait-timeout SECS] [--json]
  clap-reproduce status    <job-id> [--addr HOST:PORT]
  clap-reproduce fetch     <job-id> [--addr HOST:PORT]
  clap-reproduce shutdown  [--addr HOST:PORT]

service (serve/submit/status/fetch/shutdown):
  --addr HOST:PORT         daemon address (default 127.0.0.1:7117)
  --queue-cap N            bounded job queue; extra submissions get 503 (default 64)
  --cache-dir DIR          persist the content-addressed result cache here
  --wait                   poll the submitted job until it finishes
  --wait-timeout SECS      give up waiting after this long (default 300)
  --json                   print the raw ReproductionReport JSON

differential checking (check):
  --all-examples           check every .clap under --examples-dir (default examples)
  --model a,b,...          memory models to cross-check (default sc)
  --fuzz N                 also check N seeded random programs
  --chan-fuzz N            also check N seeded random channel/actor programs
  --atomic-fuzz N          also check N seeded random C11-atomics programs
  --fuzz-seed S            base seed for the fuzz flags (default 0; case i uses S+i)
  --max-preemptions K      oracle preemption bound (default 2)
  --max-executions N       oracle execution cap (default 200000)
  --strict-record          treat record-phase misses as hard disagreements
  --shrink-out PATH        where to write the shrunk counterexample
                           (default check-counterexample.clap)

solving (reproduce/check):
  --solver seq|par|auto    sequential DPLL(T), parallel generate-and-validate,
                           or the adaptive portfolio (ladder + fallback); default seq,
                           and for submit the server's default, auto
  --parallel               shorthand for --solver par
  --solve-timeout SECS     overall wall-clock budget for the solve phase

observability (run/explore/reproduce):
  --trace <path>     write a Chrome trace_event JSON timeline (Perfetto-loadable)
  --metrics <path>   write the JSONL metric stream
  -v, --verbose      print the collector summary to stderr";

#[derive(Clone, Copy, PartialEq, Eq)]
enum SolverFlag {
    Sequential,
    Parallel,
    Auto,
}

struct Options {
    file: String,
    models: Vec<MemModel>,
    seed: u64,
    stickiness: f64,
    budget: u64,
    workers: Option<usize>,
    /// `None` unless `--solver` or `--parallel` was given.
    solver: Option<SolverFlag>,
    solve_timeout: Option<Duration>,
    sync_order: bool,
    all_examples: bool,
    examples_dir: String,
    fuzz: u64,
    chan_fuzz: u64,
    atomic_fuzz: u64,
    fuzz_seed: u64,
    max_preemptions: usize,
    max_executions: u64,
    strict_record: bool,
    shrink_out: String,
    trace: Option<String>,
    metrics: Option<String>,
    verbose: bool,
    addr: String,
    queue_cap: usize,
    cache_dir: Option<String>,
    wait: bool,
    wait_timeout: Duration,
    json: bool,
}

impl Options {
    /// The solver `check` and `reproduce` run: sequential unless asked.
    fn solver(&self) -> SolverFlag {
        self.solver.unwrap_or(SolverFlag::Sequential)
    }

    /// [`Options::solver`] configured with `--solve-timeout`.
    fn solver_choice(&self) -> SolverChoice {
        match self.solver() {
            SolverFlag::Sequential => SolverChoice::Sequential(SolverConfig {
                timeout: self.solve_timeout,
                ..SolverConfig::default()
            }),
            SolverFlag::Parallel => SolverChoice::Parallel(ParallelConfig {
                timeout: self.solve_timeout,
                ..ParallelConfig::default()
            }),
            SolverFlag::Auto => SolverChoice::Auto(AutoConfig {
                solve_timeout: self.solve_timeout,
                ..AutoConfig::default()
            }),
        }
    }

    fn observer(&self) -> Observer {
        let mut observer = Observer::none();
        if let Some(path) = &self.trace {
            observer = observer.with_trace(path);
        }
        if let Some(path) = &self.metrics {
            observer = observer.with_metrics(path);
        }
        if self.verbose {
            observer = observer.with_summary();
        }
        observer
    }

    /// The single memory model for the non-differential commands.
    fn single_model(&self) -> Result<MemModel, String> {
        match self.models.as_slice() {
            [] => Ok(MemModel::Sc),
            [m] => Ok(*m),
            _ => Err("this command takes a single --model".into()),
        }
    }
}

fn parse_model(name: &str) -> Result<MemModel, String> {
    match name {
        "sc" => Ok(MemModel::Sc),
        "tso" => Ok(MemModel::Tso),
        "pso" => Ok(MemModel::Pso),
        "c11" => Ok(MemModel::C11),
        other => Err(format!("unknown memory model `{other}`")),
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        file: String::new(),
        models: Vec::new(),
        seed: 0,
        stickiness: 0.7,
        budget: 20_000,
        workers: None,
        solver: None,
        solve_timeout: None,
        sync_order: false,
        all_examples: false,
        examples_dir: "examples".into(),
        fuzz: 0,
        chan_fuzz: 0,
        atomic_fuzz: 0,
        fuzz_seed: 0,
        max_preemptions: 2,
        max_executions: 200_000,
        strict_record: false,
        shrink_out: "check-counterexample.clap".into(),
        trace: None,
        metrics: None,
        verbose: false,
        addr: "127.0.0.1:7117".into(),
        queue_cap: 64,
        cache_dir: None,
        wait: false,
        wait_timeout: Duration::from_secs(300),
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--model" => {
                let v = it.next().ok_or("--model needs a value")?;
                options.models = v
                    .split(',')
                    .map(parse_model)
                    .collect::<Result<Vec<_>, _>>()?;
                if options.models.is_empty() {
                    return Err("--model needs at least one model".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                options.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--stickiness" => {
                let v = it.next().ok_or("--stickiness needs a value")?;
                options.stickiness = v.parse().map_err(|_| format!("bad stickiness `{v}`"))?;
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                options.budget = v.parse().map_err(|_| format!("bad budget `{v}`"))?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n = v.parse().map_err(|_| format!("bad worker count `{v}`"))?;
                options.workers = Some(n);
            }
            "--parallel" => options.solver = Some(SolverFlag::Parallel),
            "--solver" => {
                let v = it.next().ok_or("--solver needs a value")?;
                options.solver = Some(match v.as_str() {
                    "seq" => SolverFlag::Sequential,
                    "par" => SolverFlag::Parallel,
                    "auto" => SolverFlag::Auto,
                    other => return Err(format!("unknown solver `{other}` (seq|par|auto)")),
                });
            }
            "--solve-timeout" => {
                let v = it
                    .next()
                    .ok_or("--solve-timeout needs a value in seconds")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad solve timeout `{v}`"))?;
                options.solve_timeout = Some(Duration::from_secs(secs));
            }
            "--sync-order" => options.sync_order = true,
            "--all-examples" => options.all_examples = true,
            "--examples-dir" => {
                let v = it.next().ok_or("--examples-dir needs a path")?;
                options.examples_dir = v.clone();
            }
            "--fuzz" => {
                let v = it.next().ok_or("--fuzz needs a case count")?;
                options.fuzz = v.parse().map_err(|_| format!("bad fuzz count `{v}`"))?;
            }
            "--chan-fuzz" => {
                let v = it.next().ok_or("--chan-fuzz needs a case count")?;
                options.chan_fuzz = v
                    .parse()
                    .map_err(|_| format!("bad chan-fuzz count `{v}`"))?;
            }
            "--atomic-fuzz" => {
                let v = it.next().ok_or("--atomic-fuzz needs a case count")?;
                options.atomic_fuzz = v
                    .parse()
                    .map_err(|_| format!("bad atomic-fuzz count `{v}`"))?;
            }
            "--fuzz-seed" => {
                let v = it.next().ok_or("--fuzz-seed needs a value")?;
                options.fuzz_seed = v.parse().map_err(|_| format!("bad fuzz seed `{v}`"))?;
            }
            "--max-preemptions" => {
                let v = it.next().ok_or("--max-preemptions needs a value")?;
                options.max_preemptions = v
                    .parse()
                    .map_err(|_| format!("bad preemption bound `{v}`"))?;
            }
            "--max-executions" => {
                let v = it.next().ok_or("--max-executions needs a value")?;
                options.max_executions =
                    v.parse().map_err(|_| format!("bad execution cap `{v}`"))?;
            }
            "--strict-record" => options.strict_record = true,
            "--shrink-out" => {
                let v = it.next().ok_or("--shrink-out needs a path")?;
                options.shrink_out = v.clone();
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path")?;
                options.trace = Some(v.clone());
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                options.metrics = Some(v.clone());
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs host:port")?;
                options.addr = v.clone();
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                options.queue_cap = v.parse().map_err(|_| format!("bad queue cap `{v}`"))?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                options.cache_dir = Some(v.clone());
            }
            "--wait" => options.wait = true,
            "--wait-timeout" => {
                let v = it.next().ok_or("--wait-timeout needs a value in seconds")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad wait timeout `{v}`"))?;
                options.wait_timeout = Duration::from_secs(secs);
            }
            "--json" => options.json = true,
            "-v" | "--verbose" => options.verbose = true,
            other if !other.starts_with("--") && options.file.is_empty() => {
                options.file = other.to_owned();
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(options)
}

fn flush(observer: &Observer) {
    if let Err(e) = observer.flush() {
        eprintln!("clap-obs: failed to write sink: {e}");
    }
}

fn load(file: &str) -> Result<clap_ir::Program, String> {
    let source = std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
    clap_ir::parse(&source).map_err(|e| format!("{file}: {e}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let options = parse_options(rest)?;
    if options.workers.is_some() && command != "serve" {
        return Err("`--workers` sizes the `serve` daemon's job pool only".into());
    }
    match command.as_str() {
        "check" => return check(&options),
        "serve" => return serve(&options),
        "submit" => return submit(&options),
        "status" | "fetch" => return poll(command, &options),
        "shutdown" => {
            Client::new(options.addr.clone())
                .shutdown()
                .map_err(|e| e.to_string())?;
            println!("draining");
            return Ok(());
        }
        _ => {}
    }
    if options.file.is_empty() {
        return Err("missing program file".into());
    }
    let program = load(&options.file)?;
    match command.as_str() {
        "dump" => {
            print!("{}", clap_ir::pretty::program_to_string(&program));
            Ok(())
        }
        "run" => {
            let observer = options.observer();
            observer.install();
            let mut vm = Vm::new(&program, options.single_model()?);
            let mut sched = RandomScheduler::with_stickiness(options.seed, options.stickiness);
            let outcome = {
                let _s = clap_obs::span("run");
                vm.run(&mut sched, &mut NullMonitor)
            };
            let stats = vm.stats();
            clap_obs::add("run.instructions", stats.instructions);
            clap_obs::add("run.saps", stats.saps);
            flush(&observer);
            println!("outcome: {outcome:?}");
            println!(
                "stats: {} instructions, {} branches, {} SAPs, {} threads",
                stats.instructions, stats.branches, stats.saps, stats.threads
            );
            for (i, g) in program.globals.iter().enumerate() {
                if g.len.is_none() {
                    println!(
                        "  {} = {}",
                        g.name,
                        vm.read_global(clap_ir::GlobalId(i as u32), 0)
                    );
                }
            }
            Ok(())
        }
        "explore" => {
            let observer = options.observer();
            observer.install();
            let pipeline = Pipeline::new(program);
            let mut config = PipelineConfig::new(options.single_model()?);
            config.seed_budget = options.budget;
            let result = pipeline.record_failure(&config);
            flush(&observer);
            match result {
                Ok(recorded) => {
                    println!(
                        "failure: seed {} (stickiness {}) violates assert {} ({:?})",
                        recorded.seed,
                        recorded.stickiness,
                        recorded.assert.0,
                        pipeline.program().asserts[recorded.assert.index()].message
                    );
                    println!(
                        "recorded: {} SAPs, path log {} bytes",
                        recorded.stats.saps,
                        recorded.log.size_bytes()
                    );
                    Ok(())
                }
                Err(clap_core::PipelineError::NoFailureFound) => {
                    println!("no failure within the budget");
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            }
        }
        "reproduce" => {
            let pipeline = Pipeline::new(program);
            let mut config =
                PipelineConfig::new(options.single_model()?).with_observer(options.observer());
            config.seed_budget = options.budget;
            config.solver = options.solver_choice();
            config.record_sync_order = options.sync_order;
            let report = pipeline.reproduce(&config).map_err(|e| e.to_string())?;
            if options.json {
                println!("{}", report.to_json());
                return Ok(());
            }
            println!("reproduced: {}", report.reproduced);
            println!(
                "trace: {} threads, {} instructions, {} branches, {} SAPs",
                report.threads, report.instructions, report.branches, report.saps
            );
            println!(
                "constraints: {} clauses / {} variables; path log {} bytes",
                report.constraints.total_clauses(),
                report.constraints.total_vars(),
                report.log_bytes
            );
            let p = &report.phases;
            println!(
                "times: record {:?}, decode {:?}, symex {:?}, constrain {:?}, solve {:?}, replay {:?} (total {:?})",
                p.record, p.decode, p.symex, p.constrain, p.solve, p.replay, p.total
            );
            for attempt in &report.portfolio.attempts {
                let bounds = match attempt.cs_bounds {
                    Some((lo, hi)) => format!(" cs {lo}..={hi}"),
                    None => String::new(),
                };
                println!(
                    "solver attempt: {}{bounds} -> {} in {:?}",
                    attempt.engine, attempt.outcome, attempt.wall
                );
            }
            match report.portfolio.winner {
                Some(winner) => println!("solver winner: {winner}"),
                None => println!("solver winner: none"),
            }
            println!(
                "schedule has {} preemptive switches (thread per position):",
                report.context_switches
            );
            println!("  {}", report.schedule_letters);
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The `serve` subcommand: run the reproduction daemon until a client
/// posts `/shutdown`, then drain and flush the sinks.
fn serve(options: &Options) -> Result<(), String> {
    let observer = options.observer();
    if observer.is_active() {
        clap_obs::reset();
    }
    let server = Server::start(ServeConfig {
        addr: options.addr.clone(),
        workers: match options.workers {
            None | Some(0) => 2,
            Some(n) => n,
        },
        queue_cap: options.queue_cap,
        cache_dir: options.cache_dir.clone().map(Into::into),
        observer,
    })
    .map_err(|e| e.to_string())?;
    println!("serving on {}", server.addr());
    server.join();
    println!("drained and stopped");
    Ok(())
}

fn submit_request(options: &Options) -> Result<SubmitRequest, String> {
    let source = std::fs::read_to_string(&options.file)
        .map_err(|e| format!("cannot read `{}`: {e}", options.file))?;
    request_for(source, options)
}

/// The submission of `source` under `options`: a knob the command line
/// leaves unset keeps [`SubmitRequest::new`]'s default.
fn request_for(source: String, options: &Options) -> Result<SubmitRequest, String> {
    let mut request = SubmitRequest::new(source);
    request.model = options.single_model()?;
    if let Some(solver) = options.solver {
        request.solver = match solver {
            SolverFlag::Sequential => SolverKind::Sequential,
            SolverFlag::Parallel => SolverKind::Parallel,
            SolverFlag::Auto => SolverKind::Auto,
        };
    }
    request.seed_budget = Some(options.budget);
    request.sync_order = options.sync_order;
    Ok(request)
}

/// The `submit` subcommand: post a program to the daemon; with `--wait`,
/// poll until it finishes and print the schedule (or, with `--json`, the
/// raw report document). Every submission mints a trace id, sent in the
/// `X-Clap-Trace` header: the server stamps it into the job's per-job
/// sinks, and with `--trace`/`--metrics` the client writes its own
/// submit/wait/fetch spans under the same id, so one id stitches the
/// whole request path.
fn submit(options: &Options) -> Result<(), String> {
    if options.file.is_empty() {
        return Err("missing program file".into());
    }
    let request = submit_request(options)?;
    let trace_id = clap_serve::mint_trace_id();
    let client = Client::new(options.addr.clone()).with_trace_id(trace_id.clone());
    let observer = options.observer().with_trace_id(trace_id.clone());
    observer.install();
    // With --json, stdout carries only the report document; the job
    // lifecycle lines go to stderr so the output stays pipeable.
    let status_line = |line: String| {
        if options.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    let result = (|| {
        let mut info = {
            let _s = clap_obs::span("client.submit");
            client.submit(&request).map_err(|e| e.to_string())?
        };
        status_line(format!("job: {}", info.job));
        status_line(format!("trace: {trace_id}"));
        if options.wait {
            let _s = clap_obs::span("client.wait");
            info = client
                .wait(info.job, options.wait_timeout)
                .map_err(|e| e.to_string())?;
        }
        status_line(format!("state: {}", info.state));
        status_line(format!("cached: {}", info.cached));
        match info.state {
            clap_serve::JobState::Done => {
                let report_json = {
                    let _s = clap_obs::span("client.fetch");
                    client.fetch(info.job).map_err(|e| e.to_string())?
                };
                if options.json {
                    println!("{report_json}");
                } else {
                    let report = ReproductionReport::from_json(&report_json)?;
                    println!("reproduced: {}", report.reproduced);
                    println!("schedule: {}", report.schedule_letters);
                }
                Ok(())
            }
            clap_serve::JobState::Failed => Err(format!(
                "job {} failed: {}",
                info.job,
                info.error.as_deref().unwrap_or("unknown error")
            )),
            _ => Ok(()),
        }
    })();
    flush(&observer);
    result
}

/// The `status`/`fetch` subcommands: look up one job by id.
fn poll(command: &str, options: &Options) -> Result<(), String> {
    let job: u64 = options
        .file
        .parse()
        .map_err(|_| format!("`{command}` needs a numeric job id"))?;
    let client = Client::new(options.addr.clone());
    match command {
        "status" => {
            let info = client.status(job).map_err(|e| e.to_string())?;
            println!("job: {}", info.job);
            println!("state: {}", info.state);
            println!("cached: {}", info.cached);
            if let Some(error) = &info.error {
                println!("error: {error}");
            }
        }
        _ => {
            let report_json = client.fetch(job).map_err(|e| e.to_string())?;
            if options.json {
                println!("{report_json}");
            } else {
                let report = ReproductionReport::from_json(&report_json)?;
                println!("reproduced: {}", report.reproduced);
                println!("schedule: {}", report.schedule_letters);
            }
        }
    }
    Ok(())
}

/// The differential `check` subcommand: every target program (explicit
/// file, the examples directory, seeded fuzz cases) is run through both
/// the bounded oracle and the full pipeline under every requested memory
/// model. Hard disagreements shrink the offending program, write it to
/// `--shrink-out`, and fail the command.
fn check(options: &Options) -> Result<(), String> {
    let observer = options.observer();
    observer.install();
    let mut config = DiffConfig::default()
        .with_models(if options.models.is_empty() {
            vec![MemModel::Sc]
        } else {
            options.models.clone()
        })
        .with_max_executions(options.max_executions);
    config.max_preemptions = options.max_preemptions;
    config.seed_budget = options.budget;
    config.strict_record = options.strict_record;
    config.solver = options.solver_choice();

    // Collect targets: (name, source).
    let mut targets: Vec<(String, String)> = Vec::new();
    if !options.file.is_empty() {
        let source = std::fs::read_to_string(&options.file)
            .map_err(|e| format!("cannot read `{}`: {e}", options.file))?;
        targets.push((options.file.clone(), source));
    }
    if options.all_examples {
        let dir = &options.examples_dir;
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read examples dir `{dir}`: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "clap"))
            .collect();
        paths.sort();
        for path in paths {
            let name = path.display().to_string();
            let source =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{name}`: {e}"))?;
            targets.push((name, source));
        }
    }
    for i in 0..options.fuzz {
        let seed = options.fuzz_seed.wrapping_add(i);
        let source = ProgramSpec::from_seed(seed).source();
        targets.push((format!("fuzz:{seed}"), source));
    }
    for i in 0..options.chan_fuzz {
        let seed = options.fuzz_seed.wrapping_add(i);
        let source = ChanSpec::from_seed(seed).source();
        targets.push((format!("chan-fuzz:{seed}"), source));
    }
    for i in 0..options.atomic_fuzz {
        let seed = options.fuzz_seed.wrapping_add(i);
        let source = AtomicSpec::from_seed(seed).source();
        targets.push((format!("atomic-fuzz:{seed}"), source));
    }
    if targets.is_empty() {
        return Err(
            "check: nothing to check (give a file, --all-examples, --fuzz N, \
             --chan-fuzz N, or --atomic-fuzz N)"
                .into(),
        );
    }

    let mut hard: Option<(String, String)> = None;
    let mut checked = 0usize;
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (name, source) in &targets {
        let report =
            clap_check::diff_source(source, &config).map_err(|e| format!("{name}: {e}"))?;
        checked += 1;
        for outcome in &report.outcomes {
            *tally.entry(outcome.verdict.tag()).or_default() += 1;
        }
        let ok = report.ok();
        let is_fuzz_target = name.starts_with("fuzz:")
            || name.starts_with("chan-fuzz:")
            || name.starts_with("atomic-fuzz:");
        if ok && is_fuzz_target && !options.verbose {
            continue; // keep fuzz output to failures only
        }
        println!("{name}:");
        for line in report.summary().lines() {
            println!("  {line}");
        }
        if !ok && hard.is_none() {
            hard = Some((name.clone(), source.clone()));
        }
    }
    flush(&observer);
    if hard.is_none() {
        println!(
            "check: {checked} program(s) x {} model(s): no hard disagreements",
            config.models.len()
        );
    }
    // The last line counts each verdict over every (program, model) pair;
    // the tags sort hard disagreements (upper case) first.
    let tally: Vec<String> = tally.iter().map(|(tag, n)| format!("{tag} {n}")).collect();
    println!("tally: {}", tally.join(", "));
    let Some((name, source)) = hard else {
        return Ok(());
    };

    // Shrink the first hard disagreement before failing, so the artifact
    // a CI run uploads is already minimal.
    eprintln!("check: hard disagreement in {name}; shrinking...");
    let shrink_config = config.clone();
    let shrunk = clap_check::shrink_source(source.as_str(), |candidate| {
        clap_check::diff_source(candidate, &shrink_config)
            .map(|r| !r.ok())
            .unwrap_or(false)
    })
    .unwrap_or_else(|| source.clone());
    std::fs::write(&options.shrink_out, &shrunk)
        .map_err(|e| format!("cannot write `{}`: {e}", options.shrink_out))?;
    eprintln!(
        "check: shrunk counterexample ({} bytes) written to {}",
        shrunk.len(),
        options.shrink_out
    );
    Err(format!("check: hard disagreement in {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(args: &[&str]) -> SubmitRequest {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let options = parse_options(&args).expect("arguments parse");
        request_for("fn main() {}".into(), &options).expect("request builds")
    }

    #[test]
    fn bare_submit_asks_for_the_auto_solver() {
        assert_eq!(request(&["p.clap"]).solver, SolverKind::Auto);
    }

    #[test]
    fn submit_solver_flags_override_the_default() {
        for (args, solver) in [
            (&["p.clap", "--solver", "seq"][..], SolverKind::Sequential),
            (&["p.clap", "--solver", "par"][..], SolverKind::Parallel),
            (&["p.clap", "--parallel"][..], SolverKind::Parallel),
            (&["p.clap", "--solver", "auto"][..], SolverKind::Auto),
        ] {
            assert_eq!(request(args).solver, solver, "{args:?}");
        }
    }
}
