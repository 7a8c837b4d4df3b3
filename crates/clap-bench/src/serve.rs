//! The service load generator behind the `bench_serve` binary: N
//! concurrent clients hammer a [`clap_serve::Server`] over the example
//! corpus, once cold (every submission runs a pipeline) and once warm
//! (every submission is a content-addressed cache hit), then a deliberately
//! undersized instance demonstrates backpressure shedding.
//!
//! Results are published through the [`clap_obs`] JSONL sink as
//! `bench.serve` / `bench.serve.cell` / `bench.serve.summary` /
//! `bench.serve.shed` events; the artifact validates under `obsck`.

use clap_serve::{Client, ClientError, ServeConfig, Server, SubmitRequest};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads of the measured server.
pub const WORKERS: usize = 2;
/// Queue capacity of the measured server.
pub const QUEUE_CAP: usize = 64;
/// How long one submission may take end to end before the bench aborts.
const JOB_TIMEOUT: Duration = Duration::from_secs(300);

/// One timed submission.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Corpus program name (file stem).
    pub program: String,
    /// `"cold"` or `"warm"`.
    pub phase: &'static str,
    /// Submit → report-in-hand latency, in microseconds.
    pub latency_us: u64,
    /// Whether the server answered from the cache.
    pub cached: bool,
}

/// The backpressure measurement: an undersized server (1 worker, queue
/// of 2) under a burst of distinct submissions.
#[derive(Debug, Clone)]
pub struct ShedResult {
    /// Submissions attempted during the burst phase.
    pub submitted: usize,
    /// Submissions the server accepted (queued or coalesced).
    pub accepted: usize,
    /// Submissions shed with `503`.
    pub shed: usize,
    /// Jobs the server finished (completed + failed) before the drain
    /// ended — every accepted job must be here.
    pub drained: u64,
}

/// A complete load-generation run.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Programs in the corpus.
    pub corpus: usize,
    /// Worker threads of the measured server.
    pub workers: usize,
    /// Queue capacity of the measured server.
    pub queue_cap: usize,
    /// Concurrent clients in the warm phase.
    pub clients: usize,
    /// Every timed submission, cold then warm.
    pub samples: Vec<Sample>,
    /// Mean cold latency (µs).
    pub cold_us: u64,
    /// Mean warm latency (µs).
    pub warm_us: u64,
    /// `cold_us / warm_us`.
    pub speedup: f64,
    /// The backpressure phase.
    pub shed: ShedResult,
}

/// Times one submission end to end: submit, wait until `Done`, fetch
/// the report.
fn timed_submission(client: &Client, name: &str, request: &SubmitRequest) -> (u64, bool) {
    let t0 = Instant::now();
    let job = client
        .submit(request)
        .unwrap_or_else(|e| panic!("{name}: submit failed: {e}"));
    let done = client
        .wait(job.job, JOB_TIMEOUT)
        .unwrap_or_else(|e| panic!("{name}: wait failed: {e}"));
    let report = client
        .fetch(done.job)
        .unwrap_or_else(|e| panic!("{name}: fetch failed: {e}"));
    assert!(!report.is_empty(), "{name}: empty report");
    (t0.elapsed().as_micros() as u64, done.cached)
}

/// The submission of one corpus program: under the memory model of the
/// `clap_workloads` program of the same name, else SC. The lock-free
/// examples fail only under C11.
fn corpus_request(name: &str, source: &str) -> SubmitRequest {
    let mut request = SubmitRequest::new(source);
    if let Some(workload) = clap_workloads::by_name(name) {
        request.model = workload.model;
    }
    request
}

/// A program whose assertion never fails: reproduction sweeps the whole
/// seed budget, which makes job duration proportional to `budget` — the
/// controllable load for the shed phase.
fn busywork_program(tag: u32) -> String {
    format!(
        "global int x = {tag};
         fn w() {{ let v: int = x; yield; x = v + 1; }}
         fn main() {{
           let a: thread = fork w();
           join a;
           assert(x >= 0, \"never fires {tag}\");
         }}"
    )
}

/// Runs the load generation: cold pass, `clients`-way concurrent warm
/// pass, then the shed phase on an undersized instance. `corpus` is
/// `(name, DSL source)` pairs.
pub fn run(corpus: &[(String, String)], clients: usize) -> ServeBench {
    let clients = clients.max(1);
    assert!(!corpus.is_empty(), "empty corpus");

    let server = Server::start(ServeConfig {
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        ..ServeConfig::default()
    })
    .expect("start bench server");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());

    // Cold pass: every program is a distinct fingerprint, so every
    // submission runs a full pipeline.
    let mut samples = Vec::new();
    for (name, source) in corpus {
        let (latency_us, cached) = timed_submission(&client, name, &corpus_request(name, source));
        assert!(!cached, "{name}: cold submission answered from cache");
        eprintln!("cold: {name} {latency_us}us");
        samples.push(Sample {
            program: name.clone(),
            phase: "cold",
            latency_us,
            cached,
        });
    }

    // Warm pass: N clients re-submit the identical corpus concurrently;
    // every answer must come from the cache.
    let warm = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let client = Client::new(addr.clone());
                for (name, source) in corpus {
                    let (latency_us, cached) =
                        timed_submission(&client, name, &corpus_request(name, source));
                    assert!(cached, "{name}: warm submission missed the cache");
                    warm.lock().unwrap().push(Sample {
                        program: name.clone(),
                        phase: "warm",
                        latency_us,
                        cached,
                    });
                }
            });
        }
    });
    samples.extend(warm.into_inner().unwrap());
    client.shutdown().expect("shutdown bench server");
    server.join();

    let mean = |phase: &str| {
        let lats: Vec<u64> = samples
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.latency_us)
            .collect();
        (lats.iter().sum::<u64>() / lats.len() as u64).max(1)
    };
    let cold_us = mean("cold");
    let warm_us = mean("warm");
    let speedup = cold_us as f64 / warm_us as f64;
    eprintln!("cold {cold_us}us, warm {warm_us}us, speedup {speedup:.1}x");

    ServeBench {
        corpus: corpus.len(),
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        clients,
        samples,
        cold_us,
        warm_us,
        speedup,
        shed: run_shed(),
    }
}

/// The shed phase: a 1-worker, queue-of-2 server receives one long job
/// (holding the worker), two fillers (filling the queue), and then a
/// burst of distinct submissions that the server must shed with `503` —
/// without panicking or deadlocking, and draining everything it accepted.
fn run_shed() -> ShedResult {
    let before = clap_obs::snapshot();
    let finished = |snap: &clap_obs::Snapshot| {
        snap.counters
            .get("serve.jobs.completed")
            .copied()
            .unwrap_or(0)
            + snap.counters.get("serve.jobs.failed").copied().unwrap_or(0)
    };

    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    })
    .expect("start shed server");
    let client = Client::new(server.addr().to_string());

    let mut submitted = 0;
    let mut accepted = 0;
    let mut shed = 0;
    let mut submit = |request: &SubmitRequest| {
        submitted += 1;
        match client.submit(request) {
            Ok(_) => accepted += 1,
            Err(ClientError::Http { status: 503, .. }) => shed += 1,
            Err(e) => panic!("shed phase: unexpected submit error: {e}"),
        }
    };

    // One long job pins the worker; the budget bounds its duration.
    let mut stall = SubmitRequest::new(busywork_program(0));
    stall.seed_budget = Some(60_000);
    submit(&stall);
    // Two quick fillers occupy the queue…
    for tag in 1..=2 {
        let mut filler = SubmitRequest::new(busywork_program(tag));
        filler.seed_budget = Some(50);
        submit(&filler);
    }
    // …so the burst has nowhere to go.
    for tag in 3..=10 {
        let mut burst = SubmitRequest::new(busywork_program(tag));
        burst.seed_budget = Some(50);
        submit(&burst);
    }
    assert!(shed > 0, "undersized server shed nothing");

    client.shutdown().expect("shutdown shed server");
    server.join();
    let drained = finished(&clap_obs::snapshot()) - finished(&before);
    eprintln!("shed: submitted {submitted}, accepted {accepted}, shed {shed}, drained {drained}");
    assert_eq!(drained, accepted as u64, "accepted jobs were not drained");
    ShedResult {
        submitted,
        accepted,
        shed,
        drained,
    }
}

/// Records the run into the global [`clap_obs`] collector: a
/// `bench.serve` header, one `bench.serve.cell` per timed submission,
/// the `bench.serve.summary` cold/warm comparison, and the
/// `bench.serve.shed` backpressure tally. Flushing an observer with a
/// metrics path then yields the JSONL artifact.
pub fn emit_events(bench: &ServeBench) {
    clap_obs::event(
        "bench.serve",
        &[
            ("corpus", bench.corpus.to_string()),
            ("workers", bench.workers.to_string()),
            ("queue_cap", bench.queue_cap.to_string()),
            ("clients", bench.clients.to_string()),
        ],
    );
    for sample in &bench.samples {
        clap_obs::event(
            "bench.serve.cell",
            &[
                ("program", sample.program.clone()),
                ("phase", sample.phase.to_owned()),
                ("latency_us", sample.latency_us.to_string()),
                ("cached", sample.cached.to_string()),
            ],
        );
    }
    clap_obs::event(
        "bench.serve.summary",
        &[
            ("cold_us", bench.cold_us.to_string()),
            ("warm_us", bench.warm_us.to_string()),
            ("speedup", format!("{:.3}", bench.speedup)),
        ],
    );
    clap_obs::event(
        "bench.serve.shed",
        &[
            ("submitted", bench.shed.submitted.to_string()),
            ("accepted", bench.shed.accepted.to_string()),
            ("shed", bench.shed.shed.to_string()),
            ("drained", bench.shed.drained.to_string()),
        ],
    );
}

/// Loads the `(name, source)` corpus from a directory of `.clap` files,
/// sorted by name for a stable artifact.
pub fn load_corpus(dir: &std::path::Path) -> std::io::Result<Vec<(String, String)>> {
    let mut corpus = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "clap") {
            let name = path
                .file_stem()
                .expect("stem")
                .to_string_lossy()
                .into_owned();
            corpus.push((name, std::fs::read_to_string(&path)?));
        }
    }
    corpus.sort();
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeBench {
        ServeBench {
            corpus: 2,
            workers: WORKERS,
            queue_cap: QUEUE_CAP,
            clients: 4,
            samples: vec![
                Sample {
                    program: "lost_update".to_owned(),
                    phase: "cold",
                    latency_us: 120_000,
                    cached: false,
                },
                Sample {
                    program: "lost_update".to_owned(),
                    phase: "warm",
                    latency_us: 900,
                    cached: true,
                },
            ],
            cold_us: 120_000,
            warm_us: 900,
            speedup: 133.3,
            shed: ShedResult {
                submitted: 11,
                accepted: 3,
                shed: 8,
                drained: 3,
            },
        }
    }

    /// Every event the emitter produces passes the strict `bench.*`
    /// schema the JSONL sink enforces — the artifact always validates
    /// under `obsck`.
    #[test]
    fn emitted_events_satisfy_the_strict_schema() {
        let _guard = clap_obs::test_lock();
        clap_obs::reset();
        clap_obs::enable();
        emit_events(&sample());
        clap_obs::disable();

        let snap = clap_obs::snapshot();
        let mut out = Vec::new();
        clap_obs::sink::write_jsonl(&snap, &mut out).expect("render");
        let text = String::from_utf8(out).expect("utf8");
        let mut seen = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let kind = clap_obs::sink::validate_jsonl_line(line)
                .unwrap_or_else(|e| panic!("invalid artifact line `{line}`: {e}"));
            if kind == "event" {
                seen.push(line.to_owned());
            }
        }
        assert_eq!(seen.len(), 5, "header + 2 cells + summary + shed");
        assert!(seen[0].contains("\"name\":\"bench.serve\""));
        assert!(seen[3].contains("\"name\":\"bench.serve.summary\""));
        assert!(seen[4].contains("\"name\":\"bench.serve.shed\""));
    }

    /// The corpus loader returns sorted `(stem, source)` pairs and skips
    /// non-`.clap` files.
    #[test]
    fn corpus_loader_filters_and_sorts() {
        let dir = std::env::temp_dir().join(format!("clap_bench_corpus_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("b.clap"), "fn main() {}").expect("write");
        std::fs::write(dir.join("a.clap"), "fn main() {}").expect("write");
        std::fs::write(dir.join("notes.txt"), "not a program").expect("write");
        let corpus = load_corpus(&dir).expect("load");
        std::fs::remove_dir_all(&dir).ok();
        let names: Vec<&str> = corpus.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }
}
