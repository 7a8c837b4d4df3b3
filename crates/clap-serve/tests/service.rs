//! End-to-end tests of the reproduction service: wire protocol, cache
//! hit/miss accounting, in-flight coalescing, journal persistence across
//! restarts, corrupt-journal tolerance, per-job sinks, and backpressure.
//!
//! Every test uses the process-global `clap_obs` collector, so each one
//! holds `clap_obs::test_lock()` for its whole body and resets the
//! collector itself.

use clap_core::ReproductionReport;
use clap_serve::{Client, ClientError, JobState, ResultCache, ServeConfig, Server, SubmitRequest};
use std::path::PathBuf;
use std::time::Duration;

/// A two-thread lost update: fails under some interleaving, found within
/// a handful of exploration seeds — the fast end-to-end workload.
const LOST_UPDATE: &str = "global int x = 0;
     fn w() { let v: int = x; yield; x = v + 1; }
     fn main() { let a: thread = fork w(); let b: thread = fork w();
                 join a; join b; assert(x == 2, \"lost\"); }";

/// A program whose assert never fails: exploration runs its whole seed
/// budget and then the job fails with `NoFailureFound` — the knob that
/// makes a *slow* job with a precisely controllable duration.
fn no_failure_program(tag: u32) -> String {
    format!(
        "global int x = 0;
         fn main() {{ assert(x == 0, \"stall{tag}\"); }}"
    )
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clap_serve_test_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(config: ServeConfig) -> (Server, Client) {
    let server = Server::start(config).expect("server start");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

fn counter(name: &str) -> u64 {
    clap_obs::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

fn solve_spans() -> usize {
    clap_obs::snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "solve")
        .count()
}

#[test]
fn submit_wait_fetch_round_trip() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let (server, client) = start(ServeConfig::default());

    let job = client.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap();
    assert!(!job.cached);
    let done = client.wait(job.job, Duration::from_secs(120)).unwrap();
    assert_eq!(done.state, JobState::Done);
    assert!(!done.cached);

    let report = ReproductionReport::from_json(&client.fetch(done.job).unwrap()).unwrap();
    assert!(report.reproduced);
    assert_eq!(report.threads, 3);

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn second_identical_submission_is_a_cache_hit_without_a_solve() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let (server, client) = start(ServeConfig::default());

    let first = client.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap();
    let first = client.wait(first.job, Duration::from_secs(120)).unwrap();
    let first_report = client.fetch(first.job).unwrap();

    let hits_before = counter("serve.cache.hit");
    let spans_before = solve_spans();

    // Same program, different formatting: the canonical fingerprint
    // must collapse them onto one cache entry.
    let reformatted = LOST_UPDATE.replace("; ", ";\n  ");
    let second = client.submit(&SubmitRequest::new(reformatted)).unwrap();
    assert!(second.cached, "second submission should hit the cache");
    assert_eq!(second.state, JobState::Done);
    let second_report = client.fetch(second.job).unwrap();

    assert_eq!(
        second_report, first_report,
        "cached report must be byte-identical"
    );
    assert_eq!(counter("serve.cache.hit"), hits_before + 1);
    assert_eq!(
        solve_spans(),
        spans_before,
        "a cache hit must not solve again"
    );

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn concurrent_identical_submissions_coalesce_to_one_solve() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let (server, client) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    const CLIENTS: usize = 8;
    let jobs: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = client.clone();
                scope.spawn(move || client.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap().job)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut reports = Vec::new();
    for job in jobs {
        let done = client.wait(job, Duration::from_secs(120)).unwrap();
        assert_eq!(done.state, JobState::Done);
        reports.push(client.fetch(job).unwrap());
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]));

    // However the submissions interleaved, exactly one pipeline ran: one
    // miss, one solve span; everyone else was a hit or a coalesced waiter.
    assert_eq!(counter("serve.cache.miss"), 1);
    assert_eq!(
        solve_spans(),
        1,
        "coalescing must collapse to a single solve"
    );
    assert_eq!(
        counter("serve.cache.hit") + counter("serve.cache.coalesced"),
        (CLIENTS - 1) as u64
    );

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn journal_makes_the_cache_survive_a_restart() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let dir = fresh_dir("journal");

    let (server, client) = start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let job = client.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap();
    let done = client.wait(job.job, Duration::from_secs(120)).unwrap();
    let first_report = client.fetch(done.job).unwrap();
    client.shutdown().unwrap();
    server.join();

    // "Kill" the daemon and bring up a fresh one over the same cache dir.
    let spans_before_restart = solve_spans();
    let (server, client) = start(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    assert!(counter("serve.cache.journal.loaded") >= 1);

    let job = client.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap();
    assert!(job.cached, "restarted daemon should come back warm");
    let second_report = client.fetch(job.job).unwrap();
    assert_eq!(second_report, first_report);
    assert_eq!(
        solve_spans(),
        spans_before_restart,
        "no re-solve after restart"
    );

    client.shutdown().unwrap();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_lines_are_skipped_not_fatal() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    clap_obs::enable();
    let dir = fresh_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();

    // One genuine entry, produced by a real pipeline run...
    let report = clap_core::Pipeline::from_source(LOST_UPDATE)
        .unwrap()
        .reproduce(&clap_core::PipelineConfig::new(clap_vm::MemModel::Sc))
        .unwrap()
        .to_json();
    let journal = format!(
        "{{\"key\":\"00000000deadbeef\",\"report\":{report}}}\n\
         this line is not json\n\
         {{\"key\":\"0000000000000001\"}}\n\
         {{\"key\":\"0000000000000002\",\"report\":{{\"version\":1}}}}\n"
    );
    std::fs::write(dir.join("journal.jsonl"), journal).unwrap();

    // ...surrounded by three kinds of corruption: the open must succeed,
    // keep the good entry, and account the skips.
    let cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len(), 1);
    assert!(cache.peek("00000000deadbeef").is_some());
    assert_eq!(counter("serve.cache.journal.loaded"), 1);
    assert_eq!(counter("serve.cache.journal.skipped"), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_load_with_backpressure() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let (server, client) = start(ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    });

    // Occupy the single worker with a job that sweeps a large seed
    // budget (no failure to find), then fill the two queue slots.
    let mut stall = SubmitRequest::new(no_failure_program(0));
    stall.seed_budget = Some(100_000);
    let stall_job = client.submit(&stall).unwrap().job;
    // The worker frees the stall job's queue slot when it takes the job;
    // only then do both slots take a filler.
    while client.status(stall_job).unwrap().state == JobState::Queued {
        std::thread::yield_now();
    }
    for tag in 1..=2 {
        let mut filler = SubmitRequest::new(no_failure_program(tag));
        filler.seed_budget = Some(50);
        client.submit(&filler).unwrap();
    }

    // The queue is full: further distinct submissions must be shed.
    let mut shed = 0;
    for tag in 3..=6 {
        let mut burst = SubmitRequest::new(no_failure_program(tag));
        burst.seed_budget = Some(50);
        match client.submit(&burst) {
            Err(ClientError::Http { status: 503, .. }) => shed += 1,
            Ok(_) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(shed >= 1, "expected at least one 503 rejection");
    assert!(counter("serve.queue.rejected") >= 1);

    // A full queue must not break the cache path: identical re-submission
    // of an in-flight program still coalesces instead of 503.
    let coalesced = client.submit(&stall).unwrap();
    assert_eq!(coalesced.state, JobState::Queued);
    assert!(counter("serve.cache.coalesced") >= 1);

    // Graceful drain completes every accepted job; nothing deadlocks.
    client.shutdown().unwrap();
    server.join();
    let depth = clap_obs::snapshot()
        .gauges
        .get("serve.queue.depth")
        .copied()
        .unwrap_or(0);
    assert_eq!(depth, 0, "drain must empty the queue");
}

#[test]
fn per_job_sinks_write_disjoint_files() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let dir = fresh_dir("sinks");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("serve.jsonl");

    let (server, client) = start(ServeConfig {
        observer: clap_obs::Observer::none().with_metrics(&metrics),
        ..ServeConfig::default()
    });
    let a = client.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap();
    client.wait(a.job, Duration::from_secs(120)).unwrap();
    let mut other = SubmitRequest::new(LOST_UPDATE);
    other.model = clap_vm::MemModel::Tso;
    let b = client.submit(&other).unwrap();
    client.wait(b.job, Duration::from_secs(120)).unwrap();
    client.shutdown().unwrap();
    server.join();

    // Each pipeline job flushed its own window to its own file, and the
    // daemon wrote the combined stream on shutdown.
    assert!(dir.join(format!("serve.job{}.jsonl", a.job)).is_file());
    assert!(dir.join(format!("serve.job{}.jsonl", b.job)).is_file());
    assert!(metrics.is_file());
    let combined = std::fs::read_to_string(&metrics).unwrap();
    assert!(combined.contains("serve.cache.miss"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let (server, client) = start(ServeConfig::default());

    // Unparseable program → 400 at submit time (fingerprinting parses).
    match client.submit(&SubmitRequest::new("not a program")) {
        Err(ClientError::Http { status: 400, .. }) => {}
        other => panic!("expected 400, got {other:?}"),
    }
    // Unknown job → 404.
    match client.status(999) {
        Err(ClientError::Http { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }
    // Report of an unfinished job → 409.
    let mut slow = SubmitRequest::new(no_failure_program(9));
    slow.seed_budget = Some(20_000);
    let job = client.submit(&slow).unwrap();
    match client.fetch(job.job) {
        Err(ClientError::Http { status: 409, .. }) => {}
        other => panic!("expected 409, got {other:?}"),
    }
    // A semantically-failing job ends Failed with a message.
    let failed = client.wait(job.job, Duration::from_secs(120)).unwrap();
    assert_eq!(failed.state, JobState::Failed);
    assert!(failed.error.is_some());

    // /metrics scrapes as Prometheus text, /metrics.json as JSON.
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("# TYPE clap_serve_http_requests counter"));
    let metrics_json = client.metrics_json().unwrap();
    assert!(clap_obs::json::parse(&metrics_json).is_ok());

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn metrics_expose_latency_quantiles_under_concurrent_load() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let (server, client) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });

    // Concurrent load: several clients submitting (one solve, the rest
    // cache hits or coalesced) plus status polls, all racing.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let client = client.clone();
            scope.spawn(move || {
                for _ in 0..3 {
                    let job = client.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap();
                    client.wait(job.job, Duration::from_secs(120)).unwrap();
                    let _ = client.status(job.job);
                }
            });
        }
    });

    let text = client.metrics().unwrap();
    // The request-latency histogram for /submit, with cumulative buckets
    // and p50/p95/p99 quantile gauges derived from the log buckets.
    assert!(
        text.contains("# TYPE clap_serve_http_latency_us_submit histogram"),
        "missing submit latency histogram:\n{text}"
    );
    assert!(text.contains("clap_serve_http_latency_us_submit_bucket{le=\"+Inf\"} 12"));
    for q in ["p50", "p95", "p99"] {
        let needle = format!("clap_serve_http_latency_us_submit_{q} ");
        assert!(text.contains(&needle), "missing {q}:\n{text}");
    }
    // Queue depth, cache hit ratio, and shed count are all scrapeable.
    assert!(text.contains("# TYPE clap_serve_queue_depth gauge"));
    assert!(text.contains("# TYPE clap_serve_cache_hit_ratio_pct gauge"));
    assert!(text.contains("clap_serve_jobs_submitted 12"));
    // Queue wait is measured per worked job.
    assert!(text.contains("# TYPE clap_serve_queue_wait_us histogram"));

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn client_minted_trace_id_reaches_the_per_job_sink() {
    let _guard = clap_obs::test_lock();
    clap_obs::reset();
    let dir = fresh_dir("trace");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("serve.jsonl");

    let (server, client) = start(ServeConfig {
        observer: clap_obs::Observer::none().with_metrics(&metrics),
        ..ServeConfig::default()
    });
    let trace_id = clap_serve::mint_trace_id();
    let traced = client.clone().with_trace_id(trace_id.clone());
    assert_eq!(traced.trace_id(), Some(trace_id.as_str()));
    let job = traced.submit(&SubmitRequest::new(LOST_UPDATE)).unwrap();
    traced.wait(job.job, Duration::from_secs(120)).unwrap();
    client.shutdown().unwrap();
    server.join();

    // The per-job sink opens with the client's trace id and carries the
    // serve.job.trace event binding job ↔ trace ↔ queue wait; every line
    // still validates against the strict schema.
    let path = dir.join(format!("serve.job{}.jsonl", job.job));
    let sink = std::fs::read_to_string(&path).unwrap();
    for line in sink.lines() {
        clap_obs::sink::validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    assert!(
        sink.contains(&format!(
            "{{\"type\":\"trace\",\"trace_id\":\"{trace_id}\"}}"
        )),
        "per-job sink missing the trace record:\n{sink}"
    );
    let trace_event = sink
        .lines()
        .find(|l| l.contains("serve.job.trace"))
        .expect("serve.job.trace event in the job window");
    assert!(trace_event.contains(&trace_id));
    assert!(trace_event.contains("queue_wait_us"));

    // An untraced submission gets no trace record, but still events.
    let combined = std::fs::read_to_string(&metrics).unwrap();
    assert!(combined.contains("serve.job.trace"));
    let _ = std::fs::remove_dir_all(&dir);
}
