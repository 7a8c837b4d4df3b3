//! The reproduction daemon: a sequential HTTP accept loop in front of a
//! bounded job queue drained by a worker pool running
//! [`clap_core::Pipeline::reproduce`].
//!
//! Concurrency layout: handlers only touch the in-memory state (enqueue,
//! table lookups), so a single accept thread suffices — all heavy work
//! happens on the workers. One mutex (`Core`) guards the job table, the
//! queue, the in-flight coalescing map and the cache; `clap_obs` has its
//! own internal lock and is never called while *it* holds ours in
//! reverse, so the order is deadlock-free.
//!
//! Backpressure: a submission that misses the cache and finds the queue
//! at `queue_cap` is rejected with `503` (`serve.queue.rejected`) — the
//! daemon sheds load instead of buffering unboundedly. Shutdown is a
//! *graceful drain*: `POST /shutdown` stops the accept loop, workers
//! finish every queued job, then sinks are flushed.

use crate::cache::ResultCache;
use crate::http;
use crate::proto::{JobInfo, JobState, SubmitRequest};
use clap_core::Pipeline;
use clap_obs::json::Value;
use clap_obs::Observer;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads running pipelines (0 is clamped to 1).
    pub workers: usize,
    /// Queue capacity; submissions beyond it are shed with `503`.
    pub queue_cap: usize,
    /// Journal directory for the persistent cache (`None` = in-memory).
    pub cache_dir: Option<PathBuf>,
    /// Base sinks: each job flushes its own window to per-job files
    /// (`Observer::for_job`), and the daemon writes the combined sinks
    /// once on shutdown.
    pub observer: Observer,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 64,
            cache_dir: None,
            observer: Observer::none(),
        }
    }
}

/// One job's server-side record.
#[derive(Debug)]
struct Job {
    state: JobState,
    cached: bool,
    error: Option<String>,
    report: Option<Arc<String>>,
}

/// One queued unit of work.
struct WorkItem {
    job: u64,
    key: String,
    request: SubmitRequest,
    /// Client-minted trace id, threaded into the job's observability
    /// window and per-job sink files.
    trace: Option<String>,
    /// When the item entered the queue — the worker turns this into the
    /// `serve.queue.wait_us` histogram.
    enqueued: Instant,
}

/// Everything behind the one state mutex.
struct Core {
    next_job: u64,
    jobs: HashMap<u64, Job>,
    queue: VecDeque<WorkItem>,
    /// fingerprint → job ids waiting on the in-flight solve of that
    /// fingerprint (the running job itself is not listed).
    inflight: HashMap<String, Vec<u64>>,
    cache: ResultCache,
    shutdown: bool,
    /// Queue length at the moment shutdown was requested — the number of
    /// jobs the drain phase completes.
    drain_target: usize,
}

struct Shared {
    core: Mutex<Core>,
    cv: Condvar,
    observer: Observer,
    queue_cap: usize,
}

/// A running daemon.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    thread: JoinHandle<()>,
}

impl Server {
    /// Binds, loads the cache journal, spawns the worker pool and the
    /// accept loop. Also enables the global `clap_obs` collector (without
    /// resetting it) so `/metrics` and the cache counters work.
    ///
    /// # Errors
    ///
    /// Returns bind and cache-directory errors.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        clap_obs::enable();
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::open(dir)?,
            None => ResultCache::in_memory(),
        };
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                next_job: 1,
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                cache,
                shutdown: false,
                drain_target: 0,
            }),
            cv: Condvar::new(),
            observer: config.observer.clone(),
            queue_cap: config.queue_cap.max(1),
        });
        let workers = config.workers.max(1);
        let thread = thread::spawn(move || serve_loop(&listener, &shared, workers));
        Ok(Server { addr, thread })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon has shut down and drained.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

fn serve_loop(listener: &TcpListener, shared: &Arc<Shared>, workers: usize) {
    let pool: Vec<_> = (0..workers)
        .map(|_| {
            let shared = Arc::clone(shared);
            thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    for stream in listener.incoming() {
        if let Ok(mut stream) = stream {
            handle_conn(shared, &mut stream);
        }
        if shared.core.lock().expect("serve core").shutdown {
            break;
        }
    }
    // Drain: wake every worker; each finishes the queue then exits.
    shared.cv.notify_all();
    for handle in pool {
        let _ = handle.join();
    }
    let drained = shared.core.lock().expect("serve core").drain_target;
    clap_obs::event("serve.shutdown", &[("drained", drained.to_string())]);
    if shared.observer.is_active() {
        if let Err(e) = shared.observer.flush() {
            eprintln!("clap-serve: final sink flush failed: {e}");
        }
    }
}

fn job_info(id: u64, job: &Job) -> JobInfo {
    JobInfo {
        job: id,
        state: job.state,
        cached: job.cached,
        error: job.error.clone(),
    }
}

fn new_job(core: &mut Core, job: Job) -> u64 {
    let id = core.next_job;
    core.next_job += 1;
    core.jobs.insert(id, job);
    id
}

enum SubmitOutcome {
    Accepted(JobInfo),
    BadProgram(String),
    QueueFull,
}

fn submit(shared: &Shared, request: SubmitRequest, trace: Option<String>) -> SubmitOutcome {
    // Canonicalize + hash outside the lock: it parses the program.
    let key = match request.fingerprint() {
        Ok(key) => key,
        Err(e) => return SubmitOutcome::BadProgram(e.to_string()),
    };
    let mut core = shared.core.lock().expect("serve core");
    if core.shutdown {
        return SubmitOutcome::QueueFull;
    }
    clap_obs::add("serve.jobs.submitted", 1);
    if let Some(report) = core.cache.get(&key) {
        // Cache hit: the job is born finished.
        let id = new_job(
            &mut core,
            Job {
                state: JobState::Done,
                cached: true,
                error: None,
                report: Some(report),
            },
        );
        let info = job_info(id, &core.jobs[&id]);
        return SubmitOutcome::Accepted(info);
    }
    if core.inflight.contains_key(&key) {
        // An identical submission is already being solved: coalesce.
        let id = core.next_job;
        core.next_job += 1;
        core.inflight
            .get_mut(&key)
            .expect("inflight entry")
            .push(id);
        core.jobs.insert(
            id,
            Job {
                state: JobState::Queued,
                cached: false,
                error: None,
                report: None,
            },
        );
        clap_obs::add("serve.cache.coalesced", 1);
        let info = job_info(id, &core.jobs[&id]);
        return SubmitOutcome::Accepted(info);
    }
    if core.queue.len() >= shared.queue_cap {
        clap_obs::add("serve.queue.rejected", 1);
        return SubmitOutcome::QueueFull;
    }
    core.cache.record_miss();
    let id = new_job(
        &mut core,
        Job {
            state: JobState::Queued,
            cached: false,
            error: None,
            report: None,
        },
    );
    core.inflight.insert(key.clone(), Vec::new());
    core.queue.push_back(WorkItem {
        job: id,
        key,
        request,
        trace,
        enqueued: Instant::now(),
    });
    clap_obs::gauge("serve.queue.depth", core.queue.len() as i64);
    let info = job_info(id, &core.jobs[&id]);
    drop(core);
    shared.cv.notify_one();
    SubmitOutcome::Accepted(info)
}

fn run_job(request: &SubmitRequest) -> Result<String, String> {
    let pipeline = Pipeline::from_source(&request.source).map_err(|e| e.to_string())?;
    let report = pipeline
        .reproduce(&request.pipeline_config())
        .map_err(|e| e.to_string())?;
    Ok(report.to_json())
}

fn finish(core: &mut Core, id: u64, cached: bool, report: Arc<String>, wall_us: u64) {
    if let Some(job) = core.jobs.get_mut(&id) {
        job.state = JobState::Done;
        job.cached = cached;
        job.report = Some(report);
    }
    clap_obs::add("serve.jobs.completed", 1);
    clap_obs::observe("serve.job.wall_us", wall_us);
    clap_obs::event(
        "serve.job.done",
        &[
            ("job", id.to_string()),
            ("cached", cached.to_string()),
            ("wall_us", wall_us.to_string()),
        ],
    );
}

fn fail(core: &mut Core, id: u64, error: &str) {
    if let Some(job) = core.jobs.get_mut(&id) {
        job.state = JobState::Failed;
        job.error = Some(error.to_owned());
    }
    clap_obs::add("serve.jobs.failed", 1);
    clap_obs::event(
        "serve.job.failed",
        &[("job", id.to_string()), ("error", error.to_owned())],
    );
}

fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut core = shared.core.lock().expect("serve core");
            loop {
                if let Some(item) = core.queue.pop_front() {
                    clap_obs::gauge("serve.queue.depth", core.queue.len() as i64);
                    break Some(item);
                }
                if core.shutdown {
                    break None;
                }
                core = shared.cv.wait(core).expect("serve core");
            }
        };
        let Some(item) = item else { return };
        if let Some(job) = shared
            .core
            .lock()
            .expect("serve core")
            .jobs
            .get_mut(&item.job)
        {
            job.state = JobState::Running;
        }
        // Mark the global stream so this job's sinks get only its window.
        let obs_mark = clap_obs::mark();
        let queue_wait_us = item.enqueued.elapsed().as_micros() as u64;
        clap_obs::observe("serve.queue.wait_us", queue_wait_us);
        // Inside the window (after the mark), so the per-job sink carries
        // the id that links this job back to the client's trace.
        clap_obs::event(
            "serve.job.trace",
            &[
                ("job", item.job.to_string()),
                (
                    "trace_id",
                    item.trace.clone().unwrap_or_else(|| "-".to_owned()),
                ),
                ("queue_wait_us", queue_wait_us.to_string()),
            ],
        );
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| run_job(&item.request)))
            .unwrap_or_else(|_| Err("pipeline panicked".to_owned()));
        let wall_us = start.elapsed().as_micros() as u64;
        if shared.observer.is_active() {
            let mut job_obs = shared.observer.for_job(item.job);
            if let Some(id) = &item.trace {
                job_obs = job_obs.with_trace_id(id.clone());
            }
            if let Err(e) = job_obs.flush_since(&obs_mark) {
                eprintln!("clap-serve: job {} sink flush failed: {e}", item.job);
            }
        }
        let mut core = shared.core.lock().expect("serve core");
        let waiters = core.inflight.remove(&item.key).unwrap_or_default();
        match result {
            Ok(report) => {
                let report = Arc::new(report);
                core.cache.insert(&item.key, Arc::clone(&report));
                finish(&mut core, item.job, false, Arc::clone(&report), wall_us);
                for waiter in waiters {
                    // Coalesced jobs ride the runner's solve: cached.
                    finish(&mut core, waiter, true, Arc::clone(&report), 0);
                }
            }
            Err(error) => {
                fail(&mut core, item.job, &error);
                for waiter in waiters {
                    fail(&mut core, waiter, &error);
                }
            }
        }
    }
}

/// The current snapshot with the derived cache-hit-ratio gauge mixed in
/// (hits as a percentage of hit+miss lookups, absent until the first
/// lookup).
fn metrics_snapshot() -> clap_obs::Snapshot {
    let mut snap = clap_obs::snapshot();
    let hit = snap.counters.get("serve.cache.hit").copied().unwrap_or(0);
    let miss = snap.counters.get("serve.cache.miss").copied().unwrap_or(0);
    if let Some(ratio) = (hit * 100).checked_div(hit + miss) {
        snap.gauges
            .insert("serve.cache.hit_ratio_pct".to_owned(), ratio as i64);
    }
    snap
}

fn metrics_prometheus() -> String {
    let mut buf = Vec::new();
    clap_obs::sink::write_prometheus(&metrics_snapshot(), &mut buf)
        .expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("prometheus exposition is utf-8")
}

fn metrics_json() -> String {
    let snap = metrics_snapshot();
    let counters = snap
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
        .collect();
    let hists = snap
        .hists
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                Value::Obj(vec![
                    ("count".to_owned(), Value::Num(h.count() as f64)),
                    ("p50".to_owned(), Value::Num(h.p50() as f64)),
                    ("p95".to_owned(), Value::Num(h.p95() as f64)),
                    ("p99".to_owned(), Value::Num(h.p99() as f64)),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("counters".to_owned(), Value::Obj(counters)),
        ("gauges".to_owned(), Value::Obj(gauges)),
        ("hists".to_owned(), Value::Obj(hists)),
    ])
    .render()
}

/// The per-endpoint latency histogram a request lands in. Static strings,
/// pre-registered in `clap_obs::sink::KNOWN_STRICT_METRICS`.
fn latency_metric(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/submit") => "serve.http.latency_us.submit",
        ("GET", "/metrics" | "/metrics.json") => "serve.http.latency_us.metrics",
        ("POST", "/shutdown") => "serve.http.latency_us.shutdown",
        ("GET", p) if p.starts_with("/status/") => "serve.http.latency_us.status",
        ("GET", p) if p.starts_with("/report/") => "serve.http.latency_us.report",
        _ => "serve.http.latency_us.other",
    }
}

fn error_body(message: &str) -> String {
    Value::Obj(vec![("error".to_owned(), Value::Str(message.to_owned()))]).render()
}

fn handle_conn(shared: &Shared, stream: &mut TcpStream) {
    clap_obs::add("serve.http.requests", 1);
    let start = Instant::now();
    let request = match stream
        .set_read_timeout(Some(http::IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(http::IO_TIMEOUT)))
        .and_then(|()| http::read_request(stream))
    {
        Ok(request) => request,
        Err(e) => {
            clap_obs::add("serve.http.errors", 1);
            let _ = http::write_response(
                stream,
                400,
                &error_body(&e.to_string()),
                http::CT_JSON,
                None,
            );
            clap_obs::observe(
                "serve.http.latency_us.other",
                start.elapsed().as_micros() as u64,
            );
            return;
        }
    };
    let (status, body, content_type) = route(shared, &request);
    if status >= 400 {
        clap_obs::add("serve.http.errors", 1);
    }
    let _ = http::write_response(
        stream,
        status,
        &body,
        content_type,
        request.trace.as_deref(),
    );
    clap_obs::observe(
        latency_metric(&request.method, &request.path),
        start.elapsed().as_micros() as u64,
    );
}

fn route(shared: &Shared, request: &http::Request) -> (u16, String, &'static str) {
    if request.method == "GET" && request.path == "/metrics" {
        // The scrape endpoint: Prometheus text, not JSON.
        return (200, metrics_prometheus(), http::CT_TEXT);
    }
    let (status, body) = route_json(shared, request);
    (status, body, http::CT_JSON)
}

fn route_json(shared: &Shared, request: &http::Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/submit") => {
            let body = match std::str::from_utf8(&request.body) {
                Ok(body) => body,
                Err(_) => return (400, error_body("non-utf8 body")),
            };
            let submit_request = match SubmitRequest::from_json(body) {
                Ok(r) => r,
                Err(e) => return (400, error_body(&e)),
            };
            match submit(shared, submit_request, request.trace.clone()) {
                SubmitOutcome::Accepted(info) => (200, info.to_json()),
                SubmitOutcome::BadProgram(e) => (400, error_body(&e)),
                SubmitOutcome::QueueFull => (503, error_body("queue full")),
            }
        }
        ("GET", "/metrics.json") => (200, metrics_json()),
        ("POST", "/shutdown") => {
            let mut core = shared.core.lock().expect("serve core");
            if !core.shutdown {
                core.shutdown = true;
                core.drain_target = core.queue.len();
            }
            let queued = core.queue.len();
            drop(core);
            shared.cv.notify_all();
            (
                200,
                Value::Obj(vec![
                    ("draining".to_owned(), Value::Bool(true)),
                    ("queued".to_owned(), Value::Num(queued as f64)),
                ])
                .render(),
            )
        }
        ("GET", path) if path.starts_with("/status/") => {
            match path["/status/".len()..].parse::<u64>() {
                Ok(id) => {
                    let core = shared.core.lock().expect("serve core");
                    match core.jobs.get(&id) {
                        Some(job) => (200, job_info(id, job).to_json()),
                        None => (404, error_body("no such job")),
                    }
                }
                Err(_) => (400, error_body("bad job id")),
            }
        }
        ("GET", path) if path.starts_with("/report/") => {
            match path["/report/".len()..].parse::<u64>() {
                Ok(id) => {
                    let core = shared.core.lock().expect("serve core");
                    match core.jobs.get(&id) {
                        Some(job) => match (&job.state, &job.report) {
                            (JobState::Done, Some(report)) => (200, report.as_ref().clone()),
                            (JobState::Failed, _) => (
                                409,
                                error_body(job.error.as_deref().unwrap_or("job failed")),
                            ),
                            _ => (409, error_body("job not finished")),
                        },
                        None => (404, error_body("no such job")),
                    }
                }
                Err(_) => (400, error_body("bad job id")),
            }
        }
        ("GET" | "POST", _) => (404, error_body("no such endpoint")),
        _ => (405, error_body("method not allowed")),
    }
}
