//! Structured observability for the CLAP pipeline.
//!
//! A process-global collector gathers **hierarchical spans** (wall-time
//! accounting, per thread, nested by scope) and **metrics** — monotonic
//! counters, last-value gauges, log-bucketed quantile [`Histogram`]s, and
//! one-off structured events. Everything is a no-op while the collector is
//! disabled: the fast path of every probe is a single relaxed atomic load,
//! so always-on instrumentation costs nothing in production runs.
//!
//! Three sinks render a [`Snapshot`] of the collected data:
//!
//! * [`sink::write_summary`] — human-readable span tree + metric tables;
//! * [`sink::write_jsonl`] — one JSON object per line, machine-readable
//!   (schema checked by [`sink::validate_jsonl_line`]);
//! * [`sink::write_chrome_trace`] — Chrome `trace_event` JSON, loadable in
//!   `about:tracing` / [Perfetto](https://ui.perfetto.dev) for
//!   flamegraph-style viewing;
//! * [`sink::write_prometheus`] — Prometheus-compatible text exposition
//!   (served by `clap-serve GET /metrics`).
//!
//! The [`Observer`] bundles sink destinations so a pipeline entry point can
//! `install()` the collector, run, and `flush()` the files in one gesture.
//!
//! # Example
//!
//! ```
//! clap_obs::reset();
//! clap_obs::enable();
//! {
//!     let _phase = clap_obs::span("solve");
//!     clap_obs::add("solver.decisions", 17);
//!     clap_obs::observe("solver.batch", 64);
//! }
//! let snap = clap_obs::snapshot();
//! assert_eq!(snap.counters["solver.decisions"], 17);
//! assert_eq!(snap.spans.len(), 1);
//! clap_obs::disable();
//! ```

pub mod json;
pub mod sink;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One finished span: a named scope on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Scope name (dotted lowercase, e.g. `client.submit`).
    pub name: Cow<'static, str>,
    /// Collector-assigned thread id (0 is the first thread seen).
    pub tid: u64,
    /// Start, in nanoseconds since the collector was reset.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on its thread (0 = root).
    pub depth: u32,
}

/// One structured annotation: a named instant with string fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Event name.
    pub name: String,
    /// Collector-assigned thread id.
    pub tid: u64,
    /// Timestamp in nanoseconds since the collector was reset.
    pub ts_ns: u64,
    /// Ordered key/value payload.
    pub fields: Vec<(String, String)>,
}

/// Sub-bucket resolution of [`Histogram`]: each power-of-two octave is
/// split into `2^SUB_BUCKET_BITS` equal-width sub-buckets, bounding the
/// relative error of any reported quantile to `2^-SUB_BUCKET_BITS`
/// (6.25%).
pub const SUB_BUCKET_BITS: u32 = 4;

const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// Log-bucketed histogram (HdrHistogram-style, zero-dependency).
///
/// Values below `2^SUB_BUCKET_BITS` land in exact unit buckets; above,
/// each power-of-two octave is split into [`SUB_BUCKETS`](SUB_BUCKET_BITS)
/// equal-width sub-buckets, so every quantile is reported as a bucket
/// upper bound within 6.25% of the true sample. Buckets are stored
/// sparsely as sorted `(upper_inclusive, count)` pairs: snapshots carry
/// their bounds, serialize losslessly, and [`merge`](Histogram::merge)
/// exactly across workers or service windows (merge is associative and
/// commutative — the bucket grid is fixed, so merging never re-buckets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<(u64, u64)>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Inclusive upper bound of the log bucket containing `v`.
    pub fn bucket_upper(v: u64) -> u64 {
        if v < SUB_BUCKETS {
            return v; // exact linear region
        }
        let exp = 63 - v.leading_zeros(); // position of the leading bit
        let scale = exp - SUB_BUCKET_BITS; // sub-bucket width = 2^scale
        v | ((1u64 << scale) - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let upper = Self::bucket_upper(v);
        match self.buckets.binary_search_by_key(&upper, |&(u, _)| u) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (upper, 1)),
        }
    }

    /// Folds another histogram into this one. Because both sides share
    /// the fixed bucket grid, the merge is exact: the result is
    /// indistinguishable from having recorded every sample into one
    /// histogram (up to the saturating `sum`).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ua, ca)), Some(&&(ub, cb))) => match ua.cmp(&ub) {
                    std::cmp::Ordering::Less => {
                        merged.push((ua, ca));
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((ub, cb));
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((ua, ca + cb));
                        a.next();
                        b.next();
                    }
                },
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The occupied buckets as sorted `(upper_inclusive, count)` pairs.
    pub fn buckets(&self) -> &[(u64, u64)] {
        &self.buckets
    }

    /// The bucket upper bound at which the cumulative count reaches
    /// fraction `q` (clamped to `[0, 1]`) of the total, capped at the
    /// exact observed maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(upper, c) in &self.buckets {
            cum += c;
            if cum >= target {
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Approximate 50th percentile (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Approximate 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// Approximate 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Approximate 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

struct State {
    start: Instant,
    epoch: u64,
    next_tid: u64,
    spans: Vec<SpanRecord>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
    events: Vec<EventRecord>,
}

impl State {
    fn new() -> Self {
        State {
            start: Instant::now(),
            epoch: 0,
            next_tid: 0,
            spans: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            events: Vec::new(),
        }
    }
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::new()))
}

thread_local! {
    static TLS: RefCell<Tls> = const { RefCell::new(Tls { tid: None, depth: 0 }) };
}

struct Tls {
    /// Cached `(collector epoch, thread id)` — a reset bumps the epoch,
    /// invalidating every thread's cache so ids never collide.
    tid: Option<(u64, u64)>,
    depth: u32,
}

fn thread_id(st: &mut State) -> u64 {
    TLS.with(|tls| {
        let mut tls = tls.borrow_mut();
        match tls.tid {
            Some((epoch, t)) if epoch == st.epoch => t,
            _ => {
                let t = st.next_tid;
                st.next_tid += 1;
                tls.tid = Some((st.epoch, t));
                t
            }
        }
    })
}

/// Turns the collector on. Probes start recording immediately.
pub fn enable() {
    ENABLED.store(true, Ordering::Release);
}

/// Turns the collector off. Probes become single-atomic-load no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether the collector is currently recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all collected data and restarts the clock. Thread-id
/// assignments restart too: the reset bumps the collector epoch, which
/// invalidates every thread's cached id on its next probe.
pub fn reset() {
    let mut st = state().lock().expect("obs state");
    let epoch = st.epoch + 1;
    *st = State::new();
    st.epoch = epoch;
}

/// An RAII guard for one span; records the span when dropped.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    info: Option<(Cow<'static, str>, Instant)>,
}

/// Opens a span named `name` on the current thread. When the collector is
/// disabled this is a no-op returning an inert guard.
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { info: None };
    }
    TLS.with(|tls| tls.borrow_mut().depth += 1);
    SpanGuard {
        info: Some((name.into(), Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((name, started)) = self.info.take() else {
            return;
        };
        let depth = TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            tls.depth = tls.depth.saturating_sub(1);
            tls.depth
        });
        if !is_enabled() {
            return; // disabled mid-span: drop the record
        }
        let dur_ns = started.elapsed().as_nanos() as u64;
        let mut st = state().lock().expect("obs state");
        let start_ns = started.saturating_duration_since(st.start).as_nanos() as u64;
        let tid = thread_id(&mut st);
        st.spans.push(SpanRecord {
            name,
            tid,
            start_ns,
            dur_ns,
            depth,
        });
    }
}

/// Adds `delta` to the counter `name`.
pub fn add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let mut st = state().lock().expect("obs state");
    match st.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            st.counters.insert(name.to_owned(), delta);
        }
    }
}

/// Sets the gauge `name` to `value` (last write wins).
pub fn gauge(name: &str, value: i64) {
    if !is_enabled() {
        return;
    }
    let mut st = state().lock().expect("obs state");
    match st.gauges.get_mut(name) {
        Some(v) => *v = value,
        None => {
            st.gauges.insert(name.to_owned(), value);
        }
    }
}

/// Records one sample into the histogram `name`.
pub fn observe(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut st = state().lock().expect("obs state");
    match st.hists.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            st.hists.insert(name.to_owned(), h);
        }
    }
}

/// Records a structured instant event with string fields.
pub fn event(name: &str, fields: &[(&str, String)]) {
    if !is_enabled() {
        return;
    }
    let mut st = state().lock().expect("obs state");
    let ts_ns = st.start.elapsed().as_nanos() as u64;
    let tid = thread_id(&mut st);
    st.events.push(EventRecord {
        name: name.to_owned(),
        tid,
        ts_ns,
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    });
}

/// An immutable copy of everything collected so far.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Nanoseconds since the collector was reset.
    pub elapsed_ns: u64,
    /// Finished spans, sorted by `(tid, start_ns, depth)`.
    pub spans: Vec<SpanRecord>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Full mergeable histograms by name (bucket bounds included).
    pub hists: BTreeMap<String, Histogram>,
    /// Instant events in recording order.
    pub events: Vec<EventRecord>,
    /// Trace id this snapshot belongs to, when it covers one traced
    /// request's window (set by [`Observer::with_trace_id`]).
    pub trace_id: Option<String>,
}

/// A position in the collector's stream, taken with [`mark`]: the point
/// from which [`snapshot_since`] reports deltas. Used by services running
/// several observed pipelines in one process to attribute a window of the
/// shared stream to one job.
#[derive(Debug, Clone)]
pub struct Mark {
    epoch: u64,
    spans: usize,
    events: usize,
    counters: BTreeMap<String, u64>,
}

/// Records the current stream position for a later [`snapshot_since`].
pub fn mark() -> Mark {
    let st = state().lock().expect("obs state");
    Mark {
        epoch: st.epoch,
        spans: st.spans.len(),
        events: st.events.len(),
        counters: st.counters.clone(),
    }
}

/// A snapshot of what was collected **after** `mark`: spans and events
/// recorded since, and counters as deltas (zero-delta counters are
/// omitted). Gauges and histograms are reported cumulatively — a gauge is
/// last-write-wins and bucket counts cannot be subtracted faithfully. If
/// the collector was [`reset`] after the mark was taken, the full current
/// snapshot is returned (the old positions are meaningless).
///
/// Note that in a concurrent process the window contains *everything*
/// recorded during it, including spans of other threads' work; records
/// stay attributable through their `tid`.
pub fn snapshot_since(mark: &Mark) -> Snapshot {
    let st = state().lock().expect("obs state");
    if st.epoch != mark.epoch {
        drop(st);
        return snapshot();
    }
    let mut spans: Vec<SpanRecord> = st.spans[mark.spans.min(st.spans.len())..].to_vec();
    spans.sort_by(|a, b| {
        (a.tid, a.start_ns, a.depth, &a.name).cmp(&(b.tid, b.start_ns, b.depth, &b.name))
    });
    let counters = st
        .counters
        .iter()
        .filter_map(|(k, v)| {
            let delta = v - mark.counters.get(k).copied().unwrap_or(0);
            (delta > 0).then(|| (k.clone(), delta))
        })
        .collect();
    Snapshot {
        elapsed_ns: st.start.elapsed().as_nanos() as u64,
        spans,
        counters,
        gauges: st.gauges.clone(),
        hists: st.hists.clone(),
        events: st.events[mark.events.min(st.events.len())..].to_vec(),
        trace_id: None,
    }
}

/// Takes a snapshot of the collector (works whether enabled or not).
pub fn snapshot() -> Snapshot {
    let st = state().lock().expect("obs state");
    let mut spans = st.spans.clone();
    spans.sort_by(|a, b| {
        (a.tid, a.start_ns, a.depth, &a.name).cmp(&(b.tid, b.start_ns, b.depth, &b.name))
    });
    Snapshot {
        elapsed_ns: st.start.elapsed().as_nanos() as u64,
        spans,
        counters: st.counters.clone(),
        gauges: st.gauges.clone(),
        hists: st.hists.clone(),
        events: st.events.clone(),
        trace_id: None,
    }
}

/// Sink destinations for one observed run, carried by
/// `clap_core::PipelineConfig::with_observer` and the CLI's
/// `--trace`/`--metrics`/`-v` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observer {
    /// Write a Chrome `trace_event` JSON file here.
    pub trace_path: Option<PathBuf>,
    /// Write the JSONL metric/span stream here.
    pub metrics_path: Option<PathBuf>,
    /// Print the human-readable summary to stderr.
    pub summary: bool,
    /// Trace id stamped into every snapshot this observer flushes, so
    /// sink files can be joined back to the request that produced them.
    pub trace_id: Option<String>,
}

impl Observer {
    /// An observer with no sinks (collector stays untouched).
    pub fn none() -> Self {
        Observer::default()
    }

    /// Adds a Chrome trace output file.
    #[must_use]
    pub fn with_trace(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Adds a JSONL metrics output file.
    #[must_use]
    pub fn with_metrics(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_path = Some(path.into());
        self
    }

    /// Enables the stderr summary.
    #[must_use]
    pub fn with_summary(mut self) -> Self {
        self.summary = true;
        self
    }

    /// Stamps a trace id into every snapshot this observer flushes: the
    /// JSONL sink gains a `trace` record and the Chrome trace gains
    /// process metadata, so one id links client, wire, and job files.
    #[must_use]
    pub fn with_trace_id(mut self, id: impl Into<String>) -> Self {
        self.trace_id = Some(id.into());
        self
    }

    /// `true` when any sink is configured.
    pub fn is_active(&self) -> bool {
        self.trace_path.is_some() || self.metrics_path.is_some() || self.summary
    }

    /// Derives a per-job observer: every file sink path gains a
    /// `.job<id>` component before its extension (`out.jsonl` →
    /// `out.job3.jsonl`), so concurrent pipelines in one process write
    /// disjoint files instead of clobbering a shared path.
    #[must_use]
    pub fn for_job(&self, job_id: u64) -> Self {
        let suffix = |path: &PathBuf| -> PathBuf {
            let mut p = path.clone();
            let stem = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let name = match p.extension() {
                Some(ext) => format!("{stem}.job{job_id}.{}", ext.to_string_lossy()),
                None => format!("{stem}.job{job_id}"),
            };
            p.set_file_name(name);
            p
        };
        Observer {
            trace_path: self.trace_path.as_ref().map(&suffix),
            metrics_path: self.metrics_path.as_ref().map(&suffix),
            summary: self.summary,
            trace_id: self.trace_id.clone(),
        }
    }

    /// Resets and enables the global collector — a no-op when no sink is
    /// configured, so default configs never pay for instrumentation.
    pub fn install(&self) {
        if self.is_active() {
            reset();
            enable();
        }
    }

    /// Writes every configured sink from a fresh snapshot.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the sink files.
    pub fn flush(&self) -> io::Result<()> {
        if !self.is_active() {
            return Ok(());
        }
        let mut snap = snapshot();
        snap.trace_id.clone_from(&self.trace_id);
        self.write_sinks(&snap)
    }

    /// Writes every configured sink from a [`snapshot_since`] delta — the
    /// per-job flush used by services: each job marks the stream when it
    /// starts and flushes only its own window on completion, without
    /// resetting the process-global collector other jobs are feeding.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the sink files.
    pub fn flush_since(&self, mark: &Mark) -> io::Result<()> {
        if !self.is_active() {
            return Ok(());
        }
        let mut snap = snapshot_since(mark);
        snap.trace_id.clone_from(&self.trace_id);
        self.write_sinks(&snap)
    }

    fn write_sinks(&self, snap: &Snapshot) -> io::Result<()> {
        if let Some(path) = &self.metrics_path {
            let mut buf = Vec::new();
            sink::write_jsonl(snap, &mut buf)?;
            std::fs::write(path, buf)?;
        }
        if let Some(path) = &self.trace_path {
            let mut buf = Vec::new();
            sink::write_chrome_trace(snap, &mut buf)?;
            std::fs::write(path, buf)?;
        }
        if self.summary {
            let mut err = io::stderr().lock();
            sink::write_summary(snap, &mut err)?;
        }
        Ok(())
    }
}

/// Serializes tests that use the process-global collector. Rust runs the
/// tests of one binary concurrently, so any test that calls
/// [`reset`]/[`enable`]/[`snapshot`] must hold this guard for its whole
/// body. Not part of the stable API.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        let _l = test_lock();
        reset();
        disable();
        add("c", 5);
        gauge("g", 1);
        observe("h", 2);
        event("e", &[("k", "v".to_owned())]);
        let _s = span("s");
        drop(_s);
        let snap = snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.hists.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn spans_nest_and_carry_depth() {
        let _l = test_lock();
        reset();
        enable();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        disable();
        let snap = snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.tid, inner.tid);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _l = test_lock();
        reset();
        enable();
        add("x", 2);
        add("x", 3);
        gauge("y", 10);
        gauge("y", -4);
        disable();
        let snap = snapshot();
        assert_eq!(snap.counters["x"], 5);
        assert_eq!(snap.gauges["y"], -4);
    }

    #[test]
    fn histogram_summaries_are_sane() {
        let _l = test_lock();
        reset();
        enable();
        for v in [1u64, 2, 3, 4, 100] {
            observe("h", v);
        }
        disable();
        let snap = snapshot();
        let h = &snap.hists["h"];
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!(h.p50() >= 2 && h.p50() <= 7, "p50 = {}", h.p50());
        assert_eq!(h.p99(), 100);
    }

    #[test]
    fn threads_get_distinct_ids() {
        let _l = test_lock();
        reset();
        enable();
        let _main = span("main-span");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _w = span("worker");
                });
            }
        });
        drop(_main);
        disable();
        let snap = snapshot();
        let mut tids: Vec<u64> = snap.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "three distinct threads: {:?}", snap.spans);
    }

    #[test]
    fn snapshot_since_reports_only_the_window() {
        let _l = test_lock();
        reset();
        enable();
        add("before", 7);
        add("both", 2);
        {
            let _s = span("early");
        }
        let m = mark();
        add("both", 3);
        add("after", 1);
        {
            let _s = span("late");
        }
        event("window.event", &[]);
        disable();
        let delta = snapshot_since(&m);
        assert_eq!(delta.counters.get("both"), Some(&3));
        assert_eq!(delta.counters.get("after"), Some(&1));
        assert!(!delta.counters.contains_key("before"), "zero-delta omitted");
        assert_eq!(delta.spans.len(), 1);
        assert_eq!(delta.spans[0].name, "late");
        assert_eq!(delta.events.len(), 1);
        assert_eq!(delta.events[0].name, "window.event");
    }

    #[test]
    fn snapshot_since_survives_reset() {
        let _l = test_lock();
        reset();
        enable();
        let m = mark();
        reset();
        add("fresh", 1);
        disable();
        // Positions from a previous epoch are meaningless: fall back to
        // the full snapshot instead of slicing out of bounds.
        let delta = snapshot_since(&m);
        assert_eq!(delta.counters.get("fresh"), Some(&1));
    }

    #[test]
    fn for_job_suffixes_every_file_sink() {
        let obs = Observer::none()
            .with_trace("/tmp/out.trace.json")
            .with_metrics("/tmp/metrics.jsonl");
        let job = obs.for_job(7);
        assert_eq!(
            job.trace_path.as_deref(),
            Some(std::path::Path::new("/tmp/out.trace.job7.json"))
        );
        assert_eq!(
            job.metrics_path.as_deref(),
            Some(std::path::Path::new("/tmp/metrics.job7.jsonl"))
        );
        let bare = Observer::none().with_metrics("/tmp/metrics").for_job(2);
        assert_eq!(
            bare.metrics_path.as_deref(),
            Some(std::path::Path::new("/tmp/metrics.job2"))
        );
    }

    #[test]
    fn quantile_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.p50(), 10, "10 < 16 sits in an exact unit bucket");
        assert_eq!(h.p99(), 10, "99 of 100 samples are exactly 10");
        assert_eq!(h.max(), 1_000_000);
    }

    /// The log-bucket invariant every quantile estimate must satisfy:
    /// the true sample lies inside the reported bucket.
    fn assert_in_bucket(estimate: u64, truth: u64) {
        assert_eq!(
            Histogram::bucket_upper(truth),
            Histogram::bucket_upper(estimate),
            "estimate {estimate} not in the bucket of true value {truth}"
        );
        let rel = (estimate as f64 - truth as f64) / truth.max(1) as f64;
        assert!(
            rel.abs() <= 1.0 / SUB_BUCKETS as f64,
            "relative error {rel} above 1/{SUB_BUCKETS} (estimate {estimate}, truth {truth})"
        );
    }

    #[test]
    fn quantiles_of_known_distributions_land_in_the_right_bucket() {
        // Uniform 1..=10_000 recorded in a worst-case (descending) order.
        let mut h = Histogram::new();
        for v in (1..=10_000u64).rev() {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        assert_in_bucket(h.p50(), 5_000);
        assert_in_bucket(h.p90(), 9_000);
        assert_in_bucket(h.p95(), 9_500);
        assert_in_bucket(h.p99(), 9_900);
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.min(), 1);

        // Point mass with a far outlier: quantiles must not leak toward it.
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(u64::MAX);
        assert_in_bucket(h.p50(), 100);
        assert_in_bucket(h.p99(), 100);
        assert_eq!(h.max(), u64::MAX);

        // Exponentially spread decades.
        let mut h = Histogram::new();
        for decade in 0..6u32 {
            for _ in 0..100 {
                h.record(10u64.pow(decade));
            }
        }
        assert_in_bucket(h.p50(), 100); // 300th of 600 samples
        assert_in_bucket(h.p90(), 100_000);
    }

    #[test]
    fn merge_is_associative_and_matches_single_recording() {
        let samples: Vec<u64> = (0..3_000u64)
            .map(|i| (i * 2_654_435_761) % 1_000_000)
            .collect();
        let mut whole = Histogram::new();
        for &v in &samples {
            whole.record(v);
        }
        let thirds: Vec<Histogram> = samples
            .chunks(1_000)
            .map(|c| {
                let mut h = Histogram::new();
                for &v in c {
                    h.record(v);
                }
                h
            })
            .collect();
        // (a ⊕ b) ⊕ c
        let mut left = thirds[0].clone();
        left.merge(&thirds[1]);
        left.merge(&thirds[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = thirds[1].clone();
        bc.merge(&thirds[2]);
        let mut right = thirds[0].clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        assert_eq!(left, whole, "merged shards must equal one-shot recording");
        let mut empty = Histogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole, "empty is a merge identity");
    }

    #[test]
    fn bucket_upper_is_monotone_and_idempotent() {
        let mut prev = 0;
        for v in (0..4096u64).chain([u64::MAX - 1, u64::MAX]) {
            let u = Histogram::bucket_upper(v);
            assert!(u >= v, "upper bound below value at {v}");
            assert!(u >= prev, "bucket bounds must be monotone at {v}");
            assert_eq!(Histogram::bucket_upper(u), u, "upper must be a fixpoint");
            prev = u;
        }
    }
}
