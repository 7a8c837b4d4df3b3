//! The three render targets for a [`Snapshot`]: human-readable summary,
//! machine-readable JSONL, and Chrome `trace_event` JSON.
//!
//! The JSONL schema is deliberately rigid — every record type has a fixed
//! key set in a fixed order — and [`validate_jsonl_line`] re-checks it, so
//! downstream tooling (and the repo's own snapshot test and CI step) can
//! rely on the stream shape.

use crate::json;
use crate::Snapshot;
use std::io::{self, Write};

/// Writes the human-readable summary: a span tree per thread followed by
/// the metric tables.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_summary(snap: &Snapshot, w: &mut impl Write) -> io::Result<()> {
    writeln!(
        w,
        "== clap-obs summary: {} in {} span(s), {} counter(s), {} gauge(s), {} hist(s), {} event(s) ==",
        fmt_ns(snap.elapsed_ns),
        snap.spans.len(),
        snap.counters.len(),
        snap.gauges.len(),
        snap.hists.len(),
        snap.events.len(),
    )?;
    if !snap.spans.is_empty() {
        writeln!(w, "spans:")?;
        let mut tid = u64::MAX;
        for s in &snap.spans {
            if s.tid != tid {
                tid = s.tid;
                writeln!(w, "  [tid {tid}]")?;
            }
            writeln!(
                w,
                "    {:indent$}{:<32} {:>10}  @{}",
                "",
                s.name,
                fmt_ns(s.dur_ns),
                fmt_ns(s.start_ns),
                indent = 2 * s.depth as usize,
            )?;
        }
    }
    if !snap.counters.is_empty() {
        writeln!(w, "counters:")?;
        for (name, value) in &snap.counters {
            writeln!(w, "  {name:<40} {value:>12}")?;
        }
    }
    if !snap.gauges.is_empty() {
        writeln!(w, "gauges:")?;
        for (name, value) in &snap.gauges {
            writeln!(w, "  {name:<40} {value:>12}")?;
        }
    }
    if !snap.hists.is_empty() {
        writeln!(w, "histograms:")?;
        for (name, h) in &snap.hists {
            writeln!(
                w,
                "  {name:<40} count={} sum={} min={} p50~{} p90~{} p95~{} p99~{} max={}",
                h.count(),
                h.sum(),
                h.min(),
                h.p50(),
                h.p90(),
                h.p95(),
                h.p99(),
                h.max()
            )?;
        }
    }
    if !snap.events.is_empty() {
        writeln!(w, "events:")?;
        for e in &snap.events {
            write!(w, "  @{} [tid {}] {}", fmt_ns(e.ts_ns), e.tid, e.name)?;
            for (k, v) in &e.fields {
                write!(w, " {k}={v}")?;
            }
            writeln!(w)?;
        }
    }
    Ok(())
}

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Writes the JSONL stream: one `meta` line, then every span, counter,
/// gauge, histogram, and event as its own line.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl(snap: &Snapshot, w: &mut impl Write) -> io::Result<()> {
    writeln!(
        w,
        "{{\"type\":\"meta\",\"version\":1,\"elapsed_ns\":{},\"spans\":{},\"counters\":{},\"gauges\":{},\"hists\":{},\"events\":{}}}",
        snap.elapsed_ns,
        snap.spans.len(),
        snap.counters.len(),
        snap.gauges.len(),
        snap.hists.len(),
        snap.events.len(),
    )?;
    if let Some(id) = &snap.trace_id {
        writeln!(
            w,
            "{{\"type\":\"trace\",\"trace_id\":\"{}\"}}",
            json::escape(id)
        )?;
    }
    for s in &snap.spans {
        writeln!(
            w,
            "{{\"type\":\"span\",\"name\":\"{}\",\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"depth\":{}}}",
            json::escape(&s.name),
            s.tid,
            s.start_ns,
            s.dur_ns,
            s.depth,
        )?;
    }
    for (name, value) in &snap.counters {
        writeln!(
            w,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            json::escape(name),
        )?;
    }
    for (name, value) in &snap.gauges {
        writeln!(
            w,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
            json::escape(name),
        )?;
    }
    for (name, h) in &snap.hists {
        write!(
            w,
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
            json::escape(name),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.p50(),
            h.p90(),
            h.p95(),
            h.p99(),
        )?;
        for (i, (upper, count)) in h.buckets().iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "[{upper},{count}]")?;
        }
        writeln!(w, "]}}")?;
    }
    for e in &snap.events {
        write!(
            w,
            "{{\"type\":\"event\",\"name\":\"{}\",\"tid\":{},\"ts_ns\":{},\"fields\":{{",
            json::escape(&e.name),
            e.tid,
            e.ts_ns,
        )?;
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "\"{}\":\"{}\"", json::escape(k), json::escape(v))?;
        }
        writeln!(w, "}}}}")?;
    }
    Ok(())
}

/// The exact key sequence each JSONL record type carries.
pub const JSONL_SCHEMA: &[(&str, &[&str])] = &[
    (
        "meta",
        &[
            "type",
            "version",
            "elapsed_ns",
            "spans",
            "counters",
            "gauges",
            "hists",
            "events",
        ],
    ),
    ("trace", &["type", "trace_id"]),
    (
        "span",
        &["type", "name", "tid", "start_ns", "dur_ns", "depth"],
    ),
    ("counter", &["type", "name", "value"]),
    ("gauge", &["type", "name", "value"]),
    (
        "hist",
        &[
            "type", "name", "count", "sum", "min", "max", "p50", "p90", "p95", "p99", "buckets",
        ],
    ),
    ("event", &["type", "name", "tid", "ts_ns", "fields"]),
];

/// Exact field-key sequences for the structured events whose shape is a
/// stable contract (service and benchmark artifacts that downstream
/// tooling parses). Events not listed here are free-form; events whose
/// name falls under a [`STRICT_NAME_PREFIXES`] prefix **must** be listed.
pub const EVENT_FIELD_SCHEMA: &[(&str, &[&str])] = &[
    (
        "portfolio.attempt",
        &["engine", "cs_min", "cs_max", "outcome", "wall_us"],
    ),
    ("portfolio.winner", &["engine"]),
    ("bench.pipeline", &["host_cores", "repeats"]),
    (
        "bench.pipeline.cell",
        &["workload", "phase", "millis", "work"],
    ),
    (
        "bench.serve",
        &["corpus", "workers", "queue_cap", "clients"],
    ),
    (
        "bench.serve.cell",
        &["program", "phase", "latency_us", "cached"],
    ),
    ("bench.serve.summary", &["cold_us", "warm_us", "speedup"]),
    (
        "bench.serve.shed",
        &["submitted", "accepted", "shed", "drained"],
    ),
    ("serve.job.done", &["job", "cached", "wall_us"]),
    ("serve.job.failed", &["job", "error"]),
    ("serve.job.trace", &["job", "trace_id", "queue_wait_us"]),
    ("serve.shutdown", &["drained"]),
    (
        "bench.diff",
        &[
            "old",
            "new",
            "margin_pct",
            "cells",
            "regressions",
            "improvements",
            "work_changes",
        ],
    ),
    (
        "bench.diff.cell",
        &["bench", "key", "old", "new", "delta_pct", "status", "work"],
    ),
    (
        "bench.table1.row",
        &[
            "program",
            "loc",
            "threads",
            "shared_vars",
            "instructions",
            "branches",
            "saps",
            "constraints",
            "variables",
            "time_symbolic_ns",
            "time_solve_ns",
            "cs",
            "success",
        ],
    ),
    (
        "bench.table2.row",
        &[
            "program",
            "native_ns",
            "leap_ns",
            "clap_ns",
            "leap_bytes",
            "clap_bytes",
            "time_reduction_pct",
            "space_reduction_pct",
            "rounds",
            "leap_spread_pct",
            "clap_spread_pct",
        ],
    ),
    (
        "bench.table3.row",
        &[
            "program",
            "worst_log10",
            "generated",
            "cs_bound",
            "good",
            "found",
            "par_time_ns",
            "seq_time_ns",
            "auto_time_ns",
            "auto_winner",
        ],
    ),
    // One cell of Table 4: the same recorded C11 failure re-encoded and
    // solved under one memory model.
    (
        "bench.atomics",
        &[
            "program",
            "model",
            "hb_edges",
            "order_vars",
            "clauses",
            "solve_ns",
            "sat",
        ],
    ),
];

/// Name prefixes under strict validation: counters, gauges, and
/// histograms must appear in [`KNOWN_STRICT_METRICS`], events in
/// [`EVENT_FIELD_SCHEMA`]. Everything else (pipeline internals, debug
/// probes) stays free-form.
pub const STRICT_NAME_PREFIXES: &[&str] = &["serve.", "bench.", "check.oracle.", "solver."];

/// Every counter/gauge/histogram name the service, benchmark, and
/// differential-oracle layers may emit under a strict prefix. A
/// misspelled `serve.*` or `check.oracle.*` metric fails
/// [`validate_jsonl_line`] instead of silently forking the namespace.
pub const KNOWN_STRICT_METRICS: &[&str] = &[
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.coalesced",
    "serve.cache.entries",
    "serve.cache.journal.loaded",
    "serve.cache.journal.skipped",
    "serve.queue.depth",
    "serve.queue.rejected",
    "serve.jobs.submitted",
    "serve.jobs.completed",
    "serve.jobs.failed",
    "serve.job.wall_us",
    "serve.http.requests",
    "serve.http.errors",
    "serve.queue.wait_us",
    "serve.cache.hit_ratio_pct",
    "serve.http.latency_us.submit",
    "serve.http.latency_us.status",
    "serve.http.latency_us.report",
    "serve.http.latency_us.metrics",
    "serve.http.latency_us.shutdown",
    "serve.http.latency_us.other",
    "check.oracle.executions",
    "check.oracle.failing",
    "check.oracle.bound_prunes",
    "check.oracle.deadlocks",
    "check.oracle.atomics",
    "check.oracle.steps",
    "check.oracle.scans",
    "check.oracle.snapshots",
    "check.oracle.restores",
    "solver.hb_edges",
    "solver.decisions",
    "solver.conflicts",
    "solver.propagations",
    "solver.order_graph.queries",
    "solver.order_graph.row_updates",
    "solver.order_graph.edges",
];

fn strict(name: &str) -> bool {
    STRICT_NAME_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Validates one JSONL line against [`JSONL_SCHEMA`], returning the record
/// type. Names under a [`STRICT_NAME_PREFIXES`] prefix are additionally
/// checked against the name registries: events must match their
/// [`EVENT_FIELD_SCHEMA`] field sequence exactly, metrics must be listed
/// in [`KNOWN_STRICT_METRICS`].
///
/// # Errors
///
/// Returns a description of the first schema violation: malformed JSON, an
/// unknown record type, missing/extra/misordered keys, a wrongly typed
/// field, or an unregistered/misshapen strict-prefix record.
pub fn validate_jsonl_line(line: &str) -> Result<&'static str, String> {
    let v = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let ty = v
        .get("type")
        .and_then(json::Value::as_str)
        .ok_or_else(|| "missing `type`".to_owned())?;
    let (ty_static, keys) = JSONL_SCHEMA
        .iter()
        .find(|(t, _)| *t == ty)
        .ok_or_else(|| format!("unknown record type `{ty}`"))?;
    let got = v
        .keys()
        .ok_or_else(|| "record is not an object".to_owned())?;
    if got != *keys {
        return Err(format!(
            "key mismatch for `{ty}`: got {got:?}, want {keys:?}"
        ));
    }
    for key in keys.iter().skip(1) {
        let field = v.get(key).expect("key checked above");
        let ok = match (*ty_static, *key) {
            (_, "name") => field.as_str().is_some(),
            ("trace", "trace_id") => field.as_str().is_some(),
            ("event", "fields") => match field {
                json::Value::Obj(entries) => entries.iter().all(|(_, fv)| fv.as_str().is_some()),
                _ => false,
            },
            ("hist", "buckets") => match field {
                json::Value::Arr(pairs) => pairs.iter().all(|p| {
                    p.as_arr().is_some_and(|pair| {
                        pair.len() == 2 && pair.iter().all(|n| n.as_num().is_some())
                    })
                }),
                _ => false,
            },
            _ => field.as_num().is_some(),
        };
        if !ok {
            return Err(format!("field `{key}` of `{ty}` has the wrong type"));
        }
    }
    if *ty_static == "hist" {
        // A non-empty histogram must carry its bucket bounds: quantiles
        // without the buckets they came from are unverifiable.
        let count = v.get("count").and_then(json::Value::as_num).unwrap_or(0.0);
        let buckets = match v.get("buckets") {
            Some(json::Value::Arr(pairs)) => pairs.len(),
            _ => 0,
        };
        if count > 0.0 && buckets == 0 {
            return Err("hist record with samples but no bucket bounds".to_owned());
        }
    }
    let name = v.get("name").and_then(json::Value::as_str).unwrap_or("");
    if strict(name) {
        match *ty_static {
            "event" => {
                let want = EVENT_FIELD_SCHEMA
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, fields)| *fields)
                    .ok_or_else(|| format!("unregistered strict event `{name}`"))?;
                let got: Vec<&str> = match v.get("fields") {
                    Some(json::Value::Obj(entries)) => {
                        entries.iter().map(|(k, _)| k.as_str()).collect()
                    }
                    _ => Vec::new(),
                };
                if got != want {
                    return Err(format!(
                        "event `{name}` fields drifted: got {got:?}, want {want:?}"
                    ));
                }
            }
            "counter" | "gauge" | "hist" if !KNOWN_STRICT_METRICS.contains(&name) => {
                return Err(format!("unregistered strict metric `{name}`"));
            }
            _ => {}
        }
    }
    Ok(ty_static)
}

/// Writes Chrome `trace_event` JSON: spans as complete (`X`) events,
/// counters/gauges as counter (`C`) samples, and events as instants (`i`).
/// Loadable in `about:tracing` and Perfetto.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_chrome_trace(snap: &Snapshot, w: &mut impl Write) -> io::Result<()> {
    let us = |ns: u64| ns as f64 / 1e3;
    writeln!(w, "{{\"traceEvents\":[")?;
    let mut first = true;
    let sep = |w: &mut dyn Write, first: &mut bool| -> io::Result<()> {
        if *first {
            *first = false;
            Ok(())
        } else {
            writeln!(w, ",")
        }
    };
    if let Some(id) = &snap.trace_id {
        // Label the process with the request's trace id so stitched
        // client/worker traces identify themselves in the viewer.
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"process_labels\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"labels\":\"trace:{}\"}}}}",
            json::escape(id),
        )?;
    }
    for s in &snap.spans {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"clap\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            json::escape(&s.name),
            s.tid,
            us(s.start_ns),
            us(s.dur_ns),
        )?;
    }
    for (name, value) in &snap.counters {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"args\":{{\"value\":{value}}}}}",
            json::escape(name),
            us(snap.elapsed_ns),
        )?;
    }
    for (name, value) in &snap.gauges {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"metric\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\"args\":{{\"value\":{value}}}}}",
            json::escape(name),
            us(snap.elapsed_ns),
        )?;
    }
    for e in &snap.events {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"s\":\"t\",\"args\":{{",
            json::escape(&e.name),
            e.tid,
            us(e.ts_ns),
        )?;
        for (i, (k, v)) in e.fields.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "\"{}\":\"{}\"", json::escape(k), json::escape(v))?;
        }
        write!(w, "}}}}")?;
    }
    writeln!(w, "\n],\"displayTimeUnit\":\"ms\"}}")?;
    Ok(())
}

/// Sanitizes a dotted metric name into a Prometheus metric name:
/// `serve.http.latency_us.submit` → `clap_serve_http_latency_us_submit`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("clap_");
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || (c == '_' && i > 0) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Writes the Prometheus text exposition (format version 0.0.4) of a
/// snapshot: counters and gauges as single samples, histograms as
/// cumulative `_bucket{le="..."}` series with `_sum`/`_count` plus
/// companion `_p50`/`_p90`/`_p95`/`_p99` gauges precomputed from the log
/// buckets. Served by `clap-serve GET /metrics`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_prometheus(snap: &Snapshot, w: &mut impl Write) -> io::Result<()> {
    for (name, value) in &snap.counters {
        let n = prometheus_name(name);
        writeln!(w, "# TYPE {n} counter")?;
        writeln!(w, "{n} {value}")?;
    }
    for (name, value) in &snap.gauges {
        let n = prometheus_name(name);
        writeln!(w, "# TYPE {n} gauge")?;
        writeln!(w, "{n} {value}")?;
    }
    for (name, h) in &snap.hists {
        let n = prometheus_name(name);
        writeln!(w, "# TYPE {n} histogram")?;
        let mut cum = 0u64;
        for &(upper, count) in h.buckets() {
            cum += count;
            writeln!(w, "{n}_bucket{{le=\"{upper}\"}} {cum}")?;
        }
        writeln!(w, "{n}_bucket{{le=\"+Inf\"}} {}", h.count())?;
        writeln!(w, "{n}_sum {}", h.sum())?;
        writeln!(w, "{n}_count {}", h.count())?;
        for (q, v) in [
            ("p50", h.p50()),
            ("p90", h.p90()),
            ("p95", h.p95()),
            ("p99", h.p99()),
        ] {
            writeln!(w, "# TYPE {n}_{q} gauge")?;
            writeln!(w, "{n}_{q} {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add, disable, enable, event, gauge, observe, reset, snapshot, span, test_lock};

    fn sample_snapshot() -> Snapshot {
        let _l = test_lock();
        reset();
        enable();
        {
            let _root = span("record");
            let _child = span("explore.worker");
            add("explore.seeds", 42);
            gauge("schedule.context_switches", 1);
            observe("serve.queue.wait_us", 64);
            event("dbg.frontier", &[("thread", "2".to_owned())]);
        }
        disable();
        snapshot()
    }

    #[test]
    fn jsonl_lines_all_validate() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_jsonl(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut types = Vec::new();
        for line in text.lines() {
            types.push(validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}")));
        }
        assert_eq!(types[0], "meta");
        for ty in ["span", "counter", "gauge", "hist", "event"] {
            assert!(types.contains(&ty), "missing record type {ty}");
        }
    }

    #[test]
    fn validator_rejects_drift() {
        assert!(validate_jsonl_line("not json").is_err());
        assert!(validate_jsonl_line(r#"{"type":"mystery"}"#).is_err());
        // Missing a key.
        assert!(validate_jsonl_line(r#"{"type":"counter","name":"x"}"#).is_err());
        // Extra key.
        assert!(
            validate_jsonl_line(r#"{"type":"counter","name":"x","value":1,"unit":"s"}"#).is_err()
        );
        // Wrong type.
        assert!(validate_jsonl_line(r#"{"type":"counter","name":"x","value":"1"}"#).is_err());
        // Reordered keys.
        assert!(validate_jsonl_line(r#"{"type":"counter","value":1,"name":"x"}"#).is_err());
        // Correct line passes.
        assert_eq!(
            validate_jsonl_line(r#"{"type":"counter","name":"x","value":1}"#).unwrap(),
            "counter"
        );
    }

    #[test]
    fn strict_prefix_names_are_registry_checked() {
        // A registered serve counter passes; a misspelled one fails.
        assert_eq!(
            validate_jsonl_line(r#"{"type":"counter","name":"serve.cache.hit","value":3}"#)
                .unwrap(),
            "counter"
        );
        assert!(
            validate_jsonl_line(r#"{"type":"counter","name":"serve.cache.hits","value":3}"#)
                .is_err()
        );
        // A registered serve event with the exact field sequence passes.
        assert_eq!(
            validate_jsonl_line(
                r#"{"type":"event","name":"serve.job.done","tid":0,"ts_ns":1,"fields":{"job":"3","cached":"true","wall_us":"12"}}"#
            )
            .unwrap(),
            "event"
        );
        // Drifted fields and unregistered serve events fail.
        assert!(validate_jsonl_line(
            r#"{"type":"event","name":"serve.job.done","tid":0,"ts_ns":1,"fields":{"job":"3"}}"#
        )
        .is_err());
        assert!(validate_jsonl_line(
            r#"{"type":"event","name":"serve.mystery","tid":0,"ts_ns":1,"fields":{}}"#
        )
        .is_err());
        // The solver and atomic-oracle metrics are registered; typos fail.
        assert_eq!(
            validate_jsonl_line(r#"{"type":"counter","name":"solver.hb_edges","value":42}"#)
                .unwrap(),
            "counter"
        );
        assert_eq!(
            validate_jsonl_line(r#"{"type":"counter","name":"check.oracle.atomics","value":4}"#)
                .unwrap(),
            "counter"
        );
        assert!(
            validate_jsonl_line(r#"{"type":"counter","name":"solver.hb_edge","value":42}"#)
                .is_err()
        );
        // The Table 4 per-model cell event carries its exact field set.
        assert_eq!(
            validate_jsonl_line(
                r#"{"type":"event","name":"bench.atomics","tid":0,"ts_ns":1,"fields":{"program":"seqlock","model":"C11","hb_edges":"31","order_vars":"24","clauses":"190","solve_ns":"52000","sat":"true"}}"#
            )
            .unwrap(),
            "event"
        );
        // Non-strict names stay free-form.
        assert_eq!(
            validate_jsonl_line(
                r#"{"type":"event","name":"dbg.anything","tid":0,"ts_ns":1,"fields":{"x":"y"}}"#
            )
            .unwrap(),
            "event"
        );
        assert_eq!(
            validate_jsonl_line(r#"{"type":"counter","name":"explore.novel","value":1}"#).unwrap(),
            "counter"
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_phases() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_chrome_trace(&snap, &mut buf).unwrap();
        let doc = crate::json::parse(&String::from_utf8(buf).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() >= 5);
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"record"));
        assert!(names.contains(&"explore.seeds"));
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(matches!(ph, "X" | "C" | "i"), "unexpected phase {ph}");
        }
    }

    #[test]
    fn hist_records_must_carry_bucket_bounds() {
        // A well-formed hist line with bounds passes.
        assert_eq!(
            validate_jsonl_line(
                r#"{"type":"hist","name":"h","count":2,"sum":30,"min":10,"max":20,"p50":10,"p90":20,"p95":20,"p99":20,"buckets":[[10,1],[20,1]]}"#
            )
            .unwrap(),
            "hist"
        );
        // Samples but no bucket bounds: rejected.
        assert!(validate_jsonl_line(
            r#"{"type":"hist","name":"h","count":2,"sum":30,"min":10,"max":20,"p50":10,"p90":20,"p95":20,"p99":20,"buckets":[]}"#
        )
        .is_err());
        // Old shape without the buckets key at all: rejected.
        assert!(validate_jsonl_line(
            r#"{"type":"hist","name":"h","count":2,"sum":30,"min":10,"max":20,"p50":10,"p90":20,"p99":20}"#
        )
        .is_err());
        // Malformed bucket pair: rejected.
        assert!(validate_jsonl_line(
            r#"{"type":"hist","name":"h","count":1,"sum":10,"min":10,"max":10,"p50":10,"p90":10,"p95":10,"p99":10,"buckets":[[10]]}"#
        )
        .is_err());
    }

    #[test]
    fn trace_records_validate() {
        assert_eq!(
            validate_jsonl_line(r#"{"type":"trace","trace_id":"d1c3b00c0ffee777"}"#).unwrap(),
            "trace"
        );
        assert!(validate_jsonl_line(r#"{"type":"trace","trace_id":7}"#).is_err());
        assert!(validate_jsonl_line(r#"{"type":"trace"}"#).is_err());
    }

    #[test]
    fn trace_id_flows_into_jsonl_and_chrome_sinks() {
        let mut snap = sample_snapshot();
        snap.trace_id = Some("cafe1234beef5678".to_owned());
        let mut buf = Vec::new();
        write_jsonl(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let trace_line = text.lines().nth(1).expect("trace line after meta");
        assert_eq!(
            trace_line,
            r#"{"type":"trace","trace_id":"cafe1234beef5678"}"#
        );
        for line in text.lines() {
            validate_jsonl_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        let mut buf = Vec::new();
        write_chrome_trace(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("trace:cafe1234beef5678"));
        crate::json::parse(&text).unwrap();
    }

    #[test]
    fn prometheus_exposition_has_buckets_and_quantiles() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_prometheus(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# TYPE clap_explore_seeds counter"));
        assert!(text.contains("clap_explore_seeds 42"));
        assert!(text.contains("# TYPE clap_schedule_context_switches gauge"));
        assert!(text.contains("# TYPE clap_serve_queue_wait_us histogram"));
        assert!(text.contains("clap_serve_queue_wait_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("clap_serve_queue_wait_us_count 1"));
        for q in ["p50", "p95", "p99"] {
            assert!(
                text.contains(&format!("clap_serve_queue_wait_us_{q} ")),
                "missing {q}:\n{text}"
            );
        }
        // Cumulative bucket counts are monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            if line.contains("+Inf") {
                continue;
            }
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "bucket counts not cumulative: {line}");
            last = n;
        }
    }

    #[test]
    fn summary_renders_every_section() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_summary(&snap, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for needle in [
            "spans:",
            "counters:",
            "gauges:",
            "histograms:",
            "events:",
            "record",
            "explore.seeds",
        ] {
            assert!(text.contains(needle), "summary missing {needle}:\n{text}");
        }
    }
}
