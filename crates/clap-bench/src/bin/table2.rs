//! Regenerates **Table 2** (runtime and space overhead): native vs LEAP vs
//! CLAP execution time and log size per workload, with CLAP's reductions.
//! Each row interleaves the three configurations round by round and
//! reports medians plus the spread (interquartile range) of each
//! recorder's per-round overhead; `*` marks an overhead within its spread.
//! The optional first argument is the least number of rounds per row.
//!
//! With `--metrics <path>` (and/or `--trace <path>`) the rows are also
//! published through the `clap-obs` JSONL sink as `bench.table2.row`
//! events.

use clap_bench::{fmt_duration, split_obs_args, table2_row, TABLE2_ROW_TIME};

fn fmt_bytes(b: usize) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}K", b as f64 / 1024.0)
    } else {
        format!("{:.2}M", b as f64 / (1024.0 * 1024.0))
    }
}

/// A recorder's cell: its median time, its overhead with the per-round
/// spread, and `*` when the overhead is within that spread.
fn fmt_recorder(time: std::time::Duration, pct: f64, spread: f64, within: bool) -> String {
    format!(
        "{:>7} ({:>4.0}% ±{:>3.0}){}",
        fmt_duration(time),
        pct,
        spread,
        if within { "*" } else { " " }
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, observer) = split_obs_args(&args).expect("bad arguments");
    observer.install();
    let min_rounds: u32 = rest.first().and_then(|s| s.parse().ok()).unwrap_or(30);
    println!(
        "Table 2 — recording overhead, native vs LEAP vs CLAP (medians of at least \
         {min_rounds} interleaved rounds and {} ms per row, scaled workloads)",
        TABLE2_ROW_TIME.as_millis()
    );
    println!(
        "{:<10} {:>6} {:>9} {:>21} {:>21} {:>7} {:>9} {:>9} {:>7}",
        "Program",
        "Rounds",
        "Native",
        "LEAP (ovh% ±IQR)",
        "CLAP (ovh% ±IQR)",
        "T-red%",
        "LEAP-log",
        "CLAP-log",
        "S-red%"
    );
    for workload in clap_workloads::table2_suite() {
        let r = table2_row(&workload, min_rounds);
        println!(
            "{:<10} {:>6} {:>9} {} {} {:>6.1}% {:>9} {:>9} {:>6.1}%",
            r.name,
            r.rounds,
            fmt_duration(r.native),
            fmt_recorder(
                r.leap,
                r.leap_overhead_pct(),
                r.leap_spread_pct,
                r.leap_within_spread()
            ),
            fmt_recorder(
                r.clap,
                r.clap_overhead_pct(),
                r.clap_spread_pct,
                r.clap_within_spread()
            ),
            r.time_reduction_pct(),
            fmt_bytes(r.leap_bytes),
            fmt_bytes(r.clap_bytes),
            r.space_reduction_pct(),
        );
        clap_obs::event(
            "bench.table2.row",
            &[
                ("program", r.name.clone()),
                ("native_ns", r.native.as_nanos().to_string()),
                ("leap_ns", r.leap.as_nanos().to_string()),
                ("clap_ns", r.clap.as_nanos().to_string()),
                ("leap_bytes", r.leap_bytes.to_string()),
                ("clap_bytes", r.clap_bytes.to_string()),
                (
                    "time_reduction_pct",
                    format!("{:.1}", r.time_reduction_pct()),
                ),
                (
                    "space_reduction_pct",
                    format!("{:.1}", r.space_reduction_pct()),
                ),
                ("rounds", r.rounds.to_string()),
                ("leap_spread_pct", format!("{:.1}", r.leap_spread_pct)),
                ("clap_spread_pct", format!("{:.1}", r.clap_spread_pct)),
            ],
        );
    }
    println!("* overhead within the per-round spread (IQR): not resolved from zero");
    if let Err(e) = observer.flush() {
        eprintln!("clap-obs: failed to write sink: {e}");
    }
}
