//! Compares two `BENCH_*.jsonl` trajectories cell by cell — the CI perf
//! regression gate.
//!
//! ```text
//! benchdiff <old.jsonl> <new.jsonl> [--margin PCT] [--check] [--md PATH]
//!           [--metrics m.jsonl] [--trace t.json]
//! ```
//!
//! Prints the delta table (GitHub-flavored markdown) to stdout; `--md`
//! additionally writes it to a file for an artifact upload. Every metric
//! is lower-is-better wall time; a cell slower than `--margin` percent
//! (default 25, sized for CI runner noise) is a regression, and a cell
//! that vanished from the new artifact counts as a failure too — a
//! benchmark that stops running hides regressions. With `--check` any
//! failure exits nonzero. A paired cell whose work count (`steps` of a
//! vm cell, `work` of a pipeline cell) changed exits nonzero even
//! without `--check`: work is deterministic, so no runner noise excuses
//! it.

use clap_bench::diff::diff;
use clap_bench::split_obs_args;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, observer) = split_obs_args(&args).expect("bad arguments");

    let mut paths: Vec<String> = Vec::new();
    let mut margin_pct = 25.0f64;
    let mut check = false;
    let mut md_path: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--margin" => {
                margin_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--margin needs a percentage");
            }
            "--check" => check = true,
            "--md" => md_path = Some(it.next().expect("--md needs a path").clone()),
            other => paths.push(other.to_owned()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: benchdiff <old.jsonl> <new.jsonl> [--margin PCT] [--check] [--md PATH]");
        std::process::exit(2);
    };

    let read = |p: &String| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("benchdiff: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let old = read(old_path);
    let new = read(new_path);

    observer.install();
    let d = diff(&old, &new, margin_pct).unwrap_or_else(|e| {
        eprintln!("benchdiff: {e}");
        std::process::exit(2);
    });
    d.emit_events(old_path, new_path);

    let md = d.render_markdown(old_path, new_path);
    print!("{md}");
    if let Some(path) = md_path {
        if let Err(e) = std::fs::write(&path, &md) {
            eprintln!("benchdiff: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    if let Err(e) = observer.flush() {
        eprintln!("clap-obs: failed to write sink: {e}");
    }
    if d.work_changes() > 0 {
        eprintln!(
            "benchdiff: {} cell(s) changed their work count",
            d.work_changes()
        );
        std::process::exit(1);
    }
    if check && d.has_failures() {
        eprintln!(
            "benchdiff: {} regression(s), {} removed cell(s) — failing --check",
            d.regressions(),
            d.removed()
        );
        std::process::exit(1);
    }
}
