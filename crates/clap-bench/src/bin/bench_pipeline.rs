//! Emits `BENCH_pipeline.jsonl`: each pipeline phase (record, decode,
//! symex, constrain, solve, replay) per `clap_workloads` program, the
//! VM's seeded sweep and oracle enumeration on three workloads, and the
//! memory-model, preemption-bound, pruning and sync-order ablations.
//! Every cell is the best, over `repeats`, of the mean time per call in
//! a batch of calls lasting at least 20 ms, with the call's work count
//! (see `clap_bench::pipeline`).
//!
//! The artifact is the standard `clap-obs` JSONL stream (validate with
//! the `obsck` binary): one `bench.pipeline` header event and one
//! `bench.pipeline.cell` event per (workload, phase) measurement.
//! `benchdiff` compares two artifacts cell by cell.
//!
//! ```text
//! bench_pipeline [output.jsonl] [repeats]
//! ```

use clap_bench::pipeline;
use clap_obs::Observer;

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_pipeline.jsonl".to_owned());
    let repeats: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3).max(1);

    let bench = pipeline::run(repeats);

    let observer = Observer::none().with_metrics(&out_path);
    observer.install();
    pipeline::emit_events(&bench);
    observer.flush().expect("write benchmark artifact");
    println!("wrote {out_path}");
}
