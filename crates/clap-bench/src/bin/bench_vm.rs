//! Emits `BENCH_vm.jsonl`: the VM on the two hot loops of the pipeline —
//! seeded schedule sweeps and the `clap-check` oracle's bounded
//! enumeration — per workload.
//!
//! The artifact is the standard `clap-obs` JSONL stream (validate with
//! the `obsck` binary): one `bench.vm` header event and one
//! `bench.vm.cell` event per (workload, phase) measurement. `benchdiff`
//! compares two artifacts cell by cell.
//!
//! ```text
//! bench_vm [output.jsonl] [repeats]
//! ```

use clap_bench::vm;
use clap_obs::Observer;

fn main() {
    let mut args = std::env::args().skip(1);
    let out_path = args.next().unwrap_or_else(|| "BENCH_vm.jsonl".to_owned());
    let repeats: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    let bench = vm::run(repeats);

    let observer = Observer::none().with_metrics(&out_path);
    observer.install();
    vm::emit_events(&bench);
    observer.flush().expect("write benchmark artifact");
    println!("wrote {out_path}");
}
