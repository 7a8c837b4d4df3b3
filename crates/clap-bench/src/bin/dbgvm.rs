//! Decomposes the VM's per-step cost: full run loop vs scheduler choice
//! vs raw dispatch, plus how often the VM rebuilds its kept enabled-action
//! set. A diagnostic aid for the `bench_vm` numbers.
//!
//! ```text
//! dbgvm [workload] [seeds]
//! ```

use clap_vm::{FifoScheduler, NullMonitor, RandomScheduler, Vm};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "sim_race".to_owned());
    let seeds: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(300);

    let workload = clap_workloads::by_name(&name).expect("workload exists");
    let program = workload.program();
    let shared = clap_analysis::analyze(&program).shared_spec();

    let mut vm = Vm::with_shared(&program, workload.model, shared);
    vm.set_step_limit(1_000_000);

    // Random scheduler (the bench_vm sweep shape).
    let t0 = Instant::now();
    let mut steps = 0u64;
    for seed in 0..seeds {
        vm.reset();
        let mut sched = RandomScheduler::with_stickiness(seed, 0.7);
        vm.run(&mut sched, &mut NullMonitor);
        steps += vm.stats().steps;
    }
    let random_ns = t0.elapsed().as_nanos() as f64 / steps as f64;

    // Fifo scheduler: same loop minus the RNG draws.
    let t0 = Instant::now();
    let mut fifo_steps = 0u64;
    for _ in 0..seeds {
        vm.reset();
        vm.run(&mut FifoScheduler, &mut NullMonitor);
        fifo_steps += vm.stats().steps;
    }
    let fifo_ns = t0.elapsed().as_nanos() as f64 / fifo_steps as f64;

    // Reset cost alone.
    let t0 = Instant::now();
    for _ in 0..seeds {
        vm.reset();
    }
    let reset_ns = t0.elapsed().as_nanos() as f64 / seeds as f64;

    // The random sweep again under the step profile, untimed: how often
    // a step changed the enabled set, so the VM had to rebuild it.
    vm.enable_step_profile();
    for seed in 0..seeds {
        vm.reset();
        let mut sched = RandomScheduler::with_stickiness(seed, 0.7);
        vm.run(&mut sched, &mut NullMonitor);
    }
    let prof = vm.take_step_profile().expect("profiling was on");
    let rebuilds_per_step = prof.rebuilds as f64 / prof.steps.max(1) as f64;

    println!(
        "{name}: random {random_ns:.1} ns/step ({steps} steps) | \
         fifo {fifo_ns:.1} ns/step ({fifo_steps} steps) | reset {reset_ns:.0} ns/seed | \
         rebuilds {rebuilds_per_step:.3}/step"
    );
}
