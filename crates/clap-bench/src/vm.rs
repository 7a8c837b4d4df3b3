//! The VM rows of the `bench_pipeline` sweep: the VM's two hot loops,
//! `sweep` (the seeded runs a record sweep is made of) and `oracle` (the
//! `clap-check` oracle's bounded enumeration), on [`VM_WORKLOADS`].
//! They are timed by the same helper as every other row and published as
//! `bench.pipeline.cell` events with the `sweep` and `oracle` phases.

use crate::pipeline::{measure, Cell};
use clap_check::OracleConfig;
use clap_vm::{NullMonitor, RandomScheduler, Vm};

/// Workloads of the `sweep` and `oracle` rows (small → mid-size).
pub const VM_WORKLOADS: [&str; 3] = ["sim_race", "pbzip2", "bakery"];

/// Seeds per `sweep` call.
pub const SWEEP_SEEDS: u64 = 300;

/// Oracle execution cap per `oracle` call (keeps the mid-size
/// workloads' search bounded).
pub const ORACLE_EXECUTIONS: u64 = 3_000;

/// The `sweep` and `oracle` cells of one workload: VM steps of
/// [`SWEEP_SEEDS`] seeded runs, and oracle executions capped at
/// [`ORACLE_EXECUTIONS`].
pub(crate) fn cells(name: &str) -> [Cell; 2] {
    let workload = clap_workloads::by_name(name).expect("workload exists");
    let program = workload.program();
    let shared = clap_analysis::analyze(&program).shared_spec();
    let sweep = measure(name, "sweep", || {
        let mut vm = Vm::with_shared(&program, workload.model, shared.clone());
        vm.set_step_limit(1_000_000);
        let mut steps = 0;
        for seed in 0..SWEEP_SEEDS {
            vm.reset();
            let mut sched = RandomScheduler::with_stickiness(seed, 0.7);
            vm.run(&mut sched, &mut NullMonitor);
            steps += vm.stats().steps;
        }
        steps
    });
    let config = OracleConfig::new(workload.model).with_max_executions(ORACLE_EXECUTIONS);
    let oracle = measure(name, "oracle", || {
        clap_check::enumerate_with_shared(&program, shared.clone(), &config).executions
    });
    [sweep, oracle]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{emit_events, PipelineBench};

    /// The measured VM rows of sim_race, published as `bench.pipeline`
    /// events, pass the strict JSONL schema `obsck` enforces.
    #[test]
    fn events_follow_the_strict_schema() {
        let _l = clap_obs::test_lock();
        let cells = cells("sim_race").to_vec();
        clap_obs::reset();
        clap_obs::enable();
        emit_events(&PipelineBench {
            host_cores: 2,
            repeats: 1,
            cells,
        });
        clap_obs::disable();
        let snap = clap_obs::snapshot();
        let mut buf = Vec::new();
        clap_obs::sink::write_jsonl(&snap, &mut buf).unwrap();
        for line in String::from_utf8(buf).unwrap().lines() {
            clap_obs::sink::validate_jsonl_line(line).unwrap();
        }
        let phases: Vec<&str> = snap
            .events
            .iter()
            .filter(|e| e.name == "bench.pipeline.cell")
            .flat_map(|e| e.fields.iter())
            .filter(|(key, _)| key == "phase")
            .map(|(_, value)| value.as_str())
            .collect();
        assert_eq!(phases, ["sweep", "oracle"]);
    }
}
