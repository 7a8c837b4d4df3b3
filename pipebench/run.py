#!/usr/bin/env python3
"""Pipeline benchmark: time to reproduce, offline solve and differential check.

Usage, from the root of the repository:

    python3 pipebench/run.py --workload <paper|nonblocking> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the harness in this directory (a cargo package of its own; the
target directory is $CARGO_TARGET_DIR, or .bench_build), then measures in
two rounds of half the seconds each. A round runs one copy of the harness
pinned to each of the first two CPUs this process may use, all for the
same workload and seed. On a shared 2-vCPU Xeon virtual machine each core
ran up to 1.7x slower for seconds at a time, on its own schedule, and a
program's speed also shifted a little from process to process; so every
copy keeps each program's fastest pass, and this script keeps the fastest
over all copies. Whole runs there also drifted by up to 20% over minutes,
on both cores at once, so every copy also times a fixed reference kernel,
and this script scales the copy's times to a core that runs that kernel in
REFERENCE_MS: a time reads as milliseconds (or seconds) at that reference
speed. See src/main.rs for what one pass measures.

The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end: the geometric mean over the
corpus of each program's fastest reproduce, offline and check time, so that
every program counts alike, plus setup_s, the median time to build the
corpus from the seed. With --trace 1 they are per layer: each layer's time
and work summed over the corpus, so that the times add up to one pass.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
COPIES = 2
ROUNDS = 2
# Times are reported as on a core that runs the harness's reference kernel
# in this many milliseconds.
REFERENCE_MS = 1.0


def build():
    """Builds the harness and returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("pipebench: build failed")
    return os.path.join(os.path.abspath(target), "release", "pipebench")


def run_copies(exe, args, seconds):
    """Runs one harness copy per CPU; returns each copy's parsed result."""
    harness_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    cpus = sorted(os.sched_getaffinity(0))[:COPIES]
    procs = [
        subprocess.Popen(
            [exe] + harness_args,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}),
        )
        for cpu in cpus
    ]
    try:
        with ThreadPoolExecutor(len(procs)) as pool:
            # A pass never outlasts a few seconds; the margin only catches
            # a hang.
            outputs = list(pool.map(lambda p: p.communicate(timeout=seconds + 90), procs))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    sys.stderr.write(outputs[0][1])
    results = []
    for p, (out, err) in zip(procs, outputs):
        lines = out.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(err)
            sys.exit(f"pipebench: harness exited with {p.returncode}")
        results.append(json.loads(lines[-1]))
    return results


def scale(result):
    """The factor that takes a copy's times to the reference speed."""
    return REFERENCE_MS / result["reference_ms"]


def merge(results, trace):
    """Combines the copies' per-program fastest passes into the metrics."""
    aggregate = sum if trace else statistics.geometric_mean
    out = {}
    for m, (name, unit) in enumerate(results[0]["metrics"]):
        fastest = []
        for program in results[0]["programs"]:
            # None: the program never passed in that copy, which the copy
            # already reports as incorrect.
            values = [
                v * (1 if unit == "count" else scale(r))
                for r in results
                if (v := r["programs"][program][m]) is not None
            ]
            if values:
                fastest.append(min(values))
        out[name] = {"value": aggregate(fastest) if fastest else 0.0, "unit": unit}
    if not trace:
        setups = [s * scale(r) for r in results for s in r["setup_s"]]
        out["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper", "nonblocking"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    exe = build()
    seconds = max(1, args.seconds // ROUNDS)
    results = [r for _ in range(ROUNDS) for r in run_copies(exe, args, seconds)]
    print(json.dumps(merge(results, args.trace)))


if __name__ == "__main__":
    main()
