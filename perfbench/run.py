#!/usr/bin/env python3
"""The pathinv benchmark: build, run one workload, print one JSON result.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload fuzz_mix --seed 1 --pool-seed 2 ...
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library and pathinv_perf are built from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, by
default .bench_build/perfbench. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics, and writes the run's spans
and per-job counters to <build>/traces/<workload>-<seed>-<pool seed>.json.
The last line of stdout is the result:

    {"correct": true, "attempted": 18, "failed": 0, "metrics": {...}}

The line before it records the build type, compiler, nproc and CPU model.
The seed orders the jobs; the pool seed (default: workloads.json) decides
which generated programs they run, so runs with different seeds time the
same programs. --self-test runs every workload briefly and checks the
metric names and units, zero failures, exact per-job counters across two
traced runs of one seed, and that another pool seed draws other programs
that pass the same checks. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_json(path):
    with open(path) as f:
        return json.load(f)


MANIFEST = load_json(os.path.join(HERE, "workloads.json"))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, then (re)builds pathinv_perf; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the pathinv sources (src/) are not next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", "pathinv_perf"]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "pathinv_perf")


def run_workload(binary, workload, seed, seconds, trace, pool_seed=None):
    """Runs one workload; returns (machine line, result dict, trace path)."""
    if pool_seed is None:
        pool_seed = MANIFEST["workloads"][workload]["pool_seed"]
    trace_out = os.path.join(build_dir(), "traces",
                             f"{workload}-{seed}-{pool_seed}.json")
    # perfbench/programs/ holds frozen copies of the paper programs in
    # examples/, so that a later edit to an example does not change what
    # the benchmark measures.
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--pool-seed", str(pool_seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--programs", os.path.join(HERE, "programs")]
    if trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"perfbench: pathinv_perf failed on {workload} (exit {proc.returncode})")
    return lines[-2], json.loads(lines[-1]), trace_out


def declared_metrics(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return spec["per_layer" if trace else "end_to_end"]


def result_line(result, trace):
    """The contract's result object: the declared metrics, each checked to
    be printed with its declared unit."""
    metrics = {}
    for m in declared_metrics(trace):
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"perfbench: metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def exact_counts(trace_path):
    """(program, engine) -> exact counters of the first pass's cegar and pdr
    jobs."""
    exact = MANIFEST["exact_counters"]
    out = {}
    for job in load_json(trace_path)["jobs"]:
        if job["pass"] == 0 and job["engine"] in exact["engines"]:
            out[(job["program"], job["engine"])] = {
                c: job["counts"].get(c, 0) for c in exact["counters"]}
    return out


def self_test(binary):
    problems = []
    for workload, info in MANIFEST["workloads"].items():
        seed = info["default_seed"]
        traces = []
        for trace in (0, 1, 1):
            _, result, path = run_workload(binary, workload, seed, 1, trace)
            line = result_line(result, trace)
            if line["failed"] != 0 or not line["correct"]:
                problems.append(f"{workload}: {line['failed']} failed jobs")
            if trace:
                traces.append(exact_counts(path))
                drawn = {job["program"] for job in load_json(path)["jobs"]}
        first, second = traces
        if not first and workload != "service_mix":
            problems.append(f"{workload}: no cegar or pdr jobs traced")
        for key in sorted(set(first) & set(second)):
            if first[key] != second[key]:
                problems.append(f"{workload}: {key} counters differ between "
                                f"two runs of seed {seed}: {first[key]} vs {second[key]}")
        if workload != "paper":
            # A claim must rerun on other programs: another pool seed draws
            # them, and they pass the same checks.
            pool_seed = info["pool_seed"] + 1
            _, result, path = run_workload(binary, workload, seed + 1, 1, 1, pool_seed)
            if result["failed"] != 0:
                problems.append(f"{workload}: pool seed {pool_seed}: "
                                f"{result['failed']} failed")
            programs = {job["program"] for job in load_json(path)["jobs"]}
            if programs == drawn:
                problems.append(f"{workload}: pool seed {pool_seed} drew the same programs")
        print(f"self-test {workload}: {len(first)} exact jobs compared", file=sys.stderr)
    for p in problems:
        print("self-test FAIL: " + p, file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(MANIFEST["workloads"]))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--pool-seed", type=int,
                    help="which generated programs to run (default: workloads.json)")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        ap.error("--workload is required")
    seed = args.seed
    if seed is None:
        seed = MANIFEST["workloads"][args.workload]["default_seed"]
    machine, result, _ = run_workload(binary, args.workload, seed, args.seconds,
                                      args.trace, args.pool_seed)
    print(machine)
    print(json.dumps(result_line(result, args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
