#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <pool_drain|design_eval|daemon_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (CMake, RelWithDebInfo,
linking the library under src/) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, runs the driver, checks that its result line carries
exactly the metrics BENCHMARK.json lists for the run kind, and prints that
line last. A traced run also writes its spans to
<build dir>/traces/<workload>-seed<seed>.json. NOTES.md explains the
workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pool_drain", "design_eval", "daemon_mix")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found at %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(traced):
    """Names and units BENCHMARK.json lists for this run kind, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    section = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(result, traced):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys: %s" % sorted(result))
    want = expected_metrics(traced)
    if want is None:
        return
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (missing, extra,
                           sorted(n for n in want if n in got
                                  and got[n] != want[n])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)

    # The daemon's AF_UNIX socket lives in the build dir; keep its path
    # relative and short (sun_path holds 107 bytes).
    work_dir = os.path.relpath(build_dir)
    if len(work_dir) > 64:
        work_dir = "."
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    traced = args.trace == "1"
    if traced:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last driver line is not JSON: %r" % lines[-1][:200])
    validate(result, traced)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
