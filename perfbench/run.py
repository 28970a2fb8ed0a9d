#!/usr/bin/env python3
"""Build and run the qplace benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload relay-lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a qplace checkout. The benchmark is compiled from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build) on first
use; later runs only re-check that build. Prints provenance, one line per
metric with its unit and direction, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

WORKLOADS = ["relay-lp", "large-layout", "sim-churn"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    bench = pathlib.Path(__file__).resolve().parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no qplace sources under {root}; run from a qplace checkout")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:3])} exited {done.returncode}")
    binary = build_dir / "qbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def read(path, default="unknown"):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return default


def host_provenance(root):
    cpu_model = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        level = read(index / "level")
        kind = read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    sha = "unknown"  # a plain source tree, not a git checkout
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=False).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "caches": caches, "kernel": platform.release(), "git_sha": sha}


def run_workload(binary, workload, args, host):
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} result has keys {sorted(result)}")
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
            provenance["host"] = host
            print("provenance " + json.dumps(provenance, sort_keys=True))
        else:
            print(line)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(root, build_dir)
    host = host_provenance(root)

    if args.workload != "all":
        result = run_workload(binary, args.workload, args, host)
    else:
        # One result over all workloads, each metric prefixed by its workload.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            print(f"== {workload}")
            one = run_workload(binary, workload, args, host)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for name, metric in one["metrics"].items():
                result["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(result))


if __name__ == "__main__":
    main()
