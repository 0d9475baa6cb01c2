#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py ... --short      # small instances (self-test)
    python3 perfbench/run.py --workload serve_mix ... --closed-loop
                                              # serve capacity on the mix
    python3 perfbench/run.py --self-test      # every workload, short mode

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), and so do the per-run scratch directories and the traced
runs' Chrome trace files (.bench_build/traces/). The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not build or run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold8500_serial", "cold8500_threads", "stream123_day",
             "serve_mix"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    out = build_dir()
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run(binary, workload, seed, seconds, trace, short, closed_loop=False):
    """Run one workload; returns (exit code, parsed result or None)."""
    scratch = os.path.relpath(build_dir(), ROOT)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--scratch", scratch]
    if short:
        cmd.append("--short")
    if closed_loop:
        cmd.append("--closed-loop")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return 2, None
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 2, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last output line is not JSON")
        return 2, None
    return proc.returncode, result


def check_result(result, trace):
    """Problems with a result line against BENCHMARK.json, as strings."""
    end_to_end, per_layer = declared_metrics()
    want = per_layer if trace else end_to_end
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if sorted(result.get("metrics", {})) != sorted(want):
        problems.append("metric names differ from BENCHMARK.json")
    for name, m in result.get("metrics", {}).items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name} is not a finite number")
        elif not trace and v <= 0:
            problems.append(f"end-to-end metric {name} is {v}")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    return problems


def self_test():
    binary = build()
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(binary, workload, 7, 1, trace, short=True)
            problems = [f"exit {code}"] if code != 0 else []
            if result is None:
                problems.append("no result line")
            else:
                problems += check_result(result, trace)
                if not result["correct"] or result["failed"]:
                    problems.append("output check failed")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            log(f"self-test {workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true")
    ap.add_argument("--closed-loop", action="store_true",
                    help="serve_mix: send each request as soon as a lane "
                    "is free (measures capacity)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None or args.seed is None or not args.seconds:
            ap.error("--workload, --seed and --seconds are required")
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    code, result = run(binary, args.workload, args.seed, args.seconds,
                       args.trace, args.short, args.closed_loop)
    if result is None:
        return code or 2
    if not result["correct"]:
        return code or 1
    problems = check_result(result, args.trace)
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
