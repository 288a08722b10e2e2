#!/usr/bin/env python3
"""Runs one workload of the pipeline benchmark and prints its result line.

    python3 pipeline_bench/run.py --workload batch_tsv --seed 1 \
        --seconds 40 --trace 0

Run from the repository root. The first call configures and builds a
Release tree of the library plus the benchmark driver (into
$CARGO_TARGET_DIR/pipeline_bench, default .bench_build/pipeline_bench);
later calls only re-check it. Each run then

  1. generates the workload's seeded inputs in a fresh work dir under
     .bench_work/ (a separate process, so its time counts as set-up but
     its memory stays out of peak_rss_mb),
  2. runs the workload for about --seconds, and
  3. prints one JSON object as the last line of stdout: correct,
     attempted, failed and metrics (end-to-end with --trace 0, per-layer
     with --trace 1).

Traced runs keep their spans in .bench_work/traces/. The work dir is
removed at the end. --scale and --corrupt serve selftest.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_tsv", "serve_stream", "spill_budget")


def build():
    """Configures (once) and builds the driver; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "pipeline_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "pipeline_bench", "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "pipeline_bench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=0,
                   help="input scale (default: the workload's own)")
    p.add_argument("--corrupt", default="",
                   help="corrupt one output on purpose (self-test)")
    args = p.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root,
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    if args.scale > 0:
        common += ["--scale", repr(args.scale)]
    try:
        t0 = time.monotonic_ns()  # CLOCK_MONOTONIC, as steady_clock
        gen = subprocess.run([exe, "gen"] + common, stdout=sys.stderr)
        if gen.returncode != 0:
            print("input generation failed", file=sys.stderr)
            return 1
        cmd = [exe, "run"] + common + [
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--t0-ns", str(t0)]
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"{args.workload} exited with {run.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(json.dumps({"checks": result["checks"]}), file=sys.stderr)
        if args.trace:
            traces = os.path.join(work_root, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copy(os.path.join(work, "trace.jsonl"),
                        os.path.join(traces, f"{args.workload}-seed"
                                     f"{args.seed}.jsonl"))
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
