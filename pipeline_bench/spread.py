#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 pipeline_bench/spread.py --runs 10 [--first-seed 1]
        [--workloads batch_tsv,serve_stream,spill_budget] [--trace 0]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the
inter-quartile distance as a share of the median. Run from the repository
root; each run is one call of run.py with BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    ok = True
    for w in workloads:
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}")
                ok = False
                continue
            r = json.loads(out.stdout.strip().splitlines()[-1])
            ok &= r["correct"]
            shares.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
        print(f"{w}: failed share(s) {sorted(shares)}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (
                med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  ok" if spread <= bound / 3 else "  WIDE"
                ok &= spread <= bound
            print(f"  {name:24s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:7.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
