#!/usr/bin/env python3
"""Fast self-test of the pipeline benchmark (about a minute).

    python3 pipeline_bench/selftest.py

Runs every workload at a tiny scale, untraced and traced, and requires
every output check to pass. Then corrupts one output at a time and
requires the check that guards it to reject the run:

  prob    one losing triple's probability halved
  rank    the fused ranking turned upside down (p -> 1 - p)
  drop    one record of the stream never appended
  winner  a served winner swapped for another triple
  seqno   a reader observing an older generation after a newer one

Exits 0 when every case behaves, 1 otherwise.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.1"

# (workload, corruption, checks that must fail)
CORRUPTIONS = [
    ("batch_tsv", "prob", {"stage2_fixed_point", "export_roundtrip"}),
    ("batch_tsv", "rank", {"paper_ordering"}),
    ("spill_budget", "prob", {"stage2_fixed_point", "budget_bit_identity"}),
    ("serve_stream", "prob", {"stage2_fixed_point"}),
    ("serve_stream", "drop", {"all_records_visible"}),
    ("serve_stream", "winner", {"served_winner"}),
    ("serve_stream", "seqno", {"seqno_monotonic"}),
]


def run(workload, trace=0, corrupt=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", SCALE]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    if out.returncode != 0:
        return None, None
    checks = [l for l in out.stderr.splitlines() if l.startswith('{"checks"')]
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            json.loads(checks[-1])["checks"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0

    def verdict(ok, what):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)

    # serve_stream is not in BENCHMARK.json (see README.md) but keeps its
    # checks; it reports the listed metrics plus its publish metrics.
    for w in ("batch_tsv", "serve_stream", "spill_budget"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, checks = run(w, trace)
            want = {m["name"] for m in spec[kind]}
            verdict(result is not None and result["correct"]
                    and result["failed"] == 0
                    and want <= set(result["metrics"])
                    and (not trace or checks.get("trace_coverage")),
                    f"{w} trace={trace}: clean run passes {sorted(checks or {})}")
    for w, corrupt, guards in CORRUPTIONS:
        result, checks = run(w, 0, corrupt)
        rejected = {c for c, ok in (checks or {}).items() if not ok}
        verdict(result is not None and not result["correct"]
                and guards <= rejected,
                f"{w} --corrupt {corrupt}: rejected by {sorted(rejected)}")
    print("self-test", "passed" if failures == 0 else f"failed ({failures})")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
