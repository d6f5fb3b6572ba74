"""Steadiness report: run one workload repeatedly and show the spread.

    python3 bench/steady.py --workload split-grid            # 10 runs
    python3 bench/steady.py --workload all --runs 5 --first-seed 21

Each run is a fresh ``bench/run.py`` process with its own seed and the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric the report
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (Q3 - Q1) / median, beside the metric's bound.  A spread above a
third of the bound is marked ``WIDE``; above the bound, ``OVER``.  setup_s is
exempt from the spread rule, as it is in the benchmark contract.  Exits 1 if
a run is incorrect, has a failed op, or any spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest_status"] = json.loads(lines[-2])["digest_status"]
    result["seed"] = seed
    return result


def report(spec: dict, workload: str, results: list) -> bool:
    """Print the spread table of one workload; False if a bound is broken."""
    ok = True
    print(f"\n{workload}: {len(results)} runs")
    for r in results:
        if not r["correct"] or r["failed"]:
            ok = False
    print("  correct: " + " ".join("y" if r["correct"] else "N" for r in results)
          + "   failed: " + " ".join(str(r["failed"]) for r in results))
    unrecorded = [r["seed"] for r in results if r["digest_status"] == "unrecorded"]
    if unrecorded:
        print(f"  no recorded digest for seeds {unrecorded}")
    print(f"  {'metric':<12} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6} {'':<4}  values by seed")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        mark = ""
        if m["name"] != "setup_s":
            if spread > m["bound"]:
                mark, ok = "OVER", False
            elif spread > m["bound"] / 3:
                mark = "WIDE"
        print(f"  {m['name']:<12} {m['unit']:<5} {med:>12.4f} {q1:>12.4f} {q3:>12.4f}"
              f" {spread:>7.3f} {m['bound']:>6.2f} {mark:<4}  "
              + " ".join(f"{v:.4g}" for v in values))
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        results = [one_run(spec, workload, args.first_seed + i)
                   for i in range(args.runs)]
        ok = report(spec, workload, results) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
