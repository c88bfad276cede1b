"""Steadiness check: run every workload on ten seeds and compare spreads with bounds.

    python3 bench/steady.py

Each run is a fresh ``bench/run.py`` process on its own seed (1 to 10), of
``run_seconds`` from BENCHMARK.json, the length a benchmark runner uses.  For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles`` with n=4), the spread (q3 - q1) / median and the
metric's bound, and flags a spread of a third of the bound or more.  A flag
makes the command exit 1, since two sets of runs must agree within the
bound; so does a workload with a wrong output or with runs that fail
different shares of their operations.

``setup_s`` makes the command exit 1 only when its spread exceeds the bound
itself: what two sets of runs must agree on is its median.  Its quartile spread
over ten runs of the same code moved between 2.7 % and 12.7 % from one set
to the next, under every rescaling of set-up tried, while its medians
agreed within 2.2 % (bench/README.md).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            res = run_once(workload, seed)
            results.append(res)
            values = "  ".join(f"{k} {m['value']:.4f}" for k, m in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}  {values}", flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
            print(f"{workload}: failed shares {sorted(map(str, shares))}, "
                  f"correct {[r['correct'] for r in results]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            steady = steady and (flag == "ok" or (name == "setup_s" and flag == "WIDE"))
            print(f"{workload:18s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:7.2%}  bound {bound:.0%}  {flag}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
