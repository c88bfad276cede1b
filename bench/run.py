"""Benchmark of the vrclosure CLI: three workloads, end to end and per layer.

    python3 bench/run.py                      # every workload, each in a fresh process
    python3 bench/run.py --workload sd-check --seed 3 --seconds 20 --trace 0

The second form is the benchmark's command-line contract: a benchmark runner
passes all four options, ``--seconds`` set to ``run_seconds`` of
BENCHMARK.json, which is also its default.

One workload run sets up its seeded inputs, then repeats whole rounds of its
operations through ``vrclosure.cli.main(argv)`` until ``--seconds`` have
passed, checks every output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (``wall_s``, ``peak_rss_mb``, ``setup_s``);
with ``--trace 1`` each round also replays every operation layer by layer
(``layers.py``) and the metrics are the per-layer self times and counts.
A human-readable summary goes to stderr.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fixed before numpy or the program is imported: one BLAS thread and one
# string-hash seed, so two processes of the same run do the same work.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def parse_args():
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description="vrclosure CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload; all of them, each in its own process, when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    if not (SRC / "vrclosure" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'vrclosure'} is missing", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  pinned_env())
    sys.path.insert(0, str(SRC))
    args = parse_args()
    if args.workload is None:
        from harness import run_all

        return run_all(args)
    from harness import run_workload

    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
