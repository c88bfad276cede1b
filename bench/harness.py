"""Set-up, timed rounds, checks and the result line of one workload run."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from run import BENCH, OUT, SRC, pinned_env

SETUP_REPEATS = 15


class ReferenceSpeed:
    """A fixed kernel timed around and during operations, to divide out
    machine speed.

    On a shared 2-core VM the speed of the same code drifts by up to 2x,
    in phases from a second to minutes long, as neighbours load the host.
    The kernel does the same kinds of work as the program (big-int GF(2)
    elimination, set intersections, a numpy distance matrix and row sorts)
    on fixed data, so it slows with the program; it never calls the
    program, so a change to the program does not move it.

    ``measure(fn)`` runs the kernel before ``fn``, every ``PERIOD_S`` while
    ``fn`` runs (from a SIGALRM handler, between bytecodes), and after it.
    It returns ``fn``'s result, its measured time less the kernel time spent
    inside it, and that time rescaled to the speed at which the kernel takes
    ``KERNEL_S``.  The kernel after one call serves as the one before the next.
    """

    KERNEL_S = 0.022  # the kernel's time on the reference machine, unloaded
    PERIOD_S = 0.5

    def __init__(self):
        import random

        rng = random.Random(20240601)
        self.columns = [rng.getrandbits(700) for _ in range(500)]
        self.neighbours = [frozenset(rng.sample(range(2000), 40)) for _ in range(600)]
        self.points = np.random.default_rng(20240601).normal(size=(220, 3))
        self.last = self.kernel()
        self.samples: list = []

    def kernel(self) -> float:
        start = time.perf_counter()
        pivots: dict = {}
        for col in self.columns:
            while col:
                low = col & -col
                if low not in pivots:
                    pivots[low] = col
                    break
                col ^= pivots[low]
        sum(len(a & b) for a, b in zip(self.neighbours, self.neighbours[1:]))
        diff = self.points[:, None, :] - self.points[None, :, :]
        np.argsort(np.sqrt((diff * diff).sum(axis=2)), axis=1, kind="stable")
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.kernel())

    def measure(self, fn, sample: bool = True) -> tuple:
        before, self.samples = self.last, []
        previous = signal.signal(signal.SIGALRM, self._sample)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        seconds = elapsed - sum(self.samples)
        self.last = self.kernel()
        speeds = [before, self.last, *self.samples]
        return result, seconds, seconds * self.KERNEL_S * len(speeds) / sum(speeds)


def timed_setup(workload: str, seed: int, work: Path, ref: ReferenceSpeed) -> tuple:
    """Median wall time of fresh processes that import the CLI and write the
    seeded inputs, each rescaled by the reference kernel timed around it;
    returns it with the last process's operations.

    Every repetition must write byte-identical inputs: the same seed gives
    the same inputs.
    """
    times, listings = [], []
    for rep in range(SETUP_REPEATS):
        out = work / f"inputs-{rep}"
        cmd = [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
        _, _, scaled = ref.measure(
            lambda: subprocess.run(cmd, env=pinned_env(), check=True, timeout=120), sample=False)
        times.append(scaled)
        listings.append({
            p.name: p.read_bytes().replace(str(out).encode(), b"<dir>")
            for p in sorted(out.iterdir())
        })
    if any(listing != listings[0] for listing in listings):
        raise RuntimeError("the input generator is not deterministic for one seed")
    ops = json.loads((work / f"inputs-{SETUP_REPEATS - 1}" / "manifest.json").read_text())
    return statistics.median(times), ops


def call_cli(main, argv: list) -> tuple:
    """(exit code, stdout, traceback or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the CLI would die with this traceback and exit 1
        return 1, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), None


def op_failed(op: dict, rc, tb) -> bool:
    """An operation fails when it escapes with a traceback or exits with
    another code than the one its input calls for."""
    return tb is not None or rc != op["expect_exit"]


def malformed(op: dict) -> bool:
    """A malformed-input operation: it should exit 2 and print nothing to stdout."""
    return op["check"].get("family") == "malformed"


def write_probes(work: Path) -> list:
    """The argv of two tiny operations that a traced round replays after the
    workload's own, so that every layer runs in every traced run.

    A layer that the workload never calls would otherwise read exactly 0 s
    on every run, which says nothing about it.  The probes take about 10 ms
    a round, no layer more than 2 ms; they add to the layer self times and
    not to the counts.
    """
    c4 = work / "probe-c4.txt"
    c4.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    return [
        ["pipeline", str(c4), "--domain", "circle:16", "--map", "quarter-arc",
         "--subdivisions", "1", "--check-sd", "--grid", "4"],
        ["betti", str(c4)],
    ]


def run_rounds(ops: list, seconds: float, ref: ReferenceSpeed, tracer=None, probes=()) -> dict:
    """Whole rounds of every operation until ``seconds`` have passed.

    Each operation's time is rescaled by ``ref``; in a traced round each
    replay is timed too, then the ``probes`` are replayed, and the round's
    layer self times are rescaled by the mean factor of its replays.
    """
    from vrclosure.cli import main

    if tracer is not None:
        from layers import replay

    first: list = []
    raw_times = [[] for _ in ops]
    op_times = [[] for _ in ops]
    traced_totals, untraced_totals, layer_rounds = [], [], []
    problems: list = []
    start = time.perf_counter()
    while True:
        mark = len(tracer.spans) if tracer is not None else 0
        traced = untraced = 0.0
        factors: list = []
        for i, op in enumerate(ops):
            gc.collect()
            (rc, stdout, tb), raw, scaled = ref.measure(lambda: call_cli(main, op["argv"]))
            raw_times[i].append(raw)
            op_times[i].append(scaled)
            if len(first) <= i:
                first.append((rc, stdout, tb))
            elif (rc, stdout) != first[i][:2]:
                problems.append(f"{op['id']}: output changed between rounds")
            if tracer is None or op_failed(op, rc, tb) or malformed(op):
                continue
            untraced += scaled
            gc.collect()
            try:
                result, raw, scaled = ref.measure(lambda: replay(tracer, op["argv"], op["id"]),
                                                  sample=False)
            except Exception as exc:  # a changed internal signature breaks only the replay
                problems.append(f"{op['id']}: replay failed: {exc!r}")
                continue
            traced += scaled
            factors.append(scaled / raw)
            if json.loads(result) != json.loads(stdout):
                problems.append(f"{op['id']}: replayed output differs from the untraced output")
        if tracer is not None:
            counts = tracer.counts.copy()
            for argv in probes:
                rc, stdout, tb = call_cli(main, argv)
                try:
                    ok = (tb is None and rc == 0
                          and json.loads(replay(tracer, argv, "probe")) == json.loads(stdout))
                except Exception:  # as above, a broken replay is a problem, not a crash
                    ok = False
                if not ok:
                    problems.append(f"probe {argv[0]}: failed, or its replay differs")
            tracer.counts = counts
            factor = statistics.mean(factors) if factors else 1.0
            traced_totals.append(traced)
            untraced_totals.append(untraced)
            layer_rounds.append({k: v * factor for k, v in tracer.self_times(mark).items()})
        if time.perf_counter() - start >= seconds:
            break
    return {
        "rounds": len(op_times[0]),
        "first": first,
        "raw_times": raw_times,
        "op_times": op_times,
        "problems": problems,
        "traced_totals": traced_totals,
        "untraced_totals": untraced_totals,
        "layer_rounds": layer_rounds,
    }


def check_outputs(ops: list, first: list) -> tuple:
    """(failed operations per round, problems with the outputs of the others).

    A malformed-input operation is judged by its exit code alone: once it
    exits 2 without a traceback, as it should, it prints only to stderr.
    """
    from checks import check_op

    failed, problems = [], []
    for op, (rc, stdout, tb) in zip(ops, first):
        if op_failed(op, rc, tb):
            last = tb.strip().splitlines()[-1] if tb else f"exit {rc}"
            failed.append(f"{op['id']}: {last}")
        elif not malformed(op):
            try:
                found = check_op(op, rc, stdout)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                found = [f"output has an unexpected shape: {exc!r}"]
            problems += [f"{op['id']}: {p}" for p in found]
    return failed, problems


def run_workload(args) -> int:
    import vrclosure

    if Path(vrclosure.__file__).resolve().parent != SRC / "vrclosure":
        print(f"error: imported vrclosure from {vrclosure.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ref = ReferenceSpeed()
        setup_s, ops = timed_setup(args.workload, args.seed, work, ref)
        tracer, probes = None, []
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            probes = write_probes(work)
        res = run_rounds(ops, args.seconds, ref, tracer, probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = check_outputs(ops, res["first"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems += res["problems"]
    rounds = res["rounds"]
    medians = [statistics.median(t) for t in res["op_times"]]
    raw = [statistics.median(t) for t in res["raw_times"]]
    log = sys.stderr
    print(f"== {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops "
          f"(median seconds per op: rescaled, measured)", file=log)
    for op, med, r in zip(ops, medians, raw):
        print(f"  {med:9.4f} {r:9.4f}  {op['id']}", file=log)
    print(f"  {sum(medians):9.4f} {sum(raw):9.4f}  total", file=log)
    for line in failed:
        print(f"  FAILED {line}", file=log)
    for line in problems:
        print(f"  WRONG  {line}", file=log)
    if args.trace:
        metrics = layer_metrics(args, res, tracer)
    else:
        metrics = {
            "wall_s": {"value": sum(medians), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}", file=log)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * len(ops),
        "failed": rounds * len(failed),
        "metrics": metrics,
    }))
    return 0


def layer_metrics(args, res: dict, tracer) -> dict:
    from layers import LAYER_COUNTS, LAYER_TIMES

    rounds = res["rounds"]
    metrics = {}
    for name in LAYER_TIMES:
        value = statistics.median(r.get(name, 0.0) for r in res["layer_rounds"])
        metrics[f"{name}_s"] = {"value": value, "unit": "s"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": tracer.counts[name] // rounds, "unit": "count"}
    traced = statistics.median(res["traced_totals"])
    untraced = statistics.median(res["untraced_totals"])
    print(f"  tracing overhead: {traced - untraced:+.4f} s on {untraced:.4f} s untraced "
          f"({(traced - untraced) / untraced:+.2%}), median of {rounds} rounds", file=sys.stderr)
    others = sorted({s[0] for s in tracer.spans} - set(LAYER_TIMES))
    for name in others:
        value = statistics.median(r.get(name, 0.0) for r in res["layer_rounds"])
        print(f"  (unreported span) {name:24s} {value:10.4f} s", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write(path)
    print(f"  spans written to {path}", file=sys.stderr)
    return metrics


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    from inputs import WORKLOADS

    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        metrics = "  ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {metrics}")
    return status
