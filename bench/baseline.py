"""Regenerate the "Measured baseline" table of ROADMAP.md from traced runs.

    python3 bench/baseline.py

Each row runs in a fresh process: first untraced through ``cli.main`` for its
end-to-end wall time (as measured, and rescaled to the reference speed as in
``harness.ReferenceSpeed``) and peak RSS, then replayed under the tracer
(``layers.py``) for the three layers with the largest self time, as measured.  The
``circle_domain(4096)`` row times the domain constructor alone.  The table's
Tier-1 row is the test suite's own timing and is not reproduced here.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, OUT, SRC, pinned_env

ROWS = (
    ("pipeline circle:2048 quarter-arc",
     ["pipeline", "{c4}", "--domain", "circle:2048", "--map", "quarter-arc"]),
    ("pipeline sphere2:icosa:4 rotated-nearest",
     ["pipeline", "{octa}", "--domain", "sphere2:icosa:4", "--map", "rotated-nearest"]),
    ("pipeline sphere2:icosa:2 nearest-vertex --check-sd",
     ["pipeline", "{octa}", "--domain", "sphere2:icosa:2", "--map", "nearest-vertex", "--check-sd"]),
    ("circle_domain(4096) alone", None),
)


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_row(index: int) -> dict:
    """End-to-end and per-layer figures of one row, in this process."""
    sys.path.insert(0, str(SRC))
    import random

    from harness import ReferenceSpeed, call_cli
    from inputs import Writer, _target_graphs
    from layers import Tracer, replay
    from vrclosure.cli import main
    from vrclosure.domains import circle_domain

    ref = ReferenceSpeed()
    label, argv = ROWS[index]
    if argv is None:
        _, wall, scaled = ref.measure(lambda: circle_domain(4096))
        return {"label": label, "wall": wall, "scaled": scaled, "rss": peak_mb(), "layers": []}

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        octa, c4 = _target_graphs(Writer(Path(tmp), random.Random(0)))
        argv = [a.format(octa=octa, c4=c4) for a in argv]
        (rc, stdout, tb), wall, scaled = ref.measure(lambda: call_cli(main, argv))
        rss = peak_mb()
        tracer = Tracer()
        replayed = replay(tracer, argv, label)
    if rc != 0 or tb or json.loads(replayed) != json.loads(stdout):
        raise RuntimeError(f"{label}: exit {rc}, or the replay differs from the CLI output")
    layers = sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:3]
    return {"label": label, "wall": wall, "scaled": scaled, "rss": rss, "layers": layers}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--row":
        print(json.dumps(measure_row(int(sys.argv[2]))))
        return 0
    print("| run | end to end | dominant layers |")
    print("|---|---|---|")
    for i in range(len(ROWS)):
        proc = subprocess.run([sys.executable, str(BENCH / "baseline.py"), "--row", str(i)],
                              env=pinned_env(), stdout=subprocess.PIPE, text=True,
                              check=True, timeout=600)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        layers = ", ".join(f"{name} {sec:.2f} s" for name, sec in row["layers"]) or "-"
        print(f"| `{row['label']}` | {row['wall']:.2f} s ({row['scaled']:.2f} s rescaled), "
              f"{row['rss']:.0f} MB | {layers} |",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
