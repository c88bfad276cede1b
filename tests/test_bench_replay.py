"""The benchmark's traced replay (``bench/layers.py``) calls the program's
public functions by name, so a rename in ``src/`` breaks it only when a
traced run happens.  Replaying a few small operations here catches that
first: each replay must print what ``cli.main`` prints for the same argv,
on the failure path too."""

import json
import sys
from pathlib import Path

import pytest

from vrclosure.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    # importing must leave no bytecode cache in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    import layers

    return harness, layers


# an octahedron on k-prefixed string labels, as the benchmark's Klein bottle
# is written, and a triangle with a pendant edge on spread integer labels
OCTAHEDRON_K = "".join(
    f"k{i} k{j}\n" for i in range(6) for j in range(i + 1, 6) if i // 2 != j // 2
)
SPREAD = "40 7\n7 1000\n1000 40\n40 12\n55\n"


@pytest.mark.parametrize(
    "op", ["probe-pipeline", "probe-betti", "build", "betti-string-labels", "build-spread-labels"]
)
def test_replay_prints_what_the_cli_prints(op, bench, tmp_path, capsys):
    harness, layers = bench
    probe_pipeline, probe_betti = harness.write_probes(tmp_path)
    (tmp_path / "octahedron-k.txt").write_text(OCTAHEDRON_K, encoding="utf-8")
    (tmp_path / "spread.txt").write_text(SPREAD, encoding="utf-8")
    argv = {
        "probe-pipeline": probe_pipeline,
        "probe-betti": probe_betti,
        "build": ["build", probe_betti[1], "--max-dim", "2"],
        "betti-string-labels": ["betti", str(tmp_path / "octahedron-k.txt"), "--max-k", "2"],
        "build-spread-labels": ["build", str(tmp_path / "spread.txt"), "--max-dim", "2"],
    }[op]
    assert main(list(argv)) == 0
    stdout = capsys.readouterr().out
    assert layers.replay(layers.Tracer(), list(argv), op) + "\n" == stdout


def test_replay_prints_the_cli_failure(bench, tmp_path, capsys):
    # quarter arcs of circle:16 onto C4 with sample 5 sent to the vertex
    # opposite its arc's: the clique certificate fails, exit 1
    _harness, layers = bench
    graph = tmp_path / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    values = {str(i): str(i * 4 // 16) for i in range(16)}
    values["5"] = "3"
    jump = tmp_path / "jump.json"
    jump.write_text(json.dumps({"base": "0", "values": values}), encoding="utf-8")
    argv = ["pipeline", str(graph), "--domain", "circle:16", "--map", "@" + str(jump)]
    assert main(list(argv)) == 1
    stdout = capsys.readouterr().out
    assert json.loads(stdout)["failure"]["stage"] == "clique certificate"
    assert layers.replay(layers.Tracer(), list(argv), "jump") + "\n" == stdout
