"""The benchmark's traced replay (``bench/layers.py``) calls the program's
public functions by name, so a rename in ``src/`` breaks it only when a
traced run happens.  Replaying a few small operations here catches that
first: each replay must print what ``cli.main`` prints for the same argv."""

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


@pytest.mark.parametrize("op", ["probe-pipeline", "probe-betti", "build"])
def test_replay_prints_what_the_cli_prints(op, bench, tmp_path, capsys):
    harness, layers = bench
    probe_pipeline, probe_betti = harness.write_probes(tmp_path)
    argv = {
        "probe-pipeline": probe_pipeline,
        "probe-betti": probe_betti,
        "build": ["build", probe_betti[1], "--max-dim", "2"],
    }[op]
    assert main(list(argv)) == 0
    stdout = capsys.readouterr().out
    assert layers.replay(layers.Tracer(), list(argv), op) + "\n" == stdout
