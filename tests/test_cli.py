"""Edge-list parsing, CLI commands, exit codes, and output determinism."""

import json

import pytest

from vrclosure.cli import InputError, main, parse_edge_list

C4 = "0 1\n1 2\n2 3\n3 0\n"
K3 = "0 1\n1 2\n0 2\n"
OCTA = "\n".join(
    f"{i} {j}" for i in range(6) for j in range(i + 1, 6) if i // 2 != j // 2
) + "\n"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_basic_edges(self):
        g = parse_edge_list(C4)
        assert g.vertices == (0, 1, 2, 3)
        assert len(g.edges) == 4

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\n0 1  # trailing\n")
        assert g.edges == {(0, 1)}

    def test_isolated_vertex_line(self):
        g = parse_edge_list("0 1\n7\n")
        assert 7 in g.vertices
        assert len(g.edges) == 1

    def test_self_loop_declares_vertex(self):
        g = parse_edge_list("0 0\n")
        assert g.vertices == (0,)
        assert g.edges == frozenset()

    def test_too_many_tokens_names_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n")

    def test_unicode_digit_names_line(self):
        # "²".isdigit() holds, but int("²") raises
        with pytest.raises(InputError, match="line 2"):
            parse_edge_list("0 1\n1 \u00b2\n")

    def test_empty_input(self):
        with pytest.raises(InputError):
            parse_edge_list("# nothing here\n")

    def test_numeric_ordering(self):
        g = parse_edge_list("10 2\n2 1\n")
        assert g.vertices == (1, 2, 10)

    def test_lexicographic_when_not_numeric(self):
        g = parse_edge_list("b a\n10 a\n")
        assert g.vertices == ("10", "a", "b")


class TestBuild:
    def test_c4_counts(self, capsys, c4_file):
        code, out, err = run_cli(capsys, "build", c4_file, "--max-dim", "2")
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == [4, 4, 0]
        assert "simplex counts" in err

    def test_k3_counts(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text(K3)
        code, out, _ = run_cli(capsys, "build", str(path), "--max-dim", "2")
        assert code == 0
        assert json.loads(out)["counts"] == [3, 3, 1]

    def test_self_loop_accepted(self, capsys, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("0 0\n0 1\n")
        code, out, _ = run_cli(capsys, "build", str(path), "--max-dim", "1")
        assert code == 0
        assert json.loads(out)["counts"] == [2, 1]

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "build", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "input error" in err


class TestBetti:
    def test_c4(self, capsys, c4_file):
        code, out, _ = run_cli(capsys, "betti", c4_file)
        assert code == 0
        report = json.loads(out)
        assert report == {"betti": [1, 1], "euler": 0, "field": "GF(2)"}

    def test_octahedron(self, capsys, tmp_path):
        path = tmp_path / "octa.txt"
        path.write_text(OCTA)
        code, out, _ = run_cli(
            capsys, "betti", str(path), "--max-k", "2", "--max-dim", "3"
        )
        assert code == 0
        report = json.loads(out)
        assert report["betti"] == [1, 0, 1]
        assert report["euler"] == 2

    def test_single_vertex(self, capsys, tmp_path):
        path = tmp_path / "k1.txt"
        path.write_text("0\n")
        code, out, _ = run_cli(capsys, "betti", str(path))
        assert code == 0
        assert json.loads(out)["betti"] == [1, 0]

    def test_inconsistent_caps(self, capsys, c4_file):
        code, _, err = run_cli(capsys, "betti", c4_file, "--max-k", "2", "--max-dim", "2")
        assert code == 2
        assert "max-k" in err


class TestTheta:
    def test_barycenter_tie(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text(K3)
        point = json.dumps({"carrier": [0, 1, 2], "coords": [1 / 3, 1 / 3, 1 / 3]})
        code, out, _ = run_cli(capsys, "theta", str(path), point)
        assert code == 0
        assert json.loads(out) == {"vertex": 0}

    def test_edge_midpoint(self, capsys, c4_file):
        point = json.dumps({"carrier": [1, 2], "coords": [0.5, 0.5]})
        code, out, _ = run_cli(capsys, "theta", c4_file, point)
        assert code == 0
        assert json.loads(out) == {"vertex": 1}

    def test_vertex_point(self, capsys, c4_file):
        point = json.dumps({"carrier": [3], "coords": [1.0]})
        code, out, _ = run_cli(capsys, "theta", c4_file, point)
        assert code == 0
        assert json.loads(out) == {"vertex": 3}

    def test_point_file(self, capsys, c4_file, tmp_path):
        ppath = tmp_path / "point.json"
        ppath.write_text(json.dumps({"carrier": [0, 1], "coords": [0.25, 0.75]}))
        code, out, _ = run_cli(capsys, "theta", c4_file, str(ppath))
        assert code == 0
        assert json.loads(out) == {"vertex": 1}

    def test_non_clique_carrier_fails(self, capsys, c4_file):
        point = json.dumps({"carrier": [0, 2], "coords": [0.5, 0.5]})
        code, _, err = run_cli(capsys, "theta", c4_file, point)
        assert code == 1
        assert "error" in err


class TestPipeline:
    def test_quarter_arc(self, capsys, c4_file):
        code, out, _ = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:64", "--map", "quarter-arc"
        )
        assert code == 0
        report = json.loads(out)
        assert report["simplicial"] is True
        assert report["h1"]["rank"] == 1
        assert report["certificate"]["delta"] > 0

    def test_constant(self, capsys, c4_file):
        code, out, _ = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:32", "--map", "constant"
        )
        assert code == 0
        report = json.loads(out)
        assert report["h1"]["rank"] == 0

    def test_values_file(self, capsys, c4_file, tmp_path):
        values = {str(i): str((i * 4) // 16) for i in range(16)}
        vpath = tmp_path / "values.json"
        vpath.write_text(json.dumps({"base": "0", "values": values}))
        code, out, _ = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:16", "--map", f"@{vpath}"
        )
        assert code == 0
        assert json.loads(out)["h1"]["rank"] == 1

    def test_certificate_failure_exits_one(self, capsys, c4_file, tmp_path):
        # alternate 0 and 2 around the circle: nearest neighbors non-adjacent
        values = {str(i): str(0 if i % 2 == 0 else 2) for i in range(16)}
        vpath = tmp_path / "bad.json"
        vpath.write_text(json.dumps({"base": "0", "values": values}))
        code, out, _ = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:16", "--map", f"@{vpath}"
        )
        assert code == 1
        report = json.loads(out)
        assert "failure" in report
        assert set(report["failure"]["values"]) == {"0", "2"}

    def test_unknown_domain(self, capsys, c4_file):
        code, _, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "torus:9", "--map", "constant"
        )
        assert code == 2
        assert "domain" in err

    def test_unknown_map(self, capsys, c4_file):
        code, _, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:8", "--map", "mystery"
        )
        assert code == 2


MALFORMED = {
    "unicode-digit": ("unicode-digit.txt", "0 1\n1 \u00b2\n".encode(), ("betti", "{graph}")),
    "not-utf8": ("not-utf8.txt", b"0 1\n1 \xff\xfe\n", ("build", "{graph}")),
    "negative-dim": ("path3.txt", b"0 1\n1 2\n", ("build", "{graph}", "--max-dim", "-1")),
    "nan-theta": (
        "path3.txt",
        b"0 1\n1 2\n",
        ("theta", "{graph}", '{{"carrier":[0,1],"coords":[1.0,NaN]}}'),
    ),
    "grid-zero": (
        "c4.txt",
        C4.encode(),
        ("pipeline", "{graph}", "--domain", "circle:64", "--map", "quarter-arc",
         "--check-sd", "--grid", "0"),
    ),
    "negative-subdivisions": (
        "c4.txt",
        C4.encode(),
        ("pipeline", "{graph}", "--domain", "circle:16", "--map", "quarter-arc",
         "--subdivisions", "-1"),
    ),
    # 10 rounds take circle:16 to 16,384 samples, 11 would pass the budget
    "huge-subdivisions": (
        "c4.txt",
        C4.encode(),
        ("pipeline", "{graph}", "--domain", "circle:16", "--map", "quarter-arc",
         "--subdivisions", "11"),
    ),
    # domains past 16,384 samples are refused before they are built
    "huge-circle": (
        "c4.txt",
        C4.encode(),
        ("pipeline", "{graph}", "--domain", "circle:16385", "--map", "quarter-arc"),
    ),
    "huge-circle-unbounded": (
        "c4.txt",
        C4.encode(),
        ("pipeline", "{graph}", "--domain", "circle:100000000", "--map", "quarter-arc"),
    ),
    "huge-icosphere": (
        "octa.txt",
        OCTA.encode(),
        ("pipeline", "{graph}", "--domain", "sphere2:icosa:6", "--map", "nearest-vertex"),
    ),
    "huge-icosphere-unbounded": (
        "octa.txt",
        OCTA.encode(),
        ("pipeline", "{graph}", "--domain", "sphere2:icosa:9", "--map", "nearest-vertex"),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_two(case, capsys, tmp_path):
    name, content, argv = MALFORMED[case]
    graph = tmp_path / name
    graph.write_bytes(content)
    code, out, err = run_cli(capsys, *(a.format(graph=graph) for a in argv))
    assert code == 2
    assert out == ""
    assert "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--max-dim", "--max-k"])
def test_betti_negative_caps_rejected(flag, capsys, c4_file):
    code, out, _ = run_cli(capsys, "betti", c4_file, flag, "-1")
    assert code == 2
    assert out == ""


class TestDeterminism:
    def test_betti_byte_identical(self, capsys, c4_file):
        _, out1, _ = run_cli(capsys, "betti", c4_file)
        _, out2, _ = run_cli(capsys, "betti", c4_file)
        assert out1 == out2

    def test_pipeline_byte_identical(self, capsys, c4_file):
        args = (
            "pipeline", c4_file, "--domain", "circle:32",
            "--map", "quarter-arc", "--seed", "5",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_out_file_matches_stdout_form(self, capsys, c4_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "betti", c4_file, "--out", str(target))
        assert code == 0
        assert out == ""
        _, stdout, _ = run_cli(capsys, "betti", c4_file)
        assert target.read_text().strip() == stdout.strip()
