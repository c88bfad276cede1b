"""Edge-list parsing, CLI commands, exit codes, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vrclosure import cli, pipeline, transform
from vrclosure.cli import InputError, main, parse_edge_list
from vrclosure.transform import MAX_SAMPLES, TooManySamples, check_sample_budget

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

    def test_point_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        # under the C locale with UTF-8 mode off the locale encoding is
        # ASCII: the point file must still be read as UTF-8, as the graph is
        graph, point = tmp_path / "labels.txt", tmp_path / "point.json"
        graph.write_bytes("é a\na b\n".encode("utf-8"))
        point.write_bytes('{"carrier": ["é", "a"], "coords": [0.75, 0.25]}'.encode("utf-8"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUTF8"}
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        argv = [sys.executable, "-X", "utf8=0", "-m", "vrclosure.cli", "theta", str(graph), str(point)]
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b'{"vertex":"\\u00e9"}\n', b"")

    def test_carrier_out_of_vertex_order(self, capsys, c4_file):
        point = json.dumps({"carrier": [2, 1], "coords": [0.5, 0.5]})
        code, out, _ = run_cli(capsys, "theta", c4_file, point)
        assert (code, out) == (0, '{"vertex":1}\n')

    def test_string_carrier_vertex_read_as_int(self, capsys, c4_file):
        point = json.dumps({"carrier": ["2", 3], "coords": [0.25, 0.75]})
        code, out, _ = run_cli(capsys, "theta", c4_file, point)
        assert (code, out) == (0, '{"vertex":3}\n')

    def test_int_carrier_vertex_read_as_string(self, capsys, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("a 1\n1 b\n")  # not all numeric, so every label is a string
        point = json.dumps({"carrier": [1, "b"], "coords": [0.75, 0.25]})
        code, out, _ = run_cli(capsys, "theta", str(path), point)
        assert (code, out) == (0, '{"vertex":"1"}\n')

    def test_carrier_token_equal_to_a_vertex_prints_its_label(self, capsys, c4_file):
        # 1.0 == 1: the float names vertex 1, which prints as the graph's int
        point = json.dumps({"carrier": [1.0, 2], "coords": [0.7, 0.3]})
        code, out, _ = run_cli(capsys, "theta", c4_file, point)
        assert (code, out) == (0, '{"vertex":1}\n')

    @pytest.mark.parametrize("token", ["1.5", "0.9999", "-0.5", "1e-300", "Infinity", "NaN"])
    def test_non_integral_float_carrier_vertex_is_input_error(self, token, capsys, c4_file):
        # int() would truncate 1.5 to the vertex 1; only an integral float
        # names a vertex
        point = f'{{"carrier": [{token}, 2], "coords": [0.7, 0.3]}}'
        code, out, err = run_cli(capsys, "theta", c4_file, point)
        assert (code, out) == (2, "")
        assert err == f"input error: carrier vertex {float(token)!r} is not a vertex of the graph\n"

    def test_boolean_carrier_vertex_is_input_error(self, capsys, c4_file):
        # True == 1, but no graph has boolean labels
        point = json.dumps({"carrier": [True, 2], "coords": [0.7, 0.3]})
        code, out, err = run_cli(capsys, "theta", c4_file, point)
        assert (code, out) == (2, "")
        assert err == "input error: carrier vertex True is a boolean, not a vertex label\n"

    def test_unknown_carrier_vertex_is_input_error(self, capsys, c4_file):
        point = json.dumps({"carrier": [1, 9], "coords": [0.5, 0.5]})
        code, out, err = run_cli(capsys, "theta", c4_file, point)
        assert (code, out) == (2, "")
        assert "carrier vertex 9 is not a vertex" in err

    @pytest.mark.parametrize("point, message", [
        # a string iterates as its characters, an object as its keys
        ('{"carrier":"01","coords":"10"}', "carrier and coords must be arrays"),
        ('{"carrier":[0,1],"coords":"10"}', "carrier and coords must be arrays"),
        ('{"carrier":{"0":1},"coords":[1]}', "carrier and coords must be arrays"),
        ('{"carrier":[0],"coords":{"1":0}}', "carrier and coords must be arrays"),
        ('{"carrier":[0,1],"coords":["0.25","0.75"]}', "coords must be numbers"),
        ('{"carrier":[0,1],"coords":[true,false]}', "coords must be numbers"),
        ('{"carrier":[0,1],"coords":[0.5,null]}', "coords must be numbers"),
        ('{"carrier":[0],"coords":[[1]]}', "coords must be numbers"),
        # an int of 400 digits is a number, but float() overflows on it
        (f'{{"carrier":[0],"coords":[{10 ** 400}]}}', "int too large to convert to float"),
    ])
    def test_malformed_point_arrays_are_input_errors(self, point, message, capsys, c4_file):
        code, out, err = run_cli(capsys, "theta", c4_file, point)
        assert (code, out, err) == (2, "", f"input error: bad point JSON: {message}\n")

    def test_integer_coordinates_are_numbers(self, capsys, c4_file):
        point = '{"carrier":[0,1],"coords":[0,1]}'
        assert run_cli(capsys, "theta", c4_file, point) == (0, '{"vertex":1}\n', "")

    def test_non_clique_carrier_fails(self, capsys, c4_file):
        point = json.dumps({"carrier": [0, 2], "coords": [0.5, 0.5]})
        code, out, err = run_cli(capsys, "theta", c4_file, point)
        assert (code, out) == (1, "")
        assert "error" in err
        assert "not a clique" in err


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

    def test_antipodal_composition(self, capsys, c4_file):
        code, out, _ = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:64", "--map", "antipodal-composition"
        )
        assert code == 0
        assert json.loads(out)["h1"]["rank"] == 1

    def test_nearest_vertex(self, capsys, tmp_path):
        path = tmp_path / "octa.txt"
        path.write_text(OCTA)
        code, out, _ = run_cli(
            capsys, "pipeline", str(path), "--domain", "sphere2:icosa:1", "--map", "nearest-vertex"
        )
        assert code == 0
        report = json.loads(out)
        assert report["domain"]["samples"] == 42
        assert report["h1"] == {"rank": 0, "source_betti1": 0, "target_betti1": 0}

    def test_map_spec_that_does_not_fit(self, capsys, c4_file):
        # nearest-vertex needs the six octahedron vertices
        code, out, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "sphere2:icosa:0", "--map", "nearest-vertex"
        )
        assert (code, out) == (2, "")
        assert "does not fit" in err

    def test_malformed_values_file(self, capsys, c4_file, tmp_path):
        vpath = tmp_path / "values.json"
        vpath.write_text('{"values": {"0": 0,')
        code, out, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:8", "--map", f"@{vpath}"
        )
        assert (code, out) == (2, "")
        assert "bad values file" in err

    def test_values_file_with_unknown_vertex(self, capsys, c4_file, tmp_path):
        vpath = tmp_path / "values.json"
        vpath.write_text(json.dumps({"values": {str(i): "x" for i in range(8)}}))
        code, out, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:8", "--map", f"@{vpath}"
        )
        assert (code, out) == (2, "")
        assert "carrier vertex 'x' is not a vertex" in err

    def test_values_file_repeats_tokens_in_both_spellings(self, capsys, c4_file, tmp_path):
        # each vertex appears as an int and as a string token; both name it
        vpath = tmp_path / "values.json"
        quarter = [(i * 4) // 16 for i in range(16)]
        mixed = {str(i): v if i % 2 else str(v) for i, v in enumerate(quarter)}
        vpath.write_text(json.dumps({"values": mixed}))
        graph, domain = cli.load_graph(c4_file), cli.parse_domain_spec("circle:16")
        points = cli.build_sample_map(f"@{vpath}", domain, graph, 0)
        assert [p.carrier for p in points.values()] == [(v,) for v in quarter]
        assert all(type(p.carrier[0]) is int for p in points.values())
        outputs = []
        for values in (mixed, {str(i): str(v) for i, v in enumerate(quarter)}):
            vpath.write_text(json.dumps({"values": values}))
            outputs.append(run_cli(capsys, "pipeline", c4_file, "--domain", "circle:16", "--map", f"@{vpath}"))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    @pytest.mark.parametrize(
        "tokens, message",
        [
            ([0, "x", "0", "x"], "carrier vertex 'x' is not a vertex of the graph"),
            (["1", 1, 7, "7"], "carrier vertex 7 is not a vertex of the graph"),
            ([2, "2", "y", 7], "carrier vertex 'y' is not a vertex of the graph"),
            ([0, [1], "0", [1]], "bad values file '{path}': unhashable type: 'list'"),
            ([0, True, 2, 3], "carrier vertex True is a boolean, not a vertex label"),
            ([0, 1.0, 1.5, 3], "carrier vertex 1.5 is not a vertex of the graph"),
            ([0, 2.0, 3.0, -0.25], "carrier vertex -0.25 is not a vertex of the graph"),
        ],
    )
    def test_values_file_with_repeated_bad_tokens(self, tokens, message, capsys, c4_file, tmp_path):
        vpath = tmp_path / "values.json"
        vpath.write_text(json.dumps({"values": {str(i): tokens[i % 4] for i in range(16)}}))
        code, out, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:16", "--map", f"@{vpath}"
        )
        assert (code, out) == (2, "")
        assert err == f"input error: {message.format(path=vpath)}\n"

    def test_float_tokens_print_the_int_tokens_bytes(self, capsys, c4_file, tmp_path):
        # the quarter-arc map of circle:16 as a values file; 1.0 names vertex 1
        vpath = tmp_path / "values.json"
        argv = ["pipeline", c4_file, "--domain", "circle:16", "--map", f"@{vpath}"]
        quarter = [(i * 4) // 16 for i in range(16)]
        outputs = []
        for tokens in (quarter, [float(v) for v in quarter]):
            vpath.write_text(json.dumps({"values": dict(zip(map(str, range(16)), tokens))}))
            outputs.append(run_cli(capsys, *argv))
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0][1])
        assert outputs[0][0] == 0
        assert report["stages"][0]["digest"] == "dc8ae0cdfd40f984"
        assert report["final_digest"] == "fa58ea3ff71ec24b"

    def test_values_file_base_is_the_basepoint_value(self, capsys, c4_file, tmp_path):
        vpath = tmp_path / "values.json"
        argv = ["pipeline", c4_file, "--domain", "circle:16", "--map", f"@{vpath}"]
        values = {str(i): (i * 4) // 16 for i in range(16)}
        outputs = []
        for base in ({}, {"base": "0"}, {"base": 0.0}, {"base": "2"}, {"base": True}):
            vpath.write_text(json.dumps({**base, "values": values}))
            outputs.append(run_cli(capsys, *argv))
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] == 0
        assert outputs[3] == (2, "", "input error: base '2' is not the value of basepoint 0\n")
        assert outputs[4][:2] == (2, "")

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


def _fail_if_called(*args, **kwargs):
    raise AssertionError("called after the refusal should have fired")


class TestRefusals:
    """Each refusal exits through ``cli.main`` at the point where it is known,
    before the work it refuses."""

    def test_theta_on_a_large_clique_builds_no_complex(self, capsys, tmp_path, monkeypatch):
        # the clique complex of K_120 up to dimension 4 is past MAX_SIMPLICES
        path = tmp_path / "k120.txt"
        path.write_text("".join(f"{i} {j}\n" for i in range(120) for j in range(i + 1, 120)))
        monkeypatch.setattr(cli, "vietoris_rips", _fail_if_called)
        point = json.dumps({"carrier": [4, 0, 1, 2, 3], "coords": [0.1, 0.1, 0.2, 0.4, 0.2]})
        code, out, _ = run_cli(capsys, "theta", str(path), point)
        assert (code, out) == (0, '{"vertex":2}\n')

    def test_extra_subdivisions_refused_before_any_flood(self, capsys, c4_file, monkeypatch):
        monkeypatch.setattr(transform, "flood_stages", _fail_if_called)
        monkeypatch.setattr(pipeline, "flood_stages", _fail_if_called)
        code, out, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:16", "--map", "quarter-arc",
            "--subdivisions", "11",
        )
        assert (code, out) == (2, "")
        assert "after 11 subdivision rounds" in err

    def test_required_depth_refused_before_subdividing(self, capsys, c4_file, monkeypatch):
        # three rounds take circle:4096 to 32,768 samples
        monkeypatch.setattr(pipeline, "subdivision_depth_for_mesh", lambda *args: 3)
        monkeypatch.setattr(pipeline, "subdivide_domain", _fail_if_called)
        code, out, err = run_cli(
            capsys, "pipeline", c4_file, "--domain", "circle:4096", "--map", "constant"
        )
        assert (code, out) == (2, "")
        assert "after 3 subdivision rounds" in err

    def test_check_sd_round_refused_before_refining(self, capsys, c4_file, monkeypatch):
        # circle:16 quarter-arc needs no subdivision; the --check-sd round
        # would take it to 32 samples
        monkeypatch.setattr(transform, "MAX_SAMPLES", 31)
        monkeypatch.setattr(pipeline, "refine_once", _fail_if_called)
        argv = ["pipeline", c4_file, "--domain", "circle:16", "--map", "quarter-arc"]
        with monkeypatch.context() as mp:
            # the least depth, --subdivisions, already refuses the round
            mp.setattr(pipeline, "flood_stages", _fail_if_called)
            code, out, err = run_cli(capsys, *argv, "--check-sd")
        assert (code, out) == (2, "")
        assert "more than 31 samples after 1 subdivision rounds" in err
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["depth"] == {"chosen": 0, "required": 0}

    def test_check_sd_round_refused_before_induced_h1(self, capsys, c4_file, monkeypatch):
        # a chosen depth of 2 takes circle:16 to 64 samples, under the
        # ceiling; only the --check-sd round from there passes it
        monkeypatch.setattr(transform, "MAX_SAMPLES", 127)
        monkeypatch.setattr(pipeline, "subdivision_depth_for_mesh", lambda *args: 2)
        monkeypatch.setattr(pipeline, "induced_h1", _fail_if_called)
        argv = ["pipeline", c4_file, "--domain", "circle:16", "--map", "quarter-arc", "--check-sd"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "more than 127 samples after 1 subdivision rounds" in err

    def test_budget_boundary(self):
        circle = [4096, 4096]  # each round doubles a circle's samples
        check_sample_budget(circle, 2)  # exactly MAX_SAMPLES
        with pytest.raises(TooManySamples):
            check_sample_budget(circle, 3)
        check_sample_budget([MAX_SAMPLES])
        with pytest.raises(TooManySamples):
            check_sample_budget([MAX_SAMPLES + 1], 10**18)

    def test_certificate_failure_out_file_equals_stdout(self, capsys, c4_file, tmp_path):
        values = {str(i): str(0 if i % 2 == 0 else 2) for i in range(16)}
        vpath = tmp_path / "bad.json"
        vpath.write_text(json.dumps({"values": values}))
        argv = ("pipeline", c4_file, "--domain", "circle:16", "--map", f"@{vpath}")
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 1
        target = tmp_path / "failure.json"
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (1, "")
        assert target.read_text() == stdout
        assert json.loads(stdout)["failure"]["stage"] == "clique certificate"


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


UNWRITABLE_OUT = {
    "build": ("build", "{graph}"),
    "betti": ("betti", "{graph}"),
    "theta": ("theta", "{graph}", '{{"carrier":[0,1],"coords":[0.5,0.5]}}'),
    "pipeline": ("pipeline", "{graph}", "--domain", "circle:16", "--map", "quarter-arc"),
    # the failure report is written by main, not by the command
    "pipeline-failure": ("pipeline", "{graph}", "--domain", "circle:16", "--map", "@{values}"),
}


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUT))
def test_unwritable_out_exits_two(case, where, capsys, c4_file, tmp_path):
    values = tmp_path / "bad.json"
    values.write_text(json.dumps({"values": {str(i): 2 * (i % 2) for i in range(16)}}))
    target = tmp_path / "no" / "such" / "x.json" if where == "missing-directory" else tmp_path
    argv = [a.format(graph=c4_file, values=values) for a in UNWRITABLE_OUT[case]]
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert f"input error: cannot write {target}" in err
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
