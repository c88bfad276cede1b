"""Property tests of the command-line boundary: on any small edge-list file,
point JSON or pipeline input, `build`, `betti`, `theta` and `pipeline` exit
0, 1 or 2, never end in an uncaught exception, and print nothing to stdout
on exit 2."""

import contextlib
import io
import json
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from vrclosure import transform  # noqa: E402
from vrclosure.cli import InputError, main, parse_edge_list  # noqa: E402
from vrclosure.graph import Graph  # noqa: E402

FUZZ = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)

TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    # non-digit, Unicode-digit ("²".isdigit() but int() fails; "٣" is 3),
    # signed, padded, comment and non-ASCII whitespace tokens
    st.sampled_from(["a", "b", "x1", "²", "٣", "1²", "-1", "+2", "007", "1.5", "#", "é", " "]),
    st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), min_size=1, max_size=3),
)
TEXTS = st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=8).map("\n".join)
# UTF-8 text, text with stray non-UTF-8 bytes, and raw bytes
CONTENTS = st.one_of(
    TEXTS.map(str.encode),
    st.tuples(TEXTS, st.binary(min_size=1, max_size=3)).map(lambda p: p[0].encode() + b"\xff" + p[1]),
    st.binary(max_size=40),
)
ARGVS = st.one_of(
    st.integers(0, 3).map(lambda d: ["build", "--max-dim", str(d)]),
    st.integers(0, 2).map(lambda k: ["betti", "--max-k", str(k)]),
    st.tuples(st.integers(0, 2), st.integers(0, 3)).map(
        lambda p: ["betti", "--max-k", str(p[0]), "--max-dim", str(p[1])]
    ),
)


@FUZZ
@hypothesis.given(TEXTS)
def test_parse_edge_list_returns_graph_or_input_error(text):
    try:
        g = parse_edge_list(text)
    except InputError:
        return
    assert isinstance(g, Graph)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


def run_cli(argv):
    """Exit code and stderr of ``main(argv)``, after the boundary's three
    assertions."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error: a point like "-1"
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    hypothesis.event(f"exit {code}")
    return code, err.getvalue()


@FUZZ
@hypothesis.given(CONTENTS, ARGVS)
def test_cli_exit_codes(graph_file, content, argv):
    graph_file.write_bytes(content)
    run_cli([argv[0], str(graph_file), *argv[1:]])


# -- theta: point JSON -----------------------------------------------------

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.0, 1e-13, -1e-13]),
    st.integers(-2, 2),
)
JSON_ATOMS = st.one_of(st.none(), st.booleans(), st.text(max_size=2), NUMBERS)
# known, unknown, string-for-int and unhashable carrier vertices
VERTICES = st.one_of(st.integers(-1, 5), st.sampled_from(["0", "3", "a", ""]), st.none(), st.lists(st.integers(0, 3), max_size=2))
# well-formed points on and off the graph's simplices (the triangle 0 1 2,
# the edge 2 3, the isolated vertex 4), for exits 0 and 1
SIMPLEX_POINTS = st.sampled_from([
    ([0], [1.0]), (["0", 1], [0.5, 0.5]), ([0, 1, 2], [0.25, 0.25, 0.5]), ([2, 0, 1], [1 / 3] * 3),
    ([3, 2], [0.5, 0.5]), ([4], [1]), ([1, 3], [0.5, 0.5]), ([0, 4], [0.75, 0.25]), ([1, 2], [1.0, 0.0]),
]).map(lambda p: {"carrier": p[0], "coords": p[1]})
POINTS = st.one_of(
    SIMPLEX_POINTS,
    st.fixed_dictionaries(
        {"carrier": st.lists(VERTICES, max_size=4), "coords": st.lists(NUMBERS, max_size=4)},
        optional={"extra": JSON_ATOMS},
    ),
    # one key missing, wrong types, or not an object at all
    st.dictionaries(st.sampled_from(["carrier", "coords", "x"]), st.one_of(JSON_ATOMS, st.lists(JSON_ATOMS, max_size=3)), max_size=3),
    st.lists(JSON_ATOMS, max_size=3),
    JSON_ATOMS,
)


@pytest.fixture(scope="module")
def theta_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("theta")
    graph = d / "graph.txt"
    graph.write_text("0 1\n1 2\n2 0\n2 3\n4\n")
    return graph, d / "point.json"


@FUZZ
@hypothesis.given(POINTS, st.booleans())
def test_theta_exit_codes(theta_files, point, inline):
    graph, point_file = theta_files
    text = json.dumps(point)  # NaN and Infinity go through as JSON extensions
    if inline:
        arg = text
    else:
        point_file.write_text(text)
        arg = str(point_file)
    run_cli(["theta", str(graph), arg])


# -- pipeline: domains, value files, subdivision counts ---------------------

C4_VALUES = st.one_of(st.integers(0, 4), st.sampled_from(["0", "3", "9", "a", ""]), st.none(), st.lists(st.integers(0, 3), max_size=1))


@st.composite
def values_files(draw, n):
    """A values JSON object for ``n`` samples, with some keys missing, some
    extra, and some values that are not vertices of C4."""
    keys = [str(i) for i in range(n) if draw(st.integers(0, 9)) > 0]
    keys += draw(st.lists(st.sampled_from([str(n), str(n + 3), "-1", "x", "01"]), max_size=2))
    values = {key: draw(st.one_of(st.integers(0, 3), C4_VALUES)) for key in keys}
    return draw(st.sampled_from([{"values": values}, {"values": values, "base": 0}, {"vals": values}, values]))


# domains past MAX_SAMPLES, refused before they are built
HUGE_DOMAINS = ["circle:16385", "circle:100000000", "sphere2:icosa:6", "sphere2:icosa:9"]


@st.composite
def pipeline_argvs(draw):
    n = draw(st.integers(4, 16))
    domain = draw(st.sampled_from(HUGE_DOMAINS)) if draw(st.integers(0, 7)) == 0 else f"circle:{n}"
    spec = draw(st.sampled_from(["constant", "constant:0", "constant:9", "quarter-arc",
                                 "antipodal-composition", "nearest-vertex", "rotated-nearest",
                                 "bogus", "@values"]))
    values = draw(values_files(n)) if spec == "@values" else None
    # huge counts must be refused before any subdivision happens: 13 rounds
    # take circle:4 to 32,768 samples, past MAX_SAMPLES
    subdivisions = draw(st.one_of(st.integers(-3, 1), st.sampled_from([13, 20, 64, 10**9, 10**18])))
    flags = ["--subdivisions", str(subdivisions), "--seed", str(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 3)) == 0:
        flags.append("--check-sd")
    # a lowered MAX_SAMPLES lets small circles reach the refusals of the
    # required depth and of the --check-sd round
    ceiling = draw(st.sampled_from([None, None, None, 8, 12, 16, 24, 32]))
    return domain, spec, values, flags, ceiling, None


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("pipeline")
    graph = d / "c4.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 0\n")
    return graph, d / "values.json"


# circle:8 quarter-arc requires one subdivision round, to 16 samples: a
# ceiling of 15 refuses that depth, one of 16 the --check-sd round after it;
# the last field is the refusal that must fire
ROUND_0 = ["--subdivisions", "0", "--seed", "0"]


@FUZZ
@hypothesis.example(
    case=("circle:8", "quarter-arc", None, ROUND_0, 15, "more than 15 samples after 1 subdivision rounds")
)
@hypothesis.example(
    case=("circle:8", "quarter-arc", None, [*ROUND_0, "--check-sd"], 16,
          "more than 16 samples after 1 subdivision rounds")
)
@hypothesis.given(pipeline_argvs())
def test_pipeline_exit_codes(pipeline_files, case):
    graph, values_file = pipeline_files
    domain, spec, values, flags, ceiling, refusal = case
    if values is not None:
        values_file.write_text(json.dumps(values))
        spec = "@" + str(values_file)
    with mock.patch.object(transform, "MAX_SAMPLES", ceiling or transform.MAX_SAMPLES):
        code, err = run_cli(["pipeline", str(graph), "--domain", domain, "--map", spec, *flags])
    if domain in HUGE_DOMAINS or int(flags[1]) < 0 or int(flags[1]) >= 12:
        assert code == 2
    if refusal is not None:
        assert code == 2
        assert refusal in err
