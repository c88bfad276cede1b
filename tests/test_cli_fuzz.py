"""Property test of the edge-list boundary: on any small file, `build` and
`betti` exit 0, 1 or 2 and never end in an uncaught exception."""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

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


@FUZZ
@hypothesis.given(CONTENTS, ARGVS)
def test_cli_exit_codes(graph_file, content, argv):
    graph_file.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(graph_file), *argv[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
