"""The index-native graph layer against the label-level code it replaced
(``graph_oracle``) and independent oracles: the whole-text edge-list parser
and its code-point tables, the edge-key storage, clique levels grown from
sibling pairs in steps with one search per candidate, the ``build`` writer,
``betti`` against the dense-rank oracle, the clique ceiling and the layer's
memory."""

import contextlib
import io
import json
import random
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import graph_oracle  # noqa: E402
from helpers import assert_well_formed, from_simplices  # noqa: E402
import homology_oracle  # noqa: E402
from vrclosure import (  # noqa: E402
    Graph,
    complete_graph,
    euler_characteristic,
    octahedron_graph,
    vietoris_rips,
)
from vrclosure import complex as complex_module  # noqa: E402
from vrclosure import cli  # noqa: E402
from vrclosure.cli import InputError, complex_json, complex_to_json, main, parse_edge_list  # noqa: E402
from vrclosure.complex import MAX_SIMPLICES, TooManySimplices  # noqa: E402
from vrclosure.pipeline import canonical_json  # noqa: E402

FUZZ = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)

# label pools per text: numeric (with a leading zero and a Unicode digit
# that int() reads as 3), k-prefixed strings as the benchmark writes them,
# and a mix that makes every label a string
INT_TOKENS = st.sampled_from(["0", "1", "2", "3", "4", "5", "10", "007", "٣"])
STR_TOKENS = st.sampled_from(["k0", "k1", "k2", "k10", "a", "b"])
MIXED_TOKENS = st.one_of(INT_TOKENS, STR_TOKENS, st.sampled_from(["²", "-1", "x1"]))
# spaces and line breaks beyond " " and "\n": \x1f and the Unicode spaces
# only split tokens; the breaks are all that str.splitlines knows, "\r\n"
# counting as one
SPACES = st.sampled_from([" ", "\t", "  ", "\x1f", "\xa0", "\u1680", "\u2003", "\u202f", "\u3000"])
BREAKS = st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                          "\u2028", "\u2029"])


def edge_list_lines(token):
    pair = st.tuples(token, SPACES, token).map("".join)  # loops, repeats, reversals
    return st.one_of(
        pair,
        pair,
        token,  # an isolated vertex
        st.just(""),
        st.just("# comment"),
        st.tuples(pair, st.just("  # trailing")).map("".join),
        st.tuples(st.just("  "), pair, st.just(" ")).map("".join),
        st.tuples(token, token, token).map(" ".join),  # refused: three tokens
        st.tuples(token, st.just("#"), token, SPACES, token).map("".join),  # '#' inside a token
    )


def edge_list_texts(token):
    """Lines each ended by a break from ``BREAKS``, then a last line, which
    may be empty."""
    ended = st.lists(st.tuples(edge_list_lines(token), BREAKS).map("".join), max_size=10)
    return st.tuples(ended.map("".join), edge_list_lines(token)).map("".join)


EDGE_LISTS = st.sampled_from([INT_TOKENS, STR_TOKENS, MIXED_TOKENS]).flatmap(edge_list_texts)


def parsed(parse, text):
    try:
        g = parse(text)
    except InputError as exc:
        return "error", str(exc)
    return g.vertices, g.edges, g.edge_keys.tolist()


@FUZZ
@hypothesis.given(EDGE_LISTS)
def test_parse_edge_list_matches_the_line_by_line_parser(text):
    assert parsed(parse_edge_list, text) == parsed(graph_oracle.parse_edge_list, text)


def test_the_code_point_tables_are_those_of_split_and_splitlines():
    every = "".join(map(chr, range(0x110000)))
    assert cli.SPACES == "".join(c for c in every if c.isspace())
    assert cli.BREAKS == "".join(c for c in every if len(f"a{c}b".splitlines()) == 2)
    kind = [cli._CODE_KIND[min(c, len(cli._CODE_KIND) - 1)] for c in range(0x110000)]
    assert kind == [2 if c in cli.BREAKS else 1 if c in cli.SPACES else 0 for c in every]


@pytest.mark.parametrize("text, message", [
    ("0 1\r\n1 2\r\n2 3 4\r\n", "line 3: expected 'u v' or a single vertex, got 3 tokens"),
    ("0 1\r1 2\r\n\r\n2 3 4 5\n", "line 4: expected 'u v' or a single vertex, got 4 tokens"),
    ("a b # c d e\u2028c d e\n", "line 2: expected 'u v' or a single vertex, got 3 tokens"),
    ("# \xb2\n0 1\x0b1 \xb2\n", "line 3: bad vertex token: invalid literal for int() with base 10: '\xb2'"),
])
def test_errors_name_the_line_of_str_splitlines(text, message):
    with pytest.raises(InputError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


@FUZZ
@hypothesis.given(EDGE_LISTS)
def test_edge_keys_hold_the_per_vertex_neighbour_sets(text):
    # both parsers build the same Graph storage, so the test above cannot
    # see a fault in it: compare it with Python sets of the raw pairs
    try:
        _, pairs = graph_oracle.parse_pairs(text)
    except InputError:
        return
    g = parse_edge_list(text)
    n, keys = len(g.vertices), g.edge_keys
    assert keys.dtype == np.int64
    assert (np.diff(keys) > 0).all()  # sorted and distinct
    assert (keys // n < keys % n).all()  # i < j: no loop, no reversed pair
    nbrs = graph_oracle.neighbor_sets(n, [g.vertex_index[v] for pair in pairs for v in pair])
    a, b = np.divmod(np.arange(n * n), n)  # every index pair, a == b too
    expected = [u == w or w in nbrs[u] for u, w in zip(a.tolist(), b.tolist())]
    assert g.adjacent(a, b).tolist() == expected
    assert [g.neighbor_indices(u).tolist() for u in range(n)] == [sorted(s | {u}) for u, s in enumerate(nbrs)]
    verts = g.vertices
    assert g.edges == {(verts[i], verts[j]) for i, s in enumerate(nbrs) for j in s if i < j}
    assert repr(g) == f"Graph({n} vertices, {len(g.edges)} edges)"


@pytest.mark.parametrize("vertices, edges", [
    (range(1), []),  # one vertex, no key
    (range(5), [(0, 3), (1, 3), (2, 3)]),  # 3's neighbours all below it; 4 isolated
    (range(5), [(0, 4), (2, 4), (3, 4)]),  # the last vertex's too; 1 isolated
    (["a", "b", "c"], [("c", "a")]),  # b isolated between the ends of the edge
])
def test_adjacency_reads_on_isolated_and_last_vertices(vertices, edges):
    g = Graph(vertices, edges)
    n = len(g.vertices)
    nbrs = graph_oracle.neighbor_sets(n, [g.vertex_index[v] for edge in edges for v in edge])
    every = np.arange(n)
    assert g.adjacent(every, every).all()  # reflexive, isolated vertices too
    for u in range(n):
        assert g.neighbor_indices(u).tolist() == sorted(nbrs[u] | {u})
        assert g.adjacent(u, every).tolist() == [w == u or w in nbrs[u] for w in range(n)]


@st.composite
def graphs(draw):
    """Small graphs with isolated vertices and several components, on
    labels 0..n-1, spread ints or strings, with their label pairs."""
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    kind = draw(st.sampled_from(["identity", "spread", "string"]))
    label = {
        "identity": lambda i: i,
        "spread": lambda i: 1000 - 37 * i,
        "string": lambda i: f"k{i}",
    }[kind]
    pairs = [(label(i), label(j)) for i, j in edges]
    return Graph([label(i) for i in range(n)], pairs), pairs


def networkx_levels(g, pairs, cap):
    """Cliques by size from networkx on the raw label pairs, each level in
    canonical order."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(pairs)
    key = g.vertex_index.__getitem__
    levels = [[] for _ in range(cap + 1)]
    for clique in nx.enumerate_all_cliques(h):
        if len(clique) > cap + 1:
            break
        levels[len(clique) - 1].append(tuple(sorted(clique, key=key)))
    return [sorted(level, key=lambda s: tuple(map(key, s))) for level in levels]


@FUZZ
@hypothesis.given(graphs(), st.integers(0, 6))
def test_vietoris_rips_matches_the_old_enumeration_and_networkx(case, cap):
    g, pairs = case
    want = graph_oracle.vietoris_rips(g, cap)
    assert graph_oracle.carried_vietoris_rips(g, cap) == want
    levels = networkx_levels(g, pairs, cap)
    # one and three candidates per step put step boundaries everywhere
    for cells in (complex_module.BLOCK_CELLS, 1, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(complex_module, "BLOCK_CELLS", cells)
            k = vietoris_rips(g, cap)
        assert k == want
        assert [list(k.simplices(d)) for d in range(cap + 1)] == levels
    assert_well_formed(k)


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_inputs():
    """The benchmark's graph generator, imported without a bytecode cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(BENCH))
        import inputs
    return inputs


@pytest.mark.parametrize("family, cap", [("torus", 3), ("klein", 3), ("cross", 7), ("gnp", 6)])
def test_the_benchmark_families_match_the_old_enumeration(bench_inputs, family, cap):
    n, edges = {
        "torus": lambda: bench_inputs.torus_edges(36, 40),
        "klein": lambda: bench_inputs.klein_edges(18, 40),
        "cross": lambda: bench_inputs.cross_polytope_edges(7),
        "gnp": lambda: bench_inputs.gnp_edges(300, 0.1, random.Random(1)),
    }[family]()
    g = Graph(range(n), edges)
    assert vietoris_rips(g, cap) == graph_oracle.vietoris_rips(g, cap)


# -- the build writer --------------------------------------------------------


def assert_writes_the_canonical_json(k):
    assert complex_json(k) == canonical_json(complex_to_json(k))


@FUZZ
@hypothesis.given(graphs(), st.integers(0, 5))
def test_the_writer_matches_the_canonical_json_of_the_dict(case, cap):
    # int, spread int and string labels; cap 0 and levels left empty
    assert_writes_the_canonical_json(vietoris_rips(case[0], cap))


@pytest.mark.parametrize("labels", [
    ['a"b', "c\\d", "\x00e", "\x1f", "\x7f", "\xe9", "\u65e5\u672c", "\U0001f600", "\ud800", "/"],
    [-3, 0, 7, 10**30],
    [(0,), (1, "\xe9"), (0, 1, 2)],
])
def test_the_writer_escapes_labels_as_the_encoder_does(labels):
    n = len(labels)
    triangle = from_simplices([labels[:3]], 3, labels)
    assert triangle.counts() == [n, 3, 1, 0]
    assert_writes_the_canonical_json(triangle)
    g = Graph(labels, [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n) if (i * j) % 3 != 1])
    for cap in (0, 2, 6):
        assert_writes_the_canonical_json(vietoris_rips(g, cap))


@pytest.mark.parametrize("family", ["torus", "klein", "cross", "complete", "gnp"])
def test_the_writer_matches_on_the_benchmark_families(bench_inputs, family):
    n, edges, cap, label = {
        "torus": lambda: (*bench_inputs.torus_edges(16, 20), 2, int),
        "klein": lambda: (*bench_inputs.klein_edges(18, 40), 3, "k{}".format),
        "cross": lambda: (*bench_inputs.cross_polytope_edges(6), 6, int),
        "complete": lambda: (*bench_inputs.complete_edges(18), 3, int),
        "gnp": lambda: (*bench_inputs.gnp_edges(400, 0.1, random.Random(1)), 5, int),
    }[family]()
    g = Graph(map(label, range(n)), [(label(u), label(v)) for u, v in edges])
    assert_writes_the_canonical_json(vietoris_rips(g, cap))


def edge_list_text(g):
    lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    touched = {v for edge in g.edges for v in edge}
    lines += [str(v) for v in g.vertices if v not in touched]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("graph-layer") / "graph.txt"


@FUZZ
@hypothesis.given(graphs(), st.integers(0, 3))
def test_betti_prints_the_canonical_complex_homology(graph_file, case, max_k):
    g, _ = case
    hypothesis.assume(g.vertices)
    graph_file.write_text(edge_list_text(g), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["betti", str(graph_file), "--max-k", str(max_k)])
    assert code == 0
    k = vietoris_rips(parse_edge_list(graph_file.read_text(encoding="utf-8")), max_k + 1)
    want = {
        "field": "GF(2)",
        "betti": homology_oracle.betti_numbers(k, max_k),
        "euler": euler_characteristic(k),
    }
    assert out.getvalue() == canonical_json(want) + "\n"


# -- clique ceiling and memory ---------------------------------------------


def complete_edge_list(tmp_path, n):
    path = tmp_path / f"k{n}.txt"
    path.write_text("".join(f"{i} {j}\n" for i in range(n) for j in range(i + 1, n)))
    return str(path)


def test_the_benchmark_complexes_stay_far_below_the_ceiling():
    # gnp-build, the largest complex the benchmark builds, has 19,656 simplices
    assert MAX_SIMPLICES >= 25 * 19_656


def test_k30_at_max_dim_29_exits_2_naming_the_dimension(tmp_path, capsys):
    # 174,436 simplices up to dimension 4, then 593,775 6-cliques
    path = complete_edge_list(tmp_path, 30)
    start = time.perf_counter()
    code = main(["build", path, "--max-dim", "29"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"more than {MAX_SIMPLICES} simplices up to dimension 5" in captured.err
    assert elapsed < 1.0
    assert main(["betti", path, "--max-k", "28"]) == 2


def test_the_overflowing_level_is_never_built():
    # K60 has 523,685 simplices up to dimension 3, under the ceiling, and
    # 5,461,512 4-simplices, whose tuples alone would take over 500 MB
    graph = complete_graph(60)
    tracemalloc.start()
    try:
        with pytest.raises(TooManySimplices, match="up to dimension 4"):
            vietoris_rips(graph, 59)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def one_edge(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("0 1\n")
    return str(path)


@pytest.mark.parametrize("command, flag, cap", [("build", "--max-dim", 10**7),
                                                ("betti", "--max-k", 10**7 + 1)])
def test_a_cap_above_the_ceiling_exits_2_naming_it(tmp_path, capsys, command, flag, cap):
    # one array per level: on one edge, --max-k 10**7 took 1.4 GB and 8.7 s
    start = time.perf_counter()
    code = main([command, one_edge(tmp_path), flag, str(10**7)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"the dimension cap {cap} would make more than {MAX_SIMPLICES} levels" in captured.err
    assert elapsed < 1.0


def test_a_cap_at_the_ceiling_prints_as_before(tmp_path, capsys, monkeypatch):
    # a ceiling of 8 simplices lets the one-edge complex reach cap 8, with
    # the bytes of any higher ceiling, and refuses cap 9
    path = one_edge(tmp_path)
    commands = [["build", path, "--max-dim", "8"], ["betti", path, "--max-k", "7"]]
    want = []
    for argv in commands:
        assert main(argv) == 0
        want.append(capsys.readouterr())
    monkeypatch.setattr(complex_module, "MAX_SIMPLICES", 8)
    for argv, before in zip(commands, want):
        assert main(argv) == 0
        assert capsys.readouterr() == before
    assert main(["build", path, "--max-dim", "9"]) == 2
    assert main(["betti", path, "--max-k", "8"]) == 2
    assert "the dimension cap 9 would make more than 8 levels" in capsys.readouterr().err


def named_dimension(build, graph, cap):
    """The dimension a ``TooManySimplices`` from ``build`` names, or None."""
    try:
        build(graph, cap)
    except TooManySimplices as exc:
        return int(str(exc).rsplit(" ", 1)[1])
    return None


@pytest.mark.parametrize("n", [20, 21, 22, 23, 24, 28, 29, 37, 38, 60])
def test_the_ceiling_names_the_dimension_the_carried_sets_named(n):
    # every K_n from K20 on passes the ceiling; the carried-set loop, at the
    # widest cap, names the first dimension past it (9 at K20, 4 from K38
    # on: these n are the two sides of each change and the ends).  Below
    # that cap the sibling-pair levels build, from it on they name the same
    # dimension
    graph = complete_graph(n)
    dim = named_dimension(graph_oracle.carried_vietoris_rips, graph, n - 1)
    assert sum(comb(n, i + 1) for i in range(dim)) <= MAX_SIMPLICES
    assert sum(comb(n, i + 1) for i in range(dim + 1)) > MAX_SIMPLICES
    assert named_dimension(vietoris_rips, graph, dim - 1) is None
    assert named_dimension(vietoris_rips, graph, n - 1) == dim


def traced_peak(build, *args):
    tracemalloc.start()
    try:
        out = build(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def searchsorted_calls(monkeypatch):
    """Record every ``np.searchsorted`` call as (query size, side, whether
    the query is the haystack itself)."""
    calls, search = [], np.searchsorted

    def spy(a, v, side="left", sorter=None):
        calls.append((np.size(v), side, v is a))
        return search(a, v, side, sorter)

    monkeypatch.setattr(np, "searchsorted", spy)
    return calls


def test_no_level_is_grown_past_the_first_empty_one(monkeypatch):
    # the octahedron's largest cliques are its 8 triangles: level 3 comes
    # out empty, and levels 4 and 5 cost no search at all
    graph = octahedron_graph()
    calls = searchsorted_calls(monkeypatch)
    at_3 = vietoris_rips(graph, 3)
    searched_to_3 = len(calls)
    at_5 = vietoris_rips(graph, 5)
    assert at_3.counts() == [6, 12, 8, 0]
    assert at_5.counts() == [6, 12, 8, 0, 0, 0]
    assert len(calls) == 2 * searched_to_3
    assert_well_formed(at_5)
    assert at_5 == graph_oracle.vietoris_rips(graph, 5)


def candidate_count(k, d):
    """Candidates for level ``d`` from level ``d - 1``: per row, the fewer
    of its later siblings and its last vertex's later neighbours, counted
    on label tuples."""
    level = k.simplices(d - 1)
    total = 0
    for i, row in enumerate(level):
        siblings = sum(1 for other in level[i + 1:] if other[:-1] == row[:-1])
        later = sum(1 for edge in k.simplices(1) if edge[0] == row[-1])
        total += min(siblings, later)
    return total


def test_each_candidate_is_searched_once(monkeypatch):
    # a step finds the rows it reaches from its first and last candidate
    # (side="right", in a haystack other than the query), then searches
    # every candidate once, in one call; steps of 7 put step boundaries
    # everywhere
    rng = random.Random(3)
    graph = Graph(range(24), [(i, j) for i in range(24) for j in range(i + 1, 24) if rng.random() < 0.6])
    monkeypatch.setattr(complex_module, "BLOCK_CELLS", 7)
    calls = searchsorted_calls(monkeypatch)
    k = vietoris_rips(graph, 5)
    monkeypatch.undo()
    assert k == graph_oracle.vietoris_rips(graph, 5)
    steps, searched = [], []
    for size, side, itself in calls:
        if side == "right" and not itself:
            steps.append(size)
            searched.append([])
        elif steps and side == "left":
            searched[-1].append(size)
    assert set(steps) == {2}
    assert sum(map(sum, searched)) == sum(candidate_count(k, d) for d in range(2, 6)) > 1000
    assert all(len(sizes) == 1 and 0 < sizes[0] <= 7 for sizes in searched)


def test_a_hub_never_pairs_its_leaves():
    # the hub's 3,000 edges are siblings, C(3000, 2) = 4,498,500 pairs and
    # no triangle; no leaf has a later neighbour, so no pair is tested
    graph = Graph(range(3001), [(0, leaf) for leaf in range(1, 3001)])
    k, peak = traced_peak(vietoris_rips, graph, 2)
    assert k.counts() == [3001, 3000, 0]
    assert peak < 1e6


def test_candidate_pairs_are_tested_in_steps():
    # K_{150,150} on even and odd vertices: 22,500 edges, no triangle, and
    # 1,113,775 candidate pairs, whose arrays take about 70 MB when tested
    # at once and about 2.3 MB in steps of BLOCK_CELLS
    edges = [(i, j) for i in range(300) for j in range(i + 1, 300) if (i + j) % 2]
    graph = Graph(range(300), edges)
    k, peak = traced_peak(vietoris_rips, graph, 2)
    assert k.counts() == [300, 22_500, 0]
    assert peak < 8e6


def test_a_sparse_graph_with_spread_labels_takes_memory_linear_in_its_size():
    # n-bit adjacency masks would add about 100 MB on this cycle
    n = 40_000
    rng = random.Random(0)
    labels = rng.sample(range(10**9), n)
    text = "".join(f"{labels[i]} {labels[(i + 1) % n]}\n" for i in range(n))
    tracemalloc.start()
    try:
        k = vietoris_rips(parse_edge_list(text), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k.counts() == [n, n, 0]
    assert peak < 600 * (n + n)


def test_an_unconvertible_digit_names_its_line(tmp_path, capsys):
    path = tmp_path / "digit.txt"
    path.write_text("0 1\n1 ²\n", encoding="utf-8")
    assert main(["betti", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: bad vertex token" in captured.err
