"""Property tests of the GF(2) homology against the hand-written eliminations
in ``homology_oracle``: Betti numbers at every level a complex allows, and
the whole induced map on H1 of random simplicial self-maps."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import homology_oracle  # noqa: E402
from vrclosure import Graph, SimplicialMap, betti_numbers, check_simplicial, induced_h1, vietoris_rips  # noqa: E402

FUZZ = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def blocks(draw):
    """Components of a graph as vertex lists over shuffled labels, with their
    kind: random (isolated vertices and cliques included) or a cycle C_m,
    m >= 4, whose clique complex has beta_1 = 1."""
    kinds = draw(st.lists(st.sampled_from(["random", "cycle"]), min_size=1, max_size=4))
    sizes = [draw(st.integers(1, 6) if kind == "random" else st.integers(4, 8)) for kind in kinds]
    labels = draw(st.permutations(range(sum(sizes))))
    out, start = [], 0
    for kind, size in zip(kinds, sizes):
        out.append((kind, list(labels[start : start + size])))
        start += size
    return out


def block_edges(draw, kind, vs):
    if kind == "cycle":
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
    pairs = list(combinations(vs, 2))
    if draw(st.booleans()):
        return pairs
    return [p for p in pairs if draw(st.booleans())]


@st.composite
def graphs_with_blocks(draw):
    parts = draw(blocks())
    edges = [e for kind, vs in parts for e in block_edges(draw, kind, vs)]
    return Graph(range(sum(len(vs) for _, vs in parts)), edges), parts


@FUZZ
@hypothesis.given(graphs_with_blocks(), st.integers(1, 7))
def test_betti_numbers_match_oracle(case, cap):
    # caps past the clique number leave the top levels empty
    g, _ = case
    k = vietoris_rips(g, cap)
    for max_k in range(cap):
        assert betti_numbers(k, max_k) == homology_oracle.betti_numbers(k, max_k)


def dominated_fold(g, vs):
    """Send one vertex u of ``vs`` to a w with N(u) within N[w], if any: a
    simplicial self-map of the clique complex."""
    for u in vs:
        for w in vs:
            if w != u and g.neighbors(u) - {w} <= g.neighbors(w):
                return {u: w}
    return {}


@st.composite
def self_maps(draw):
    """Simplicial self-maps built block by block: identity, constant (onto
    any vertex), a dominated-vertex fold, and on cycles rotations,
    reflections, the collapse onto an edge, and wraps onto shorter cycles."""
    g, parts = draw(graphs_with_blocks())
    cycles = [vs for kind, vs in parts if kind == "cycle"]
    images = {v: v for v in g.vertices}
    for kind, vs in parts:
        moves = ["identity", "constant", "fold"]
        if kind == "cycle":
            moves += ["rotate", "reflect", "wrap"] + (["edge"] if len(vs) % 2 == 0 else [])
        move = draw(st.sampled_from(moves))
        m = len(vs)
        if move == "constant":
            images.update(dict.fromkeys(vs, draw(st.sampled_from(list(g.vertices)))))
        elif move == "fold":
            images.update(dominated_fold(g, vs))
        elif move == "rotate":
            r = draw(st.integers(1, m - 1))
            images.update({vs[i]: vs[(i + r) % m] for i in range(m)})
        elif move == "reflect":
            images.update({vs[i]: vs[-i % m] for i in range(m)})
        elif move == "edge":
            images.update({vs[i]: vs[i % 2] for i in range(m)})
        elif move == "wrap":
            onto = draw(st.sampled_from([c for c in cycles if len(c) <= m]))
            images.update({vs[i]: onto[i * len(onto) // m] for i in range(m)})
    k = vietoris_rips(g, draw(st.integers(2, 3)))
    return SimplicialMap(k, k, images)


@FUZZ
@hypothesis.given(self_maps())
def test_induced_h1_matches_oracle(m):
    assert check_simplicial(m)
    got = induced_h1(m)
    assert got == homology_oracle.induced_h1(m)
    hypothesis.event("beta_1 > 0" if got.source_betti1 else "beta_1 = 0")
