"""Property tests of the GF(2) homology against the hand-written eliminations
in ``homology_oracle``: Betti numbers at every level a complex allows, each
cleared coboundary rank against the dense rank of the full coboundary, and
the whole induced map on H1 of random simplicial self-maps.  The same maps,
perturbed until some are not simplicial, and random complexes check the
subdivision builders, the maximal-simplex walk, ``check_simplicial`` and
``sd_compatibility`` against the code they replaced, in ``sd_oracle``."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import graph_oracle  # noqa: E402
import homology_oracle  # noqa: E402
import sd_oracle  # noqa: E402
from helpers import barycentric_subdivision, from_simplices, maximal_simplices  # noqa: E402
from vrclosure import (  # noqa: E402
    Graph,
    SampledDomain,
    SimplicialMap,
    betti_numbers,
    check_simplicial,
    complete_graph,
    induced_h1,
    subdivide_domain,
    vietoris_rips,
)
from vrclosure import homology  # noqa: E402
from vrclosure.pipeline import sd_compatibility  # noqa: E402

FUZZ = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)


SIZES = {
    "random": st.integers(1, 6),
    "cycle": st.integers(4, 8),
    "complete": st.integers(5, 6),
    "cross": st.sampled_from([4, 6, 8]),
}


@st.composite
def blocks(draw, kinds=("random", "cycle")):
    """Components of a graph as vertex lists over shuffled labels, with their
    kind: random (isolated vertices and cliques included), a cycle C_m,
    m >= 4, whose clique complex has beta_1 = 1, and, when asked for, K5 or
    K6 and the cross-polytopes of dimension 2 to 4 (spheres S^1 to S^3)."""
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    sizes = [draw(SIZES[kind]) for kind in kinds]
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
    if kind == "complete":
        return pairs
    if kind == "cross":
        # every pair but the antipodes vs[i], vs[i + m]
        m = len(vs) // 2
        return [(vs[i], vs[j]) for i, j in combinations(range(len(vs)), 2) if j != i + m]
    if draw(st.booleans()):
        return pairs
    return [p for p in pairs if draw(st.booleans())]


@st.composite
def graphs_with_blocks(draw, kinds=("random", "cycle")):
    parts = draw(blocks(kinds))
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


def coboundary_columns(k, d):
    """The full coboundary delta_d: one column per d-simplex, one row per
    (d+1)-simplex, no column cleared."""
    index = {s: j for j, s in enumerate(k.simplices(d))}
    columns = [0] * len(index)
    for i, s in enumerate(k.simplices(d + 1)):
        for face in combinations(s, d + 1):
            columns[index[face]] |= 1 << i
    return columns


@FUZZ
@hypothesis.given(graphs_with_blocks(("random", "cycle", "complete", "cross")), st.integers(2, 7))
@hypothesis.example((complete_graph(6), None), 6)
@hypothesis.example((Graph(range(8), [(i, j) for i, j in combinations(range(8), 2) if j != i + 4]), None), 5)
def test_cleared_coboundary_ranks_match_the_full_rank(case, cap):
    # clearing skips the forest's edges at d = 1 and the pivots of the level
    # below at d >= 2; neither may change the rank, and every pivot must be
    # a (d+1)-simplex, or the next level would skip a column it should not
    g, _ = case
    k = vietoris_rips(g, cap)
    cleared = homology._spanning_forest(k)
    for d in range(1, cap):
        rank, pivots = homology._coboundary_rank(k, d, cleared)
        assert rank == homology_oracle.gf2_rank_dense(coboundary_columns(k, d))
        assert len(pivots) == rank
        assert all(0 <= p < len(k.simplices(d + 1)) for p in pivots)
        if d >= 2:
            hypothesis.event("d >= 2 clears columns" if cleared else "d >= 2 clears nothing")
        cleared = pivots


def dominated_fold(g, vs):
    """Send one vertex u of ``vs`` to a w with N(u) within N[w], if any: a
    simplicial self-map of the clique complex."""
    nbrs = dict(zip(g.vertices, graph_oracle.edge_neighbor_sets(g)))
    index = g.vertex_index
    for u in vs:
        for w in vs:
            if w != u and nbrs[u] - {index[w]} <= nbrs[w]:
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


# -- subdivision builders and the maximal-simplex walk ----------------------


@st.composite
def complexes(draw):
    """The downward closure of a few random simplices on up to 8 vertices,
    under a random cap: non-pure complexes and isolated vertices included."""
    simplices = draw(
        st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True), min_size=1, max_size=6)
    )
    return from_simplices(simplices, draw(st.integers(0, 3)))


@FUZZ
@hypothesis.given(complexes())
def test_subdivision_builders_match_oracle(k):
    assert barycentric_subdivision(k) == sd_oracle.sorted_barycentric_subdivision(k)
    got = maximal_simplices(k)
    assert len(got) == len(set(got))
    assert set(got) == set(sd_oracle.maximal_by_definition(k))
    dom = SampledDomain([[float(v), float(v * v)] for v in range(max(k.vertices) + 1)], k)
    new_dom, _, face_vertex = subdivide_domain(dom, dict.fromkeys(range(dom.n_samples), 0))
    assert (new_dom.triangulation, face_vertex) == sd_oracle.renamed_subdivision(dom)


def assert_verdicts_match_oracles(draw, m1, images):
    """``check_simplicial`` and ``sd_compatibility`` on ``m1`` and a
    refinement on sd(K), whose barycenters take the m1-image of their face's
    first vertex or, for a drawn few, any of ``images``."""
    sd = barycentric_subdivision(m1.source)
    fine = {face: m1(face[0]) for face in sd.vertices}
    for face in draw(st.lists(st.sampled_from(sd.vertices), max_size=3)):
        fine[face] = draw(st.sampled_from(images))
    m2 = SimplicialMap(sd, m1.target, fine)
    for m in (m1, m2):
        assert check_simplicial(m) == sd_oracle.all_simplices_check_simplicial(m)
    face_vertex = list(sd.vertices)
    verdict = sd_compatibility(m1, m2, face_vertex)
    assert verdict == sd_oracle.permutation_sd_compatibility(m1, m2, face_vertex)
    hypothesis.event(f"m2 simplicial: {check_simplicial(m2)}, compatible: {verdict}")


@FUZZ
@hypothesis.given(complexes(), st.data())
def test_random_maps_match_oracles(k, data):
    # any vertex map into a random clique complex on 5 vertices
    draw = data.draw
    edges = draw(st.lists(st.sampled_from(list(combinations(range(5), 2)))))
    target = vietoris_rips(Graph(range(5), edges), draw(st.integers(0, 3)))
    m1 = SimplicialMap(k, target, {v: draw(st.integers(0, 4)) for v in k.vertices})
    assert_verdicts_match_oracles(draw, m1, list(range(5)))


@FUZZ
@hypothesis.given(self_maps(), st.data())
def test_perturbed_self_maps_match_oracles(m, data):
    draw = data.draw
    images = dict(m.vertex_images)
    for v in draw(st.lists(st.sampled_from(m.source.vertices), max_size=2)):
        images[v] = draw(st.sampled_from(m.target.vertices))
    m1 = SimplicialMap(m.source, m.target, images)
    hypothesis.event(f"m1 simplicial: {check_simplicial(m1)}")
    assert_verdicts_match_oracles(draw, m1, list(m.target.vertices))
