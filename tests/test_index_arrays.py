"""Complexes stored as vertex-index arrays: every builder against the
label-level builder it replaced, read through the label view; face lookups
past the range of an int64 mixed-radix row code; and the pipeline and
``betti`` running without ever building the label view."""

import contextlib
import io
import json
from itertools import combinations

import pytest

import domain_oracle
import homology_oracle
import sd_oracle
from helpers import assert_well_formed, barycentric_subdivision, from_simplices
from vrclosure import (
    Graph,
    SimplicialComplex,
    betti_numbers,
    octahedron_graph,
    vietoris_rips,
)
from vrclosure.cli import main
from vrclosure.domains import circle_domain, icosphere, icosphere_domain, nearest_pole_map
from vrclosure.homology import boundary_columns
from vrclosure.pipeline import run_pipeline
from vrclosure.transform import subdivide_domain


def assert_levels(k, vertices, levels):
    """``k`` holds exactly these label tuples, level by level, and is well formed."""
    assert k.vertices == tuple(vertices)
    assert [list(k.simplices(d)) for d in range(k.dim_cap + 1)] == [list(level) for level in levels]
    assert_well_formed(k)


class TestDomainBuilders:
    """The array-built triangulations against the tuple sorts they replaced."""

    @pytest.mark.parametrize("k", range(6))
    def test_icosphere(self, k):
        _, faces = domain_oracle.icosphere(k)
        triangles = sorted(tuple(sorted(face)) for face in faces)
        edges = sorted({e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))})
        n = len(icosphere(k)[0])
        tri = icosphere_domain(k).triangulation
        assert_levels(tri, range(n), [[(i,) for i in range(n)], edges, triangles, []])
        assert tri == domain_oracle.icosphere_domain(k).triangulation

    @pytest.mark.parametrize("n", [3, 4, 5, 64, 2048])
    def test_circle(self, n):
        edges = sorted(tuple(sorted((i, (i + 1) % n))) for i in range(n))
        tri = circle_domain(n).triangulation
        assert_levels(tri, range(n), [[(i,) for i in range(n)], edges, []])
        assert tri == domain_oracle.circle_domain(n).triangulation


def twice_subdivided_circle():
    dom = circle_domain(8)
    for _ in range(2):
        dom, _, _ = subdivide_domain(dom, dict.fromkeys(range(dom.n_samples), 0))
    return dom.triangulation


SUBDIVIDED = {
    **{f"icosa:{k}": (lambda k=k: icosphere_domain(k).triangulation) for k in range(4)},
    **{f"{d}-simplex": (lambda d=d: from_simplices([range(d + 1)], d)) for d in (1, 2, 3)},
    "3-simplex, cap 4": lambda: from_simplices([range(4)], 4),
    "circle:8 subdivided twice": twice_subdivided_circle,
}


@pytest.mark.parametrize("name", SUBDIVIDED)
def test_subdivision_matches_the_sorted_build(name):
    k = SUBDIVIDED[name]()
    assert_levels(barycentric_subdivision(k), *sd_oracle.sorted_barycentric_levels(k))


@pytest.mark.parametrize("name", SUBDIVIDED)
def test_boundary_columns_match_the_label_lookup(name):
    k = SUBDIVIDED[name]()
    for d in range(1, k.dim_cap + 1):
        assert boundary_columns(k, d) == homology_oracle.boundary_columns(k, d)


def sphere_among_isolated_vertices(n=200, pairs=9):
    """The flag S^8 (the cross-polytope on 9 antipodal pairs) on the last 18
    of ``n`` vertices, the rest isolated: its 9-vertex rows start at index
    182, and 182 * 200**8 overflows an int64 mixed-radix row code."""
    first = n - 2 * pairs
    edges = [(u, v) for u, v in combinations(range(first, n), 2) if (u - first) // 2 != (v - first) // 2]
    return Graph(range(n), edges)


def test_betti_past_the_int64_mixed_radix_range():
    k = vietoris_rips(sphere_among_isolated_vertices(), 9)
    assert k.counts()[8] == 2 ** 9 and (k.rows[8][:, 0] >= 182).all()
    assert 182 * 200 ** 8 >= 2 ** 63
    want = [183, 0, 0, 0, 0, 0, 0, 0, 1]
    assert betti_numbers(k, 8) == homology_oracle.betti_numbers(k, 8) == want
    # every 8-simplex is found at its own position, and its facets one level down
    assert (k.positions(k.rows[8]) - sum(k.counts()[:8]) == range(2 ** 9)).all()
    assert (k.facets(8) >= 0).all() and (k.facets(8) < k.counts()[7]).all()


@pytest.fixture
def no_label_view(monkeypatch):
    """Any read of a complex's label tuples fails the test."""

    def refuse(self):
        raise AssertionError("the label view was built")

    monkeypatch.setattr(SimplicialComplex, "_label_levels", property(refuse))


def test_pipeline_with_check_sd_builds_no_label_view(no_label_view):
    graph, domain = octahedron_graph(), icosphere_domain(2)
    report = run_pipeline(graph, domain, nearest_pole_map(domain, graph), check_sd=True)
    assert report["sd_compatible"] is True and report["simplicial"] is True
    with pytest.raises(AssertionError, match="label view"):
        domain.triangulation.simplices(1)


def test_betti_on_the_flag_torus_builds_no_label_view(no_label_view, tmp_path):
    # the 6-neighbour triangulation of a 5 x 6 torus, a flag complex
    m, n = 5, 6
    vertex = lambda i, j: (i % m) * n + j % n  # noqa: E731
    edges = {tuple(sorted((vertex(i, j), vertex(i + a, j + b))))
             for i in range(m) for j in range(n) for a, b in ((1, 0), (0, 1), (1, 1))}
    path = tmp_path / "torus.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["betti", str(path), "--max-k", "2", "--max-dim", "3"]) == 0
    assert json.loads(out.getvalue()) == {"betti": [1, 2, 1], "euler": 0, "field": "GF(2)"}
