"""Barycentric points, the cover of a simplex, the vertex retraction, and
piecewise-linear evaluation."""

import random

import numpy as np
import pytest

from vrclosure import (
    BaryPoint,
    Graph,
    SimplicialMap,
    bary_cover_membership,
    complete_graph,
    cycle_graph,
    pl_evaluate,
    simplex_grid,
    subdivision_depth_for_mesh,
    theta_point,
    vietoris_rips,
)

from grid_oracle import subdivided_point
from helpers import chain_subsimplices


def oracle_piece_membership(n, coords, i):
    """Brute-force membership in the i-th cover piece: test containment of the
    point in each chain subsimplex, solving for its barycentric coordinates.

    Vertices of the ambient simplex are the standard basis of R^{n+1}; the
    barycenter of a face is the mean of its basis vectors.
    """
    point = np.asarray(coords, dtype=float)
    for chain in chain_subsimplices(tuple(range(n + 1)), i):
        columns = []
        for face in chain:
            col = np.zeros(n + 1)
            col[list(face)] = 1.0 / len(face)
            columns.append(col)
        matrix = np.stack(columns, axis=1)
        lam = np.linalg.solve(matrix, point)
        if (lam >= -1e-9).all():
            return True
    return False


class TestBaryPoint:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            BaryPoint((0, 1), (0.5, 0.6))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            BaryPoint((0, 1), (1.5, -0.5))

    @pytest.mark.parametrize(
        "coords", [(1.0, float("nan")), (float("inf"), 0.0), (float("nan"), float("nan"))]
    )
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError):
            BaryPoint((0, 1), coords)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            BaryPoint((0, 0), (0.5, 0.5))

    def test_canonical_strips_zeros(self):
        p = BaryPoint((0, 1, 2), (0.5, 0.0, 0.5)).canonical()
        assert p.carrier == (0, 2)
        assert p.coords == (0.5, 0.5)

    def test_coordinate_lookup(self):
        p = BaryPoint((0, 2), (0.3, 0.7))
        assert p.coordinate(2) == 0.7
        assert p.coordinate(1) == 0.0


class TestBaryCover:
    def test_barycenter_in_every_piece(self):
        x = BaryPoint((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))
        for i in range(3):
            assert bary_cover_membership((0, 1, 2), x, i)

    def test_interior_point_piece_zero_only(self):
        x = BaryPoint((0, 1, 2), (0.5, 0.3, 0.2))
        assert bary_cover_membership((0, 1, 2), x, 0)
        assert not bary_cover_membership((0, 1, 2), x, 1)
        assert not bary_cover_membership((0, 1, 2), x, 2)

    def test_interval(self):
        x = BaryPoint((0, 1), (0.7, 0.3))
        assert bary_cover_membership((0, 1), x, 0)
        assert not bary_cover_membership((0, 1), x, 1)

    def test_point_outside_simplex(self):
        x = BaryPoint((0, 5), (0.5, 0.5))
        with pytest.raises(ValueError):
            bary_cover_membership((0, 1, 2), x, 0)

    def test_matches_chain_subsimplex_oracle(self):
        # light grid here; the acceptance suite runs the full 1/20 grid to n=4
        for n in (1, 2, 3):
            simplex = tuple(range(n + 1))
            for coords in simplex_grid(n, 10):
                x = BaryPoint(simplex, coords)
                for i in range(n + 1):
                    assert bary_cover_membership(simplex, x, i) == oracle_piece_membership(
                        n, coords, i
                    ), (coords, i)


class TestTheta:
    def test_vertices_fixed(self):
        k = vietoris_rips(cycle_graph(4), 2)
        for v in k.vertices:
            assert theta_point(k, BaryPoint.of_vertex(v)) == v

    def test_barycenter_tie_breaks_to_first(self):
        k = vietoris_rips(complete_graph(3), 2)
        assert theta_point(k, BaryPoint((0, 1, 2), (1 / 3, 1 / 3, 1 / 3))) == 0

    def test_max_coordinate_wins(self):
        k = vietoris_rips(complete_graph(3), 2)
        assert theta_point(k, BaryPoint((0, 1, 2), (0.2, 0.5, 0.3))) == 1

    def test_carrier_not_in_complex(self):
        k = vietoris_rips(cycle_graph(4), 2)
        with pytest.raises(ValueError):
            theta_point(k, BaryPoint((0, 2), (0.5, 0.5)))

    def test_idempotent_and_local_on_random_points(self):
        rng = random.Random(13)
        nprng = np.random.default_rng(13)
        for _ in range(10):
            n = rng.randint(3, 9)
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6
            ]
            k = vietoris_rips(Graph(range(n), edges), 3)
            candidates = [s for d in range(4) for s in k.simplices(d)]
            for _ in range(80):
                s = candidates[rng.randrange(len(candidates))]
                coords = nprng.dirichlet(np.ones(len(s)))
                x = BaryPoint(s, tuple(coords))
                v = theta_point(k, x)
                assert v in x.canonical().carrier
                assert theta_point(k, BaryPoint.of_vertex(v)) == v


class TestPLEvaluate:
    def setup_method(self):
        self.k4 = vietoris_rips(cycle_graph(4), 2)

    def test_vertex_goes_to_image_vertex(self):
        m = SimplicialMap(self.k4, self.k4, {0: 1, 1: 2, 2: 3, 3: 0})
        out = pl_evaluate(m, BaryPoint.of_vertex(0))
        assert out.carrier == (1,) and out.coords == (1.0,)

    def test_midpoint_is_linear(self):
        m = SimplicialMap(self.k4, self.k4, {0: 1, 1: 2, 2: 3, 3: 0})
        out = pl_evaluate(m, BaryPoint((0, 1), (0.5, 0.5)))
        assert out.carrier == (1, 2)
        assert out.coords == (0.5, 0.5)

    def test_collapse_sums_coordinates(self):
        m = SimplicialMap(self.k4, self.k4, {0: 2, 1: 2, 2: 2, 3: 2})
        out = pl_evaluate(m, BaryPoint((0, 1), (0.3, 0.7)))
        assert out.carrier == (2,)
        assert out.coords == (1.0,)

    def test_affine_on_random_combinations(self):
        k6 = vietoris_rips(cycle_graph(6), 2)
        # wrap the hexagon onto the square
        m = SimplicialMap(k6, self.k4, {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 3})
        rng = np.random.default_rng(5)
        for s in k6.simplices(1):
            for _ in range(10):
                a = rng.dirichlet(np.ones(2))
                b = rng.dirichlet(np.ones(2))
                t = rng.uniform()
                mix = tuple(t * ai + (1 - t) * bi for ai, bi in zip(a, b))
                left = pl_evaluate(m, BaryPoint(s, mix))
                pa = pl_evaluate(m, BaryPoint(s, tuple(a)))
                pb = pl_evaluate(m, BaryPoint(s, tuple(b)))
                for v in set(left.carrier) | set(pa.carrier) | set(pb.carrier):
                    expect = t * pa.coordinate(v) + (1 - t) * pb.coordinate(v)
                    assert abs(left.coordinate(v) - expect) < 1e-9

    def test_non_simplicial_carrier_raises(self):
        m = SimplicialMap(self.k4, self.k4, {0: 0, 1: 1, 2: 3, 3: 3})
        with pytest.raises(ValueError):
            pl_evaluate(m, BaryPoint((1, 2), (0.5, 0.5)))


class TestSubdivisionDepth:
    def test_already_below(self):
        assert subdivision_depth_for_mesh(2, 1.0, 1.01) == 0

    def test_interval_halving(self):
        assert subdivision_depth_for_mesh(1, 1.0, 0.3) == 2

    def test_triangle_two_thirds(self):
        assert subdivision_depth_for_mesh(2, 1.0, 0.5) == 2

    def test_dimension_zero(self):
        assert subdivision_depth_for_mesh(0, 5.0, 1.0) == 1

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            subdivision_depth_for_mesh(2, 1.0, 0.0)


class TestSubdividedPoint:
    def test_geometric_agreement_random(self):
        """Rewriting a point over chain barycenters reproduces its location."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = rng.integers(1, 5)
            carrier = tuple(range(m + 1))
            coords = rng.dirichlet(np.ones(m + 1))
            x = BaryPoint(carrier, tuple(coords))
            positions = rng.normal(size=(m + 1, 4))
            sd_pt = subdivided_point(x)
            rebuilt = np.zeros(4)
            for face, w in zip(sd_pt.carrier, sd_pt.coords):
                rebuilt += w * positions[list(face)].mean(axis=0)
            direct = coords @ positions
            assert np.allclose(rebuilt, direct, atol=1e-9)

    def test_carrier_is_a_chain(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            coords = rng.dirichlet(np.ones(4))
            sd_pt = subdivided_point(BaryPoint((0, 1, 2, 3), tuple(coords)))
            for small, big in zip(sd_pt.carrier, sd_pt.carrier[1:]):
                assert set(small) < set(big)

    def test_vertex_point(self):
        out = subdivided_point(BaryPoint.of_vertex(7))
        assert out.carrier == ((7,),)


class TestSimplexGrid:
    def test_counts(self):
        # compositions of `steps` into dim+1 parts
        assert len(list(simplex_grid(1, 20))) == 21
        assert len(list(simplex_grid(2, 10))) == 66

    def test_sums(self):
        for coords in simplex_grid(3, 7):
            assert abs(sum(coords) - 1.0) < 1e-12
