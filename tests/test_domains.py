"""Sphere domain generators and the built-in sample maps."""

import math
import time

import numpy as np
import pytest

from vrclosure import cycle_graph, euler_characteristic, octahedron_graph
from vrclosure.domains import (
    OCTAHEDRON_POLES,
    antipodal_quarter_arc_map,
    circle_domain,
    constant_map,
    icosphere,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)
from vrclosure.transform import MAX_SAMPLES, TooManySamples

import domain_oracle


class TestCircle:
    def test_counts(self):
        dom = circle_domain(64)
        assert dom.n_samples == 64
        assert dom.triangulation.counts() == [64, 64, 0]

    def test_on_unit_circle(self):
        dom = circle_domain(12)
        assert np.allclose(np.linalg.norm(dom.coords, axis=1), 1.0)

    def test_too_small(self):
        with pytest.raises(ValueError):
            circle_domain(2)


class TestSampleBudget:
    """The builders refuse an oversized domain from its sample count alone,
    before allocating anything."""

    @pytest.mark.parametrize(
        "build, arg",
        [(circle_domain, MAX_SAMPLES + 1), (circle_domain, 10**9),
         (icosphere_domain, 6), (icosphere_domain, 10**9)],
    )
    def test_oversized_domain_refused_at_once(self, build, arg):
        start = time.perf_counter()
        with pytest.raises(TooManySamples, match=f"^more than {MAX_SAMPLES} samples$"):
            build(arg)
        assert time.perf_counter() - start < 1.0

    def test_largest_circle_is_built(self):
        assert circle_domain(MAX_SAMPLES).n_samples == MAX_SAMPLES


class TestIcosphere:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_counts(self, k):
        coords, faces = icosphere(k)
        assert len(coords) == 10 * 4**k + 2
        assert len(faces) == 20 * 4**k

    def test_unit_norms(self):
        coords, _ = icosphere(2)
        assert np.allclose(np.linalg.norm(coords, axis=1), 1.0)

    def test_domain_is_a_sphere(self):
        dom = icosphere_domain(1)
        counts = dom.triangulation.counts()
        assert counts[0] - counts[1] + counts[2] == 2  # Euler characteristic
        assert euler_characteristic(dom.triangulation) == 2

    def test_mesh_shrinks_with_depth(self):
        meshes = [icosphere_domain(k).max_simplex_diameter() for k in range(3)]
        assert meshes[0] > meshes[1] > meshes[2]


class TestBuiltinMaps:
    def test_constant(self):
        dom = circle_domain(8)
        g = cycle_graph(4)
        pts = constant_map(dom, g, 2)
        assert all(p.carrier == (2,) for p in pts.values())

    def test_quarter_arc_sectors(self):
        dom = circle_domain(64)
        g = cycle_graph(4)
        pts = quarter_arc_map(dom, g)
        for i in range(64):
            assert pts[i].carrier[0] == (i * 4) // 64

    def test_antipodal_shifts_by_half_turn(self):
        dom = circle_domain(64)
        g = cycle_graph(4)
        plain = quarter_arc_map(dom, g)
        shifted = antipodal_quarter_arc_map(dom, g)
        for i in range(64):
            assert shifted[i].carrier[0] == (plain[(i + 32) % 64].carrier[0])

    def test_maps_share_one_point_per_vertex(self):
        c4, octa = cycle_graph(4), octahedron_graph()
        circle, sphere = circle_domain(64), icosphere_domain(2)
        for pts in (
            constant_map(circle, c4),
            quarter_arc_map(circle, c4),
            antipodal_quarter_arc_map(circle, c4),
            nearest_pole_map(sphere, octa, rotation=random_rotation(1)),
        ):
            shared = {}
            assert all(shared.setdefault(p.carrier, p) is p for p in pts.values())

    def test_quarter_arc_needs_circle(self):
        with pytest.raises(ValueError):
            quarter_arc_map(icosphere_domain(0), cycle_graph(4))

    def test_nearest_pole_at_poles(self):
        g = octahedron_graph()
        dom = icosphere_domain(1)
        pts = nearest_pole_map(dom, g)
        for i in range(dom.n_samples):
            pole = OCTAHEDRON_POLES[pts[i].carrier[0]]
            gaps = np.linalg.norm(OCTAHEDRON_POLES - dom.coords[i], axis=1)
            assert math.isclose(gaps[pts[i].carrier[0]], gaps.min())
            assert np.dot(pole, dom.coords[i]) >= -1e-12

    def test_nearest_pole_needs_matching_graph(self):
        with pytest.raises(ValueError):
            nearest_pole_map(icosphere_domain(0), cycle_graph(4))


class TestRandomRotation:
    def test_orthogonal_and_proper(self):
        for seed in range(5):
            q = random_rotation(seed)
            assert np.allclose(q @ q.T, np.eye(3), atol=1e-12)
            assert math.isclose(np.linalg.det(q), 1.0, abs_tol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(random_rotation(9), random_rotation(9))


class TestArrayBuildsMatchTheOracle:
    """The array-built domains equal the per-midpoint split loop and the
    ``from_simplices`` closure they replaced, coordinates bit for bit."""

    @pytest.mark.parametrize("k", range(6))
    def test_icosphere(self, k):
        coords, faces = icosphere(k)
        want_coords, want_faces = domain_oracle.icosphere(k)
        assert coords.tobytes() == want_coords.tobytes()
        assert faces == want_faces
        dom, want = icosphere_domain(k), domain_oracle.icosphere_domain(k)
        assert dom.coords.tobytes() == want.coords.tobytes()
        assert dom.triangulation == want.triangulation
        assert dom.basepoints == want.basepoints

    @pytest.mark.parametrize("n", [3, 4, 5, 64, 2048])
    def test_circle(self, n):
        dom, want = circle_domain(n), domain_oracle.circle_domain(n)
        assert dom.coords.tobytes() == want.coords.tobytes()
        assert dom.triangulation == want.triangulation
        assert dom.basepoints == want.basepoints == (0,)
