"""Closure-space axioms, neighborhoods, continuity checking, and the
continuity a passing clique certificate implies."""

import random

import numpy as np
import pytest

from vrclosure import (
    CertificateFailure,
    ClosureSpace,
    PointMap,
    clique_certificate,
    compose,
    cycle_graph,
    discrete_modify,
    is_continuous,
    octahedron_graph,
)
from vrclosure.domains import (
    antipodal_quarter_arc_map,
    circle_domain,
    constant_map,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)

from helpers import distances, flood_all


def c4_space():
    return cycle_graph(4).canonical_closure()


def random_space(rng, n):
    points = list(range(n))
    cl1 = {
        x: {x} | {y for y in points if y != x and rng.random() < 0.3}
        for x in points
    }
    return ClosureSpace(points, cl1)


class TestClosure:
    def test_c4_singleton(self):
        assert c4_space().closure({0}) == {3, 0, 1}

    def test_empty_set(self):
        assert c4_space().closure(set()) == frozenset()

    def test_union_of_singletons(self):
        # cl({0,2}) = {3,0,1} | {1,2,3}
        assert c4_space().closure({0, 2}) == {0, 1, 2, 3}

    def test_unknown_point(self):
        with pytest.raises(KeyError):
            c4_space().closure({7})

    def test_axioms_on_random_subsets(self):
        rng = random.Random(11)
        for _ in range(40):
            space = random_space(rng, rng.randint(1, 12))
            a = {x for x in space.points if rng.random() < 0.5}
            b = {x for x in space.points if rng.random() < 0.5}
            assert space.closure(a | b) == space.closure(a) | space.closure(b)
            assert a <= space.closure(a)
            assert space.closure(set()) == frozenset()

    def test_rejects_missing_reflexivity(self):
        with pytest.raises(ValueError):
            ClosureSpace([0, 1], {0: {1}, 1: {1}})

    def test_rejects_escaping_closure(self):
        with pytest.raises(ValueError):
            ClosureSpace([0, 1], {0: {0, 5}, 1: {1}})


class TestNeighborhood:
    def test_c4_closed_neighborhood_is_neighborhood(self):
        # complement {2} has closure {1,2,3}, which misses 0
        assert c4_space().is_neighborhood({3, 0, 1}, 0)

    def test_singleton_is_not_neighborhood(self):
        # 0 lies in cl({1})
        assert not c4_space().is_neighborhood({0}, 0)

    def test_whole_space_is_neighborhood(self):
        space = c4_space()
        for x in space.points:
            assert space.is_neighborhood(set(space.points), x)

    def test_monotone_in_the_set(self):
        rng = random.Random(5)
        for _ in range(40):
            space = random_space(rng, rng.randint(1, 10))
            u = {p for p in space.points if rng.random() < 0.5}
            bigger = u | {p for p in space.points if rng.random() < 0.4}
            for x in space.points:
                if space.is_neighborhood(u, x):
                    assert space.is_neighborhood(bigger, x)

    def test_minimal_neighborhood_is_least(self):
        rng = random.Random(23)
        for _ in range(30):
            space = random_space(rng, rng.randint(1, 9))
            for x in space.points:
                mini = space.minimal_neighborhood(x)
                assert space.is_neighborhood(mini, x)
                u = {p for p in space.points if rng.random() < 0.6} | {x}
                assert space.is_neighborhood(u, x) == (mini <= u)


class TestContinuity:
    def test_identity_is_continuous(self):
        space = c4_space()
        assert is_continuous(PointMap(space, space, {x: x for x in space.points}))

    def test_known_discontinuous_map(self):
        space = c4_space()
        f = PointMap(space, space, {0: 0, 1: 2, 2: 0, 3: 2})
        # 1 is in cl({0}) but f(1)=2 is outside cl({0})={3,0,1}
        assert not is_continuous(f)

    def test_constants_are_continuous(self):
        space = c4_space()
        for c in space.points:
            assert is_continuous(PointMap(space, space, {x: c for x in space.points}))

    def test_cycle_wrap_is_continuous(self):
        big = cycle_graph(12).canonical_closure()
        small = cycle_graph(4).canonical_closure()
        wrap = PointMap(big, small, {i: i // 3 for i in range(12)})
        assert is_continuous(wrap)

    def test_composition_of_continuous_maps(self):
        rng = random.Random(77)
        found = 0
        while found < 25:
            a = random_space(rng, rng.randint(2, 8))
            b = random_space(rng, rng.randint(2, 8))
            c = random_space(rng, rng.randint(2, 8))
            f = PointMap(a, b, {x: rng.choice(b.points) for x in a.points})
            g = PointMap(b, c, {x: rng.choice(c.points) for x in b.points})
            if not (is_continuous(f) and is_continuous(g)):
                continue
            found += 1
            assert is_continuous(compose(g, f))

    def test_map_must_be_total(self):
        space = c4_space()
        with pytest.raises(ValueError):
            PointMap(space, space, {0: 0, 1: 1})


class TestCertificateImpliesClosureContinuity:
    """Where the clique certificate passes at delta, every closed delta-ball
    carries values adjacent to its centre's, so the map is continuous from
    the closed delta-ball closure on the samples into the target graph's
    canonical closure."""

    @staticmethod
    def ball_closure(f, delta):
        d = distances(f.domain)
        samples = range(f.domain.n_samples)
        return ClosureSpace(samples, {y: np.flatnonzero(d[y] <= delta).tolist() for y in samples})

    def assert_continuous_where_certified(self, f):
        try:
            delta = clique_certificate(f).delta
        except CertificateFailure:
            return "fail"
        space = self.ball_closure(f, delta)
        assert is_continuous(PointMap(space, f.target.canonical_closure(), f.values))
        return "ok"

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_circles(self, n):
        dom = circle_domain(n)
        c4 = cycle_graph(4)
        for build in (quarter_arc_map, antipodal_quarter_arc_map, constant_map):
            f = discrete_modify(build(dom, c4), dom, c4)
            assert self.assert_continuous_where_certified(f) == "ok"
            assert self.assert_continuous_where_certified(flood_all(f)) == "ok"

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_icosa(self, k):
        dom = icosphere_domain(k)
        octa = octahedron_graph()
        outcomes = set()
        for rotation in (None, random_rotation(1), random_rotation(3)):
            f = discrete_modify(nearest_pole_map(dom, octa, rotation=rotation), dom, octa)
            outcomes.add(self.assert_continuous_where_certified(f))
            outcomes.add(self.assert_continuous_where_certified(flood_all(f)))
        f = discrete_modify(constant_map(dom, octa), dom, octa)
        assert self.assert_continuous_where_certified(f) == "ok"
        # the 12-sample icosahedron is too coarse for a nearest-pole map
        assert "ok" in outcomes or k == 0
