"""Differential tests of rewritten routines against the code they replaced
or an independent oracle: the clique certificate (radii and failure pairs),
the distance rows, diameter and edge lengths built on demand, the flood
overwrite and the largest simplex diameter must agree exactly; the exact
subdivision-compatibility check must give the 1/N-grid check's verdict;
Betti numbers and induced maps on H1 must equal the hand-written
eliminations; clique enumeration must match networkx."""

import random
from itertools import combinations

import numpy as np
import pytest

from vrclosure import (
    CertificateFailure,
    DiscreteMap,
    Graph,
    SampledDomain,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    betti_numbers,
    check_simplicial,
    clique_certificate,
    cycle_graph,
    discrete_modify,
    flood,
    flood_stage_radii,
    induced_h1,
    octahedron_graph,
    subdivide_domain,
    vietoris_rips,
)
from vrclosure import transform
from vrclosure.domains import (
    antipodal_quarter_arc_map,
    circle_domain,
    constant_map,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)
from vrclosure.pipeline import build_pipeline, refine_once, sd_compatibility

import homology_oracle
from grid_oracle import grid_sd_compatibility
from helpers import (
    assert_well_formed,
    distances,
    flood_all,
    oracle_distances,
    oracle_max_simplex_diameter,
)

# -- oracles: the per-row implementations, kept verbatim in behavior -------


def oracle_certificate(f):
    """Stable per-row scan: walk each row in distance order, level by level,
    until a new value conflicts with one already present."""
    dist = distances(f.domain)
    n = f.domain.n_samples
    diameter = f.domain.diameter if n > 1 else 0.0
    fallback = diameter if diameter > 0 else 1.0
    radii = {}
    for y in range(n):
        row = dist[y]
        order = np.argsort(row, kind="stable")
        present: dict = {}
        r = None
        prev_level = None
        i = 0
        while i < n and r is None:
            d_here = float(row[order[i]])
            j = i
            while j < n and float(row[order[j]]) == d_here:
                z = int(order[j])
                vz = f.values[z]
                if vz not in present:
                    conflict = next(
                        (
                            (holder, u)
                            for u, holder in present.items()
                            if not f.target.are_adjacent(vz, u)
                        ),
                        None,
                    )
                    if conflict is not None:
                        holder, u = conflict
                        if prev_level is None or prev_level <= 0.0:
                            raise CertificateFailure(
                                "clique certificate",
                                (holder, z),
                                (u, vz),
                                f"nearest neighbors of sample {y} are not adjacent",
                            )
                        r = prev_level
                        break
                    present[vz] = z
                j += 1
            if r is None:
                prev_level = d_here
                i = j
        radii[y] = fallback if r is None else r
    return transform.CliqueCertificate(radii, min(radii.values()))


def oracle_stage_radii(f, v):
    """The old per-row radii scan: each preimage row masked by the samples
    with non-adjacent values, then by the basepoints."""
    preimage = f.preimage(v)
    if not preimage:
        return {}
    dist = distances(f.domain)
    closed = f.target.closed_neighborhood(v)
    bad = np.array([f.values[i] not in closed for i in range(f.domain.n_samples)], dtype=bool)
    basepoints = np.array(f.domain.basepoints, dtype=int)
    diameter = f.domain.diameter
    cap = diameter / 2.0 if diameter > 0 else 1.0
    radii = {}
    for y in preimage:
        r = cap
        if bad.any():
            nearest_bad = float(dist[y][bad].min())
            if nearest_bad <= 0.0:
                z = int(np.flatnonzero(bad & (dist[y] <= 0.0))[0])
                raise CertificateFailure(
                    f"flood stage {v!r}",
                    (y, z),
                    (v, f.values[z]),
                    "coincident sample with non-adjacent value",
                )
            r = min(r, nearest_bad)
        if v != f.base_value and basepoints.size:
            nearest_base = float(dist[y][basepoints].min())
            if nearest_base <= 0.0:
                a = int(basepoints[np.argmin(dist[y][basepoints])])
                raise CertificateFailure(
                    f"flood stage {v!r}",
                    (y, a),
                    (v, f.base_value),
                    "preimage sample coincides with a basepoint",
                )
            r = min(r, nearest_base)
        radii[y] = r
    return radii


def oracle_flood(f, v, radii):
    """The old per-row ball checks, in preimage order, then the old
    overwrite; returns the new values."""
    if v not in f.target:
        raise ValueError(f"{v!r} is not a vertex of the target")
    dist = distances(f.domain)
    closed = f.target.closed_neighborhood(v)
    adjacent_value = np.array([f.values[i] in closed for i in range(f.domain.n_samples)], dtype=bool)
    basepoints = np.array(f.domain.basepoints, dtype=int)
    for y in f.preimage(v):
        if y not in radii:
            raise ValueError(f"no radius for preimage sample {y}")
        r = float(radii[y])
        if r <= 0:
            raise ValueError(f"radius for sample {y} must be positive")
        bad = (dist[y] < r) & ~adjacent_value
        if bad.any():
            z = int(np.flatnonzero(bad)[0])
            raise CertificateFailure(
                f"flood stage {v!r}",
                (y, z),
                (v, f.values[z]),
                f"value within radius {r:g} of a preimage sample is not adjacent",
            )
        if v != f.base_value and basepoints.size and bool((dist[y][basepoints] < r).any()):
            a = int(basepoints[np.flatnonzero(dist[y][basepoints] < r)[0]])
            raise CertificateFailure(
                f"flood stage {v!r}",
                (y, a),
                (v, f.base_value),
                "flooding ball touches a basepoint",
            )
    return oracle_overwrite(f, v, radii)


def oracle_overwrite(f, v, radii):
    """The old overwrite: assign ``v`` to every member of every half-radius
    ball around the preimage, one sample at a time."""
    dist = distances(f.domain)
    new_values = dict(f.values)
    for y in f.preimage(v):
        half = float(radii[y]) / 2.0
        for z in np.flatnonzero(dist[y] < half):
            new_values[int(z)] = v
    return new_values


# -- helpers ---------------------------------------------------------------


def assert_same_h1(m):
    """Matrix, rank and both first Betti numbers equal the oracle's."""
    assert induced_h1(m) == homology_oracle.induced_h1(m)


def outcome(fn, *args):
    """Result or the failure's identifying fields, for exact comparison."""
    try:
        return ("ok", fn(*args))
    except CertificateFailure as exc:
        return ("fail", (exc.stage, exc.pair, exc.values, exc.detail))


def assert_same_certificate(f):
    want = outcome(oracle_certificate, f)
    got = outcome(clique_certificate, f)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert got[1].radii == want[1].radii
        assert got[1].delta == want[1].delta
    else:
        assert got[1] == want[1]
    return want[0]


def assert_same_flood(f, v, radii):
    """``flood`` refuses the radii with the old checks' failure or error, or
    overwrites exactly what the old loop overwrote."""

    def flood_outcome(fn):
        try:
            return outcome(fn, f, v, radii)
        except ValueError as exc:
            return ("error", str(exc))

    want = flood_outcome(oracle_flood)
    assert flood_outcome(lambda *args: flood(*args).values) == want
    return want[0]


def assert_same_radii(f, v):
    """The stage's radii (``==``) or failure equal the old per-row scan's;
    returns that outcome."""
    want = outcome(oracle_stage_radii, f, v)
    assert outcome(flood_stage_radii, f, v) == want
    return want


def point_cloud(coords, basepoints=()):
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    tri = SimplicialComplex.from_simplices([], dim_cap=1, vertices=range(n))
    return SampledDomain(coords, tri, basepoints=basepoints)


def flipped(f, sample):
    """``f`` with one sample sent to the antipodal octahedron vertex."""
    values = dict(f.values)
    values[sample] = values[sample] ^ 1
    return f.with_values(values)


@pytest.fixture(params=["default", "tiny"])
def block_cells(request, monkeypatch):
    """Run each scan with the default row blocks and with one- or two-row
    blocks, so block boundaries fall everywhere."""
    if request.param == "tiny":
        monkeypatch.setattr(transform, "BLOCK_CELLS", 1)
    return request.param


# -- clique certificate ----------------------------------------------------


class TestCertificateDifferential:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 16, 24, 60, 64])
    def test_regular_ngons(self, n, block_cells):
        # regular polygons have exact distance ties in every row
        dom = circle_domain(n)
        c4 = cycle_graph(4)
        for build in (quarter_arc_map, antipodal_quarter_arc_map, constant_map):
            f = discrete_modify(build(dom, c4), dom, c4)
            assert_same_certificate(f)
            assert_same_certificate(flood_all(f))

    @pytest.mark.parametrize("period", [1, 2, 3, 5])
    def test_ngon_with_alternating_values(self, period, block_cells):
        dom = circle_domain(20)
        values = {i: (i // period) % 4 for i in range(20)}
        f = DiscreteMap(dom, cycle_graph(4), values, values[0])
        assert_same_certificate(f)

    def test_coincident_samples_with_non_adjacent_values(self, block_cells):
        dom = point_cloud([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        f = DiscreteMap(dom, cycle_graph(4), {0: 1, 1: 0, 2: 2, 3: 1}, 1)
        assert assert_same_certificate(f) == "fail"

    def test_coincident_samples_first_row(self, block_cells):
        dom = point_cloud([[0.0], [0.0], [3.0]])
        f = DiscreteMap(dom, cycle_graph(4), {0: 0, 1: 2, 2: 1}, 0)
        assert assert_same_certificate(f) == "fail"

    def test_one_sample_domain(self, block_cells):
        dom = point_cloud([[0.5, 0.5]])
        f = DiscreteMap(dom, cycle_graph(4), {0: 2}, 2)
        assert assert_same_certificate(f) == "ok"
        assert clique_certificate(f).radii == {0: 1.0}

    def test_single_valued_map_gets_fallback(self, block_cells):
        dom = icosphere_domain(1)
        octa = octahedron_graph()
        f = discrete_modify(constant_map(dom, octa), dom, octa)
        assert assert_same_certificate(f) == "ok"
        assert set(clique_certificate(f).radii.values()) == {dom.diameter}

    @pytest.mark.parametrize("rotation_seed", [None, 1, 7])
    def test_icosa2_flipped_samples(self, rotation_seed, block_cells):
        dom = icosphere_domain(2)
        octa = octahedron_graph()
        rotation = None if rotation_seed is None else random_rotation(rotation_seed)
        f = discrete_modify(nearest_pole_map(dom, octa, rotation=rotation), dom, octa)
        assert assert_same_certificate(f) == "ok"
        outcomes = set()
        for sample in range(1, dom.n_samples, 5):
            g = flipped(f, sample)
            outcomes.add(assert_same_certificate(g))
            try:
                flooded = flood_all(g)
            except CertificateFailure:
                continue
            outcomes.add(assert_same_certificate(flooded))
        assert outcomes == {"ok", "fail"}

    @pytest.mark.parametrize("seed", range(12))
    def test_random_point_clouds(self, seed, block_cells):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        dim = int(rng.integers(1, 4))
        # a coarse integer grid gives exact ties and coincident samples
        coords = rng.integers(0, 6, size=(n, dim)) if seed % 2 else rng.normal(size=(n, dim))
        dom = point_cloud(coords)
        for graph in (cycle_graph(4), octahedron_graph()):
            k = len(graph.vertices)
            # clustered values pass more often than independent ones
            centers = rng.integers(0, n, size=k)
            gaps = np.linalg.norm(dom.coords[:, None, :] - dom.coords[centers][None], axis=2)
            clustered = {i: int(np.argmin(gaps[i])) for i in range(n)}
            scattered = {i: int(rng.integers(0, k)) for i in range(n)}
            for values in (clustered, scattered):
                f = DiscreteMap(dom, graph, values, values[0])
                assert_same_certificate(f)

    @pytest.mark.parametrize("m, run", [(64, 1), (48, 2), (16, 4), (24, 3)])
    def test_large_images_on_cycles(self, m, run, block_cells):
        # circle:(m * run) onto C_m in runs of ``run`` samples: up to 64
        # image values, nearly all pairs non-adjacent
        dom = circle_domain(m * run)
        f = DiscreteMap(dom, cycle_graph(m), {i: i // run for i in range(m * run)}, 0)
        assert_same_certificate(f)
        assert_same_certificate(flood_all(f))

    @pytest.mark.parametrize("seed", range(4))
    def test_late_conflicts(self, seed, block_cells):
        # nearly complete targets: the first non-adjacent pair sits deep in
        # each row's value order
        rng = np.random.default_rng(seed)
        m = 12
        missing = {(0, 1), (5, 9)}
        graph = Graph(
            range(m),
            [(a, b) for a in range(m) for b in range(a + 1, m) if (a, b) not in missing],
        )
        dom = point_cloud(rng.normal(size=(80, 2)))
        values = {i: int(rng.integers(0, m)) for i in range(80)}
        f = DiscreteMap(dom, graph, values, values[0])
        assert_same_certificate(f)

    def test_random_clouds_cover_both_outcomes(self):
        seen = set()
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            dom = point_cloud(rng.normal(size=(30, 2)))
            # quarter-turn sectors onto C4: only samples near the origin see
            # opposite sectors among their nearest neighbors
            angles = np.arctan2(dom.coords[:, 1], dom.coords[:, 0]) % (2 * np.pi)
            values = {i: int(angles[i] // (np.pi / 2)) % 4 for i in range(30)}
            f = DiscreteMap(dom, cycle_graph(4), values, values[0])
            seen.add(assert_same_certificate(f))
        assert seen == {"ok", "fail"}


# -- distances -------------------------------------------------------------


def chain(positions):
    """Samples on a line, triangulated by consecutive edges."""
    edges = [(i, i + 1) for i in range(len(positions) - 1)]
    tri = SimplicialComplex.from_simplices(edges, dim_cap=1, vertices=range(len(positions)))
    return SampledDomain([[float(p)] for p in positions], tri)


def assert_reads_match_oracle(dom):
    """Row blocks (all rows and a selection), the diameter and edge lengths
    equal the broadcast formula's matrix entries bit for bit."""
    coords = dom.coords
    n = dom.n_samples
    seen = 0
    largest = 0.0
    for lo, block in dom.row_blocks():
        assert lo == seen
        want = oracle_distances(coords[lo : lo + len(block)], coords)
        assert np.array_equal(block, want)
        seen += len(block)
        largest = max(largest, float(want.max()))
    assert seen == n
    assert dom.diameter == largest
    rng = np.random.default_rng(n)
    rows = np.concatenate([rng.integers(0, n, size=min(n, 40)), [n - 1, 0, n - 1]])
    picked = list(dom.row_blocks(rows.tolist()))
    assert [lo for lo, _ in picked] == list(range(0, len(rows), len(picked[0][1])))
    assert np.array_equal(np.vstack([block for _, block in picked]), oracle_distances(coords[rows], coords))
    edges = list(dom.triangulation.simplices(1)) + rng.integers(0, n, size=(20, 2)).tolist()
    want = [oracle_distances(coords[[u]], coords[[w]])[0, 0] for u, w in edges]
    assert np.array_equal(dom.edge_lengths(edges), want)


class TestMatrixFreeReadsDifferential:
    DOMAINS = {
        "circle3": lambda: circle_domain(3),
        "circle256": lambda: circle_domain(256),
        "circle1000": lambda: circle_domain(1000),
        "circle2048": lambda: circle_domain(2048),
        "icosa0": lambda: icosphere_domain(0),
        "icosa1": lambda: icosphere_domain(1),
        "icosa2": lambda: icosphere_domain(2),
        "icosa3": lambda: icosphere_domain(3),
        "icosa1-subdivided": lambda: subdivide_domain(
            icosphere_domain(1), dict.fromkeys(range(42), 0)
        )[0],
        "chain": lambda: chain([0, 1, 3, 3, 7, 8.5, -2, 11]),
        "one-sample": lambda: point_cloud([[0.25, -1.5, 3.0]]),
        "cloud7d": lambda: point_cloud(np.random.default_rng(3).normal(size=(50, 7)) * 1e3),
    }

    @pytest.mark.parametrize("rows_per_block", [None, 1, 7])
    @pytest.mark.parametrize("name", list(DOMAINS))
    def test_equal_the_broadcast_formula(self, name, rows_per_block, monkeypatch):
        # a fresh domain per block size: the diameter is cached on first read
        dom = self.DOMAINS[name]()
        if rows_per_block is not None:
            monkeypatch.setattr(transform, "BLOCK_CELLS", rows_per_block * dom.n_samples)
        assert_reads_match_oracle(dom)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_random_clouds_up_to_seven_coordinates(self, dim, block_cells):
        # numpy sums a last axis of 8 or more entries pairwise, so equality
        # with the broadcast formula is claimed up to 7 coordinates only
        coords = np.random.default_rng(dim).normal(size=(40, dim)) * 10.0 ** np.arange(dim)
        assert_reads_match_oracle(point_cloud(coords))


# -- flood -----------------------------------------------------------------


class TestFloodDifferential:
    @pytest.mark.parametrize("rotation_seed", [None, 2])
    def test_stages_on_flipped_sphere_maps(self, rotation_seed, block_cells):
        dom = icosphere_domain(2)
        octa = octahedron_graph()
        rotation = None if rotation_seed is None else random_rotation(rotation_seed)
        base = discrete_modify(nearest_pole_map(dom, octa, rotation=rotation), dom, octa)
        outcomes = set()
        for sample in range(1, dom.n_samples, 9):
            current = flipped(base, sample)
            for v in current.image_vertices():
                kind, radii = assert_same_radii(current, v)
                if kind == "fail":
                    break
                if not radii:
                    continue
                # maximal radii pass; grown radii reach non-adjacent values
                # or basepoints and fail; shrunk radii flood less
                for scale in (2.0, 0.5):
                    outcomes.add(
                        assert_same_flood(current, v, {y: r * scale for y, r in radii.items()})
                    )
                assert assert_same_flood(current, v, radii) == "ok"
                current = flood(current, v, radii)
        assert outcomes == {"ok", "fail"}

    def test_circle_stages(self, block_cells):
        dom = circle_domain(48)
        c4 = cycle_graph(4)
        current = discrete_modify(quarter_arc_map(dom, c4), dom, c4)
        for v in current.image_vertices():
            _, radii = assert_same_radii(current, v)
            for r in (0.05, 0.4, 1.0, 2.5):
                assert_same_flood(current, v, dict.fromkeys(radii, r))
            current = flood(current, v, radii)

    def test_coincident_samples(self, block_cells):
        c4 = cycle_graph(4)
        # sample 2 sits on sample 0, whose value 0 is not adjacent to 2;
        # the basepoint 0 is the first such sample and is named
        dom = point_cloud([[0.0], [4.0], [0.0], [0.0]], basepoints=(0,))
        f = DiscreteMap(dom, c4, {0: 0, 1: 1, 2: 2, 3: 0}, 0)
        assert assert_same_radii(f, 2)[0] == "fail"
        assert assert_same_flood(f, 2, {2: 1.0}) == "fail"
        # a coincident basepoint with an adjacent value
        dom = point_cloud([[0.0], [0.0], [1.0]], basepoints=(0,))
        f = DiscreteMap(dom, c4, {0: 1, 1: 2, 2: 2}, 1)
        assert assert_same_radii(f, 2)[0] == "fail"
        assert assert_same_radii(f, 1) == ("ok", {0: 0.5})
        # coincident samples with adjacent values pass, and flood together
        dom = point_cloud([[0.0], [0.0], [2.0], [2.0], [5.0]])
        f = DiscreteMap(dom, c4, {0: 0, 1: 1, 2: 1, 3: 2, 4: 2}, 0)
        for v in (0, 1, 2):
            kind, radii = assert_same_radii(f, v)
            assert kind == "ok"
            assert assert_same_flood(f, v, radii) == "ok"
            assert assert_same_flood(f, v, dict.fromkeys(radii, 2.0)) in ("ok", "fail")

    def test_basepoint_failure(self, block_cells):
        dom = point_cloud([[0.0], [1.0], [2.0], [3.0]], basepoints=(0,))
        f = DiscreteMap(dom, cycle_graph(4), {0: 0, 1: 0, 2: 1, 3: 1}, 0)
        assert assert_same_radii(f, 1) == ("ok", {2: 1.5, 3: 1.5})
        assert assert_same_flood(f, 1, {2: 2.5, 3: 0.5}) == "fail"
        assert assert_same_flood(f, 1, {2: 1.5, 3: 0.5}) == "ok"
        # a ball reaching both a non-adjacent value and a basepoint names
        # the value: values 0 and 2 are not adjacent in C4
        g = DiscreteMap(dom, cycle_graph(4), {0: 1, 1: 0, 2: 2, 3: 2}, 1)
        assert assert_same_flood(g, 2, {2: 3.0, 3: 0.5}) == "fail"
        with pytest.raises(CertificateFailure) as exc:
            flood(g, 2, {2: 3.0, 3: 0.5})
        assert exc.value.pair == (2, 1)

    def test_rows_fail_in_preimage_order(self, block_cells):
        # each row is checked whole before the next: an earlier row's ball
        # failure wins over a later row's missing radius, and an earlier
        # missing radius over a later row's failure
        dom = point_cloud([[0.0], [1.0], [2.0], [3.0]], basepoints=(0,))
        f = DiscreteMap(dom, cycle_graph(4), {0: 0, 1: 0, 2: 1, 3: 1}, 0)
        assert assert_same_flood(f, 1, {2: 2.5}) == "fail"
        with pytest.raises(CertificateFailure) as exc:
            flood(f, 1, {2: 2.5})
        assert (exc.value.pair, exc.value.detail) == ((2, 0), "flooding ball touches a basepoint")
        assert assert_same_flood(f, 1, {3: 3.5}) == "error"
        with pytest.raises(ValueError, match="no radius for preimage sample 2"):
            flood(f, 1, {3: 3.5})
        assert assert_same_flood(f, 1, {2: -1.0, 3: 3.5}) == "error"

    def test_small_integer_clouds(self):
        # integer coordinates in a small box: exact distance ties,
        # coincident samples and balls that reach basepoints
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def stage_cases(draw):
            n = draw(st.integers(1, 9))
            dim = draw(st.integers(1, 2))
            coords = draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=n, max_size=n))
            graph = draw(st.sampled_from([cycle_graph(4), octahedron_graph(), cycle_graph(5)]))
            values = draw(st.lists(st.sampled_from(graph.vertices), min_size=n, max_size=n))
            basepoints = draw(st.sets(st.integers(0, n - 1), max_size=2))
            base = values[min(basepoints)] if basepoints else values[0]
            for b in basepoints:
                values[b] = base
            f = DiscreteMap(point_cloud(coords, basepoints), graph, dict(enumerate(values)), base)
            radius = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 5.0])
            trial = draw(st.dictionaries(st.integers(0, n - 1), radius))
            return f, trial

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @hypothesis.given(stage_cases())
        def check(case):
            f, trial = case
            for cells in (transform.BLOCK_CELLS, 1):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(transform, "BLOCK_CELLS", cells)
                    for v in f.target.vertices:
                        kind, radii = assert_same_radii(f, v)
                        if kind == "ok":
                            for scale in (1.0, 2.0):
                                assert_same_flood(f, v, {y: r * scale for y, r in radii.items()})
                        hypothesis.event(f"radii {kind}")
                        hypothesis.event(f"trial {assert_same_flood(f, v, trial)}")

        check()


# -- largest simplex diameter ----------------------------------------------


class TestMaxSimplexDiameterDifferential:
    @pytest.mark.parametrize(
        "dom",
        [
            circle_domain(3),
            circle_domain(64),
            circle_domain(1000),
            icosphere_domain(0),
            icosphere_domain(1),
            icosphere_domain(2),
            icosphere_domain(3),
            subdivide_domain(icosphere_domain(1), dict.fromkeys(range(42), 0))[0],
            point_cloud([[0.25, -1.5, 3.0]]),
        ],
        ids=[
            "circle3", "circle64", "circle1000", "icosa0", "icosa1", "icosa2",
            "icosa3", "icosa1-subdivided", "one-sample",
        ],
    )
    def test_equals_per_simplex_loop(self, dom):
        got = dom.max_simplex_diameter()
        assert type(got) is float
        assert got == oracle_max_simplex_diameter(dom)


# -- subdivision compatibility ---------------------------------------------


def sd_pair(simplices, graph, cap, m1_images, m2_changes=()):
    """Maps on a complex and on its barycentric subdivision, whose vertices
    are the face tuples themselves.  Each barycenter takes the m1-image of
    its face's first vertex unless ``m2_changes`` says otherwise."""
    k = SimplicialComplex.from_simplices(simplices, dim_cap=len(simplices[0]) - 1)
    target = vietoris_rips(graph, cap)
    sd = barycentric_subdivision(k)
    m2_images = {face: m1_images[face[0]] for face in sd.vertices}
    m2_images.update(m2_changes)
    m1 = SimplicialMap(k, target, m1_images)
    m2 = SimplicialMap(sd, target, m2_images)
    return m1, m2, {face: face for face in sd.vertices}


def assert_same_sd_verdict(m1, m2, face_vertex, grid_steps=50):
    want = grid_sd_compatibility(m1, m2, face_vertex, grid_steps)
    assert sd_compatibility(m1, m2, face_vertex) == want
    return want


EDGE = [(0, 1)]
TRIANGLE = [(0, 1, 2)]
PATH_201 = Graph(range(3), [(0, 1), (0, 2)])
PATH_012 = Graph(range(3), [(0, 1), (1, 2)])
K3 = Graph(range(3), [(0, 1), (0, 2), (1, 2)])
K3_PLUS = {  # K3 on 0, 1, 2 and a vertex 3 adjacent to the listed ones
    tuple(nbrs): Graph(range(4), [(0, 1), (0, 2), (1, 2)] + [(3, v) for v in nbrs])
    for nbrs in ((0,), (0, 1), (0, 1, 2))
}

# Simplicial but incompatible pairs: one m2 image moved to a vertex that
# breaks the clique of some maximal chain.  A barycenter image adjacent to
# every vertex image always completes a clique, so the barycenter cases need
# a target that stops short of it: the edge's under cap 1, the triangle's
# under cap 2 (a hollow tetrahedron).
INCOMPATIBLE = {
    "edge-vertex": (EDGE, PATH_201, 3, {0: 0, 1: 1}, {(0,): 2, (0, 1): 0}),
    "edge-barycenter": (EDGE, K3, 1, {0: 0, 1: 1}, {(0, 1): 2}),
    "triangle-vertex": (TRIANGLE, K3_PLUS[(0,)], 5, {0: 0, 1: 1, 2: 2}, {(0,): 3}),
    "triangle-edge-barycenter": (
        TRIANGLE, K3_PLUS[(0, 1)], 5, {0: 0, 1: 1, 2: 2}, {(0, 1): 3},
    ),
    "triangle-barycenter": (
        TRIANGLE, K3_PLUS[(0, 1, 2)], 2, {0: 0, 1: 1, 2: 2}, {(0, 1, 2): 3},
    ),
    # non-pure sources: the broken chain lies in a maximal simplex below the
    # top dimension, (3,) < (2, 3) and the isolated vertex (2,)
    "triangle-dangling-edge": (
        [(0, 1, 2), (2, 3)], PATH_012, 2, {0: 0, 1: 0, 2: 0, 3: 1}, {(3,): 2, (2, 3): 1},
    ),
    "edge-isolated-vertex": ([(0, 1), (2,)], cycle_graph(4), 2, {0: 0, 1: 1, 2: 0}, {(2,): 2}),
}


class TestSdCompatibilityDifferential:
    @pytest.mark.parametrize(
        "graph, domain, builder, extra",
        [
            (octahedron_graph(), "icosa:2", "rotated:5", 0),
            (cycle_graph(4), "circle:256", quarter_arc_map, 0),
            (cycle_graph(4), "circle:256", antipodal_quarter_arc_map, 0),
            (cycle_graph(4), "circle:16", quarter_arc_map, 1),
        ],
        ids=[
            "icosa2-rotated", "circle256-quarter-arc", "circle256-antipodal",
            "circle16-quarter-arc-sd1",
        ],
    )
    def test_pipeline_maps_pass(self, graph, domain, builder, extra):
        kind, size = domain.split(":")
        dom = circle_domain(int(size)) if kind == "circle" else icosphere_domain(int(size))
        if builder == "rotated:5":
            pts = nearest_pole_map(dom, graph, rotation=random_rotation(5))
        else:
            pts = builder(dom, graph)
        art = build_pipeline(graph, dom, pts, extra_subdivisions=extra)
        m2, face_vertex = refine_once(art)
        assert assert_same_sd_verdict(art.simplicial_map, m2, face_vertex) is True
        assert_same_h1(art.simplicial_map)
        assert_same_h1(m2)

    @pytest.mark.parametrize("case", sorted(INCOMPATIBLE))
    def test_incompatible_simplicial_pairs_fail(self, case):
        simplices, graph, cap, m1_images, changes = INCOMPATIBLE[case]
        m1, m2, face_vertex = sd_pair(simplices, graph, cap, m1_images, changes)
        assert check_simplicial(m1) and check_simplicial(m2)
        assert assert_same_sd_verdict(m1, m2, face_vertex) is False
        # the unchanged refinement of the same map passes
        m1, m2, face_vertex = sd_pair(simplices, graph, cap, m1_images)
        assert assert_same_sd_verdict(m1, m2, face_vertex) is True

    @pytest.mark.parametrize(
        "simplices", [[(0, 1), (1, 2)], [(0, 1, 2), (1, 2, 3)], [(0, 1, 2), (2, 3), (4,)]]
    )
    def test_random_simplicial_perturbations(self, simplices):
        # 12 steps put a grid point inside the sd-simplex of every maximal
        # chain (for a triangle, coordinates a > b > c > 0 in every order),
        # so the grid meets each chain's full carrier union
        rng = random.Random(len(simplices[0]))
        dim = len(simplices[0]) - 1
        k = SimplicialComplex.from_simplices(simplices, dim_cap=dim)
        sd_vertices = barycentric_subdivision(k).vertices
        verdicts = []
        while len(verdicts) < 150:
            graph = Graph(
                range(6),
                [(i, j) for i in range(6) for j in range(i + 1, 6) if rng.random() < 0.6],
            )
            m1_images = {v: rng.randrange(6) for v in k.vertices}
            changes = {face: rng.randrange(6) for face in rng.sample(sd_vertices, 2)}
            cap = rng.choice([dim, 5])
            m1, m2, face_vertex = sd_pair(simplices, graph, cap, m1_images, changes)
            if not (check_simplicial(m1) and check_simplicial(m2)):
                continue
            verdicts.append(assert_same_sd_verdict(m1, m2, face_vertex, grid_steps=12))
        assert set(verdicts) == {True, False}

    def test_mismatched_targets_rejected(self):
        m1, m2, face_vertex = sd_pair(EDGE, K3, 2, {0: 0, 1: 1})
        other = SimplicialMap(m2.source, vietoris_rips(cycle_graph(4), 2), m2.vertex_images)
        with pytest.raises(ValueError):
            sd_compatibility(m1, other, face_vertex, 50)


# -- GF(2) homology --------------------------------------------------------


def torus_graph(m, n):
    """Flag triangulation of the torus on an m x n grid (m, n >= 4)."""
    return Graph(
        range(m * n),
        [
            (i * n + j, (i + di) % m * n + (j + dj) % n)
            for i in range(m)
            for j in range(n)
            for di, dj in ((1, 0), (0, 1), (1, 1))
        ],
    )


class TestHomologyDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_gnp_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 16)
        p = rng.choice([0.2, 0.35, 0.5, 0.8])
        g = Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        k = vietoris_rips(g, 4)
        assert betti_numbers(k, 3) == homology_oracle.betti_numbers(k, 3)
        assert_same_h1(SimplicialMap(k, k, {v: v for v in k.vertices}))
        # fold one vertex onto a neighbor, wherever that stays simplicial
        for u, w in sorted(g.edges):
            m = SimplicialMap(k, k, {v: w if v == u else v for v in k.vertices})
            if check_simplicial(m):
                assert_same_h1(m)

    def test_flag_torus(self):
        k = vietoris_rips(torus_graph(12, 14), 3)
        assert betti_numbers(k, 2) == homology_oracle.betti_numbers(k, 2) == [1, 2, 1]
        square = vietoris_rips(torus_graph(8, 8), 2)
        swap = SimplicialMap(square, square, {i * 8 + j: j * 8 + i for i in range(8) for j in range(8)})
        halve = SimplicialMap(
            square,
            vietoris_rips(torus_graph(4, 4), 2),
            {i * 8 + j: i // 2 * 4 + j // 2 for i in range(8) for j in range(8)},
        )
        for m in (swap, halve):
            assert_same_h1(m)
            assert induced_h1(m).rank == 2


# -- clique enumeration ----------------------------------------------------


class TestVietorisRipsDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx_cliques(self, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        p = rng.choice([0.2, 0.5, 0.8])
        g = nx.gnp_random_graph(n, p, seed=seed)
        cap = rng.randint(0, 6)
        k = vietoris_rips(Graph(range(n), list(g.edges)), cap)
        want = [set() for _ in range(cap + 1)]
        for clique in nx.enumerate_all_cliques(g):
            if len(clique) > cap + 1:
                break
            want[len(clique) - 1].add(tuple(sorted(clique)))
        for d in range(cap + 1):
            got = k.simplices(d)
            assert len(got) == len(set(got))
            assert set(got) == want[d], (seed, d)


# -- complex builders ------------------------------------------------------


def assert_canonical(k):
    """The old well-formedness pass, plus each level in lexicographic order
    of vertex indices without repeats."""
    assert_well_formed(k)
    for d in range(k.dim_cap + 1):
        keys = [tuple(k.vertex_index[v] for v in s) for s in k.simplices(d)]
        assert keys == sorted(set(keys)), d


def oracle_subdivided_triangulation(domain):
    """The old second build of a subdivided domain's triangulation: rename
    each chain of sd(K) to sample indices, sort it, and take the downward
    closure with ``from_simplices``."""
    sd = barycentric_subdivision(domain.triangulation)
    n = domain.n_samples
    new_faces = [face for face in sd.vertices if len(face) > 1]
    face_vertex = {face: face[0] for face in sd.vertices if len(face) == 1}
    face_vertex.update({face: n + i for i, face in enumerate(new_faces)})
    top = [
        tuple(sorted(face_vertex[f] for f in chain))
        for d in range(1, sd.dim_cap + 1)
        for chain in sd.simplices(d)
    ]
    return SimplicialComplex.from_simplices(
        top if top else [(face_vertex[f],) for f in sd.vertices],
        sd.dim_cap,
        vertices=sorted(face_vertex.values()),
    )


def oracle_subdivided_samples(domain, values):
    """The old per-face loop: each barycenter its own mean, each new value
    from its own n-row norm and argmin."""
    sd = barycentric_subdivision(domain.triangulation)
    rows = [domain.coords[list(face)].mean(axis=0) for face in sd.vertices if len(face) > 1]
    coords = np.vstack([domain.coords, np.array(rows)]) if rows else domain.coords
    new_values = dict(values)
    for idx in range(domain.n_samples, len(coords)):
        new_values[idx] = values[int(np.argmin(np.linalg.norm(domain.coords - coords[idx], axis=1)))]
    return coords, new_values


def cross_polytope_graph(k):
    """1-skeleton of the k-dimensional cross-polytope: 2k vertices, each
    adjacent to all but its antipode 2i <-> 2i+1."""
    return Graph(range(2 * k), [(i, j) for i in range(2 * k) for j in range(i + 1, 2 * k) if j != i ^ 1])


def non_pure_domain():
    """A triangle with a dangling edge and an isolated vertex."""
    tri = SimplicialComplex.from_simplices([(0, 1, 2), (2, 3), (4,)], dim_cap=2)
    return SampledDomain([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [3.0, 3.0]], tri)


class TestBuildersDifferential:
    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(12))
    def test_vietoris_rips_gnp(self, seed, cap):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        p = rng.choice([0.2, 0.5, 0.8])
        g = Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        assert_canonical(vietoris_rips(g, cap))

    def test_flag_torus_and_cross_polytopes(self):
        k = vietoris_rips(torus_graph(6, 7), 3)
        assert k.counts() == [42, 126, 84, 0]
        assert_canonical(k)
        k = vietoris_rips(cross_polytope_graph(4), 4)
        assert k.counts() == [8, 24, 32, 16, 0]
        assert_canonical(k)
        assert_canonical(barycentric_subdivision(vietoris_rips(octahedron_graph(), 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_from_simplices_and_subdivision(self, seed):
        rng = random.Random(seed)
        simplices = [tuple(rng.sample(range(9), rng.randint(1, 4))) for _ in range(rng.randint(1, 8))]
        cap = rng.randint(1, 3)
        k = SimplicialComplex.from_simplices(simplices, dim_cap=cap)
        assert_canonical(k)
        assert set(k.simplices(0)) == {(v,) for s in simplices for v in s}
        for d in range(1, cap + 1):
            want = {face for s in simplices for face in combinations(sorted(s), d + 1)}
            assert set(k.simplices(d)) == want
        assert_canonical(barycentric_subdivision(k))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: circle_domain(8),
            lambda: circle_domain(256),
            lambda: icosphere_domain(0),
            lambda: icosphere_domain(1),
            lambda: icosphere_domain(2),
            non_pure_domain,
        ],
        ids=["circle8", "circle256", "icosa0", "icosa1", "icosa2", "non-pure"],
    )
    def test_subdivide_domain_equals_rebuild(self, make):
        dom = make()
        values = dict.fromkeys(range(dom.n_samples), 0)
        for _ in range(2):
            want = oracle_subdivided_triangulation(dom)
            dom, values, _ = subdivide_domain(dom, values)
            assert dom.triangulation == want
            assert_canonical(dom.triangulation)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: circle_domain(256),
            lambda: circle_domain(2048),
            lambda: icosphere_domain(2),
            lambda: icosphere_domain(3),
            non_pure_domain,
        ],
        ids=["circle256", "circle2048", "icosa2", "icosa3", "non-pure"],
    )
    def test_subdivide_domain_samples_equal_per_face_loop(self, make):
        # every sample its own value, so each tie-break shows in new_values
        dom = make()
        values = {i: i for i in range(dom.n_samples)}
        coords, want = oracle_subdivided_samples(dom, values)
        new_dom, new_values, _ = subdivide_domain(dom, values)
        assert np.array_equal(new_dom.coords, coords)
        assert new_values == want


def test_nearest_samples_takes_first_on_ties():
    dom = SampledDomain([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]], SimplicialComplex.from_simplices([(0,), (1,), (2,)], 0))
    assert dom.nearest_samples([[1.0, 0.0], [1.9, 0.0], [1.0, 4.0]]).tolist() == [0, 1, 2]
    assert dom.nearest_samples(np.empty((0, 2))).tolist() == []
