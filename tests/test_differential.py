"""Differential tests of rewritten routines against the code they replaced
or an independent oracle: the clique certificate (radii and failure pairs),
the distance rows, diameter and edge lengths built on demand, the flood
overwrite and the largest simplex diameter must agree exactly; the exact
subdivision-compatibility check must give the 1/N-grid check's verdict,
and the subdivision builder, the compatibility check over the full flags
and the simpliciality check over every simplex must equal the code they
replaced, as must the convex transform's first failing edge and each flood
stage's preimages and changed count;
Betti numbers and induced maps on H1 must equal the hand-written
eliminations; clique enumeration must match networkx."""

import math
import random
import warnings
from itertools import combinations, product

import numpy as np
import pytest

from vrclosure import (
    CertificateFailure,
    DiscreteMap,
    Graph,
    SampledDomain,
    SimplicialMap,
    betti_numbers,
    check_simplicial,
    clique_certificate,
    complete_graph,
    cycle_graph,
    discrete_modify,
    edge_path_presentation,
    flood,
    flood_stage_radii,
    flood_stages,
    induced_h1,
    octahedron_graph,
    subdivide_domain,
    vietoris_rips,
)
from vrclosure import transform
from vrclosure.domains import (
    OCTAHEDRON_POLES,
    antipodal_quarter_arc_map,
    circle_domain,
    constant_map,
    icosphere_domain,
    nearest_pole_map,
    quarter_arc_map,
    random_rotation,
)
from vrclosure.pipeline import build_pipeline, refine_once, sd_compatibility
from vrclosure.realization import subdivision_depth_for_mesh

import homology_oracle
import loop_oracle
import sd_oracle
from grid_oracle import grid_sd_compatibility
from helpers import (
    assert_well_formed,
    barycentric_subdivision,
    distances,
    flood_all,
    from_simplices,
    maximal_simplices,
    oracle_distances,
    oracle_max_simplex_diameter,
    rooted_blocks,
)

# -- oracles: the per-row implementations, kept verbatim in behavior -------


def oracle_walk(f, dist, y):
    """Walk row ``y`` of ``dist`` in stable distance order, level by level,
    until a new value conflicts with one already present.  Returns that
    conflict level and the level before it, the row's radius, or
    ``(inf, None)`` when no value conflicts; raises the certificate failure
    when no positive level comes before the conflict."""
    row = dist[y]
    n = len(row)
    order = np.argsort(row, kind="stable")
    present: dict = {}
    prev_level = None
    i = 0
    while i < n:
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
                    return d_here, prev_level
                present[vz] = z
            j += 1
        prev_level = d_here
        i = j
    return math.inf, None


def oracle_certificate(f):
    """Stable per-row scan of the full rows (``oracle_walk``), with the
    domain diameter for a row whose values never conflict."""
    dist = distances(f.domain)
    n = f.domain.n_samples
    diameter = f.domain.diameter if n > 1 else 0.0
    fallback = diameter if diameter > 0 else 1.0
    radii = {}
    for y in range(n):
        r = oracle_walk(f, dist, y)[1]
        radii[y] = fallback if r is None else r
    return transform.CliqueCertificate(radii, min(radii.values()))


def capped_oracle(f):
    """The capped radii by their rule, read off the full rows: with
    C = 2 * eps_net, a row whose conflict level is below C keeps its full
    radius; a row with no conflict below C takes its largest distance below
    C when that is above the mesh, and its full radius otherwise.  When no
    two image values are apart every radius is C, or the diameter when no
    two samples are farther apart than a positive mesh."""
    dom = f.domain
    dist = distances(dom)
    cap = 2.0 * dom.eps_net
    edges = dom.triangulation.simplices(1)
    mesh = max((float(dist[a][b]) for a, b in edges), default=0.0)
    image = f.image_vertices()
    if all(f.target.are_adjacent(u, w) for u, w in combinations(image, 2)):
        diameter = float(dist.max())
        r = diameter if 0 < diameter <= mesh else cap
        return transform.CliqueCertificate(dict.fromkeys(range(dom.n_samples), r), r)
    radii = {}
    for y in range(dom.n_samples):
        level, r = oracle_walk(f, dist, y)
        if level >= cap:
            near = float(dist[y][dist[y] < cap].max())
            r = near if near > mesh else r
        radii[y] = r
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
        if not r > 0:
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
    """The certificate equals ``capped_oracle``'s exactly, and that keeps the
    full scan's verdict: the same failure, else the same delta wherever it
    is at most the mesh and a delta above the mesh wherever it is above."""
    want = outcome(capped_oracle, f)
    got = outcome(clique_certificate, f)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert got[1].radii == want[1].radii
        assert got[1].delta == want[1].delta
    else:
        assert got[1] == want[1]
    full = outcome(oracle_certificate, f)
    assert full[0] == want[0]
    if want[0] == "ok":
        mesh = f.domain.max_simplex_diameter()
        if full[1].delta <= mesh:
            assert want[1].delta == full[1].delta
        else:
            assert want[1].delta > mesh
    else:
        assert full[1] == want[1]
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
    tri = from_simplices([], dim_cap=1, vertices=range(n))
    return SampledDomain(coords, tri, basepoints=basepoints)


def flipped(f, sample):
    """``f`` with one sample sent to the antipodal octahedron vertex."""
    values = dict(f.values)
    values[sample] = values[sample] ^ 1
    return DiscreteMap(f.domain, f.target, values, f.base_value)


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
        # no edges: eps_net is 1.0, so the cap is 2.0
        assert clique_certificate(f).radii == {0: 2.0}

    def test_single_valued_map_gets_fallback(self, block_cells):
        dom = icosphere_domain(1)
        octa = octahedron_graph()
        f = discrete_modify(constant_map(dom, octa), dom, octa)
        assert assert_same_certificate(f) == "ok"
        assert set(clique_certificate(f).radii.values()) == {2 * dom.eps_net}

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


def line_domain(positions, edges):
    """Samples on a line with the given edges, and every sample a vertex."""
    tri = from_simplices(edges, dim_cap=1, vertices=range(len(positions)))
    return SampledDomain([[float(p)] for p in positions], tri)


class TestCappedCertificateDifferential:
    """The capped certificate against ``capped_oracle``, which reads the
    full rows; ``assert_same_certificate`` also holds it to the full scan's
    verdict and, at or below the mesh, its delta."""

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_builtin_maps_on_circles(self, n):
        dom = circle_domain(n)
        c4 = cycle_graph(4)
        for build in (quarter_arc_map, antipodal_quarter_arc_map, constant_map):
            f = discrete_modify(build(dom, c4), dom, c4)
            assert assert_same_certificate(f) == "ok"
            assert assert_same_certificate(flood_all(f)) == "ok"

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_builtin_maps_on_icosa(self, k):
        dom = icosphere_domain(k)
        octa = octahedron_graph()
        maps = [nearest_pole_map(dom, octa), nearest_pole_map(dom, octa, rotation=random_rotation(3)),
                constant_map(dom, octa)]
        for points in maps:
            f = discrete_modify(points, dom, octa)
            assert_same_certificate(f)
            assert_same_certificate(flood_all(f))

    def test_every_flip_on_icosa2(self):
        dom = icosphere_domain(2)
        octa = octahedron_graph()
        f = discrete_modify(nearest_pole_map(dom, octa), dom, octa)
        outcomes = [assert_same_certificate(flipped(f, sample)) for sample in range(1, dom.n_samples)]
        assert outcomes.count("fail") > outcomes.count("ok") > 0

    def test_thin_band_keeps_delta_at_the_mesh(self, block_cells):
        # a 2-sample band of value 1 between 0 and 2: the band's samples see
        # 0 and 2 two steps apart, so delta is one step, about the mesh (the
        # chords differ in their last bits), and one subdivision is needed
        dom = circle_domain(64)
        values = {i: 0 if i < 20 else 1 if i < 22 else 2 if i < 42 else 3 for i in range(64)}
        f = DiscreteMap(dom, cycle_graph(4), values, 0)
        mesh = dom.max_simplex_diameter()
        assert assert_same_certificate(f) == "ok"
        delta = clique_certificate(f).delta
        assert delta == oracle_certificate(f).delta
        assert math.isclose(delta, mesh, rel_tol=1e-12) and delta <= mesh
        assert subdivision_depth_for_mesh(1, mesh, delta) == 1

    def test_domain_without_edges(self, block_cells):
        # mesh 0 and cap 2: samples 0 and 1 settle on their near pair, and
        # the lone sample 2 is scanned in full
        dom = point_cloud([[0.0], [0.5], [5.0], [10.0], [10.5]])
        f = DiscreteMap(dom, cycle_graph(4), {0: 0, 1: 0, 2: 1, 3: 2, 4: 2}, 0)
        assert dom.max_simplex_diameter() == 0.0 and dom.eps_net == 1.0
        assert assert_same_certificate(f) == "ok"
        assert clique_certificate(f).radii == {0: 0.5, 1: 0.5, 2: 4.5, 3: 0.5, 4: 0.5}

    def test_isolated_vertex_is_scanned_in_full(self, block_cells, monkeypatch):
        # a chain of edges 1 and 0.5 long (mesh 1, cap 2), so that every
        # chain sample has a near sample 1.5 away, and a vertex of no edge at
        # 20: its ball of radius 2 holds only itself, so its row is scanned
        # in full
        positions = [0, 1, 1.5, 2.5, 3, 4, 4.5, 5.5, 6, 7, 20]
        dom = line_domain(positions, [(i, i + 1) for i in range(9)])
        values = {i: 0 if i < 5 else 1 for i in range(10)}
        values[10] = 2
        f = DiscreteMap(dom, cycle_graph(4), values, 0)
        assert assert_same_certificate(f) == "ok"
        scanned = self.scanned_rows(monkeypatch)
        # the row meets value 0 at 17, so its radius is the distance 16 below
        assert clique_certificate(f).radii[10] == 16.0
        assert scanned == [[20.0]]

    def test_isolated_clusters_are_scanned_in_full(self, block_cells, monkeypatch):
        # the chain above, then clusters of no edge: a lone sample, or two
        # samples with adjacent values closer than the mesh, whose balls of
        # radius 2 meet no other sample; all seven rows are scanned in full,
        # in seven blocks under the tiny block size
        positions = [0, 1, 1.5, 2.5, 3, 4, 4.5, 5.5, 6, 7, 20, 30, 30.5, 40, 50, 50.25, 60.5]
        dom = line_domain(positions, [(i, i + 1) for i in range(9)])
        values = dict(enumerate([0] * 5 + [1] * 5 + [2, 2, 3, 2, 3, 3, 0]))
        f = DiscreteMap(dom, cycle_graph(4), values, 0)
        assert assert_same_certificate(f) == "ok"
        scanned = self.scanned_rows(monkeypatch)
        radii = clique_certificate(f).radii
        assert [radii[i] for i in range(10, 17)] == [10.5, 20.25, 19.75, 20.0, 10.0, 0.25, 10.5]
        assert scanned == [[20.0, 30.0, 30.5, 40.0, 50.0, 50.25, 60.5]]

    @staticmethod
    def scanned_rows(monkeypatch):
        """Record the coordinates of the rows each ``_squared_blocks`` scan
        reads; a certificate scans only its rows read in full this way."""
        scanned = []
        blocks = transform._squared_blocks

        def recorded(points, targets, keeps=None):
            scanned.append(points.ravel().tolist())
            return blocks(points, targets, keeps)

        monkeypatch.setattr(transform, "_squared_blocks", recorded)
        return scanned

    def test_least_failing_row_whichever_pass(self, block_cells):
        # sample 0, a vertex of no edge at -20 whose nearest sample carries
        # the value 2 opposite its 0, fails in the full scan; samples 5 to 7
        # fail among their near pairs, next to the lone 3 at sample 6
        dom = line_domain([-20, *range(10)], [(i, i + 1) for i in range(1, 10)])
        values = {0: 0, 1: 2, 2: 2, **{i: 1 for i in range(3, 11)}, 6: 3}
        for value, pair in ((0, (0, 1)), (1, (5, 6))):
            values[0] = value
            f = DiscreteMap(dom, cycle_graph(4), values, value)
            assert assert_same_certificate(f) == "fail"
            with pytest.raises(CertificateFailure) as info:
                clique_certificate(f)
            assert info.value.pair == pair


# -- distances -------------------------------------------------------------


def chain(positions):
    """Samples on a line, triangulated by consecutive edges."""
    edges = [(i, i + 1) for i in range(len(positions) - 1)]
    tri = from_simplices(edges, dim_cap=1, vertices=range(len(positions)))
    return SampledDomain([[float(p)] for p in positions], tri)


def sweep_missing_cloud():
    """Samples 0 and 1 are each other's farthest, 10 apart, yet samples 2
    and 3 are 16 apart; 500 more samples fill a unit disc around sample 0."""
    rng = np.random.default_rng(0)
    filler = rng.uniform(-0.7, 0.7, size=(500, 2))
    return np.concatenate([[[0.0, 0.0], [10.0, 0.0], [3.0, 8.0], [3.0, -8.0]], filler])


def symmetric_cloud(n, dim, seed, duplicates=0):
    """``n`` points and their reflections through a common centre, the
    first ``duplicates`` of them twice."""
    rng = np.random.default_rng(seed)
    half = rng.normal(size=(n, dim))
    half = np.concatenate([half, half[:duplicates]])
    centre = rng.normal(size=dim)
    return np.concatenate([centre + half, centre - half])


def assert_reads_match_oracle(dom):
    """Rooted squared blocks (all rows and a selection), the diameter, edge
    lengths, a failure's distance row, the grid's near pairs under a cap
    above the diameter and the distances between one-point boxes equal the
    broadcast formula's matrix entries bit for bit; the distance between the
    bounding boxes of two sample subsets is at most any of their pairs'."""
    coords = dom.coords
    n = dom.n_samples
    seen = 0
    largest = 0.0
    for lo, block in rooted_blocks(coords, coords):
        assert lo == seen
        want = oracle_distances(coords[lo : lo + len(block)], coords)
        assert np.array_equal(block, want)
        seen += len(block)
        largest = max(largest, float(want.max()))
    assert seen == n
    assert dom.diameter == largest
    rng = np.random.default_rng(n)
    rows = np.concatenate([rng.integers(0, n, size=min(n, 40)), [n - 1, 0, n - 1]])
    picked = rooted_blocks(coords[rows], coords)
    assert [lo for lo, _ in picked] == list(range(0, len(rows), len(picked[0][1])))
    assert np.array_equal(np.vstack([block for _, block in picked]), oracle_distances(coords[rows], coords))
    edges = list(dom.triangulation.simplices(1)) + rng.integers(0, n, size=(20, 2)).tolist()
    want = [oracle_distances(coords[[u]], coords[[w]])[0, 0] for u, w in edges]
    assert np.array_equal(dom.edge_lengths(edges), want)
    for y in {0, n // 2, n - 1}:
        assert np.array_equal(transform._distance_row(coords, y), oracle_distances(coords[[y]], coords)[0])
    # every ordered pair is near, each row owning all n of its pairs once
    owners = []
    for near_rows, owner, columns, near in transform._near_blocks(coords, np.nextafter(largest, np.inf)):
        m = len(near_rows)
        assert np.array_equal(owner, np.repeat(np.arange(m), n))
        assert np.array_equal(np.sort(columns.reshape(m, n), axis=1), np.tile(np.arange(n), (m, 1)))
        assert np.array_equal(near, oracle_distances(coords[near_rows], coords)[owner, columns])
        owners.append(near_rows)
    assert np.array_equal(np.sort(np.concatenate(owners)), np.arange(n))
    points, box = coords[rows].T[:, :, None], coords.T[:, None]
    squares = transform._box_squares(points, points, box, box)
    assert np.array_equal(np.sqrt(squares), oracle_distances(coords[rows], coords))
    subsets = [rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False) for _ in range(12)]
    low = np.array([coords[s].min(axis=0) for s in subsets]).T
    high = np.array([coords[s].max(axis=0) for s in subsets]).T
    gaps = np.sqrt(transform._box_squares(low[:, :, None], high[:, :, None], low[:, None], high[:, None]))
    for (i, a), (j, b) in product(enumerate(subsets), repeat=2):
        assert gaps[i, j] <= oracle_distances(coords[a], coords[b]).min()


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
        "sweep-misses": lambda: point_cloud(sweep_missing_cloud()),
        "symmetric-duplicates": lambda: point_cloud(symmetric_cloud(450, 3, seed=4, duplicates=60)),
        "coincident": lambda: point_cloud(np.tile([0.25, -1.5, 3.0], (400, 1))),
        "all-zero": lambda: point_cloud(np.zeros((400, 2))),
        "far-and-tiny": lambda: point_cloud(symmetric_cloud(420, 3, seed=5) * 1e-4 + 1e6),
        "cloud7d-large": lambda: point_cloud(np.random.default_rng(7).normal(size=(420, 7)) * 10.0 ** np.arange(7)),
    }

    @pytest.mark.parametrize("rows_per_block", [None, 1, 7])
    @pytest.mark.parametrize("name", list(DOMAINS))
    def test_equal_the_broadcast_formula(self, name, rows_per_block, monkeypatch):
        # a fresh domain per block size: the diameter is cached on first read
        dom = self.DOMAINS[name]()
        if rows_per_block is not None:
            monkeypatch.setattr(transform, "BLOCK_CELLS", rows_per_block * dom.n_samples)
        assert_reads_match_oracle(dom)

    @pytest.mark.parametrize("name", list(DOMAINS))
    def test_reflected_diameter_at_every_size(self, name, block_cells, monkeypatch):
        # with WHOLE_SCAN_BLOCKS 0 every domain past the checks reads the
        # reflected pairs, small ones included
        monkeypatch.setattr(transform, "WHOLE_SCAN_BLOCKS", 0)
        dom = self.DOMAINS[name]()
        assert dom.diameter == float(oracle_distances(dom.coords).max())

    def test_sweep_misses_the_diameter(self):
        coords = sweep_missing_cloud()
        row = oracle_distances(coords[:1], coords)[0]
        far = int(row.argmax())
        swept = max(row.max(), oracle_distances(coords[far : far + 1], coords).max())
        assert swept < point_cloud(coords).diameter == 16.0

    def test_coincident_samples_have_diameter_zero(self):
        # with no warning, which the command line would print on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("coincident", "all-zero"):
                assert self.DOMAINS[name]().diameter == 0.0

    @pytest.mark.parametrize("seed", range(200))
    def test_reflected_diameter_of_random_clouds(self, seed, monkeypatch):
        # 1-5 coordinates, a third of them centrally symmetric, some with
        # duplicated samples, at scales and offsets over many decades
        monkeypatch.setattr(transform, "WHOLE_SCAN_BLOCKS", 0)
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(1, 80)), int(rng.integers(1, 6))
        if seed % 3 == 0:
            coords = symmetric_cloud(n, dim, seed=seed, duplicates=int(rng.integers(0, 5)))
        else:
            coords = rng.normal(size=(n, dim))
            coords = np.concatenate([coords, coords[rng.integers(0, n, size=int(rng.integers(0, 5)))]])
        coords = coords * 10.0 ** rng.uniform(-6, 6) + 10.0 ** rng.uniform(-3, 8) * rng.normal(size=dim)
        assert point_cloud(coords).diameter == float(oracle_distances(coords).max())

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_random_clouds_up_to_seven_coordinates(self, dim, block_cells):
        # numpy sums a last axis of 8 or more entries pairwise, so equality
        # with the broadcast formula is claimed up to 7 coordinates only
        coords = np.random.default_rng(dim).normal(size=(40, dim)) * 10.0 ** np.arange(dim)
        assert_reads_match_oracle(point_cloud(coords))


# -- flood -----------------------------------------------------------------


@pytest.fixture
def cached_distances(monkeypatch):
    """The oracles' full distance matrix, built once per domain."""
    cache, build = {}, distances

    def cached(dom):
        if id(dom) not in cache:
            cache[id(dom)] = dom, build(dom)
        return cache[id(dom)][1]

    monkeypatch.setitem(globals(), "distances", cached)


def assert_same_stages(f):
    """Every flood stage of ``f`` in turn: the radii or failure equal the
    old scan's, and scaled radii flood or fail as the old checks do; then
    the maximal radii flood.  Returns the scaled floods' outcomes."""
    outcomes = set()
    current = f
    for v in current.image_vertices():
        kind, radii = assert_same_radii(current, v)
        if kind == "fail":
            break
        if not radii:
            continue
        # maximal radii pass; grown radii reach non-adjacent values or
        # basepoints and fail; shrunk radii flood less; radii scaled by
        # 0.5-2.5 from row to row make a block's largest radius another
        # row's than its first
        for scale in (2.0, 0.5):
            outcomes.add(assert_same_flood(current, v, {y: r * scale for y, r in radii.items()}))
        mixed = {y: r * (0.5 + 2.0 * (y * 7919 % 13) / 13) for y, r in radii.items()}
        outcomes.add(assert_same_flood(current, v, mixed))
        assert assert_same_flood(current, v, radii) == "ok"
        current = flood(current, v, radii)
    return outcomes


class TestFloodDifferential:
    @pytest.mark.parametrize("rotation_seed", [None, 2])
    def test_stages_on_flipped_sphere_maps(self, rotation_seed, block_cells):
        dom = icosphere_domain(2)
        octa = octahedron_graph()
        rotation = None if rotation_seed is None else random_rotation(rotation_seed)
        base = discrete_modify(nearest_pole_map(dom, octa, rotation=rotation), dom, octa)
        outcomes = set()
        for sample in range(1, dom.n_samples, 9):
            outcomes |= assert_same_stages(flipped(base, sample))
        assert outcomes == {"ok", "fail"}

    @pytest.mark.parametrize("rows_per_block", [2, 5])
    def test_stages_in_many_blocks(self, rows_per_block, monkeypatch, cached_distances):
        # blocks of a few rows: each icosa:2 preimage spans several, so the
        # columns are pruned by the blocks' boxes
        dom = icosphere_domain(2)
        monkeypatch.setattr(transform, "BLOCK_CELLS", rows_per_block * dom.n_samples)
        octa = octahedron_graph()
        base = discrete_modify(nearest_pole_map(dom, octa, rotation=random_rotation(2)), dom, octa)
        outcomes = set()
        for sample in range(1, dom.n_samples, 7):
            outcomes |= assert_same_stages(flipped(base, sample))
        assert outcomes == {"ok", "fail"}

    @pytest.mark.parametrize("case", ["circle2048-quarter-arc", "icosa3-nearest", "icosa3-rotated"])
    def test_stages_at_scale(self, case, block_cells, cached_distances):
        if case.startswith("circle"):
            dom, graph = circle_domain(2048), cycle_graph(4)
            points = quarter_arc_map(dom, graph)
        else:
            dom, graph = icosphere_domain(3), octahedron_graph()
            rotation = random_rotation(3) if case.endswith("rotated") else None
            points = nearest_pole_map(dom, graph, rotation=rotation)
        f = discrete_modify(points, dom, graph)
        assert assert_same_stages(f) == {"ok", "fail"}

    def test_all_coincident_samples(self, block_cells):
        # past the whole-scan cut-off: the diameter is 0, so the cap is 1.0
        c4 = cycle_graph(4)
        dom = point_cloud(np.tile([0.25, -1.5, 3.0], (400, 1)), basepoints=(0,))
        f = DiscreteMap(dom, c4, dict.fromkeys(range(400), 1), 1)
        assert dom.diameter == 0.0
        assert assert_same_radii(f, 1) == ("ok", dict.fromkeys(range(400), 1.0))
        # value 1 coincides with the basepoint, valued 0
        g = DiscreteMap(dom, c4, {i: i % 2 for i in range(400)}, 0)
        assert assert_same_radii(g, 1)[0] == "fail"
        assert assert_same_radii(g, 0) == ("ok", dict.fromkeys(range(0, 400, 2), 1.0))
        assert assert_same_flood(g, 0, dict.fromkeys(range(0, 400, 2), 2.0)) == "ok"
        # values 0 and 2 are not adjacent
        h = DiscreteMap(dom, c4, {i: i % 3 for i in range(400)}, 0)
        assert assert_same_radii(h, 0)[0] == "fail"

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
        # a radius float() refuses counts as its row's error
        assert assert_same_flood(f, 1, {2: 2.5, 3: "wide"}) == "fail"
        assert assert_same_flood(f, 1, {2: "wide", 3: 3.5}) == "error"
        # so does a NaN radius, which is not positive
        assert assert_same_flood(f, 1, {2: 2.5, 3: math.nan}) == "fail"
        assert assert_same_flood(f, 1, {2: math.nan, 3: 3.5}) == "error"

    def test_nan_radius_is_refused(self, block_cells):
        # a NaN ball would cover nothing while the other rows flood
        dom = circle_domain(16)
        c4 = cycle_graph(4)
        f = discrete_modify(quarter_arc_map(dom, c4), dom, c4)
        radii = flood_stage_radii(f, 1)
        y = sorted(radii)[len(radii) // 2]
        radii[y] = math.nan
        with pytest.raises(ValueError, match=f"radius for sample {y} must be positive"):
            flood(f, 1, radii)
        assert assert_same_flood(f, 1, radii) == "error"

    def test_single_valued_maps(self, block_cells):
        # no sample holds another value: the stage reads no column
        dom = circle_domain(24)
        c4 = cycle_graph(4)
        f = discrete_modify(constant_map(dom, c4, 2), dom, c4)
        kind, radii = assert_same_radii(f, 2)
        assert kind == "ok" and set(radii.values()) == {1.0}
        for r in (0.1, 1.0, 5.0):
            assert assert_same_flood(f, 2, dict.fromkeys(radii, r)) == "ok"
        assert assert_same_flood(f, 2, {0: 1.0}) == "error"
        # without basepoints the base value may differ from the only value
        g = DiscreteMap(point_cloud([[0.0], [0.0], [3.0]]), c4, dict.fromkeys(range(3), 1), 0)
        assert assert_same_radii(g, 1) == ("ok", {0: 1.5, 1: 1.5, 2: 1.5})
        assert assert_same_flood(g, 1, dict.fromkeys(range(3), 9.0)) == "ok"

    def test_failures_past_samples_of_the_stage_value(self, block_cells):
        # the samples holding v are skipped by the scan; the failing row is
        # built in full, so the first offender in sample order is named
        c4 = cycle_graph(4)
        dom = point_cloud([[0.0], [0.5], [1.0], [1.0], [3.0], [0.0]])
        f = DiscreteMap(dom, c4, {0: 2, 1: 2, 2: 2, 3: 0, 4: 1, 5: 2}, 2)
        # maximal radii: sample 3 (value 0, not adjacent to 2) sits on sample 2
        assert assert_same_radii(f, 2)[1] == (
            "flood stage 2", (2, 3), (2, 0), "coincident sample with non-adjacent value")
        # given radii: row 0's ball reaches sample 3 past samples 1, 2 and 5
        assert assert_same_flood(f, 2, {0: 1.5, 1: 0.1, 2: 0.1, 5: 0.1}) == "fail"
        with pytest.raises(CertificateFailure) as exc:
            flood(f, 2, {0: 1.5, 1: 0.1, 2: 0.1, 5: 0.1})
        assert exc.value.pair == (0, 3)
        assert assert_same_flood(f, 2, {0: 0.1, 1: 0.1, 2: 0.1, 5: 9.0}) == "fail"
        # a basepoint coincident with a later preimage sample
        dom = point_cloud([[0.0], [1.0], [2.0], [2.0]], basepoints=(3,))
        g = DiscreteMap(dom, c4, {0: 2, 1: 2, 2: 2, 3: 1}, 1)
        assert assert_same_radii(g, 2)[1] == (
            "flood stage 2", (2, 3), (2, 1), "preimage sample coincides with a basepoint")
        assert assert_same_flood(g, 2, {0: 0.5, 1: 1.5, 2: 0.5}) == "fail"

    def test_values_equal_to_the_stage_value_are_overwritten_by_it(self):
        # 1.0 == 1, so samples 1 and 2 are preimage samples; the map holds
        # them as the vertex 1, so after the flood every value is the int
        # label, as when the overwrite of every covered sample wrote 1 over
        # the float; sample 3 holds another value
        dom = point_cloud([[0.0], [1.0], [2.0], [9.0]])
        f = DiscreteMap(dom, cycle_graph(4), {0: 1, 1: 1.0, 2: 1.0, 3: 2}, 1)
        radii = flood_stage_radii(f, 1)
        assert radii == oracle_stage_radii(f, 1)
        flooded = flood(f, 1, radii)
        assert flooded.values == oracle_flood(f, 1, radii)
        assert [type(x) for x in flooded.values.values()] == [int, int, int, int]
        assert flooded.values[3] == 2

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



BUILT_IN_MAPS = [
    (cycle_graph(4), "circle:64", spec)
    for spec in ("constant", "constant:2", "quarter-arc", "antipodal-composition")
] + [
    (octahedron_graph(), "sphere2:icosa:2", spec)
    for spec in ("constant", "constant:5", "nearest-vertex", "rotated-nearest")
]


@pytest.mark.parametrize("graph, domain, spec", BUILT_IN_MAPS)
def test_stage_preimages_and_changed_counts_equal_the_loops(graph, domain, spec):
    # the stage log counts what each stage changed at C speed; the loop is
    # the count it replaced, over the same stages
    from vrclosure.cli import build_sample_map, parse_domain_spec

    dom = parse_domain_spec(domain)
    art = build_pipeline(graph, dom, build_sample_map(spec, dom, graph, 3))
    current = art.discrete
    want = []
    for v, _, flooded in flood_stages(current):
        assert current.preimage(v) == loop_oracle.preimage(current, v)
        want.append(loop_oracle.changed(current, flooded))
        current = flooded
    assert [entry["changed"] for entry in art.stage_log[1:]] == want
    assert len(want) == len(art.discrete.image_vertices())


def test_preimage_takes_equal_values():
    dom = point_cloud([[0.0], [1.0], [2.0], [3.0]])
    f = DiscreteMap(dom, cycle_graph(4), {0: 1, 1: 1.0, 2: True, 3: 2}, 1)
    for v in (1, 1.0, True, 2, 3):
        assert f.preimage(v) == loop_oracle.preimage(f, v)
    assert f.preimage(1.0) == (0, 1, 2)


# -- block size ------------------------------------------------------------


def near_pole_flip(dom, f, pole, rank):
    """``f`` with its ``rank``-th sample nearest ``pole`` (never the
    basepoint 0) sent to the antipodal vertex, as the benchmark's flipped
    map is drawn: no flood overwrites such a flip."""
    gaps = np.linalg.norm(dom.coords - OCTAHEDRON_POLES[pole], axis=1)
    near = sorted(range(1, dom.n_samples), key=lambda i: (gaps[i], i))
    return flipped(f, near[rank])


def blocked_scans(make_map):
    """What every blocked scan gives on a freshly built domain and map: the
    diameter, each flood stage's radii and values, the certificate's radii
    or failure, and the nearest sample to each subdivision barycenter."""
    f = make_map()
    dom = f.domain
    stages = []
    try:
        for v, radii, flooded in flood_stages(f):
            stages.append((v, radii, dict(flooded.values)))
        final = flooded
    except CertificateFailure as exc:
        stages.append((exc.stage, exc.pair, exc.values, exc.detail))
        final = f
    cert = outcome(clique_certificate, final)
    cert = cert if cert[0] == "fail" else ("ok", cert[1].radii, cert[1].delta)
    tri = dom.triangulation
    centers = np.vstack([dom.coords[np.array(tri.simplices(d))].mean(axis=1) for d in (1, 2) if tri.simplices(d)])
    return dom.diameter, stages, cert, transform._nearest_targets(centers, dom.coords).tolist()


def icosa_map(k, flip=None):
    def make():
        dom = icosphere_domain(k)
        octa = octahedron_graph()
        f = discrete_modify(nearest_pole_map(dom, octa), dom, octa)
        return f if flip is None else near_pole_flip(dom, f, *flip)

    return make


def circle_map(n):
    def make():
        dom = circle_domain(n)
        return discrete_modify(quarter_arc_map(dom, cycle_graph(4)), dom, cycle_graph(4))

    return make


class TestBlockIndependence:
    """Every cell is the same ``_squared_distances_to`` sum whatever the
    block, and row minima and maxima do not depend on where blocks start."""

    @pytest.mark.parametrize(
        "make_map",
        [icosa_map(3), icosa_map(3, flip=(4, 0)), icosa_map(3, flip=(1, 5)), circle_map(256), circle_map(300)],
        ids=["icosa3", "icosa3-flipped-a", "icosa3-flipped-b", "circle256", "circle300"],
    )
    def test_one_cell_and_whole_matrix_blocks(self, make_map, monkeypatch):
        default = blocked_scans(make_map)
        for cells in (1, 1 << 30):
            monkeypatch.setattr(transform, "BLOCK_CELLS", cells)
            assert blocked_scans(make_map) == default

    def test_flipped_maps_fail_at_the_flip(self):
        # the flipped maps above pass every flood stage and fail the
        # certificate at the flipped sample
        plain = icosa_map(3)().values
        for flip in ((4, 0), (1, 5)):
            flipped_map = icosa_map(3, flip=flip)
            (sample,) = [i for i, v in flipped_map().values.items() if v != plain[i]]
            _, stages, cert, _ = blocked_scans(flipped_map)
            assert len(stages) == 6
            assert cert[0] == "fail" and cert[1][0] == "clique certificate"
            assert sample in cert[1][1]


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


# -- convex transform ------------------------------------------------------


def assert_same_convex(f, delta):
    """``convex_transform`` names the failing edge the edge-by-edge loop
    names, or builds the map when the loop finds none; returns the failing
    edge's index in edge order, or None."""
    tri = f.domain.triangulation
    want = loop_oracle.convex_edge_failure(f, tri, delta)
    cert = transform.CliqueCertificate({}, delta)
    target = vietoris_rips(f.target, 2)
    if want is None:
        m = transform.convex_transform(f, tri, cert, target)
        assert dict(m.vertex_images) == {v: f.values[v] for v in tri.vertices}
        return None
    with pytest.raises(CertificateFailure) as info:
        transform.convex_transform(f, tri, cert, target)
    got = info.value
    assert (got.pair, got.values, str(got)) == (want.pair, want.values, str(want))
    return tri.simplices(1).index(got.pair)


class TestConvexTransformDifferential:
    # a path whose edges, in edge order, are 1, 2, 0.5, 3.5 and 1 long
    POSITIONS = [0, 1, 3, 3.5, 7, 8]

    @pytest.mark.parametrize(
        "jump, delta, edge, kind",
        [
            (1, 3.0, 1, "clique"),  # the first non-clique edge before the first long one
            (4, 3.0, 3, "length"),  # and after it
            (3, 3.0, 3, "length"),  # both on one edge: its length is named
            (None, 3.0, 3, "length"),
            (1, 4.0, 1, "clique"),
            (None, 3.5, 3, "length"),  # a length equal to delta is not below it
            (None, 4.0, None, None),
        ],
    )
    def test_first_failing_edge(self, jump, delta, edge, kind):
        # the values jump from 0 to 2, not adjacent in C4, across edge ``jump``
        n = len(self.POSITIONS)
        values = {i: 0 if jump is None or i <= jump else 2 for i in range(n)}
        f = DiscreteMap(chain(self.POSITIONS), cycle_graph(4), values, 0)
        assert assert_same_convex(f, delta) == edge
        if kind is not None:
            detail = loop_oracle.convex_edge_failure(f, f.domain.triangulation, delta).detail
            assert detail.startswith("edge length") == (kind == "length")

    def test_flipped_sphere_maps(self):
        # the nearest-pole map and, one sample at a time, the map with that
        # sample sent to its antipode, against deltas at which no edge, some
        # edges and every edge is too long
        dom = icosphere_domain(2)
        octa = octahedron_graph()
        base = discrete_modify(nearest_pole_map(dom, octa), dom, octa)
        lengths = np.sort(dom.edge_lengths(dom.triangulation.simplices(1)))
        deltas = [float(lengths[-1]) * 2, float(lengths[len(lengths) // 2]), float(lengths[0])]
        maps = [base] + [flipped(base, sample) for sample in range(1, dom.n_samples, 7)]
        failing = {assert_same_convex(f, delta) for f in maps for delta in deltas}
        assert None in failing and len(failing) > 3


# -- subdivision compatibility ---------------------------------------------


def sd_pair(simplices, graph, cap, m1_images, m2_changes=()):
    """Maps on a complex and on its barycentric subdivision, whose vertices
    are the face tuples themselves.  Each barycenter takes the m1-image of
    its face's first vertex unless ``m2_changes`` says otherwise."""
    k = from_simplices(simplices, dim_cap=len(simplices[0]) - 1)
    target = vietoris_rips(graph, cap)
    sd = barycentric_subdivision(k)
    m2_images = {face: m1_images[face[0]] for face in sd.vertices}
    m2_images.update(m2_changes)
    m1 = SimplicialMap(k, target, m1_images)
    m2 = SimplicialMap(sd, target, m2_images)
    return m1, m2, list(sd.vertices)


def assert_same_sd_verdict(m1, m2, face_vertex, grid_steps=50):
    want = grid_sd_compatibility(m1, m2, face_vertex, grid_steps)
    assert sd_compatibility(m1, m2, face_vertex) == want
    assert loop_oracle.sd_compatibility(m1, m2, face_vertex) == want
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
        k = from_simplices(simplices, dim_cap=dim)
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
            assert check_simplicial(m1) == loop_oracle.check_simplicial(m1)
            assert check_simplicial(m2) == loop_oracle.check_simplicial(m2)
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


# -- edge-path presentation and face lookup -------------------------------


#: the 6-vertex real projective plane: H1 is Z/2, so its free rank is 0
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def presentation_complexes():
    """Criterion 8's graphs; random graphs, connected or not, at caps 0 to
    3; and complexes written from simplex lists, labels not all ints."""
    out = [vietoris_rips(g, 2) for g in (cycle_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(4))]
    rng = random.Random(25)
    for i in range(24):
        n = rng.randint(1, 9)
        p = rng.choice([0.2, 0.5, 0.9])
        tree = [(rng.randrange(v), v) for v in range(1, n)] if i % 4 else []
        edges = tree + [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        out += [vietoris_rips(Graph(range(n), edges), cap) for cap in (0, 1, 2, 3)]
    out += [from_simplices(RP2, cap) for cap in (1, 2, 3)]
    out += [
        from_simplices([("b", "a", "c"), ("c", "d"), ("d", "e", "a")], 2),
        from_simplices([(0, 1, 2), (2, 3), (4,)], 2),
        from_simplices([(0, 1, 2, 3)], 3),
        from_simplices([("x",)], 0),
        from_simplices([("x",), ("y",)], 0),
    ]
    return out


PRESENTATION_COMPLEXES = presentation_complexes()


def presentation_outcome(presentation, k, base):
    """Generator count, relator count and abelianized rank, or the type of
    the error raised."""
    try:
        pres = presentation(k, base)
    except (KeyError, ValueError) as exc:
        return type(exc)
    return len(pres.generators), len(pres.relators), pres.abelianized_rank()


def assert_tree_presentation(k, base):
    """The edges that are no generator form a spanning tree, and each
    triangle abc's relator is ab + bc - ac on the generators."""
    pres = edge_path_presentation(k, base)
    tree = set(k.simplices(1)) - set(pres.generators)
    reached = {base}
    while grown := {w for e in tree for v, w in (e, e[::-1]) if v in reached} - reached:
        reached |= grown
    assert len(tree) == len(k.vertices) - 1 and reached == set(k.vertices)
    index = {e: j for j, e in enumerate(pres.generators)}
    for (a, b, c), relator in zip(k.simplices(2), pres.relators, strict=True):
        assert relator == {index[e]: sign for e, sign in (((a, b), 1), ((b, c), 1), ((a, c), -1)) if e in index}


class TestEdgePathPresentationDifferential:
    @pytest.mark.parametrize("case", range(len(PRESENTATION_COMPLEXES)))
    def test_matches_the_breadth_first_tree(self, case):
        k = PRESENTATION_COMPLEXES[case]
        edges, triangles = len(k.simplices(1)), len(k.simplices(2))
        for base in {k.vertices[0], k.vertices[-1]}:
            got = presentation_outcome(edge_path_presentation, k, base)
            assert got == presentation_outcome(homology_oracle.edge_path_presentation, k, base)
            if got is not ValueError:
                assert got[:2] == (edges - len(k.vertices) + 1, triangles)
                assert_tree_presentation(k, base)
        for unknown in ("no such vertex", len(k.vertices) + 7):
            assert presentation_outcome(edge_path_presentation, k, unknown) is KeyError
            assert presentation_outcome(homology_oracle.edge_path_presentation, k, unknown) is KeyError

    @pytest.mark.parametrize("case", range(len(PRESENTATION_COMPLEXES)))
    def test_generators_are_the_union_find_non_tree_edges(self, case):
        # the Borůvka forest is the one union-find joins, so the generators
        # keep their order: every edge outside the union-find forest
        k = PRESENTATION_COMPLEXES[case]
        tree = homology_oracle.spanning_forest(k) if k.dim_cap else set()
        if len(tree) != len(k.vertices) - 1:
            with pytest.raises(ValueError):
                edge_path_presentation(k, k.vertices[0])
            return
        want = tuple(e for j, e in enumerate(k.simplices(1)) if j not in tree)
        assert edge_path_presentation(k, k.vertices[0]).generators == want

    def test_outcomes_cover_every_kind(self):
        outcomes = {presentation_outcome(edge_path_presentation, k, k.vertices[0])
                    for k in PRESENTATION_COMPLEXES}
        assert ValueError in outcomes
        assert {o[2] for o in outcomes - {ValueError}} >= {0, 1, 2}
        assert {k.dim_cap for k in PRESENTATION_COMPLEXES} == {0, 1, 2, 3}
        assert presentation_outcome(edge_path_presentation, from_simplices(RP2, 2), 0) == (10, 10, 0)


def oracle_has_simplex(k, simplex):
    """The frozenset membership ``has_simplex`` used to answer through."""
    members = frozenset(tuple(row) for level in k.rows for row in level.tolist())
    try:
        return tuple(map(k.vertex_index.__getitem__, simplex)) in members
    except KeyError:
        return False


def has_simplex_queries(k):
    """Every face; each face reversed, with a vertex repeated, and with an
    unknown label; every vertex subset up to two past the cap, in vertex
    order; and the empty sequence."""
    for s in k.all_simplices():
        yield from (s, s[::-1], s + s[-1:], s[:1] + s, s + ("no such vertex",))
    for size in range(1, min(len(k.vertices), k.dim_cap + 2) + 1):
        yield from combinations(k.vertices, size)
    yield ()


class TestHasSimplexDifferential:
    @pytest.mark.parametrize("k", [
        vietoris_rips(octahedron_graph(), 3),
        vietoris_rips(cycle_graph(7), 2),
        vietoris_rips(Graph(range(9), [(i, j) for i in range(9) for j in range(i + 1, 9) if (i * j) % 4]), 4),
        from_simplices(RP2, 2),
        from_simplices([("b", "a", "c"), ("c", "d"), ("e",)], 2),
        from_simplices([(0, 1, 2, 3)], 1),
        barycentric_subdivision(from_simplices([(0, 1, 2)], 2)),
    ], ids=["octahedron", "c7", "graph9", "rp2", "strings", "cap1", "sd-triangle"])
    def test_matches_the_member_set(self, k):
        answers = [(q, k.has_simplex(q)) for q in has_simplex_queries(k)]
        assert answers == [(q, oracle_has_simplex(k, q)) for q, _ in answers]
        assert {a for _, a in answers} == {True, False}


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
    return from_simplices(
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
    tri = from_simplices([(0, 1, 2), (2, 3), (4,)], dim_cap=2)
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
        k = from_simplices(simplices, dim_cap=cap)
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


# -- one subdivision builder and one maximal-simplex walk ------------------


def domain_map(name):
    """A domain and its vertex-valued map: nearest pole onto the octahedron
    for spheres, the quarter-arc wrap onto C4 for circles (on circle:3 not
    simplicial), the constant map on the non-pure complex."""
    if name == "non-pure":
        dom = non_pure_domain()
        return dom, cycle_graph(4), dict.fromkeys(range(dom.n_samples), 0)
    kind, size = name.split(":")
    if kind == "icosa":
        dom, graph = icosphere_domain(int(size)), octahedron_graph()
        pts = nearest_pole_map(dom, graph)
    else:
        dom, graph = circle_domain(int(size)), cycle_graph(4)
        pts = quarter_arc_map(dom, graph)
    return dom, graph, {i: p.carrier[0] for i, p in pts.items()}


def antipode(graph, v):
    """The vertex of the octahedron or of C4 that ``v`` is not adjacent to."""
    return v ^ 1 if len(graph.vertices) == 6 else (v + 2) % 4


SD_DOMAINS = ["icosa:0", "icosa:1", "icosa:2", "icosa:3", "circle:3", "circle:256", "non-pure"]


@pytest.mark.parametrize("name", SD_DOMAINS)
class TestSubdivisionOracles:
    def test_builders_equal_sorted_build_and_rename(self, name):
        dom, _, values = domain_map(name)
        tri = dom.triangulation
        assert barycentric_subdivision(tri) == sd_oracle.sorted_barycentric_subdivision(tri)
        new_dom, _, face_vertex = subdivide_domain(dom, values)
        assert (new_dom.triangulation, face_vertex) == sd_oracle.renamed_subdivision(dom)

    def test_maximal_simplices_by_definition(self, name):
        dom, _, values = domain_map(name)
        for k in (dom.triangulation, subdivide_domain(dom, values)[0].triangulation):
            got = maximal_simplices(k)
            assert got == list(loop_oracle.maximal_simplices(k))
            assert len(got) == len(set(got))
            assert set(got) == set(sd_oracle.maximal_by_definition(k))

    def test_verdicts_equal_oracles(self, name):
        # the map and its refinement, then one sample at a time sent to its
        # antipode, coarse samples in m1 and new ones in m2
        dom, graph, values = domain_map(name)
        new_dom, new_values, face_vertex = subdivide_domain(dom, values)
        target = vietoris_rips(graph, 5)
        n, n2 = dom.n_samples, new_dom.n_samples
        pairs = [(values, new_values)]
        for i in range(0, n, max(1, n // 6)):
            pairs.append(({**values, i: antipode(graph, values[i])}, new_values))
        for i in range(n, n2, max(1, (n2 - n) // 6)):
            pairs.append((values, {**new_values, i: antipode(graph, new_values[i])}))
        verdicts, simplicial = set(), set()
        for coarse, fine in pairs:
            m1 = SimplicialMap(dom.triangulation, target, coarse)
            m2 = SimplicialMap(new_dom.triangulation, target, fine)
            for m in (m1, m2):
                got = check_simplicial(m)
                assert got == sd_oracle.all_simplices_check_simplicial(m)
                assert got == loop_oracle.check_simplicial(m)
                simplicial.add(got)
            verdict = sd_compatibility(m1, m2, face_vertex)
            assert verdict == sd_oracle.permutation_sd_compatibility(m1, m2, face_vertex)
            assert verdict == loop_oracle.sd_compatibility(m1, m2, face_vertex)
            verdicts.add(verdict)
        assert verdicts == ({False} if name == "circle:3" else {True, False})
        # an antipode breaks some simplex, so non-simplicial maps are checked too
        assert False in simplicial


def test_nearest_samples_takes_first_on_ties():
    samples = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0]])
    nearest = transform._nearest_targets
    assert nearest(np.array([[1.0, 0.0], [1.9, 0.0], [1.0, 4.0]]), samples).tolist() == [0, 1, 2]
    assert nearest(np.empty((0, 2)), samples).tolist() == []
