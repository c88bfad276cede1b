"""Differential tests of the digest layer against the code it replaced: the
numpy FNV-1a kernel against the byte loop, ``digest_map``'s directly written
text against the JSON of the old ``to_json_dict``, the pipeline's stage log,
radii digest and final digest from int-coded maps against the flood stages
on value dicts, ``cmd_build``'s spliced report against the dict it used to
encode twice, and ``from_simplices``'s index-tuple sort against the
per-simplex key sort."""

import random
from itertools import combinations

import pytest

from vrclosure import (
    BaryPoint,
    CertificateFailure,
    CliqueCertificate,
    DiscreteMap,
    Graph,
    cycle_graph,
    octahedron_graph,
    subdivide_domain,
)
from vrclosure.cli import (
    build_sample_map,
    complex_to_json,
    main,
    parse_domain_spec,
    parse_edge_list,
)
from vrclosure.complex import vietoris_rips
from vrclosure.domains import circle_domain, icosphere_domain
from vrclosure.pipeline import (
    FNV_CHUNK,
    canonical_json,
    digest_map,
    digest_radii,
    fnv1a64,
    run_pipeline,
)

import digest_oracle
import graph_oracle
import stage_oracle
from helpers import from_simplices

#: characters of one to four UTF-8 bytes, quotes and backslashes included
CHARS = 'ab"\\ \t\n\x00\x7f\xe9ÿΔ☃￿\U0001f600'


def mixed_text(seed, length):
    rng = random.Random(seed)
    return "".join(rng.choice(CHARS) for _ in range(length))


# -- FNV-1a ------------------------------------------------------------------


class TestFnv1a:
    def test_published_vectors(self):
        assert fnv1a64("") == "cbf29ce484222325"
        assert fnv1a64("a") == "af63dc4c8601ec8c"
        assert fnv1a64("foobar") == "85944171f73967e8"

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_ascii_at_chunk_bounds(self, chunks, offset):
        rng = random.Random(chunks * 3 + offset)
        text = "".join(chr(rng.randrange(128)) for _ in range(chunks * FNV_CHUNK + offset))
        assert fnv1a64(text) == digest_oracle.fnv1a64(text)

    @pytest.mark.parametrize("split", [1, 2, 3])
    def test_character_across_a_chunk_bound(self, split):
        # the last ``split`` bytes of a four-byte character open the next chunk
        text = "x" * (FNV_CHUNK - 4 + split) + "\U0001f600" + "y" * 5
        assert len(text.encode()) == FNV_CHUNK + split + 5
        assert fnv1a64(text) == digest_oracle.fnv1a64(text)

    @pytest.mark.parametrize(
        "length",
        [*range(18), *(FNV_CHUNK + k for k in (-9, -8, -7, -1, 0, 1, 7, 8, 9)),
         2 * FNV_CHUNK, 2 * FNV_CHUNK + 3, 3 * FNV_CHUNK - 5, 3 * FNV_CHUNK],
    )
    def test_lengths_at_lane_and_chunk_bounds(self, length):
        # 8-byte lanes: whole words, one byte either side, and a chunk's
        # last partial word
        rng = random.Random(length)
        text = "".join(chr(rng.randrange(256)) for _ in range(length // 2))
        text += "".join(chr(rng.randrange(128)) for _ in range(length - len(text.encode())))
        assert len(text.encode()) == length
        assert fnv1a64(text) == digest_oracle.fnv1a64(text)

    @pytest.mark.parametrize("bound", [8, 16, 64, FNV_CHUNK - 8, FNV_CHUNK, 2 * FNV_CHUNK])
    @pytest.mark.parametrize("char", ["\xe9", "\u2603", "\U0001f600"])
    def test_multibyte_character_across_a_lane_bound(self, bound, char):
        # every split of the character's bytes by a word bound, which at
        # the chunk sizes is also a chunk bound
        size = len(char.encode())
        for split in range(1, size):
            text = "q" * (bound - split) + char + "z" * 3
            assert len(text[: bound - split].encode()) + split == bound
            assert fnv1a64(text) == digest_oracle.fnv1a64(text)

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_text_over_several_chunks(self, seed):
        text = mixed_text(seed, 2 * FNV_CHUNK + 997 * seed)
        assert fnv1a64(text) == digest_oracle.fnv1a64(text)

    def test_hypothesis_text(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        around_chunks = st.builds(
            mixed_text,
            st.integers(0, 1 << 16),
            st.sampled_from([0, 1, 2, FNV_CHUNK - 1, FNV_CHUNK, FNV_CHUNK + 1, 3 * FNV_CHUNK + 5]),
        )

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.one_of(st.text(), st.text(min_size=300), around_chunks))
        def check(text):
            assert fnv1a64(text) == digest_oracle.fnv1a64(text)

        check()


# -- value-map digests -------------------------------------------------------

LABELS = {
    "ints": list(range(5)),
    "escaped strings": ['a"b', "c\\d", "\xe9t\xe9", "☃", "tab\there", "/"],
    "tuples": [(0,), (1,), (0, 1), (2, 0), (1, 2, 3)],
}


def value_map(domain, labels, seed):
    """A map onto the complete graph on ``labels`` with seeded values; the
    basepoints carry the first label."""
    rng = random.Random(seed)
    graph = Graph(labels, combinations(labels, 2))
    values = {i: rng.choice(labels) for i in range(domain.n_samples)}
    for b in domain.basepoints:
        values[b] = labels[0]
    return DiscreteMap(domain, graph, values, labels[0])


class TestDigestMap:
    @pytest.mark.parametrize("labels", list(LABELS), ids=list(LABELS))
    @pytest.mark.parametrize("n", [3, 10, 11, 12, 101, 1000])
    def test_equals_json_of_the_old_dict(self, labels, n):
        # from 11 samples on, "10" sorts before "2"
        f = value_map(circle_domain(n), LABELS[labels], n)
        assert digest_map(f) == digest_oracle.digest_map(f)

    @pytest.mark.parametrize("labels", list(LABELS), ids=list(LABELS))
    def test_subdivided_domains(self, labels):
        f = value_map(icosphere_domain(1), LABELS[labels], 7)
        domain, values = f.domain, f.values
        for _ in range(2):
            domain, values, _ = subdivide_domain(domain, values)
            g = DiscreteMap(domain, f.target, values, f.base_value)
            assert digest_map(g) == digest_oracle.digest_map(g)

    def test_domains_of_different_sizes_in_turn(self):
        # the cached key order is per sample count
        maps = [value_map(circle_domain(n), LABELS["ints"], n) for n in (12, 30, 12, 5, 30)]
        assert [digest_map(f) for f in maps] == [digest_oracle.digest_map(f) for f in maps]

    def test_hypothesis_maps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(st.sampled_from(list(LABELS)), st.integers(3, 64), st.integers(0, 1 << 16))
        def check(labels, n, seed):
            f = value_map(circle_domain(n), LABELS[labels], seed)
            assert digest_map(f) == digest_oracle.digest_map(f)

        check()


# -- the pipeline's digests ---------------------------------------------------


def run_digests(graph, domain, points, extra=0):
    """The stage log, radii digest and final digest of ``run_pipeline``, or
    the failure it raises, as the oracle returns them."""
    try:
        report = run_pipeline(graph, domain, points, extra)
    except CertificateFailure as exc:
        return exc
    return report["stages"], report["certificate"]["radii_digest"], report["final_digest"]


def assert_same_digests(graph, domain, points, extra=0):
    got = run_digests(graph, domain, points, extra)
    want = stage_oracle.pipeline_digests(graph, domain, points, extra)
    if isinstance(want, CertificateFailure):
        assert isinstance(got, CertificateFailure), got
        assert (got.stage, got.pair, got.values, got.detail) == (
            want.stage, want.pair, want.values, want.detail)
        return "fail"
    assert got == want
    return "ok"


PIPELINE_MAPS = [
    (cycle_graph(4), "circle:64", spec, 0)
    for spec in ("constant", "constant:2", "quarter-arc", "antipodal-composition")
] + [
    (cycle_graph(4), "circle:2048", "quarter-arc", 0),
    (cycle_graph(4), "circle:16", "quarter-arc", 2),
] + [
    (octahedron_graph(), f"sphere2:icosa:{k}", spec, 0)
    for k in (2, 3)
    for spec in ("constant", "constant:5", "nearest-vertex", "rotated-nearest")
] + [
    (octahedron_graph(), "sphere2:icosa:2", "nearest-vertex", 1),
]


class TestPipelineDigests:
    @pytest.mark.parametrize("graph, domain, spec, extra", PIPELINE_MAPS)
    def test_built_in_maps(self, graph, domain, spec, extra):
        dom = parse_domain_spec(domain)
        points = build_sample_map(spec, dom, graph, 3)
        assert assert_same_digests(graph, dom, points, extra) == "ok"

    def test_flipped_maps(self):
        # one sample sent to the antipodal vertex: some floods overwrite the
        # flip and the map passes, the others fail a stage or the certificate
        graph, dom = octahedron_graph(), icosphere_domain(2)
        plain = build_sample_map("nearest-vertex", dom, graph, 0)
        outcomes = set()
        for sample in random.Random(0).sample(range(1, dom.n_samples), 12):
            points = dict(plain)
            points[sample] = BaryPoint.of_vertex(plain[sample].carrier[0] ^ 1)
            outcomes.add(assert_same_digests(graph, dom, points))
        assert outcomes == {"ok", "fail"}

    @pytest.mark.parametrize("n", [1, 2, 11, 101])
    def test_radii_digest_of_every_number_json_writes(self, n):
        # from 11 samples on "10" sorts before "2"; inf and nan are written
        # as JSON's Infinity and NaN, ints without a point
        numbers = [0.1, 2.0, -0.0, 1e-300, 1e300, float("inf"), float("nan"), 3, 1 / 3]
        radii = {i: numbers[i % len(numbers)] for i in range(n)}
        cert = CliqueCertificate(radii, 0.25)
        want = digest_oracle.fnv1a64(canonical_json(cert.to_json_dict()))
        assert digest_radii(cert) == want

    def test_many_stages(self):
        # C_64 on circle:256, four samples per vertex: 64 flood stages
        graph, dom = cycle_graph(64), circle_domain(256)
        vertex = [BaryPoint.of_vertex(v) for v in graph.vertices]
        points = {i: vertex[i // 4] for i in range(dom.n_samples)}
        stages = run_digests(graph, dom, points)[0]
        assert len(stages) == 65
        assert assert_same_digests(graph, dom, points) == "ok"


# -- the build report --------------------------------------------------------


def gnp_text(n, p, seed):
    rng = random.Random(seed)
    return "".join(f"v{u} v{w}\n" for u in range(n) for w in range(u + 1, n) if rng.random() < p)


BUILD_GRAPHS = {
    "c4": ("0 1\n1 2\n2 3\n3 0\n", 2),
    "escaped-labels": ('a"b c\\d\nc\\d \xe9t\xe9\n\xe9t\xe9 a"b\nlone\n', 2),
    "gnp-several-chunks": (gnp_text(40, 0.3, 1), 3),
    "isolated-vertex": ("7\n", 0),
}


@pytest.mark.parametrize("name", list(BUILD_GRAPHS))
def test_build_report_equals_the_double_encoding(name, capsys, tmp_path):
    text, dim = BUILD_GRAPHS[name]
    path = tmp_path / "graph.txt"
    path.write_text(text, encoding="utf-8")
    want = digest_oracle.build_report(complex_to_json(vietoris_rips(parse_edge_list(text), dim)))
    assert main(["build", str(path), "--max-dim", str(dim)]) == 0
    assert capsys.readouterr().out == want + "\n"
    out = tmp_path / "report.json"
    assert main(["build", str(path), "--max-dim", str(dim), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == want + "\n"


# -- from_simplices ----------------------------------------------------------


def random_simplices(labels, seed):
    rng = random.Random(seed)
    return [tuple(rng.sample(labels, rng.randint(1, min(4, len(labels))))) for _ in range(rng.randint(1, 10))]


FROM_SIMPLICES_LABELS = {
    "range": list(range(9)),
    "sparse ints": [3, 5, 10, 11, 40, 41, 100],
    "strings": ["b", "a", "c10", "c9", "\xe9", "Z"],
    "tuples": [(2,), (1, 0), (0, 1), (0,), (0, 0, 1)],
}


class TestFromSimplices:
    @pytest.mark.parametrize("labels", list(FROM_SIMPLICES_LABELS))
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_key_sort(self, labels, seed):
        labels = FROM_SIMPLICES_LABELS[labels]
        simplices = random_simplices(labels, seed)
        for cap in (0, 1, 2, 3):
            for vertices in (None, labels):
                got = from_simplices(simplices, cap, vertices=vertices)
                want = graph_oracle.from_simplices(simplices, cap, vertices=vertices)
                assert got == want
                assert [list(map(type, s)) for s in got.all_simplices()] == [
                    list(map(type, s)) for s in want.all_simplices()
                ]

    def test_range_vertices_and_a_subset_of_them(self):
        faces = [(0, 11, 5), (0, 5, 1), (7, 2, 9)]
        for vertices in (range(12), [0, 1, 2, 5, 7, 9, 11]):
            got = from_simplices(faces, 2, vertices=vertices)
            assert got == graph_oracle.from_simplices(faces, 2, vertices=vertices)

    @pytest.mark.parametrize("bad", [[(0, 0)], [(0, 9)], [(1, 2, 1)]])
    def test_invalid_simplices_are_refused(self, bad):
        with pytest.raises(ValueError):
            from_simplices(bad, 2, vertices=range(3))
