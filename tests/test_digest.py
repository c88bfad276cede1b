"""Differential tests of the digest layer against the code it replaced: the
numpy FNV-1a kernel, one text or a batch of rows, against the byte loop, the
kernel calls a pipeline run makes, ``digest_map``'s directly written
text against the JSON of the old ``to_json_dict``, the pipeline's stage log,
radii digest and final digest from int-coded maps against the flood stages
on value dicts, ``cmd_build``'s spliced report against the dict it used to
encode twice, and ``from_simplices``'s index-tuple sort against the
per-simplex key sort."""

import random
from itertools import combinations

import numpy as np
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
from vrclosure import pipeline
from vrclosure.cli import (
    build_sample_map,
    complex_to_json,
    main,
    parse_domain_spec,
    parse_edge_list,
)
from vrclosure.complex import vietoris_rips
from vrclosure.domains import circle_domain, icosphere_domain, nearest_pole_map
from vrclosure.pipeline import (
    FNV_CHUNK,
    _DigestQueue,
    _fnv_rows,
    build_pipeline,
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


def ascii_text(seed, length):
    rng = random.Random(seed)
    return "".join(chr(rng.randrange(128)) for _ in range(length))


def queued_digests(texts):
    """The digests of ``texts`` hashed through one queue, in their order."""
    queue = _DigestQueue()
    at = [queue.add(text) for text in texts]
    assert at == list(range(len(texts)))
    return queue.flush()


#: byte lengths either side of a word and of a chunk, and several chunks
ROW_LENGTHS = [0, 1, 7, 8, 9, FNV_CHUNK - 1, FNV_CHUNK, FNV_CHUNK + 1, 3 * FNV_CHUNK + 5]


class TestFnvRows:
    """The kernel over rows of a batch, each padded with zero bytes to the
    longest's whole words, against the byte loop one text at a time."""

    def test_one_row(self):
        for length in (0, 1, 8, 9, 1000, FNV_CHUNK):
            raw = ascii_text(length, length).encode()
            assert [f"{h:016x}" for h in _fnv_rows([raw])] == [digest_oracle.fnv1a64(raw.decode())]

    @pytest.mark.parametrize("h", [pipeline.FNV_OFFSET, 0, (1 << 64) - 1, 0x1234567890ABCDEF])
    def test_rows_of_one_batch_from_any_state(self, h):
        # a chunk starts from the state the one before left: padding after a
        # short row must not reach its low bytes, whatever state it starts from
        raws = [ascii_text(n, n).encode() for n in (0, 1, 7, 8, 9, 64, 1000, 4095)]
        want = []
        for raw in raws:
            state = h
            for byte in raw:
                state = ((state ^ byte) * pipeline.FNV_PRIME) & ((1 << 64) - 1)
            want.append(state)
        assert _fnv_rows(raws, h) == want
        if h == pipeline.FNV_OFFSET:
            assert [f"{state:016x}" for state in want] == [
                digest_oracle.fnv1a64(raw.decode()) for raw in raws]

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_lengths_in_any_order(self, seed):
        texts = [ascii_text(n, n) for n in ROW_LENGTHS] * 2
        random.Random(seed).shuffle(texts)
        assert queued_digests(texts) == list(map(digest_oracle.fnv1a64, texts))

    def test_many_short_rows(self):
        # 600 rows of up to 40 bytes: several batches of up to 32 KB each
        texts = [mixed_text(i, i % 13) for i in range(600)]
        assert queued_digests(texts) == list(map(digest_oracle.fnv1a64, texts))

    def test_no_texts(self):
        assert _DigestQueue().flush() == []

    @pytest.mark.parametrize("bound", [8, 16, 64, FNV_CHUNK - 8, FNV_CHUNK, 2 * FNV_CHUNK])
    @pytest.mark.parametrize("char", ["\xe9", "\u2603", "\U0001f600"])
    def test_multibyte_character_across_a_lane_bound(self, bound, char):
        # every split of the character by a word bound, in rows of different
        # lengths queued together; past FNV_CHUNK the bound is a chunk's
        size = len(char.encode())
        texts = ["q" * (bound - split) + char + "z" * (3 + 5 * split) for split in range(1, size)]
        texts += ["short", char * 3]
        assert queued_digests(texts) == list(map(digest_oracle.fnv1a64, texts))

    def test_hypothesis_lists_of_texts(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        around_bounds = st.builds(mixed_text, st.integers(0, 1 << 16), st.sampled_from(
            [0, 1, 7, 8, 9, 2000, FNV_CHUNK // 4 - 1, FNV_CHUNK // 2, FNV_CHUNK - 1, FNV_CHUNK + 1]))
        texts = st.lists(st.one_of(st.text(), st.text(min_size=300), around_bounds), max_size=12)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(texts)
        def check(texts):
            assert queued_digests(texts) == list(map(digest_oracle.fnv1a64, texts))

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


class TestKernelCalls:
    """Kernel calls counted, not timed, as in ``TestWorkCounts``: every text
    is hashed by a ``_fnv_rows`` call, so a run that hashed one stage at a
    time would show as one call per changed stage."""

    @pytest.fixture
    def kernel_rows(self, monkeypatch):
        """The byte length of each row, a list per kernel call; every call's
        rows, padded to the longest's whole words, fit in ``FNV_CHUNK``."""
        calls = []
        real = pipeline._fnv_rows

        def counted(raws, *args):
            calls.append(list(map(len, raws)))
            assert len(raws) * 8 * max(1, -(-max(calls[-1]) // 8)) <= FNV_CHUNK
            return real(raws, *args)

        monkeypatch.setattr(pipeline, "_fnv_rows", counted)
        return calls

    def test_certified_check_sd_run(self, kernel_rows):
        # icosa:2's stage texts are about 1.5 KB: f0, the changed stages,
        # the radii and no final map (depth 0) fit in one batch
        graph, dom = octahedron_graph(), icosphere_domain(2)
        report = run_pipeline(graph, dom, build_sample_map("nearest-vertex", dom, graph, 0), check_sd=True)
        assert report["sd_compatible"] is True and report["depth"]["chosen"] == 0
        assert len(kernel_rows) <= 2
        changed = sum(1 for entry in report["stages"] if entry["changed"])
        assert sum(map(len, kernel_rows)) == 1 + changed + 1

    def test_flipped_map_fails_before_its_last_batch(self, kernel_rows):
        # the bench's flipped shape: nearest-pole values on icosa:3 with a
        # sample near a pole sent to the antipodal vertex.  The certificate
        # rejects it; the batches full before then are all that is hashed,
        # where one call per changed stage made 7
        graph, dom = octahedron_graph(), icosphere_domain(3)
        points = nearest_pole_map(dom, graph)
        gaps = np.linalg.norm(dom.coords - [0.0, 1.0, 0.0], axis=1)
        gaps[list(dom.basepoints)] = np.inf
        sample = int(gaps.argmin())
        points[sample] = BaryPoint.of_vertex(points[sample].carrier[0] ^ 1)
        with pytest.raises(CertificateFailure) as failure:
            build_pipeline(graph, dom, points)
        assert failure.value.stage == "clique certificate" and sample in failure.value.pair
        assert len(kernel_rows) <= 1

    def test_many_stages_of_unequal_lengths(self, kernel_rows):
        # C_512 on circle:2048, four samples per vertex: 512 flood stages
        # whose texts, about 25 KB each, differ in length as labels of one
        # to three digits replace each other; one text fits in a batch
        graph, dom = cycle_graph(512), circle_domain(2048)
        vertex = [BaryPoint.of_vertex(v) for v in graph.vertices]
        points = {i: vertex[i // 4] for i in range(dom.n_samples)}
        stage_log = build_pipeline(graph, dom, points).stage_log
        assert len(stage_log) == 513 and all(entry["changed"] for entry in stage_log[1:])
        assert len({n for rows in kernel_rows for n in rows}) > 1
        assert stage_log == stage_oracle.pipeline_digests(graph, dom, points)[0]


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
