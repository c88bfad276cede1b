"""Differential tests of the digest layer against the code it replaced: the
numpy FNV-1a kernel against the byte loop, ``digest_map``'s directly written
text against the JSON of the old ``to_json_dict``, ``cmd_build``'s spliced
report against the dict it used to encode twice, and ``from_simplices``'s
index-tuple sort against the per-simplex key sort."""

import random
from itertools import combinations

import pytest

from vrclosure import DiscreteMap, Graph, SimplicialComplex, subdivide_domain
from vrclosure.cli import complex_to_json, main, parse_edge_list
from vrclosure.complex import vietoris_rips
from vrclosure.domains import circle_domain, icosphere_domain
from vrclosure.pipeline import FNV_CHUNK, digest_map, fnv1a64

import digest_oracle
import graph_oracle

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
                got = SimplicialComplex.from_simplices(simplices, cap, vertices=vertices)
                want = graph_oracle.from_simplices(simplices, cap, vertices=vertices)
                assert got == want
                assert [list(map(type, s)) for s in got.all_simplices()] == [
                    list(map(type, s)) for s in want.all_simplices()
                ]

    def test_range_vertices_and_a_subset_of_them(self):
        faces = [(0, 11, 5), (0, 5, 1), (7, 2, 9)]
        for vertices in (range(12), [0, 1, 2, 5, 7, 9, 11]):
            got = SimplicialComplex.from_simplices(faces, 2, vertices=vertices)
            assert got == graph_oracle.from_simplices(faces, 2, vertices=vertices)

    @pytest.mark.parametrize("bad", [[(0, 0)], [(0, 9)], [(1, 2, 1)]])
    def test_invalid_simplices_are_refused(self, bad):
        with pytest.raises(ValueError):
            SimplicialComplex.from_simplices(bad, 2, vertices=range(3))
