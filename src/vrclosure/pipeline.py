"""End-to-end pipeline: discretize, flood, certify, subdivide, convexify,
and measure the induced map on H1.

``build_pipeline`` returns the intermediate artifacts for inspection;
``run_pipeline`` wraps it into a plain report dict whose canonical
serialization is byte-identical for fixed inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np

from .complex import SimplicialComplex, SimplicialMap, vietoris_rips
from .graph import Graph
from .homology import induced_h1
from .realization import BaryPoint, subdivision_depth_for_mesh
from .transform import (
    CliqueCertificate,
    DiscreteMap,
    SampledDomain,
    check_sample_budget,
    clique_certificate,
    convex_transform,
    discrete_modify,
    flood_stages,
    subdivide_domain,
)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: bytes hashed per kernel call: one chunk of a text, or a batch of texts as
#: padded rows.  A call costs about a hundred numpy calls whatever its
#: length, so calls must be long to pay for them: at 2**12 bytes the lanes
#: are no faster than eight per-byte xor accumulates.  The power table below
#: holds 8 bytes per chunk byte (256 KB), and a call allocates about 13
#: bytes per byte
FNV_CHUNK = 1 << 15

#: FNV_PRIME ** (k + 1) mod 2**64 at index k; uint64 products wrap
_FNV_POWERS = np.full(FNV_CHUNK, FNV_PRIME, dtype=np.uint64)
np.cumprod(_FNV_POWERS, out=_FNV_POWERS)
_FNV_PRIME_LOW = np.uint8(FNV_PRIME & 0xFF)
#: byte lanes of a little-endian uint64 word: 1 in each byte
_LANES = np.uint64(0x0101010101010101)


def canonical_json(obj) -> str:
    """Sorted-key, compact JSON; the single canonical serialization.  Reports
    are trees, so the encoder skips its reference-cycle bookkeeping."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      check_circular=False)


def _fnv_rows(raws: Sequence, h: int = FNV_OFFSET) -> list:
    """The 64-bit FNV-1a states after each byte string of ``raws`` from the
    state ``h``, hashed as the rows of one array: each row padded with zero
    bytes to the longest's whole words, ``FNV_CHUNK`` bytes at most in all.

    Exact, without a loop over bytes.  The xor with byte b only changes the
    state's low byte l, so it adds d = (l ^ b) - l, and after m bytes the
    state is P**m * h + sum(P**(m - i) * d_i) mod 2**64: one uint64 dot
    product.  The low bytes follow l' = (l ^ b) * P mod 256, where bit j of
    l' is bit j of l ^ b xor a function of its lower bits, so once the lower
    bits of every l are known, bit j is a prefix xor: eight passes, one per
    bit.  Each pass runs in the byte lanes of uint64 words: bit j of each
    byte moved to the lane's bit 0, one multiply by 0x0101...01 sums each
    word's lanes up to every lane (at most 8, so no lane carries into the
    next), and each word's total, accumulated over the words before it in
    its row, is broadcast into its lanes; the parity of a lane is its prefix
    xor.  A row's low bytes depend only on the bytes before them, so its
    padding, which comes after its text, never reaches the bytes its dot
    reads.  Every operand is a numpy uint64, which numpy 1.x and 2.x both
    keep unsigned and wrap mod 2**64.
    """
    lengths = list(map(len, raws))
    words = max(1, -(-max(lengths) // 8))
    # data, the low bytes, their step and a word of lane sums, per row
    scratch = np.zeros((4, len(raws), 8 * words), dtype=np.uint8)
    data, low, step, _ = scratch
    for row, raw in zip(data, raws):
        row[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    low[:, 0] = h & 0xFF
    data_w, low_w, step_w, before = scratch.view("<u8")
    total = np.empty((len(raws), words), dtype="<u8")
    for j in range(8):
        np.bitwise_xor(low_w, data_w, out=step_w)
        np.multiply(step, _FNV_PRIME_LOW, out=step)
        # with bits j and up of low[:, 1:] still 0, bit j of step[:, i] is
        # bit j of low[:, i + 1] xor low[:, i]; low[:, 0] is whole, so the
        # prefix xor of step[:, :i] is bit j of low[:, i] itself
        np.right_shift(step_w, np.uint64(j), out=step_w)
        step_w &= _LANES
        step_w *= _LANES  # lane k: how many of lanes 0..k have the bit
        np.right_shift(step_w, np.uint64(56), out=total)
        np.bitwise_xor.accumulate(total, axis=1, out=total)  # bit 0: parity so far
        np.left_shift(step_w, np.uint64(8), out=before)  # lanes 0..k-1
        total *= _LANES
        before[:, 1:] ^= total[:, :-1]
        before &= _LANES
        before <<= np.uint64(j)
        low_w |= before
    d = (low ^ data).astype(np.uint64)
    d -= low  # a negative difference wraps mod 2**64
    # byte i of m adds d_i * P**(m - i): the powers dotted with d reversed
    return [(int(_FNV_POWERS[m - 1]) * h + int(np.dot(_FNV_POWERS[:m], row[m - 1 :: -1]))) & _MASK64
            if m else h for row, m in zip(d, lengths)]


def _fnv_chunks(raw: bytes) -> int:
    """The FNV-1a state after ``raw``, one row of ``FNV_CHUNK`` bytes a kernel
    call, each chunk starting from the state the one before left."""
    h = FNV_OFFSET
    for start in range(0, len(raw), FNV_CHUNK):
        (h,) = _fnv_rows([memoryview(raw)[start : start + FNV_CHUNK]], h)
    return h


def fnv1a64(text: str) -> str:
    """64-bit FNV-1a digest of a string's UTF-8 bytes, as fixed-width hex:
    the one-row case of the kernel, in chunks of ``FNV_CHUNK`` bytes."""
    return f"{_fnv_chunks(text.encode('utf-8')):016x}"


class _DigestQueue:
    """FNV-1a digests of texts hashed as rows of shared kernel calls.

    ``add`` queues a text and returns the index its digest takes in the list
    ``flush`` returns.  Whenever the next text would take the queue's rows,
    each padded to the longest's whole words, past ``FNV_CHUNK`` bytes, the
    queue is hashed first, in one kernel call; a longer text is then hashed
    alone, in chunks.  The kernel's scratch is that of one chunk, and a run
    pays the kernel's fixed cost about once per ``FNV_CHUNK`` bytes of text,
    not once per text.
    """

    def __init__(self):
        self.digests, self.queue, self.width = [], [], 0

    def add(self, text: str) -> int:
        raw = text.encode("utf-8")
        width = 8 * max(1, -(-len(raw) // 8))
        if self.queue and (len(self.queue) + 1) * max(self.width, width) > FNV_CHUNK:
            self.flush()
        self.queue.append(raw)
        self.width = max(self.width, width)
        return len(self.digests) + len(self.queue) - 1

    def flush(self) -> list:
        """The digests of every text added so far, in order."""
        if len(self.queue) > 1:
            states = _fnv_rows(self.queue)
        else:
            states = list(map(_fnv_chunks, self.queue))
        self.digests += [f"{h:016x}" for h in states]
        self.queue, self.width = [], 0
        return self.digests


@lru_cache(maxsize=4)
def _sample_keys(n: int) -> tuple:
    """Samples 0..n-1 in the string order of their JSON keys, and each key
    with its colon, after a comma but the first: the layout ``canonical_json``
    gives a map keyed by samples."""
    order = np.array(sorted(range(n), key=str), dtype=np.intp)
    order.flags.writeable = False
    keys = [f',"{i}":' for i in order.tolist()]
    keys[0] = keys[0][1:]
    return order, tuple(keys)


def _members(keys: tuple, values) -> str:
    """The members of a JSON object: each key text followed by its value text."""
    parts = [None] * (2 * len(keys))
    parts[0::2] = keys
    parts[1::2] = values
    return "".join(parts)


@lru_cache(maxsize=4)
def _vertex_tokens(graph: Graph) -> tuple:
    """Each vertex's label as ``canonical_json`` writes ``str(label)``, in
    vertex order; cached per graph object, whose labels never change."""
    return tuple(map(encode_basestring_ascii, map(str, graph.vertices)))


def _map_text(f: DiscreteMap) -> str:
    """The canonical JSON of ``{"base": str(base), "values": {str(i):
    str(value)}}``, written directly from the value indices: one cached token
    per vertex, escaped as ``canonical_json`` escapes strings."""
    order, keys = _sample_keys(f.domain.n_samples)
    tokens = _vertex_tokens(f.target)
    body = _members(keys, map(tokens.__getitem__, f.codes[order].tolist()))
    return f'{{"base":{tokens[f.base_code]},"values":{{{body}}}}}'


def digest_map(f: DiscreteMap) -> str:
    """``fnv1a64`` of the map's canonical JSON."""
    return fnv1a64(_map_text(f))


def _radii_text(cert: CliqueCertificate) -> str:
    """``canonical_json(cert.to_json_dict())`` for radii keyed by the samples
    0..n-1, as ``clique_certificate`` builds them, written directly: keys in
    string order, the numbers from one canonical list, whose separators no
    number contains."""
    order, keys = _sample_keys(len(cert.radii))
    numbers = canonical_json([cert.delta, *map(cert.radii.__getitem__, order.tolist())])
    delta, *radii = numbers[1:-1].split(",")
    body = _members(keys, radii)
    return f'{{"delta":{delta},"radii":{{{body}}}}}'


def digest_radii(cert: CliqueCertificate) -> str:
    """``fnv1a64(canonical_json(cert.to_json_dict()))``."""
    return fnv1a64(_radii_text(cert))


@dataclass
class PipelineArtifacts:
    """Everything the pipeline produced, stage by stage."""

    discrete: DiscreteMap
    flooded: DiscreteMap
    stage_log: list
    certificate: CliqueCertificate
    required_depth: int
    depth: int
    final_domain: SampledDomain
    final_map: DiscreteMap
    simplicial_map: SimplicialMap
    target: SimplicialComplex
    #: hashed with the run's last stages; left None by other builders
    radii_digest: str | None = None
    final_digest: str | None = None


def build_pipeline(
    graph: Graph,
    domain: SampledDomain,
    sample_points: Mapping[int, BaryPoint],
    extra_subdivisions: int = 0,
) -> PipelineArtifacts:
    """Run every stage and keep the intermediate objects.

    Raises ``CertificateFailure`` when a finite continuity certificate fails;
    the exception names the stage and the offending sample pair.  Raises
    ``TooManySamples`` before any flood when ``extra_subdivisions`` would
    refine the domain past ``MAX_SAMPLES``, and before any subdivision when
    the chosen depth would.

    Stage texts are queued and hashed in batches (``_DigestQueue``), and the
    last batch, with the radii and the final map, after ``convex_transform``
    passes: a map that fails its certificate never hashes it.
    """
    counts = domain.triangulation.counts()
    check_sample_budget(counts, extra_subdivisions)
    f0 = discrete_modify(sample_points, domain, graph)
    queue = _DigestQueue()
    digest = queue.add(_map_text(f0))  # the index of the digest, until flushed
    stage_log = [{"stage": "discrete_modify", "digest": digest, "changed": 0}]
    current = f0
    for v, radii, flooded in flood_stages(f0):
        changed = int(np.count_nonzero(flooded.codes != current.codes))
        if changed:
            digest = queue.add(_map_text(flooded))
        entry = {"stage": f"flood:{v}", "preimage": len(radii),
                 "changed": changed, "digest": digest}
        if radii:
            entry["min_radius"] = min(radii.values())
        stage_log.append(entry)
        current = flooded

    cert = clique_certificate(current)

    mesh = domain.max_simplex_diameter()
    dim = domain.triangulation.dimension()
    required = subdivision_depth_for_mesh(dim, mesh, cert.delta)
    depth = max(required, extra_subdivisions)
    check_sample_budget(counts, depth)

    f_final = current  # unrefined, the final map is the flooded one
    if depth:
        cur_domain, cur_values = domain, current.values
        for _ in range(depth):
            cur_domain, cur_values, _fv = subdivide_domain(cur_domain, cur_values)
        f_final = DiscreteMap(cur_domain, graph, cur_values, current.base_value)
    triangulation = f_final.domain.triangulation

    # headroom for carrier unions in the subdivision-compatibility check
    cap = max(2, 2 * triangulation.dimension() + 1)
    target = vietoris_rips(graph, cap)
    m = convex_transform(f_final, triangulation, cert, target)

    radii_at = queue.add(_radii_text(cert))
    final_at = queue.add(_map_text(f_final)) if depth else digest
    digests = queue.flush()
    for entry in stage_log:
        entry["digest"] = digests[entry["digest"]]
    return PipelineArtifacts(
        discrete=f0,
        flooded=current,
        stage_log=stage_log,
        certificate=cert,
        required_depth=required,
        depth=depth,
        final_domain=f_final.domain,
        final_map=f_final,
        simplicial_map=m,
        target=target,
        radii_digest=digests[radii_at],
        final_digest=digests[final_at],
    )


def sd_compatibility(m1, m2, face_vertex: Sequence, grid_steps: int = 0) -> bool:
    """Exact common-carrier check between a map and its subdivision refinement.

    ``m2.source`` must be sd(``m1.source``) with vertex ``face_vertex[i]`` at
    the barycenter of the i-th face of ``all_simplices()`` and smaller faces
    first, as ``subdivide_domain`` and ``subdivision_on`` build it.
    Its maximal simplices are the chains F0 < ... < Fe = s, s a maximal
    e-simplex of ``m1.source``: its level-e chains ending at s's vertex.
    Every point lies in one, and its two image carriers lie in U = m2(chain)
    plus m1(s), which interior points reach; so the maps share carriers iff
    every such U, a row of image codes, is a target simplex.  ``grid_steps``
    is unused and kept only for positional callers.
    """
    target, coarse, fine = m1.target, m1.source, m2.source
    if target != m2.target:
        raise ValueError("maps have different target complexes")
    start = 0
    for e, count in enumerate(coarse.counts()):
        maximal = np.ones(count, dtype=bool)  # by downward closure: a facet of no (e+1)-simplex
        if e < coarse.dim_cap:
            maximal[coarse.facets(e + 1).ravel()] = False
        tops = np.flatnonzero(maximal)
        heads = map(face_vertex.__getitem__, (start + tops).tolist())
        top_of = np.full(len(fine.vertices), -1, dtype=np.intp)  # the top s a chain ends at
        top_of[np.fromiter(map(fine.vertex_index.__getitem__, heads), np.intp, len(tops))] = tops
        chains = fine.rows[e]
        top = top_of[chains[:, -1]]
        chains, top = chains[top >= 0], top[top >= 0]
        if not target.has_simplices(np.hstack([m2.codes[chains], m1.codes[coarse.rows[e][top]]])):
            return False
        start += count
    return True


def refine_once(art: PipelineArtifacts) -> tuple:
    """Subdivide the final triangulation once more and rebuild the convex map.

    Returns ``(m2, face_vertex)`` for compatibility checks against
    ``art.simplicial_map``.
    """
    dom2, vals2, face_vertex = subdivide_domain(art.final_domain, art.final_map.values)
    f2 = DiscreteMap(dom2, art.final_map.target, vals2, art.final_map.base_value)
    m2 = convex_transform(f2, dom2.triangulation, art.certificate, art.target)
    return m2, face_vertex


def run_pipeline(
    graph: Graph,
    domain: SampledDomain,
    sample_points: Mapping[int, BaryPoint],
    extra_subdivisions: int = 0,
    check_sd: bool = False,
) -> dict:
    """Run the full pipeline and return the per-stage report dict.

    With ``check_sd`` the final map is refined once more and checked for
    subdivision compatibility.  That round is refused before any flood when
    the domain refined ``extra_subdivisions + 1`` times is too big, since the
    pipeline chooses at least ``extra_subdivisions``; otherwise the refining
    ``subdivide_domain`` refuses it, before ``induced_h1`` runs.
    """
    if check_sd:
        check_sample_budget(domain.triangulation.counts(), extra_subdivisions + 1)
    art = build_pipeline(graph, domain, sample_points, extra_subdivisions)
    if check_sd:
        sd_compatible = sd_compatibility(art.simplicial_map, *refine_once(art))
    ih1 = induced_h1(art.simplicial_map)
    report = {
        "graph": {"vertices": len(graph.vertices), "edges": len(graph.edge_keys)},
        "domain": {
            "samples": domain.n_samples,
            "triangulation": domain.triangulation.counts(),
            "basepoints": list(domain.basepoints),
            "eps_net": domain.eps_net,
        },
        "stages": art.stage_log,
        "certificate": {
            "delta": art.certificate.delta,
            "radii_digest": art.radii_digest,
        },
        "depth": {"required": art.required_depth, "chosen": art.depth},
        "simplicial": True,  # induced_h1 refuses a map that is not simplicial
        "h1": {
            "rank": ih1.rank,
            "source_betti1": ih1.source_betti1,
            "target_betti1": ih1.target_betti1,
        },
        "final_digest": art.final_digest,
    }
    if check_sd:
        report["sd_compatible"] = sd_compatible
    return report
