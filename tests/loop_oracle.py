"""The per-simplex and per-sample loops that the distinct-image checks
replaced, kept as test oracles: the maximal-simplex walk, the simpliciality
check and the subdivision-compatibility check, one lookup per simplex; the
convex transform's edge checks, one edge at a time; and the flood stage's
preimage and changed count, one sample at a time."""

from itertools import combinations

from vrclosure import CertificateFailure


def maximal_simplices(k):
    """Simplices that are a face of no other, top dimension first."""
    covered = set()
    for d in range(k.dim_cap, -1, -1):
        level = k.simplices(d)
        yield from (s for s in level if s not in covered)
        covered = {face for s in level for face in combinations(s, d)}


def check_simplicial(m):
    """True iff the image of every maximal source simplex is a target simplex."""
    for s in maximal_simplices(m.source):
        if not m.target.has_simplex(m.image_simplex(s)):
            return False
    return True


def sd_compatibility(m1, m2, face_vertex):
    """For each maximal chain of ``m2.source``, its m2-images together with
    the m1-images of its largest face must form a target simplex."""
    target = m1.target
    face_of = dict(zip(face_vertex, m1.source.all_simplices()))
    for chain in maximal_simplices(m2.source):
        union = {m2.vertex_images[v] for v in chain}
        union.update(m1.vertex_images[v] for v in face_of[chain[-1]])
        if not target.has_simplex(target.sort_simplex(union)):
            return False
    return True


def convex_edge_failure(f, triangulation, delta):
    """The convex transform's first failing edge, checked edge by edge with
    the length first, or None when every edge passes."""
    edges = triangulation.simplices(1)
    for (u, w), length in zip(edges, f.domain.edge_lengths(edges).tolist()):
        if length >= delta:
            return CertificateFailure(
                "convex transform",
                (u, w),
                (f.values[u], f.values[w]),
                f"edge length {length:g} is not below delta {delta:g}",
            )
        if not f.target.are_adjacent(f.values[u], f.values[w]):
            return CertificateFailure(
                "convex transform",
                (u, w),
                (f.values[u], f.values[w]),
                "triangulation edge does not map to a clique",
            )
    return None


def preimage(f, v):
    return tuple(i for i in range(f.domain.n_samples) if f.values[i] == v)


def changed(before, after):
    """Samples whose value differs between two maps on the same domain."""
    return sum(1 for i in range(before.domain.n_samples) if after.values[i] != before.values[i])
