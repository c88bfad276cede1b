"""The subdivision layer as it was before sd(K) was enumerated on its final
names, kept as test oracles: the barycentric subdivision that sorts its
faces and coface lists, the rename of its chains to sample indices, the
subdivision-compatibility check over the (d+1)! orderings of each maximal
simplex, and the simpliciality check over every source simplex."""

from itertools import combinations, permutations

from vrclosure import SimplicialComplex


def sorted_barycentric_subdivision(k):
    """sd(K) on face tuples, faces and coface lists sorted by size, then by
    vertex indices."""
    return label_complex(*sorted_barycentric_levels(k), k.dim_cap)


def sorted_barycentric_levels(k):
    """``(vertices, levels)`` of sd(K): the face tuples, then each level's
    chains of face tuples."""
    faces = list(k.all_simplices())
    order_key = {s: (len(s), tuple(k.vertex_index[v] for v in s)) for s in faces}
    new_vertices = tuple(sorted(faces, key=order_key.__getitem__))
    cofaces = {s: [] for s in faces}
    for s in faces:
        for d in range(len(s) - 1):
            for face in combinations(s, d + 1):
                cofaces[face].append(s)
    for s in faces:
        cofaces[s].sort(key=order_key.__getitem__)
    by_dim = [[(s,) for s in new_vertices]]
    for _ in range(k.dim_cap):
        by_dim.append([chain + (big,) for chain in by_dim[-1] for big in cofaces[chain[-1]]])
    return new_vertices, by_dim


def label_complex(vertices, by_dim, dim_cap):
    """The complex whose levels are given as label tuples."""
    index = {v: i for i, v in enumerate(vertices)}
    rows = [[[index[v] for v in s] for s in level] for level in by_dim]
    return SimplicialComplex(vertices, rows, dim_cap)


def renamed_subdivision(domain):
    """``(triangulation, face_vertex)`` of one subdivision of a sampled
    domain: sd(K) on face tuples, each chain then renamed to sample indices
    (old samples keep theirs, new faces count up from n in sd's order);
    ``face_vertex`` lists the new names in sd's vertex order, K's face
    order."""
    sd = sorted_barycentric_subdivision(domain.triangulation)
    n = domain.n_samples
    new_faces = [face for face in sd.vertices if len(face) > 1]
    face_vertex = {face: face[0] for face in sd.vertices if len(face) == 1}
    face_vertex.update((face, n + i) for i, face in enumerate(new_faces))
    renamed = label_complex(
        sorted(face_vertex.values()),
        [
            [tuple(face_vertex[face] for face in chain) for chain in sd.simplices(d)]
            for d in range(sd.dim_cap + 1)
        ],
        sd.dim_cap,
    )
    return renamed, [face_vertex[face] for face in sd.vertices]


def permutation_sd_compatibility(m1, m2, face_vertex):
    """For each maximal simplex s of ``m1.source`` and each ordering of its
    vertices, m1(s) plus the m2-images of the chain's barycenters must be a
    target simplex; ``face_vertex[i]`` names the i-th face's barycenter."""
    target = m1.target
    source = m1.source
    face_vertex = dict(zip(source.all_simplices(), face_vertex))
    covered = set()
    for d in range(source.dimension(), -1, -1):
        for s in source.simplices(d):
            if s in covered:
                continue
            base = {m1.vertex_images[v] for v in s}
            for order in permutations(range(len(s))):
                union = set(base)
                for size in range(1, len(s) + 1):
                    face = tuple(s[i] for i in sorted(order[:size]))
                    union.add(m2.vertex_images[face_vertex[face]])
                if not target.has_simplex(target.sort_simplex(union)):
                    return False
        covered = {face for s in source.simplices(d) for face in combinations(s, d)}
    return True


def all_simplices_check_simplicial(m):
    """True iff every source simplex lands on a target simplex."""
    return all(m.target.has_simplex(m.image_simplex(s)) for s in m.source.all_simplices())


def maximal_by_definition(k):
    """The simplices of ``k`` that no other simplex strictly contains; a
    simplex containing s contains s's first vertex, so only those are read."""
    sets = [frozenset(s) for s in k.all_simplices()]
    containing = {}
    for a in sets:
        for v in a:
            containing.setdefault(v, []).append(a)
    return [s for s, a in zip(k.all_simplices(), sets) if not any(a < b for b in containing[s[0]])]
