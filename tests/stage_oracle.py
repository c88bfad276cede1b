"""The pipeline's flood stages on a value dict, as they ran before the maps
were int-coded, kept as a test oracle: each stage reads the preimage, the
scan columns and the avoid mask from the dict, copies the dict to overwrite
it, counts the changed samples one at a time, and digests the canonical
JSON of the whole map with the FNV-1a byte loop; the certificate's radii
are digested the same way.  Its distances are numpy's own, rooted sums of
squared gaps, and it tests each ball and takes the cap's diameter itself."""

from itertools import repeat

import numpy as np

from vrclosure import CertificateFailure, DiscreteMap, clique_certificate, subdivide_domain
from vrclosure.pipeline import canonical_json
from vrclosure.realization import subdivision_depth_for_mesh, theta_on_graph

import digest_oracle
from helpers import oracle_distances

#: rows per block of distances, which keeps circle:2048 to a few MB
ROWS = 256


def distance_blocks(points, targets):
    """Yields ``(lo, block)``: the distances from ``points[lo : lo +
    len(block)]`` to each target.  numpy sums up to 7 squared gaps in the
    order of the product's kernel, so these are its distances bit for
    bit."""
    for lo in range(0, len(points), ROWS):
        yield lo, oracle_distances(points[lo : lo + ROWS], targets)


class ValueMap:
    """A map held as its value dict."""

    def __init__(self, domain, target, values, base_value):
        self.domain, self.target, self.values, self.base_value = domain, target, values, base_value

    def image_vertices(self):
        image = set(self.values.values())
        return tuple(v for v in self.target.vertices if v in image)

    def preimage(self, v):
        return tuple(i for i in range(self.domain.n_samples) if self.values[i] == v)


def stage_failure(f, v, y):
    """The failure of the samples coincident with preimage sample ``y``."""
    coords = f.domain.coords
    inside = oracle_distances(coords[[y]], coords)[0] <= 0.0
    closed = f.target.closed_neighborhood(v)
    stage = f"flood stage {v!r}"
    for z in np.flatnonzero(inside).tolist():
        if f.values[z] not in closed:
            return CertificateFailure(stage, (y, z), (v, f.values[z]), "coincident sample with non-adjacent value")
    a = next(b for b in f.domain.basepoints if inside[b])
    return CertificateFailure(stage, (y, a), (v, f.base_value), "preimage sample coincides with a basepoint")


def flood_scan(f, v, cap):
    """Maximal radii, at most ``cap``, and the covered mask of the stage at
    ``v``."""
    n = f.domain.n_samples
    covered = np.zeros(n, dtype=bool)
    preimage = f.preimage(v)
    if not preimage:
        return {}, covered
    values = [f.values[i] for i in range(n)]
    columns = np.flatnonzero([value is not v for value in values])
    closed = f.target.closed_neighborhood(v)
    avoid = ~np.array([value in closed for value in values], dtype=bool)
    if v != f.base_value:
        avoid[list(f.domain.basepoints)] = True
    avoid = avoid[columns]
    radii = {}
    coords = f.domain.coords
    for lo, block in distance_blocks(coords[np.asarray(preimage)], coords[columns]):
        rows = preimage[lo : lo + len(block)]
        reach = np.min(block, axis=1, where=avoid, initial=np.inf)
        failing = np.flatnonzero(reach <= 0.0)
        if failing.size:
            raise stage_failure(f, v, rows[int(failing[0])])
        r = np.minimum(reach, cap)
        radii.update(zip(rows, r.tolist()))
        covered[columns] |= (block < r[:, None] / 2.0).any(axis=0)
    return radii, covered


def digest_map(f):
    return digest_oracle.fnv1a64(canonical_json(digest_oracle.map_json_dict(f)))


def pipeline_digests(graph, domain, sample_points, extra_subdivisions=0):
    """``(stage_log, radii_digest, final_digest)`` of the pipeline run, or
    the ``CertificateFailure`` a stage or the certificate raises."""
    values = {i: theta_on_graph(graph, sample_points[i]) for i in range(domain.n_samples)}
    current = ValueMap(domain, graph, values, values[domain.basepoints[0] if domain.basepoints else 0])
    stage_log = [{"stage": "discrete_modify", "digest": digest_map(current), "changed": 0}]
    diameter = max(float(block.max()) for _, block in distance_blocks(domain.coords, domain.coords))
    cap = diameter / 2.0 if diameter > 0 else 1.0
    try:
        for v in current.image_vertices():
            radii, covered = flood_scan(current, v, cap)
            new_values = dict(current.values)
            if radii:
                new_values.update(zip(np.flatnonzero(covered).tolist(), repeat(v)))
            flooded = ValueMap(domain, graph, new_values, current.base_value)
            entry = {
                "stage": f"flood:{v}",
                "preimage": len(radii),
                "changed": sum(1 for i in range(domain.n_samples) if new_values[i] != current.values[i]),
                "digest": digest_map(flooded),
            }
            if radii:
                entry["min_radius"] = min(radii.values())
            stage_log.append(entry)
            current = flooded
        cert = clique_certificate(DiscreteMap(domain, graph, current.values, current.base_value))
    except CertificateFailure as exc:
        return exc
    radii_digest = digest_oracle.fnv1a64(canonical_json(cert.to_json_dict()))
    mesh = domain.max_simplex_diameter()
    required = subdivision_depth_for_mesh(domain.triangulation.dimension(), mesh, cert.delta)
    final_domain, final_values = domain, current.values
    for _ in range(max(required, extra_subdivisions)):
        final_domain, final_values, _ = subdivide_domain(final_domain, final_values)
    final = ValueMap(final_domain, graph, final_values, current.base_value)
    return stage_log, radii_digest, digest_map(final)
