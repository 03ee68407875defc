"""Reference for knot.project: the per-pair Python loops it replaced.

Each genericity check runs pair by pair in the order the vectorized kernel
must reproduce, so the two can be compared case by case: the same Diagram,
or the same ConstructionError message.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from curvebound import ConstructionError, Crossing, Diagram, GeometryError, knot
from curvebound.knot import COINCIDENCE_TOL, DEPTH_TOL, PARALLEL_TOL, PARAM_TOL


def loop_project(curve, direction) -> Diagram:
    """The pairwise-loop projection that knot.project vectorizes."""
    knot._check_input(curve)
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise GeometryError("projection direction must be nonzero")
    d = d / nd

    ref = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = ref - np.dot(ref, d) * d
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)

    v = curve.vertices
    k = curve.k
    p2 = v @ np.stack([e1, e2], axis=-1)   # (k, 2) plane images
    depth = v @ d
    scale = float(np.max(np.ptp(p2, axis=0))) or 1.0

    seg2 = np.roll(p2, -1, axis=0) - p2
    len2 = np.linalg.norm(seg2, axis=-1)
    len3 = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=-1)
    if np.any(len2 < PARALLEL_TOL * len3):
        raise ConstructionError("a segment is nearly parallel to the direction")

    for j in range(k):
        a, b, u = p2[j], p2[(j + 1) % k], seg2[j]
        for i in range(k):
            if i in (j, (j + 1) % k):
                continue
            t = np.clip(np.dot(p2[i] - a, u) / np.dot(u, u), 0.0, 1.0)
            if np.linalg.norm(a + t * u - p2[i]) < COINCIDENCE_TOL * scale:
                raise ConstructionError("a vertex image lies on a segment image")

    crossings_raw = []   # (seg_i, s, seg_j, t, depth_i, depth_j)
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                continue
            p, u = p2[i], seg2[i]
            q, w = p2[j], seg2[j]
            det = u[0] * w[1] - u[1] * w[0]
            r = q - p
            if abs(det) < 1e-12 * len2[i] * len2[j]:
                if _seg2d_distance(p, p + u, q, q + w) < COINCIDENCE_TOL * scale:
                    raise ConstructionError("near-parallel overlapping segment images")
                continue
            s = (r[0] * w[1] - r[1] * w[0]) / det
            t = (r[0] * u[1] - r[1] * u[0]) / det
            if not (-PARAM_TOL < s < 1.0 + PARAM_TOL and -PARAM_TOL < t < 1.0 + PARAM_TOL):
                continue
            if min(s, 1.0 - s, t, 1.0 - t) < PARAM_TOL:
                raise ConstructionError("crossing too close to a vertex image")
            di = depth[i] + s * (depth[(i + 1) % k] - depth[i])
            dj = depth[j] + t * (depth[(j + 1) % k] - depth[j])
            if abs(di - dj) < DEPTH_TOL * scale:
                raise ConstructionError("crossing depths not separated")
            crossings_raw.append((i, s, j, t, di, dj))

    by_segment: dict[int, list[float]] = {}
    for i, s, j, t, _, _ in crossings_raw:
        by_segment.setdefault(i, []).append(s)
        by_segment.setdefault(j, []).append(t)
    for params in by_segment.values():
        params.sort()
        for a, b in zip(params[:-1], params[1:]):
            if b - a < PARAM_TOL:
                raise ConstructionError("triple point in projection")

    n = len(crossings_raw)
    if n == 0:
        return Diagram([], 0, [])

    # traversal positions: (segment, parameter); under-passages cut the arcs
    unders = []   # (position, crossing_id)
    overs = []    # (position, crossing_id)
    for cid, (i, s, j, t, di, dj) in enumerate(crossings_raw):
        if di > dj:
            overs.append(((i, s), cid))
            unders.append(((j, t), cid))
        else:
            overs.append(((j, t), cid))
            unders.append(((i, s), cid))
    unders.sort(key=lambda e: e[0])
    under_pos = [e[0] for e in unders]

    def arc_of(pos) -> int:
        # arc a runs from under event a to under event a+1 (cyclically)
        idx = bisect_right(under_pos, pos) - 1
        return idx % n

    crossings = []
    for cid, (i, s, j, t, di, dj) in enumerate(crossings_raw):
        over_pos, under_pos_c = ((i, s), (j, t)) if di > dj else ((j, t), (i, s))
        a = under_pos.index(under_pos_c)
        under_out = a
        under_in = (a - 1) % n
        over_arc = arc_of(over_pos)
        useg = under_pos_c[0]
        oseg = over_pos[0]
        cross_z = seg2[oseg][0] * seg2[useg][1] - seg2[oseg][1] * seg2[useg][0]
        crossings.append(Crossing(over_arc, under_in, under_out, 1 if cross_z > 0 else -1))

    events = sorted(
        [(pos, cid, 1) for pos, cid in overs] + [(pos, cid, -1) for pos, cid in unders]
    )
    gauss = [sign * (cid + 1) for _, cid, sign in events]
    return Diagram(crossings, n, gauss)


def _seg2d_distance(a0, a1, b0, b1) -> float:
    best = np.inf
    for p, q, r in ((a0, b0, b1), (a1, b0, b1), (b0, a0, a1), (b1, a0, a1)):
        u = r - q
        t = np.clip(np.dot(p - q, u) / max(np.dot(u, u), 1e-30), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(q + t * u - p)))
    return best
