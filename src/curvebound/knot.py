"""Polygonal knot detection via the diagram determinant.

A closed simple polygon in R^3 is projected along a generic direction to
a knot diagram; the determinant (the coloring-matrix minor, equal to the
Alexander polynomial's absolute value at -1) is 1 for the unknot and 3
for a trefoil.  Determinant 1 is reported as "no obstruction found", not
as a proof of unknottedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, GeometryError
from .polycurve import PAIR_BLOCK, PolygonalCurve, _nonadjacent_pairs
from .spaceform import Kind, SpaceForm, as_rng

PARALLEL_TOL = 1e-7
PARAM_TOL = 1e-9
COINCIDENCE_TOL = 1e-9
DEPTH_TOL = 1e-9

_PAIR_FAILURES = ("near-parallel overlapping segment images",
                  "crossing too close to a vertex image", "crossing depths not separated")


@dataclass
class Crossing:
    over_arc: int
    under_in_arc: int
    under_out_arc: int
    sign: int


@dataclass
class Diagram:
    crossings: list[Crossing]
    n_arcs: int
    gauss_code: list[int] = field(default_factory=list)

    def __post_init__(self):
        for c in self.crossings:
            for a in (c.over_arc, c.under_in_arc, c.under_out_arc):
                if not 0 <= a < max(self.n_arcs, 1):
                    raise GeometryError("crossing references an invalid arc")


def _check_input(curve: PolygonalCurve) -> None:
    if curve.space.kind is not Kind.EUCLIDEAN or curve.space.dim != 3:
        raise GeometryError("knot projection expects a curve in R^3")
    if not curve.closed:
        raise GeometryError("knot projection expects a closed curve")
    if curve.k < 3:
        raise GeometryError("need at least 3 vertices")


def project(curve: PolygonalCurve, direction) -> Diagram:
    """Orthogonal projection of a closed simple polygon to a knot diagram.

    The direction must be generic: no segment parallel to it, no vertex
    image on a non-incident segment image, all crossings transverse with
    parameters away from the endpoints, no triple points, and clear
    over/under depth separation.  Violations raise ConstructionError.
    """
    _check_input(curve)
    d = np.asarray(direction, dtype=float)
    nd = np.linalg.norm(d)
    if nd < 1e-12:
        raise GeometryError("projection direction must be nonzero")
    d = d / nd

    ref = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = ref - np.dot(ref, d) * d
    e1 /= np.linalg.norm(e1)
    e2 = np.array([d[1] * e1[2] - d[2] * e1[1], d[2] * e1[0] - d[0] * e1[2],
                   d[0] * e1[1] - d[1] * e1[0]])   # d x e1

    v = curve.vertices
    k = curve.k
    idx = np.arange(k)
    nxt = (idx + 1) % k
    p2 = v @ np.stack([e1, e2], axis=-1)   # (k, 2) plane images
    depth = v @ d
    rise = depth[nxt] - depth
    scale = float(np.max(np.ptp(p2, axis=0))) or 1.0

    seg2 = p2[nxt] - p2
    len2 = np.linalg.norm(seg2, axis=-1)
    len3 = np.linalg.norm(v[nxt] - v, axis=-1)
    if np.any(len2 < PARALLEL_TOL * len3):
        raise ConstructionError("a segment is nearly parallel to the direction")

    rows = max(PAIR_BLOCK // k, 1)
    for first in range(0, k, rows):   # vertex a against segment b, rows of vertices at a time
        block = idx[first:first + rows]
        off = (idx - block[:, None]) % k   # off[a, b] = b - a
        gap = _seg2d_gap(p2[block, None], p2, seg2)
        if np.any(gap[(off > 0) & (off < k - 1)] < COINCIDENCE_TOL * scale):
            raise ConstructionError("a vertex image lies on a segment image")

    # the first segment pair, in lexicographic order, that fails a check names the failure;
    # each crossing's over- and under-passage is a (segment, parameter) position
    passes = []
    for i, j in _nonadjacent_pairs(k, True):
        p, u, q, w = p2[i], seg2[i], p2[j], seg2[j]
        r = q - p
        det = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
        parallel = np.abs(det) < 1e-12 * len2[i] * len2[j]
        with np.errstate(divide="ignore", invalid="ignore"):   # det ~ 0 on parallel pairs
            s = (r[:, 0] * w[:, 1] - r[:, 1] * w[:, 0]) / det
            t = (r[:, 0] * u[:, 1] - r[:, 1] * u[:, 0]) / det
            di = depth[i] + s * rise[i]
            dj = depth[j] + t * rise[j]
            unseparated = np.abs(di - dj) < DEPTH_TOL * scale
        crossing = (~parallel & (-PARAM_TOL < s) & (s < 1.0 + PARAM_TOL)
                    & (-PARAM_TOL < t) & (t < 1.0 + PARAM_TOL))
        overlap = np.zeros_like(parallel)
        if parallel.any():   # each endpoint against the other segment of the pair
            ends = np.stack([p, p + u, q, q + w])[:, parallel]
            starts = ends[[2, 2, 0, 0]]
            apart = _seg2d_gap(ends, starts, ends[[3, 3, 1, 1]] - starts, 1e-30).min(axis=0)
            overlap[parallel] = apart < COINCIDENCE_TOL * scale
        near_vertex = np.minimum(np.minimum(s, 1.0 - s), np.minimum(t, 1.0 - t)) < PARAM_TOL
        failures = np.stack([overlap, crossing & near_vertex, crossing & unseparated])
        if failures.any():
            pair = failures.any(axis=0).argmax()
            raise ConstructionError(_PAIR_FAILURES[failures[:, pair].argmax()])
        passes += [((a, sa), (b, sb)) if da > db else ((b, sb), (a, sa)) for a, sa, b, sb, da, db
                   in zip(*(x[crossing].tolist() for x in (i, s, j, t, di, dj)))]
    n = len(passes)
    if n == 0:
        return Diagram([], 0, [])

    events = sorted([(over, cid, 1) for cid, (over, _) in enumerate(passes)]
                    + [(under, cid, -1) for cid, (_, under) in enumerate(passes)])
    for (pa, _, _), (pb, _, _) in zip(events, events[1:]):
        if pa[0] == pb[0] and pb[1] - pa[1] < PARAM_TOL:
            raise ConstructionError("triple point in projection")

    # arc a runs from under-passage a to under-passage a + 1 (cyclically); positions
    # are distinct past the triple-point check, so one pass ranks every passage
    over_arc, under_arc = [0] * n, [0] * n
    unders = 0
    for _, cid, sign in events:
        if sign > 0:
            over_arc[cid] = (unders - 1) % n
        else:
            under_arc[cid] = unders
            unders += 1
    crossings = []
    for cid, ((oseg, _), (useg, _)) in enumerate(passes):
        a = under_arc[cid]
        cross_z = seg2[oseg, 0] * seg2[useg, 1] - seg2[oseg, 1] * seg2[useg, 0]
        crossings.append(Crossing(over_arc[cid], (a - 1) % n, a, 1 if cross_z > 0 else -1))
    return Diagram(crossings, n, [sign * (cid + 1) for _, cid, sign in events])


def _dot2(x, y):
    """Dot products over the last axis, rounded as np.dot rounds one pair."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _seg2d_gap(p, q, u, floor=0.0):
    """Distances from plane points p to segments q + [0, 1] u, broadcast."""
    t = np.clip(_dot2(p - q, u) / np.maximum(_dot2(u, u), floor), 0.0, 1.0)
    x = q + t[..., None] * u - p
    return np.sqrt(_dot2(x, x))


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------


def _bareiss_det(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            pivot = next((r for r in range(col + 1, n) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[n - 1][n - 1]


def determinant(diagram: Diagram) -> int:
    """Knot determinant: |det| of an (n-1)x(n-1) minor of the coloring matrix.

    Row per crossing: 2 x_over - x_under_in - x_under_out (the Wirtinger
    presentation matrix at t = -1).  Diagrams with no crossings give 1.
    """
    n = len(diagram.crossings)
    if n == 0:
        return 1
    rows = []
    for c in diagram.crossings:
        row = [0] * diagram.n_arcs
        row[c.over_arc] += 2
        row[c.under_in_arc] -= 1
        row[c.under_out_arc] -= 1
        rows.append(row)
    minor = [row[: n - 1] for row in rows[: n - 1]]
    return abs(_bareiss_det(minor))


# ---------------------------------------------------------------------------
# drivers and reference curves
# ---------------------------------------------------------------------------


def random_projection(curve: PolygonalCurve, rng=0, retries: int = 100) -> Diagram:
    """Project along random directions until one is generic."""
    if retries < 1:
        raise GeometryError("retries must be >= 1")
    rng = as_rng(rng)
    last = None
    for _ in range(retries):
        d = rng.standard_normal(3)
        try:
            return project(curve, d)
        except ConstructionError as exc:
            last = exc
    raise ConstructionError(
        f"no generic projection direction found in {retries} tries: {last}"
    )


def knot_determinant(curve: PolygonalCurve, direction=None, rng=0,
                     retries: int = 100) -> int:
    """Determinant of the curve's knot type (projection-independent)."""
    if direction is not None:
        return determinant(project(curve, direction))
    return determinant(random_projection(curve, rng=rng, retries=retries))


def hexagonal_trefoil() -> PolygonalCurve:
    """A minimal-stick trefoil: the (2,3) torus parametrization
    (sin t + 2 sin 2t, cos t - 2 cos 2t, -sin 3t) sampled at six equally
    spaced parameters offset by pi/6 so consecutive vertices alternate
    between the planes z = -1 and z = +1."""
    t = np.pi / 6.0 + np.pi * np.arange(6) / 3.0
    verts = np.stack(
        [np.sin(t) + 2.0 * np.sin(2.0 * t),
         np.cos(t) - 2.0 * np.cos(2.0 * t),
         -np.sin(3.0 * t)],
        axis=1,
    )
    return PolygonalCurve(SpaceForm.euclidean(3), verts, closed=True)


def granny_curve() -> PolygonalCurve:
    """Connected sum of two hexagonal trefoils (12 sticks).

    The second summand is the first translated by +12 in x.  One edge is cut
    from each hexagon and the four loose ends are rejoined by two bridges:
    the forward bridge connects the right extreme of the first summand to
    the left extreme of the second, so its interior stays in the empty slab
    between them; the return bridge runs inside the plane y = 2, which meets
    either hexagon only at a single vertex."""
    t1 = hexagonal_trefoil().vertices
    t2 = t1 + np.array([12.0, 0.0, 0.0])
    a = [t1[i] for i in (1, 2, 3, 4, 5, 0)]   # cut edge 0 -> 1
    b = [t2[i] for i in (5, 0, 1, 2, 3, 4)]   # cut edge 4 -> 5
    verts = np.array(a + b)
    return PolygonalCurve(SpaceForm.euclidean(3), verts, closed=True)
