"""Piecewise geodesic curves: validation, turning angles, total curvature.

A polygonal curve is an ordered vertex list joined by minimizing geodesic
segments of its ambient space form.  Open curves are first class: endpoint
vertices carry no turning angle.  Total curvature is the sum of exterior
angles; a cusp (exterior angle pi) is reported as a flag, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NonUniqueGeodesicError
from .spaceform import (
    ANTIPODAL_TOL,
    Isometry,
    Kind,
    Point,
    SpaceForm,
    _dist_can,
    _half_angle,
    _mink_dot,
    dist_arrays,
    embed,
    vertex_angle_arrays,
)

SIMPLE_TOL = 1e-9
MINIMIZING_TOL = 1e-8


def _segments(v: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each segment of the polygons v (..., k, d), along
    axis -2: a closed polygon's last segment wraps to vertex 0."""
    if closed:
        return v, np.roll(v, -1, axis=-2)
    return v[..., :-1, :], v[..., 1:, :]


def _corners(v: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex, previous and next vertex of each corner of the polygons v
    (..., k, d), along axis -2: an open polygon's endpoints have no corner."""
    if closed:
        return v, np.roll(v, 1, axis=-2), np.roll(v, -1, axis=-2)
    return v[..., 1:-1, :], v[..., :-2, :], v[..., 2:, :]


@dataclass
class PolygonalCurve:
    """Ordered vertices in model coords, joined by geodesic segments."""

    space: SpaceForm
    vertices: np.ndarray  # (k, ambient_dim) in space.model coordinates
    closed: bool = True

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if self.vertices.shape[-1] != self.space.ambient_dim:
            raise GeometryError(
                f"vertex coords have length {self.vertices.shape[-1]}, "
                f"expected {self.space.ambient_dim}"
            )

    @classmethod
    def from_points(cls, points: list[Point], closed: bool = True) -> "PolygonalCurve":
        if not points:
            raise GeometryError("empty vertex list")
        space = points[0].space
        for p in points[1:]:
            if p.space != space:
                raise GeometryError("all vertices must share one space form")
        return cls(space, np.stack([p.coords for p in points]), closed)

    @property
    def k(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_segments(self) -> int:
        return self.k if self.closed else self.k - 1

    def point(self, i: int) -> Point:
        return Point(self.vertices[i], self.space)

    def segment(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        j = (i + 1) % self.k
        return self.vertices[i], self.vertices[j]

    def segment_lengths(self) -> np.ndarray:
        return dist_arrays(self.space, *_segments(self.vertices, self.closed))

    def length(self) -> float:
        return float(np.sum(self.segment_lengths()))

    def apply_isometry(self, iso: Isometry) -> "PolygonalCurve":
        return PolygonalCurve(self.space, iso.apply(self.vertices), self.closed)


@dataclass
class SphericalPolygon:
    """Unit vectors joined by minor great-circle arcs."""

    vertices: np.ndarray  # (k, n) unit vectors
    closed: bool = True

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        norms = np.linalg.norm(self.vertices, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise GeometryError("spherical polygon vertices must be unit vectors")


@dataclass
class SimplicityReport:
    simple: bool
    violations: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# segment/segment and point/segment distances
# ---------------------------------------------------------------------------


def _segseg_euclid(p1, q1, p2, q2) -> np.ndarray:
    """Min distance between segments [p1,q1] and [p2,q2]; batch friendly."""
    p1, q1, p2, q2 = (np.asarray(a, dtype=float) for a in (p1, q1, p2, q2))
    d1 = q1 - p1
    d2 = q2 - p2
    r = p1 - p2
    a = np.sum(d1 * d1, axis=-1)
    e = np.sum(d2 * d2, axis=-1)
    f = np.sum(d2 * r, axis=-1)
    c = np.sum(d1 * r, axis=-1)
    b = np.sum(d1 * d2, axis=-1)
    den = a * e - b * b
    s = np.where(den > 1e-30, (b * f - c * e) / np.where(den > 1e-30, den, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = np.where(e > 1e-30, (b * s + f) / np.where(e > 1e-30, e, 1.0), 0.0)
    t_clamped = np.clip(t, 0.0, 1.0)
    s = np.where(
        t != t_clamped,
        np.clip(np.where(a > 1e-30, (b * t_clamped - c) / np.where(a > 1e-30, a, 1.0), 0.0), 0.0, 1.0),
        s,
    )
    t = t_clamped
    x = p1 + s[..., None] * d1
    y = p2 + t[..., None] * d2
    return np.linalg.norm(x - y, axis=-1)


def _point_seg_euclid(p, a, b) -> np.ndarray:
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    d = b - a
    den = np.sum(d * d, axis=-1)
    t = np.clip(np.sum((p - a) * d, axis=-1) / np.where(den > 1e-30, den, 1.0), 0.0, 1.0)
    return np.linalg.norm(a + t[..., None] * d - p, axis=-1)


# Curved segments run in canonical coords.  With <.,.> the Euclidean product
# on the sphere and the Minkowski product on the hyperboloid, every point a has
# <a, a> = K, the curvature (+1 or -1), and the segment [a, b] of length L is
# cos(s) a + sin(s) u (sphere) or cosh(s) a + sinh(s) u (hyperboloid), s in
# [0, L], for the unit tangent u at a towards b.


_CURVATURE = {Kind.SPHERE: 1.0, Kind.HYPERBOLIC: -1.0}


def _inner(kind: Kind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kind is Kind.SPHERE:
        return np.sum(a * b, axis=-1)
    return _mink_dot(a, b)


def _frame_can(kind: Kind, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent u at a towards b and length L of each segment [a, b].

    A segment of length 0 gets u = 0, which still gives the right distances.
    """
    ell = _dist_can(kind, a, b)
    if kind is Kind.SPHERE and np.any(np.pi - ell < ANTIPODAL_TOL):
        raise NonUniqueGeodesicError("geodesic between near-antipodal points is not unique")
    d = b - a
    # b - <a, b> a / K, formed from d = b - a so short segments keep their digits
    w = d + (0.5 * _CURVATURE[kind] * _inner(kind, d, d))[..., None] * a
    nw = np.sqrt(np.maximum(_inner(kind, w, w), 0.0))
    return w / np.where(nw > 0.0, nw, 1.0)[..., None], ell


def _along(kind: Kind, a: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    s = s[..., None]
    if kind is Kind.SPHERE:
        return np.cos(s) * a + np.sin(s) * u
    return np.cosh(s) * a + np.sinh(s) * u


def _point_seg_can(kind: Kind, p, a, b) -> np.ndarray:
    """Distance from p to the segment [a, b], canonical coords; all broadcast.

    The foot of p on the full geodesic sits at angle atan2(y, x) on the sphere
    and at tanh s = y / x on the hyperboloid, with x = K <p, a>, y = <p, u>.
    When it lies on the segment the distance comes from the part n of p
    normal to the geodesic plane: atan2(|n|, |(x, y)|) on the sphere and
    arcsinh |n| on the hyperboloid, both accurate at separations far below
    the on-curve tolerance, where arccosh(sqrt(x^2 - y^2)) returns 0 at 1e-8.
    Otherwise the nearer endpoint is closest.
    """
    if kind is Kind.EUCLIDEAN:
        return _point_seg_euclid(p, a, b)
    p = np.asarray(p, dtype=float)
    u, ell = _frame_can(kind, a, b)
    x = _CURVATURE[kind] * _inner(kind, p, a)
    y = _inner(kind, p, u)
    n = p - x[..., None] * a - y[..., None] * u
    if kind is Kind.SPHERE:
        theta = np.arctan2(y, x)
        inside = (theta >= 0.0) & (theta <= ell)
        foot = np.arctan2(np.linalg.norm(n, axis=-1), np.hypot(x, y))
    else:
        inside = (y >= 0.0) & (y <= x * np.tanh(ell))
        foot = np.arcsinh(np.sqrt(np.maximum(_mink_dot(n, n), 0.0)))
    ends = np.minimum(_dist_can(kind, p, a), _dist_can(kind, p, b))
    return np.where(inside, foot, ends)


def _recentre(a0, a1, b0, b1) -> tuple[np.ndarray, ...]:
    """The four hyperboloid points moved by the boost that takes the midpoint
    of [a0, a1] to (1, 0, ..., 0).

    Far from the origin hyperboloid coordinates are large and the products
    that project onto a geodesic plane cancel their leading digits; after the
    boost the pair sits around the origin.  With w the spatial part of the
    midpoint and c0 = sqrt(1 + |w|^2) the boost is
    x -> (c0 x0 - <w, x'>, x' - (x0 - <w, x'> / (1 + c0)) w), and each image is
    scaled back onto the hyperboloid.
    """
    mid = a0 + a1
    w = mid[..., 1:] / np.sqrt(-_mink_dot(mid, mid))[..., None]
    c0 = np.sqrt(1.0 + np.sum(w * w, axis=-1, keepdims=True))
    moved = []
    for x in (a0, a1, b0, b1):
        x0, wx = x[..., :1], np.sum(w * x[..., 1:], axis=-1, keepdims=True)
        y = np.concatenate([c0 * x0 - wx, x[..., 1:] - (x0 - wx / (1.0 + c0)) * w], axis=-1)
        moved.append(y / np.sqrt(-_mink_dot(y, y))[..., None])
    return tuple(moved)


def _mid_frame(kind: Kind, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint c of the segment [a, b], unit tangent u at c towards b and
    half-length h: the segment is cos(s) c + sin(s) u (sphere) or
    cosh(s) c + sinh(s) u (hyperboloid) for s in [-h, h]."""
    c = a + b
    c = c / np.sqrt(_CURVATURE[kind] * _inner(kind, c, c))[..., None]
    return (c, *_frame_can(kind, c, b))


def _closest_on_b(kind: Kind, a, u, ha, b, v, hb) -> np.ndarray:
    """Distance between the segments at the point of B nearest A's geodesic.

    A runs from its midpoint a along u for s in [-ha, ha], B from its
    midpoint b along v for t in [-hb, hb].  With n(z) the part of z normal to
    A's geodesic plane, z lies at distance arcsin |n(z)| (sphere) or
    arcsinh |n(z)| (hyperboloid) from A's geodesic, and for nb = n(b),
    nv = n(v):
    - sphere: n(gamma2(t)) = cos t nb + sin t nv, and
      |n|^2 = C + (|nb|^2 - |nv|^2) cos(2t) / 2 + <nb, nv> sin(2t) is least at
      t* = atan2(-2 <nb, nv>, |nv|^2 - |nb|^2) / 2, taken mod pi into
      [-pi/2, pi/2), the one minimum there, which holds B as hb < pi/2;
    - hyperboloid: n(gamma2(t)) = cosh t nb + sinh t nv = (e^t p + e^-t q) / 2,
      p = nb + nv, q = nb - nv, is least at t* = log(|q| / |p|) / 2.
    t* clipped to [-hb, hb] and the foot s* of gamma2(t*) on A's geodesic,
    clipped to [-ha, ha], give the candidate: the pair's minimum lies there
    or at an endpoint of a segment, whose distances the caller takes.  The
    value is the distance of two points of the segments, so it never
    undercuts the distance of the pair.
    """
    curv = _CURVATURE[kind]

    def normal(z):
        return z - (curv * _inner(kind, z, a))[..., None] * a - _inner(kind, z, u)[..., None] * u

    nb, nv = normal(b), normal(v)
    if kind is Kind.SPHERE:
        t = 0.5 * np.arctan2(-2.0 * _inner(kind, nb, nv), _inner(kind, nv, nv) - _inner(kind, nb, nb))
        t = np.clip((t + 0.5 * np.pi) % np.pi - 0.5 * np.pi, -hb, hb)
        q = _along(kind, b, v, t)
        s = np.arctan2(_inner(kind, q, u), _inner(kind, q, a))
    else:
        plus, minus = nb + nv, nb - nv
        with np.errstate(divide="ignore", invalid="ignore"):
            # 0 / 0 when B runs along A's geodesic, where every t is critical
            t = 0.25 * np.log(_inner(kind, minus, minus) / _inner(kind, plus, plus))
            t = np.clip(np.nan_to_num(t), -hb, hb)
            q = _along(kind, b, v, t)
            s = np.arctanh(np.clip(_inner(kind, q, u) / -_inner(kind, q, a), -1.0, 1.0))
    return _dist_can(kind, _along(kind, a, u, np.clip(s, -ha, ha)), q)


def _segseg_can(kind: Kind, a0, a1, b0, b1) -> np.ndarray:
    """Min distance between segments [a0, a1] and [b0, b1], canonical coords.

    The minimum is at an endpoint of one segment, each taken by
    _point_seg_can, or at the interior point _closest_on_b finds in closed
    form; on the hyperboloid both run on the pair moved by _recentre.
    """
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    if kind is Kind.EUCLIDEAN:
        return _segseg_euclid(a0, a1, b0, b1)
    if kind is Kind.HYPERBOLIC:
        a0, a1, b0, b1 = _recentre(a0, a1, b0, b1)
    ends = np.minimum(
        np.minimum(_point_seg_can(kind, a0, b0, b1), _point_seg_can(kind, a1, b0, b1)),
        np.minimum(_point_seg_can(kind, b0, a0, a1), _point_seg_can(kind, b1, a0, a1)),
    )
    return np.minimum(ends, _closest_on_b(kind, *_mid_frame(kind, a0, a1), *_mid_frame(kind, b0, b1)))


def segment_pair_distance(space: SpaceForm, a0, a1, b0, b1) -> float:
    """Min distance between geodesic segments [a0,a1] and [b0,b1]."""
    return float(_segseg_can(space.kind, *(embed(space, np.asarray(x, dtype=float))
                                           for x in (a0, a1, b0, b1))))


def point_segment_distance(space: SpaceForm, p, a, b) -> float:
    return float(_point_seg_can(space.kind, *(embed(space, np.asarray(x, dtype=float))
                                              for x in (p, a, b))))


def _segment_ends(curve: PolygonalCurve) -> tuple[np.ndarray, np.ndarray]:
    """Canonical start and end points of every segment, each (n_segments, m)."""
    return _segments(embed(curve.space, curve.vertices), curve.closed)


def _segment_distances(kind: Kind, pc: np.ndarray, curve: PolygonalCurve) -> np.ndarray:
    """Distance from each canonical point pc (..., m) to each segment: (..., n_segments)."""
    a, b = _segment_ends(curve)
    return _point_seg_can(kind, np.asarray(pc, dtype=float)[..., None, :], a, b)


def point_curve_distance(space: SpaceForm, p, curve: PolygonalCurve):
    """Distance from the curve to each point of p (..., ambient_dim).

    The batched entry point for every curve distance; one point gives a float.
    """
    d = np.min(_segment_distances(space.kind, embed(space, p), curve), axis=-1)
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _nonadjacent_pairs(nseg: int, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the segment pairs i < j that share no vertex, in
    lexicographic order; a closed curve's segments 0 and nseg - 1 share one."""
    i, j = np.triu_indices(nseg, 2)
    keep = j - i < nseg - 1 if closed else slice(None)
    return i[keep], j[keep]


def validate(curve: PolygonalCurve) -> SimplicityReport:
    """Check the curve is well formed and simple.

    simple = no two non-adjacent segments intersect and adjacent segments
    meet only at the shared vertex.  Non-adjacent proximity below SIMPLE_TOL
    counts as an intersection.
    """
    violations: list[str] = []
    if curve.k < (3 if curve.closed else 2):
        violations.append("too few vertices")
        return SimplicityReport(False, violations)

    lens = curve.segment_lengths()
    for i, ell in enumerate(lens):
        if ell < SIMPLE_TOL:
            violations.append(f"coincident consecutive vertices at segment {i}")
    if curve.space.kind is Kind.SPHERE:
        for i, ell in enumerate(lens):
            if np.pi - ell < MINIMIZING_TOL:
                violations.append(f"segment {i} joins near-antipodal endpoints")
    if violations:
        return SimplicityReport(False, violations)

    # adjacent segments: a zero interior angle means the curve retraces itself
    violations += [f"cusp overlap at vertex {i}" for i in cusp_vertices(curve)]

    i, j = _nonadjacent_pairs(curve.n_segments, curve.closed)
    if i.size:
        a, b = _segment_ends(curve)
        d = _segseg_can(curve.space.kind, a[i], b[i], a[j], b[j])
        violations += [f"segments {si} and {sj} intersect (distance {dd:.2e})"
                       for si, sj, dd in zip(i, j, d) if dd < SIMPLE_TOL]

    return SimplicityReport(not violations, violations)


def simple_mask_euclidean(vertices: np.ndarray, closed: bool = True) -> np.ndarray:
    """Vectorized simplicity test for a batch of Euclidean polygons (B, k, d)."""
    v = np.asarray(vertices, dtype=float)
    cur, nxt = _segments(v, closed)
    ok = np.all(np.linalg.norm(nxt - cur, axis=-1) > SIMPLE_TOL, axis=1)
    for i, j in zip(*_nonadjacent_pairs(cur.shape[1], closed)):
        ok &= _segseg_euclid(cur[:, i], nxt[:, i], cur[:, j], nxt[:, j]) > SIMPLE_TOL
    return ok


# ---------------------------------------------------------------------------
# turning angles and total curvature
# ---------------------------------------------------------------------------


def turning_angles(curve: PolygonalCurve) -> np.ndarray:
    """Exterior angle (pi - interior angle) at each interior vertex."""
    if curve.k < 3:
        if curve.closed:
            raise GeometryError("closed curve needs at least 3 vertices")
        return np.zeros(0)
    interior = vertex_angle_arrays(curve.space, *_corners(curve.vertices, curve.closed))
    return np.pi - interior


def cusp_vertices(curve: PolygonalCurve) -> list[int]:
    """Indices of interior vertices whose exterior angle equals pi within SIMPLE_TOL."""
    ang = turning_angles(curve)
    hits = np.nonzero(np.pi - ang < SIMPLE_TOL)[0]
    offset = 0 if curve.closed else 1
    return [int(i) + offset for i in hits]


def total_curvature(curve: PolygonalCurve) -> float:
    """Sum of exterior angles over the interior vertices; always >= 0."""
    return float(np.sum(turning_angles(curve)))


def total_curvature_batch(space: SpaceForm, vertices: np.ndarray, closed: bool = True) -> np.ndarray:
    """Total curvature of a batch of polygons (B, k, d) in model coords."""
    v = np.asarray(vertices, dtype=float)
    return np.sum(np.pi - vertex_angle_arrays(space, *_corners(v, closed)), axis=-1)


# ---------------------------------------------------------------------------
# tangent indicatrix
# ---------------------------------------------------------------------------


def tangent_indicatrix(curve: PolygonalCurve) -> SphericalPolygon:
    """Unit tangent polygon of a closed Euclidean polygon."""
    if curve.space.kind is not Kind.EUCLIDEAN:
        raise GeometryError("tangent indicatrix is defined for Euclidean curves")
    if not curve.closed:
        raise GeometryError("tangent indicatrix needs a closed curve")
    start, end = _segments(curve.vertices, True)
    diffs = end - start
    norms = np.linalg.norm(diffs, axis=-1, keepdims=True)
    if np.any(norms < 1e-14):
        raise GeometryError("zero-length segment")
    return SphericalPolygon(diffs / norms, closed=True)


def spherical_length(poly: SphericalPolygon) -> float:
    """Sum of the arc lengths between consecutive vertices."""
    return float(np.sum(_half_angle(*_segments(poly.vertices, poly.closed))))


def indicatrix_length_batch(vertices: np.ndarray) -> np.ndarray:
    """Spherical length of the tangent indicatrix for a batch (B, k, d)."""
    start, end = _segments(np.asarray(vertices, dtype=float), True)
    diffs = end - start
    t = diffs / np.sqrt(np.einsum("...i,...i->...", diffs, diffs))[..., None]
    return np.sum(_half_angle(*_segments(t, True)), axis=-1)
