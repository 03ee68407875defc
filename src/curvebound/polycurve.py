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
        v = self.vertices
        w = np.roll(v, -1, axis=0) if self.closed else v[1:]
        v = v if self.closed else v[:-1]
        return dist_arrays(self.space, v, w)

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


NEWTON_MAX_STEPS = 64
MAX_HALVINGS = 4


def _newton_moves(kind: Kind, a0, u, b0, v, s, t, p, q) -> tuple[np.ndarray, np.ndarray]:
    """The Newton step for the pair at (s, t), split as (flatter, steeper) part.

    Newton's method minimizes E(s, t) = -<p, q>, p = gamma1(s), q = gamma2(t):
    cos(d) negated on the sphere, cosh(d) on the hyperboloid.  Its Hessian
    [[h, e], [e, h]], h = K <p, q>, e = -<p', q'>, has eigenvectors (1, 1)
    and (1, -1), so the step is two 1-D steps, with gradients
    <p' -+ q', p - q> and curvatures h +- e = (|p' -+ q'|^2 - K |p - q|^2) / 2.
    Formed from these differences they keep their digits for segments that
    cross at a small angle or run nearly parallel, where h^2 - e^2 cancels.
    No step is taken along a curvature <= 0.  Each part is a (ds, dt) pair in
    the last axis.
    """
    curv = _CURVATURE[kind]
    dp, dq = _along(kind, u, -curv * a0, s), _along(kind, v, -curv * b0, t)
    diff = p - q
    chord = curv * _inner(kind, diff, diff)
    parts, lams = [], []
    for w, axis in ((dp - dq, (1.0, 1.0)), (dp + dq, (1.0, -1.0))):
        grad, lam = _inner(kind, w, diff), 0.5 * (_inner(kind, w, w) - chord)
        move = np.where(lam > 0.0, -0.5 * grad / np.where(lam > 0.0, lam, 1.0), 0.0)
        parts.append(move[..., None] * np.array(axis))
        lams.append(lam[..., None])
    flat_first = lams[0] < lams[1]
    return (np.where(flat_first, parts[0], parts[1]),
            np.where(flat_first, parts[1], parts[0]))


def _pair_newton(kind: Kind, a0, u, ell, b0, v, m, s, t) -> np.ndarray:
    """Least distance reached by damped Newton steps for the pair from (s, t).

    Iterates stay in the (s, t) box.  A step that lengthens the distance is
    retried without its flatter part, whose curvature may be lost to
    rounding far from the minimum, and then halved up to MAX_HALVINGS
    times: near an interior minimum full steps succeed, and a minimum on the
    box edge is an endpoint distance.  A step that moves less than 1e-14
    counts as failed too.  Each pair's iterates depend on that pair alone,
    so it gives the same result alone or in a batch.
    """
    p, q = _along(kind, a0, u, s), _along(kind, b0, v, t)
    best = _dist_can(kind, p, q)
    flat, steep = _newton_moves(kind, a0, u, b0, v, s, t, p, q)
    w_flat, w_steep = np.ones(np.shape(s) + (1,)), np.ones(np.shape(s) + (1,))
    done = np.zeros(np.shape(s), dtype=bool)
    for _ in range(NEWTON_MAX_STEPS):
        step = np.where(done[..., None], 0.0, w_flat * flat + w_steep * steep)
        s_try, t_try = np.clip(s + step[..., 0], 0.0, ell), np.clip(t + step[..., 1], 0.0, m)
        moving = np.maximum(np.abs(s_try - s), np.abs(t_try - t)) > 1e-14
        done |= (~moving & (w_flat[..., 0] == 0.0)) | (w_steep[..., 0] < 0.5**MAX_HALVINGS)
        if np.all(done):
            break
        p, q = _along(kind, a0, u, s_try), _along(kind, b0, v, t_try)
        d = _dist_can(kind, p, q)
        take = moving & ~done & (d <= best)
        new_flat, new_steep = _newton_moves(kind, a0, u, b0, v, s_try, t_try, p, q)
        best = np.where(take, d, best)
        s, t = np.where(take, s_try, s), np.where(take, t_try, t)
        take = take[..., None]
        flat, steep = np.where(take, new_flat, flat), np.where(take, new_steep, steep)
        w_steep = np.where(take, 1.0, np.where(w_flat > 0.0, w_steep, 0.5 * w_steep))
        w_flat = np.where(take, 1.0, 0.0)
    return best


def _pair_starts(kind: Kind, a0, u, ell, b0, v, m) -> list[tuple[np.ndarray, np.ndarray]]:
    """Starting points from which Newton's method reaches an interior minimum.

    On H^n distance between geodesics is jointly convex, so the box centre
    will do.  On the sphere <p, q> = (cos s, sin s) G (cos t, sin t)^T with G
    the 2x2 Gram matrix of the frames (a0, u) and (b0, v); its only interior
    local maxima are +-(first left, first right singular vector of G).  When
    the singular values tie (isoclinic planes, as for Hopf fibres of S^3) the
    maxima form a line that meets the box edges, where the endpoint
    distances find them.
    """
    if kind is Kind.HYPERBOLIC:
        return [(0.5 * ell, 0.5 * m)]
    gram = np.stack([np.stack([_inner(kind, a0, b0), _inner(kind, a0, v)], -1),
                     np.stack([_inner(kind, u, b0), _inner(kind, u, v)], -1)], -2)
    left, _, right = np.linalg.svd(gram)
    return [(np.clip(np.arctan2(sign * left[..., 1, 0], sign * left[..., 0, 0]), 0.0, ell),
             np.clip(np.arctan2(sign * right[..., 0, 1], sign * right[..., 0, 0]), 0.0, m))
            for sign in (1.0, -1.0)]


def _segseg_can(kind: Kind, a0, a1, b0, b1) -> np.ndarray:
    """Min distance between segments [a0, a1] and [b0, b1], canonical coords.

    The minimum is at an endpoint of one segment or at an interior critical
    point of the pair; both are taken in closed form or by a converged solve.
    """
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    if kind is Kind.EUCLIDEAN:
        return _segseg_euclid(a0, a1, b0, b1)
    ends = np.minimum(
        np.minimum(_point_seg_can(kind, a0, b0, b1), _point_seg_can(kind, a1, b0, b1)),
        np.minimum(_point_seg_can(kind, b0, a0, a1), _point_seg_can(kind, b1, a0, a1)),
    )
    frames = (a0, *_frame_can(kind, a0, a1), b0, *_frame_can(kind, b0, b1))
    for s, t in _pair_starts(kind, *frames):
        ends = np.minimum(ends, _pair_newton(kind, *frames, s, t))
    return ends


def segment_pair_distance(space: SpaceForm, a0, a1, b0, b1) -> float:
    """Min distance between geodesic segments [a0,a1] and [b0,b1]."""
    return float(_segseg_can(space.kind, *(embed(space, np.asarray(x, dtype=float))
                                           for x in (a0, a1, b0, b1))))


def point_segment_distance(space: SpaceForm, p, a, b) -> float:
    return float(_point_seg_can(space.kind, *(embed(space, np.asarray(x, dtype=float))
                                              for x in (p, a, b))))


def _segment_ends(curve: PolygonalCurve) -> tuple[np.ndarray, np.ndarray]:
    """Canonical start and end points of every segment, each (n_segments, m)."""
    v = embed(curve.space, curve.vertices)
    return v[: curve.n_segments], np.roll(v, -1, axis=0)[: curve.n_segments]


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


def validate(curve: PolygonalCurve, tol: float = SIMPLE_TOL) -> SimplicityReport:
    """Check the curve is well formed and simple.

    simple = no two non-adjacent segments intersect and adjacent segments
    meet only at the shared vertex.  Non-adjacent proximity below tol counts
    as an intersection.
    """
    violations: list[str] = []
    k = curve.k
    if k < (3 if curve.closed else 2):
        violations.append("too few vertices")
        return SimplicityReport(False, violations)

    lens = curve.segment_lengths()
    for i, ell in enumerate(lens):
        if ell < tol:
            violations.append(f"coincident consecutive vertices at segment {i}")
    if curve.space.kind is Kind.SPHERE:
        for i, ell in enumerate(lens):
            if np.pi - ell < MINIMIZING_TOL:
                violations.append(f"segment {i} joins near-antipodal endpoints")
    if violations:
        return SimplicityReport(False, violations)

    # adjacent segments: a zero interior angle means the curve retraces itself
    v = curve.vertices
    idx = np.arange(k) if curve.closed else np.arange(1, k - 1)
    ang = vertex_angle_arrays(curve.space, v[idx], v[(idx - 1) % k], v[(idx + 1) % k])
    violations += [f"cusp overlap at vertex {i}" for i in idx[ang < tol]]

    i, j = _nonadjacent_pairs(curve.n_segments, curve.closed)
    if i.size:
        a, b = _segment_ends(curve)
        d = _segseg_can(curve.space.kind, a[i], b[i], a[j], b[j])
        violations += [f"segments {si} and {sj} intersect (distance {dd:.2e})"
                       for si, sj, dd in zip(i, j, d) if dd < tol]

    return SimplicityReport(not violations, violations)


def simple_mask_euclidean(vertices: np.ndarray, closed: bool = True, tol: float = SIMPLE_TOL) -> np.ndarray:
    """Vectorized simplicity test for a batch of Euclidean polygons (B, k, d)."""
    v = np.asarray(vertices, dtype=float)
    b, k, _ = v.shape
    ok = np.ones(b, dtype=bool)
    nxt = np.roll(v, -1, axis=1) if closed else v[:, 1:]
    cur = v if closed else v[:, :-1]
    ok &= np.all(np.linalg.norm(nxt - cur, axis=-1) > tol, axis=1)
    for i, j in zip(*_nonadjacent_pairs(k if closed else k - 1, closed)):
        ok &= _segseg_euclid(v[:, i], v[:, (i + 1) % k], v[:, j], v[:, (j + 1) % k]) > tol
    return ok


# ---------------------------------------------------------------------------
# turning angles and total curvature
# ---------------------------------------------------------------------------


def turning_angles(curve: PolygonalCurve) -> np.ndarray:
    """Exterior angle (pi - interior angle) at each interior vertex."""
    v = curve.vertices
    k = curve.k
    if curve.closed:
        if k < 3:
            raise GeometryError("closed curve needs at least 3 vertices")
        p = v
        u = np.roll(v, 1, axis=0)
        w = np.roll(v, -1, axis=0)
    else:
        if k < 3:
            return np.zeros(0)
        p = v[1:-1]
        u = v[:-2]
        w = v[2:]
    interior = vertex_angle_arrays(curve.space, p, u, w)
    return np.pi - interior


def cusp_vertices(curve: PolygonalCurve, tol: float = 1e-9) -> list[int]:
    """Indices of interior vertices whose exterior angle equals pi within tol."""
    ang = turning_angles(curve)
    hits = np.nonzero(np.pi - ang < tol)[0]
    offset = 0 if curve.closed else 1
    return [int(i) + offset for i in hits]


def total_curvature(curve: PolygonalCurve) -> float:
    """Sum of exterior angles over the interior vertices; always >= 0."""
    return float(np.sum(turning_angles(curve)))


def total_curvature_batch(space: SpaceForm, vertices: np.ndarray, closed: bool = True) -> np.ndarray:
    """Total curvature of a batch of polygons (B, k, d) in model coords."""
    v = np.asarray(vertices, dtype=float)
    if closed:
        p, u, w = v, np.roll(v, 1, axis=1), np.roll(v, -1, axis=1)
    else:
        p, u, w = v[:, 1:-1], v[:, :-2], v[:, 2:]
    interior = vertex_angle_arrays(space, p, u, w)
    return np.sum(np.pi - interior, axis=-1)


# ---------------------------------------------------------------------------
# tangent indicatrix
# ---------------------------------------------------------------------------


def tangent_indicatrix(curve: PolygonalCurve) -> SphericalPolygon:
    """Unit tangent polygon of a closed Euclidean polygon."""
    if curve.space.kind is not Kind.EUCLIDEAN:
        raise GeometryError("tangent indicatrix is defined for Euclidean curves")
    if not curve.closed:
        raise GeometryError("tangent indicatrix needs a closed curve")
    diffs = np.roll(curve.vertices, -1, axis=0) - curve.vertices
    norms = np.linalg.norm(diffs, axis=-1, keepdims=True)
    if np.any(norms < 1e-14):
        raise GeometryError("zero-length segment")
    return SphericalPolygon(diffs / norms, closed=True)


def spherical_length(poly: SphericalPolygon) -> float:
    """Sum of the arc lengths between consecutive vertices."""
    v = poly.vertices
    w = np.roll(v, -1, axis=0) if poly.closed else v[1:]
    u = v if poly.closed else v[:-1]
    return float(np.sum(_half_angle(u, w)))


def indicatrix_length_batch(vertices: np.ndarray) -> np.ndarray:
    """Spherical length of the tangent indicatrix for a batch (B, k, d)."""
    v = np.asarray(vertices, dtype=float)
    diffs = np.roll(v, -1, axis=1) - v
    t = diffs / np.sqrt(np.einsum("...i,...i->...", diffs, diffs))[..., None]
    return np.sum(_half_angle(t, np.roll(t, -1, axis=1)), axis=-1)
