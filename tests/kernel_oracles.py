"""References for the kernels that share per-vertex and per-endpoint work:
the forms they replaced, where each quantity is formed where it is used.

``point_seg`` is the point-to-segment distance in one piece: the segment's
frame, the foot of the point and both endpoint distances.  ``segseg`` takes
a segment pair's four endpoint cases through it, so it forms each segment's
frame twice and each endpoint-endpoint distance twice.  ``cone_angles`` sums
``vertex_angle_arrays`` segment by segment, so it forms each tangent at the
apex twice.  They make the same floating-point operations on the same
operands as the kernels, so the two agree bit for bit.

``interp`` is the other way round: an independent sampler of a segment's
points, by sine weights, for the dense-sampling brackets.
"""

from __future__ import annotations

import numpy as np

from curvebound import Kind
from curvebound.errors import NonUniqueGeodesicError
from curvebound.polycurve import (
    _closest_on_b,
    _point_seg_euclid,
    _seg_terms,
    _segments,
    _segseg_euclid,
)
from curvebound.spaceform import (
    _CURVATURE,
    ANTIPODAL_TOL,
    _dist_can,
    _frame_can,
    _inner,
    _mid_frame,
    _norm,
    _recentre,
    _renorm,
    vertex_angle_arrays,
)


def point_seg(kind: Kind, p, a, b) -> np.ndarray:
    """Distance from p to the segment [a, b], canonical coords; all broadcast."""
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
        foot = np.arctan2(_norm(kind, n), np.hypot(x, y))
    else:
        inside = (y >= 0.0) & (y <= x * np.tanh(ell))
        foot = np.arcsinh(_norm(kind, n))
    ends = np.minimum(_dist_can(kind, p, a), _dist_can(kind, p, b))
    return np.where(inside, foot, ends)


def segseg(kind: Kind, a0, a1, b0, b1) -> np.ndarray:
    """Min distance between segments [a0, a1] and [b0, b1], canonical coords."""
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    if kind is Kind.EUCLIDEAN:
        return _segseg_euclid(*_seg_terms(a0, a1), *_seg_terms(b0, b1))
    if kind is Kind.HYPERBOLIC:
        a0, a1, b0, b1 = _recentre(a0, a1, b0, b1)
    ends = np.minimum(
        np.minimum(point_seg(kind, a0, b0, b1), point_seg(kind, a1, b0, b1)),
        np.minimum(point_seg(kind, b0, a0, a1), point_seg(kind, b1, a0, a1)),
    )
    return np.minimum(ends, _closest_on_b(kind, *_mid_frame(kind, a0, a1), *_mid_frame(kind, b0, b1)))


def cone_angles(space, x: np.ndarray, curve) -> np.ndarray:
    """Cone angle at each apex x (n, ambient_dim) off the curve: every
    segment adds its apex angle."""
    starts, ends = _segments(curve.vertices, curve.closed)
    return np.sum(vertex_angle_arrays(space, x[:, None, :], starts, ends), axis=-1)


def interp(kind: Kind, a, b, t) -> np.ndarray:
    """Geodesic interpolation in canonical coords by sine weights, t
    broadcasting: a second formula for the points of a segment, apart from
    the frame and arc length that spaceform.geodesic_arrays walks."""
    t = np.asarray(t, dtype=float)[..., None]
    if kind is Kind.EUCLIDEAN:
        return (1.0 - t) * a + t * b
    d = _dist_can(kind, a, b)[..., None]
    if kind is Kind.SPHERE and np.any(np.pi - d < ANTIPODAL_TOL):
        raise NonUniqueGeodesicError("geodesic between near-antipodal points is not unique")
    sin = np.sin if kind is Kind.SPHERE else np.sinh
    small = d < 1e-9
    safe = np.where(small, 1.0, sin(d))
    out = (sin((1.0 - t) * d) * a + sin(t * d) * b) / safe
    if np.any(small):
        lin = (1.0 - t) * a + t * b
        out = np.where(small, lin, out)
    return _renorm(kind, out)
