"""References for the kernels that share per-vertex and per-endpoint work:
the forms they replaced, where each quantity is formed where it is used.

``point_seg`` is the point-to-segment distance in one piece: the segment's
frame, the foot of the point and both endpoint distances.  ``segseg`` takes
a segment pair's four endpoint cases through it, so it forms each segment's
frame twice and each endpoint-endpoint distance twice.  ``cone_angles`` sums
``vertex_angle_arrays`` segment by segment, so it forms each tangent at the
apex twice.  They make the same floating-point operations on the same
operands as the kernels, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from curvebound import Kind
from curvebound.polycurve import (
    _CURVATURE,
    _closest_on_b,
    _frame_can,
    _inner,
    _mid_frame,
    _point_seg_euclid,
    _recentre,
    _seg_terms,
    _segments,
    _segseg_euclid,
)
from curvebound.spaceform import _dist_can, _mink_dot, vertex_angle_arrays


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
        foot = np.arctan2(np.linalg.norm(n, axis=-1), np.hypot(x, y))
    else:
        inside = (y >= 0.0) & (y <= x * np.tanh(ell))
        foot = np.arcsinh(np.sqrt(np.maximum(_mink_dot(n, n), 0.0)))
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
