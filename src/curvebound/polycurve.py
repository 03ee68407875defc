"""Piecewise geodesic curves: validation, turning angles, total curvature.

A polygonal curve is an ordered vertex list joined by minimizing geodesic
segments of its ambient space form.  Open curves are first class: endpoint
vertices carry no turning angle.  Total curvature is the sum of exterior
angles; a cusp (exterior angle pi) is reported as a flag, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import GeometryError, ModelMismatchError
from .spaceform import (
    _CURVATURE,
    ANTIPODAL_TOL,
    Isometry,
    Kind,
    Point,
    SpaceForm,
    _along,
    _dist_can,
    _frame_can,
    _half_angle,
    _inner,
    _mid_frame,
    _norm,
    _recentre,
    dist_arrays,
    embed,
    vertex_angle_arrays,
)

SIMPLE_TOL = 1e-9
PAIR_BLOCK = 1 << 14  # polygon x segment-pair elements per block of a pair walk


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
        start, end = _segments(self.vertices, self.closed)
        return start[i], end[i]

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
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # a NaN norm fails too
            raise GeometryError("spherical polygon vertices must be unit vectors")


@dataclass
class SimplicityReport:
    simple: bool
    violations: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# segment/segment and point/segment distances
# ---------------------------------------------------------------------------


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, summed coordinate by coordinate, for
    the Euclidean pair kernel (_seg_terms, _segseg_euclid) only.

    On that kernel's operands, whole-batch (B, pairs, 3) slices, the loop is
    faster than spaceform._inner's einsum: with einsum here,
    simple_mask_euclidean ran 4-8 % slower on the sweep benchmark's chunk
    shapes.  The loop would not do for _inner: on pentagon arrays such as
    (1, 5, 4) its per-coordinate operations cost more than one einsum, and
    validate ran 49 % slower on S^3 and 20 % on H^3 (tools/layer_times.py
    pentagons, least of 3 interleaved rounds, 2-core x86-64 VM).
    """
    out = x[..., 0] * y[..., 0]
    for n in range(1, x.shape[-1]):
        out += x[..., n] * y[..., n]
    return out


def _seg_terms(p, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start p, direction d = q - p and squared length |d|^2 of each segment [p, q]."""
    d = q - p
    return p, d, _dot(d, d)


def _segseg_euclid(p1, d1, a, p2, d2, e) -> np.ndarray:
    """Min distance between segments p1 + [0,1] d1 and p2 + [0,1] d2, given with
    their squared lengths a and e by _seg_terms; batch friendly."""
    r = p1 - p2
    f = _dot(d2, r)
    c = _dot(d1, r)
    b = _dot(d1, d2)
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
    w = p1 + s[..., None] * d1 - (p2 + t[..., None] * d2)
    return np.sqrt(_dot(w, w))


def _point_seg_euclid(p, a, b) -> np.ndarray:
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    d = b - a
    den = _inner(Kind.EUCLIDEAN, d, d)
    t = np.clip(_inner(Kind.EUCLIDEAN, p - a, d) / np.where(den > 1e-30, den, 1.0), 0.0, 1.0)
    return _norm(Kind.EUCLIDEAN, a + t[..., None] * d - p)


def _foot_can(kind: Kind, p, a, u, ell) -> tuple[np.ndarray, np.ndarray]:
    """Whether the foot of p on the geodesic from a along the unit tangent u
    lies on its segment [0, ell], and the distance from p to that geodesic;
    canonical coords, all broadcast.

    The foot sits at angle atan2(y, x) on the sphere and at tanh s = y / x on
    the hyperboloid, with x = K <p, a>, y = <p, u>.  The distance comes from
    the part n of p normal to the geodesic plane: atan2(|n|, |(x, y)|) on the
    sphere and arcsinh |n| on the hyperboloid, both accurate at separations
    far below the on-curve tolerance, where arccosh(sqrt(x^2 - y^2)) returns
    0 at 1e-8.
    """
    p = np.asarray(p, dtype=float)
    x = _CURVATURE[kind] * _inner(kind, p, a)
    y = _inner(kind, p, u)
    n = x[..., None] * a
    # in place, so that no more than two (..., m) temporaries are live: with
    # three, 1 000 apexes made glibc trim and re-fault 85 pages on every call
    np.subtract(p, n, out=n)
    n -= y[..., None] * u
    if kind is Kind.SPHERE:
        theta = np.arctan2(y, x)
        inside = (theta >= 0.0) & (theta <= ell)
        foot = np.arctan2(_norm(kind, n), np.hypot(x, y))
    else:
        inside = (y >= 0.0) & (y <= x * np.tanh(ell))
        foot = np.arcsinh(_norm(kind, n))
    return inside, foot


def _point_seg_can(kind: Kind, p, a, b) -> np.ndarray:
    """Distance from p to the segment [a, b], canonical coords; all broadcast:
    the distance to the geodesic when _foot_can puts the foot on the segment,
    else the distance to the nearer endpoint."""
    if kind is Kind.EUCLIDEAN:
        return _point_seg_euclid(p, a, b)
    inside, foot = _foot_can(kind, p, a, *_frame_can(kind, a, b))
    return np.where(inside, foot, np.minimum(_dist_can(kind, p, a), _dist_can(kind, p, b)))


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


def _endpoints_to_segments(kind: Kind, a0, a1, b0, b1) -> np.ndarray:
    """Least distance from an endpoint of either segment to the other segment,
    canonical coords: _point_seg_can's four cases, with each segment's frame
    and the four endpoint-endpoint distances formed once and shared by the
    cases that use them.  The minimum accumulates in place."""
    frame_b, frame_a = _frame_can(kind, b0, b1), _frame_can(kind, a0, a1)
    d00, d01, d10, d11 = (_dist_can(kind, p, q) for p, q in ((a0, b0), (a0, b1), (a1, b0), (a1, b1)))

    def case(p, start, frame, near0, near1):
        inside, foot = _foot_can(kind, p, start, *frame)
        return np.where(inside, foot, np.minimum(near0, near1))

    # a0's and b1's cases between them span all four inputs' broadcast shape;
    # asarray keeps a single pair's minimum an array to accumulate into
    out = np.asarray(np.minimum(case(a0, b0, frame_b, d00, d01), case(b1, a0, frame_a, d01, d11)))
    np.minimum(out, case(a1, b0, frame_b, d10, d11), out=out)
    return np.minimum(out, case(b0, a0, frame_a, d00, d10), out=out)


def _segseg_can(kind: Kind, a0, a1, b0, b1) -> np.ndarray:
    """Min distance between segments [a0, a1] and [b0, b1], canonical coords.

    The minimum is at an endpoint of one segment, taken by
    _endpoints_to_segments, or at the interior point _closest_on_b finds in
    closed form, which runs after the endpoint work is freed; on the
    hyperboloid both run on the pair moved by _recentre.
    """
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    if kind is Kind.EUCLIDEAN:
        return _segseg_euclid(*_seg_terms(a0, a1), *_seg_terms(b0, b1))
    if kind is Kind.HYPERBOLIC:
        a0, a1, b0, b1 = _recentre(a0, a1, b0, b1)
    out = _endpoints_to_segments(kind, a0, a1, b0, b1)
    return np.minimum(out, _closest_on_b(kind, *_mid_frame(kind, a0, a1), *_mid_frame(kind, b0, b1)),
                      out=out)


def segment_pair_distance(space: SpaceForm, a0, a1, b0, b1) -> float:
    """Min distance between geodesic segments [a0,a1] and [b0,b1]."""
    return float(_segseg_can(space.kind, *(embed(space, np.asarray(x, dtype=float))
                                           for x in (a0, a1, b0, b1))))


def point_segment_distance(space: SpaceForm, p, a, b) -> float:
    return float(_point_seg_can(space.kind, *(embed(space, np.asarray(x, dtype=float))
                                              for x in (p, a, b))))


def _segment_distances(kind: Kind, pc: np.ndarray, curve: PolygonalCurve) -> np.ndarray:
    """Distance from each canonical point pc (..., m) to each segment: (..., n_segments).

    On curved kinds the distances to the k vertices are formed once, (..., k),
    and each segment takes the nearer of its two, paired by _segments, where
    _foot_can puts the foot off the segment.
    """
    v = embed(curve.space, curve.vertices)
    a, b = _segments(v, curve.closed)
    p = np.asarray(pc, dtype=float)[..., None, :]
    if kind is Kind.EUCLIDEAN:
        return _point_seg_euclid(p, a, b)
    inside, foot = _foot_can(kind, p, a, *_frame_can(kind, a, b))
    near = np.minimum(*_segments(_dist_can(kind, p, v)[..., None], curve.closed))[..., 0]
    return np.where(inside, foot, near)


def _check_space(space: SpaceForm, curve: PolygonalCurve) -> None:
    """Raise ModelMismatchError unless space is the curve's space form."""
    if space != curve.space:
        got, want = (f"{s.kind.value}/{s.model.value} of dim {s.dim}" for s in (space, curve.space))
        raise ModelMismatchError(f"space {got} is not the curve's {want}")


def point_curve_distance(space: SpaceForm, p, curve: PolygonalCurve):
    """Distance from the curve to each point of p (..., ambient_dim).

    The batched entry point for every curve distance; one point gives a float.
    space must be the curve's space.
    """
    _check_space(space, curve)
    d = np.min(_segment_distances(space.kind, embed(space, p), curve), axis=-1)
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _nonadjacent_pairs(nseg: int, closed: bool, rows: int = 1):
    """The segment pairs i < j that share no vertex, as index arrays (i, j) in
    blocks, in lexicographic order; a closed curve's segments 0 and nseg - 1
    share one.

    A block holds whole pair rows (one i, every j) and, for a batch of rows
    polygons, at most PAIR_BLOCK polygon x pair elements unless it is a
    single pair row.
    """
    counts = np.arange(nseg - 2, 0, -1)  # pair row i holds j = i + 2, ..., i + 1 + counts[i]
    if closed and counts.size:
        counts[0] -= 1
    budget = PAIR_BLOCK // rows
    start = 0
    while start < counts.size:
        stop, size = start + 1, counts[start]
        while stop < counts.size and size + counts[stop] <= budget:
            size += counts[stop]
            stop += 1
        if size:
            yield (np.repeat(np.arange(start, stop), counts[start:stop]),
                   np.concatenate([np.arange(i + 2, i + 2 + counts[i]) for i in range(start, stop)]))
        start = stop


def _defects(space: SpaceForm, v: np.ndarray, closed: bool) -> list[tuple]:
    """The defects of the polygons v (B, k, m), in canonical coords of space,
    in the order validate reports them.

    Each entry is a message template, the rows it holds for, and one array
    per template field.  A row with too few vertices, a short segment or, on
    the sphere, a near-antipodal one is checked no further; the other rows
    get their cusps and then the non-adjacent segment pairs closer than
    SIMPLE_TOL, walked block by block.  A NaN length or distance is a defect.
    """
    nrow, k = v.shape[:2]
    if k < (3 if closed else 2):
        return [("too few vertices", np.arange(nrow))]
    ends = _segments(v, closed)
    lens = dist_arrays(space, *ends)
    out = [("coincident consecutive vertices at segment {}", *np.nonzero(~(lens >= SIMPLE_TOL)))]
    if space.kind is Kind.SPHERE:
        out.append(("segment {} joins near-antipodal endpoints",
                    *np.nonzero(np.pi - lens < ANTIPODAL_TOL)))
    live = np.ones(nrow, dtype=bool)
    for _, rows, _ in out:
        live[rows] = False
    if not live.all():
        v, ends = v[live], [x[live] for x in ends]
    live = np.flatnonzero(live)
    if not live.size:
        return out

    # adjacent segments: a zero interior angle means the curve retraces itself
    turning = np.pi - vertex_angle_arrays(space, *_corners(v, closed))
    rows, corner = np.nonzero(np.pi - turning < SIMPLE_TOL)
    out.append(("cusp overlap at vertex {}", live[rows], corner + (0 if closed else 1)))

    if space.kind is Kind.EUCLIDEAN:
        terms, pair_dist = _seg_terms(*ends), _segseg_euclid
    else:
        terms, pair_dist = ends, partial(_segseg_can, space.kind)
    for i, j in _nonadjacent_pairs(ends[0].shape[1], closed, live.size):
        d = pair_dist(*(x[:, i] for x in terms), *(x[:, j] for x in terms))
        rows, pair = np.nonzero(~(d >= SIMPLE_TOL))
        out.append((f"segments {{}} and {{}} intersect (closer than {SIMPLE_TOL:g})",
                    live[rows], i[pair], j[pair]))
    return out


def validate(curve: PolygonalCurve) -> SimplicityReport:
    """Check the curve is well formed and simple.

    simple = no two non-adjacent segments intersect and adjacent segments
    meet only at the shared vertex.  Non-adjacent proximity below SIMPLE_TOL
    counts as an intersection.
    """
    v = embed(curve.space, curve.vertices)[None]
    violations = [template.format(*(x[n] for x in fields))
                  for template, rows, *fields in _defects(curve.space.canonical, v, curve.closed)
                  for n in range(rows.size)]
    return SimplicityReport(not violations, violations)


def simple_mask_euclidean(vertices: np.ndarray, closed: bool = True) -> np.ndarray:
    """validate(...).simple of each polygon of a Euclidean batch (B, k, d)."""
    v = np.asarray(vertices, dtype=float)
    ok = np.ones(v.shape[0], dtype=bool)
    for _, rows, *_ in _defects(SpaceForm.euclidean(v.shape[-1]), v, closed):
        ok[rows] = False
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
    norms = _norm(Kind.EUCLIDEAN, diffs)[..., None]
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
    t = diffs / _norm(Kind.EUCLIDEAN, diffs)[..., None]
    return np.sum(_half_angle(*_segments(t, True)), axis=-1)
