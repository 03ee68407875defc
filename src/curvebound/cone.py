"""Cone angles over polygonal curves and sampled embeddedness certificates.

The cone over a geodesic polygon from an apex p meets the unit direction
sphere at p in a spherical polygon whose side lengths are the apex angles
subtended by the segments.  The cone angle (their sum) divided by 2 pi is
the cone's density at p; strict density bounds below 2 (off the curve),
3/2 (on an edge), and 3/2 - theta/(2 pi) (at a vertex of exterior angle
theta) certify that a minimal surface spanning the curve is embedded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GeometryError, NumericalError, OnCurveError
from .polycurve import (
    PolygonalCurve,
    _check_space,
    _segment_distances,
    _segments,
    point_curve_distance,
    turning_angles,
    validate,
)
from .spaceform import (
    Kind,
    Model,
    SpaceForm,
    as_rng,
    base_point_isometry,
    convert_coords,
    dist_arrays,
    embed,
    unembed,
    vertex_angle_arrays,
    _coerce,
    _dist_can,
    _half_angle,
    _renorm,
    _tangents_can,
)

ON_CURVE_TOL = 1e-8
SPHERE_BALL_LIMIT = math.pi / 4.0
_GAP_TOL = 1e-14  # min_enclosing_ball's active set: the relative gap that ends it
_MAX_CYCLES = 1000  # and the major cycles after which it raises NumericalError


class DensityCase(str, Enum):
    OFF_CURVE = "off_curve"
    ON_EDGE = "on_edge"
    AT_VERTEX = "at_vertex"


# the density kernel's case codes index this tuple
_CASES = (DensityCase.OFF_CURVE, DensityCase.ON_EDGE, DensityCase.AT_VERTEX)
_ON_EDGE, _AT_VERTEX = 1, 2


class CertVerdict(str, Enum):
    CERTIFIED = "Certified"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ConeDensityReport:
    point: np.ndarray
    angle: float
    density: float
    case: DensityCase
    bound_applied: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.bound_applied - self.density

    def as_dict(self) -> dict:
        return {
            "point": [float(x) for x in np.atleast_1d(self.point)],
            "angle": self.angle,
            "density": self.density,
            "case": self.case.value,
            "bound_applied": self.bound_applied,
            "passed": self.passed,
            "margin": self.margin,
        }


@dataclass
class Certificate:
    verdict: CertVerdict
    n_samples: int
    worst: ConeDensityReport | None
    preconditions: list[str] = field(default_factory=list)
    reason: str | None = None

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "n_samples": self.n_samples,
            "worst": self.worst.as_dict() if self.worst else None,
            "preconditions": self.preconditions,
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# apex admissibility
# ---------------------------------------------------------------------------


def _coerce_coords(space: SpaceForm, p, curve: PolygonalCurve) -> np.ndarray:
    """Coords of one apex p of space, which must be the curve's space."""
    _check_space(space, curve)
    if np.shape(getattr(p, "coords", p)) != (space.ambient_dim,):
        raise GeometryError(f"apex coords must have length {space.ambient_dim}")
    return _coerce(space, p)


def _check_sphere_admissible(space: SpaceForm, p: np.ndarray, curve: PolygonalCurve) -> None:
    """Raise unless each apex of p (..., ambient_dim) is clear of the curve's
    antipodes; the first offending apex, in order, names the failure.

    An apex whose vertices all lie within pi/2 - 1e-9 of it has the whole
    curve in its open hemisphere, since minor arcs between points of that
    hemisphere stay in it, so its antipode is more than pi/2 from the curve.
    Only the other apexes are measured against the segments.
    """
    p = np.reshape(p, (-1, p.shape[-1]))
    vd = dist_arrays(space, p[:, None, :], curve.vertices)
    anti_vertex = np.any(vd > np.pi - 1e-9, axis=-1)
    far = np.any(vd >= np.pi / 2.0 - 1e-9, axis=-1)
    anti_segment = np.zeros(len(p), dtype=bool)
    if np.any(far):
        anti_dist = np.min(_segment_distances(space.kind, -embed(space, p[far]), curve), axis=-1)
        anti_segment[far] = anti_dist < ON_CURVE_TOL
    bad = anti_vertex | anti_segment
    if np.any(bad):
        if anti_vertex[np.argmax(bad)]:
            raise GeometryError("apex is antipodal to a curve vertex")
        raise GeometryError("the apex antipode meets a curve segment")


# ---------------------------------------------------------------------------
# cone density: one batched kernel, its wrappers and the sampled oracle
# ---------------------------------------------------------------------------


def _locate(space: SpaceForm, x: np.ndarray, curve: PolygonalCurve,
            tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Case code into _CASES and curve index (-1 off the curve) of each apex x
    (n, ambient_dim): an apex within tol of a segment is at the nearest vertex
    if that is within tol, else on the first segment within tol."""
    seg_d = _segment_distances(space.kind, embed(space, x), curve)
    on = np.min(seg_d, axis=-1) < tol
    case = np.zeros(len(x), dtype=int)
    index = np.full(len(x), -1)
    if np.any(on):
        vd = dist_arrays(space, x[on][:, None, :], curve.vertices)
        at_vertex = np.min(vd, axis=-1) < tol
        index[on] = np.where(at_vertex, np.argmin(vd, axis=-1), np.argmax(seg_d[on] < tol, axis=-1))
        case[on] = np.where(at_vertex, _AT_VERTEX, _ON_EDGE)
    return case, index


def _angles(space: SpaceForm, x: np.ndarray, curve: PolygonalCurve, case: np.ndarray,
            index: np.ndarray) -> np.ndarray:
    """Cone angle of each apex x (n, ambient_dim) in its case, at its index.
    Off the curve the unit tangents towards the k vertices are formed once,
    (n, k), and every segment adds the half-angle of its end tangents, paired
    by _segments; apexes in S^n must clear the curve's antipodes.  On the
    curve, segments through the apex add nothing, so only kept pairs are
    gathered."""
    on = case != 0
    angle = np.empty(len(x))
    if not np.all(on):
        off = x[~on]
        if space.kind is Kind.SPHERE:
            _check_sphere_admissible(space, off, curve)
        t = _tangents_can(space.kind, embed(space, off)[:, None, :], embed(space, curve.vertices))
        angle[~on] = np.sum(_half_angle(*_segments(t, curve.closed), space.kind), axis=-1)
    if np.any(on):
        starts, ends = _segments(curve.vertices, curve.closed)
        idx, at_vertex = index[on], case[on] == _AT_VERTEX
        s = np.arange(curve.n_segments)
        skip = (s == idx[:, None]) | (at_vertex[:, None] & ((s + 1) % curve.k == idx[:, None]))
        rows, segs = np.nonzero(~skip)
        chain = np.zeros(skip.shape)
        chain[rows, segs] = vertex_angle_arrays(space, x[on][rows], starts[segs], ends[segs])
        angle[on] = np.sum(chain, axis=-1)
    return angle


def _bounds(curve: PolygonalCurve, case: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Strict density bound for each apex of _locate: 2 off the curve,
    3/2 on an edge, 3/2 - theta/(2 pi) at a vertex of exterior angle theta."""
    bound = np.where(case == _ON_EDGE, 1.5, 2.0)
    at_vertex = case == _AT_VERTEX
    if np.any(at_vertex):
        idx = index[at_vertex]
        if not curve.closed:
            if np.any((idx == 0) | (idx == curve.k - 1)):
                raise GeometryError("no exterior angle at an open-curve endpoint")
            idx = idx - 1  # open curves have turning angles at interior vertices only
        bound[at_vertex] = 1.5 - turning_angles(curve)[idx] / (2.0 * math.pi)
    return bound


def _report(x: np.ndarray, angle, case, bound) -> ConeDensityReport:
    angle, bound = float(angle), float(bound)
    density = angle / (2.0 * math.pi)
    return ConeDensityReport(x, angle, density, _CASES[case], bound, density < bound)


def cone_angle(space: SpaceForm, p, curve: PolygonalCurve) -> float:
    """Sum over segments of the apex angle subtended at p.

    Equals the length of the radial projection of the curve onto the unit
    direction sphere at p.  The apex must lie off the curve; on the sphere
    it must also be non-antipodal to every curve point.
    """
    x = _coerce_coords(space, p, curve)[None]
    case, index = _locate(space, x, curve, ON_CURVE_TOL)
    if case[0]:
        raise OnCurveError("apex lies on the curve; use on_curve_bound")
    return float(_angles(space, x, curve, case, index)[0])


def on_curve_bound(space: SpaceForm, p, curve: PolygonalCurve) -> float:
    """Density bound for an apex on the curve: 3/2 on an edge interior,
    3/2 - theta/(2 pi) at a vertex of exterior angle theta."""
    case, index = _locate(space, _coerce_coords(space, p, curve)[None], curve, ON_CURVE_TOL)
    if not case[0]:
        raise GeometryError("point does not lie on the curve")
    return float(_bounds(curve, case, index)[0])


def density_report(space: SpaceForm, p, curve: PolygonalCurve,
                   tol: float = ON_CURVE_TOL) -> ConeDensityReport:
    """Cone density at p with the applicable strict bound; p lies on the
    curve when it is within tol of it."""
    x = _coerce_coords(space, p, curve)[None]
    case, index = _locate(space, x, curve, tol)
    angle = _angles(space, x, curve, case, index)
    return _report(x[0], angle[0], case[0], _bounds(curve, case, index)[0])


def cone_angle_sampled(space: SpaceForm, p, curve: PolygonalCurve) -> float:
    """Oracle for cone_angle: a second closed form through another chart.

    Moves p to the chart base point by an isometry and maps the vertices to
    the chart in which geodesics from the base point are rays from the
    origin: the stereographic chart on the sphere, the Poincare ball in
    hyperbolic space, a translation in Euclidean space.  Each segment then
    adds the great-circle arc between the radial projections of its end
    vertices onto the unit sphere.  One arc per segment is exact, not a
    quadrature: the segment and the apex span a totally geodesic plane,
    which the chart maps into a plane through the origin, so the radial
    projection of the whole segment is that one arc, shorter than pi.  It
    never meets cone_angle's tangent vectors at p.
    """
    x = _coerce_coords(space, p, curve)
    if point_curve_distance(space, x, curve) < ON_CURVE_TOL:
        raise OnCurveError("apex lies on the curve; use on_curve_bound")
    if space.kind is Kind.SPHERE:
        _check_sphere_admissible(space, x, curve)
    chart_model = {Kind.SPHERE: Model.STEREO_BALL, Kind.HYPERBOLIC: Model.POINCARE_BALL}
    chart = convert_coords(space, base_point_isometry(space, x).apply(curve.vertices),
                           chart_model.get(space.kind, space.model))
    rad = np.sqrt(np.einsum("ki,ki->k", chart, chart))
    if np.any(rad < 1e-14):
        raise GeometryError("radial projection hit the apex")
    starts, ends = _segments(chart / rad[:, None], curve.closed)
    chords = np.sqrt(np.einsum("ki,ki->k", ends - starts, ends - starts))
    return float(np.sum(2.0 * np.arcsin(np.clip(chords / 2.0, 0.0, 1.0))))


# ---------------------------------------------------------------------------
# geodesic hull sampling
# ---------------------------------------------------------------------------


def hull_sample(space: SpaceForm, vertices: np.ndarray, n: int, rng=0,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Sample the geodesic convex hull of a vertex set.

    Each weight row w (Dirichlet unless given) maps the ambient vertices to
    y = sum_i w_i v_i / sum_i w_i, which is scaled onto the model: y in R^n,
    y/|y| on S^n, y/sqrt(-<y,y>_M) on H^n.  So the weights are convex weights
    in R^n and, in the gnomonic (S^n) or Klein (H^n) chart, homogeneous
    barycentric coordinates.  S^n needs the vertices in an open hemisphere
    (certify asks for a pi/4 cap); a vanishing y raises GeometryError.
    """
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    k = v.shape[0]
    if k < 1:
        raise GeometryError("hull of an empty set")
    rng = as_rng(rng)
    if weights is None:
        weights = rng.dirichlet(np.ones(k), size=n)
    else:
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        if weights.shape != (n, k):
            raise GeometryError(f"weights must have shape ({n}, {k})")
        if not np.all(np.isfinite(weights)):
            raise GeometryError("weights must be finite")
        if np.any(weights < 0):
            raise GeometryError("weights must be nonnegative")
        total = np.sum(weights, axis=-1, keepdims=True)
        if np.any(total <= 0):
            raise GeometryError("each row of weights must have a positive sum")
        weights = weights / total
    return unembed(space, _renorm(space.kind, weights @ embed(space, v)))


# ---------------------------------------------------------------------------
# smallest enclosing geodesic ball (sphere)
# ---------------------------------------------------------------------------


def min_enclosing_ball(space: SpaceForm, points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest geodesic ball containing the points (sphere kind).

    For unit vectors in an open hemisphere, max over unit c of min_i <c, p_i>
    equals min over x in conv(P) of |x| (Gilbert 1966, Wolfe 1976), so the
    smallest cap has centre x*/|x*| and radius arccos |x*|, where x* is the
    min-norm point of the hull of the embedded points in R^n.  Wolfe's finite
    active set finds x*: major cycles add the p_j of largest gap <x - p_j, x>
    until none exceeds _GAP_TOL max_j |e_j|^2/2; minor cycles drop support
    points on the way to the support's affine min-norm point x = p0 + y,
    y = D^T mu, D y = -D p0 = |D|^2/2 (D = P_S[1:] - p0, unit points).  The
    gap is |e_j|^2/2 + <e_j, y> - mu.|D|^2/2 + |y|^2 with e_j = p0 - p_j:
    differences keep full relative precision where dot products lose it on
    small caps.  Returns (center in space.model coords, geodesic radius
    max_i d(center, p_i)); raises GeometryError when the points lie in no open
    hemisphere (x* = 0) and NumericalError after _MAX_CYCLES major cycles.
    """
    if space.kind is not Kind.SPHERE:
        raise GeometryError("min_enclosing_ball is implemented for the sphere")
    pc = embed(space, np.atleast_2d(np.asarray(points, dtype=float)))
    s, w = [0], np.ones(1)  # support rows of pc and their convex weights
    for _ in range(_MAX_CYCLES):
        e = pc[s[0]] - pc
        y = -e[s[1:]].T @ w[1:]  # x = p0 + y
        half = 0.5 * np.einsum("ji,ji->j", e, e)
        gap = half + e @ y - w[1:] @ half[s[1:]] + y @ y
        j = int(np.argmax(gap))
        if gap[j] <= _GAP_TOL * np.max(half) or j in s:  # a support point's gap is only rounding
            break
        s, w = s + [j], np.append(w, 0.0)
        while True:
            d = pc[s[1:]] - pc[s[0]]
            pinv = np.linalg.pinv(d)
            mu = pinv.T @ (pinv @ (0.5 * np.einsum("ji,ji->j", d, d)))
            v = np.r_[1.0 - np.sum(mu), mu]
            if np.all(v >= 0.0):
                break
            neg = np.flatnonzero(v < 0.0)  # step from w toward v until a weight reaches 0
            i = neg[np.argmin(w[neg] / (w[neg] - v[neg]))]
            w = w + w[i] / (w[i] - v[i]) * (v - w)
            w[i] = 0.0
            s, w = [p for p, keep in zip(s, w > 0.0) if keep], w[w > 0.0]
        w = v
    else:
        raise NumericalError(f"no enclosing cap within {_MAX_CYCLES} active-set cycles")
    x = pc[s[0]] + y
    nb = np.linalg.norm(x)  # cos(radius)
    if nb < 1e-12:
        raise GeometryError("points lie in no open hemisphere")
    c = x / nb
    radius = float(np.max(_dist_can(Kind.SPHERE, c[None, :], pc)))
    return unembed(space, c), radius


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def certify_embedded(space: SpaceForm, curve: PolygonalCurve, n_samples: int = 1000,
                     rng=0, tol: float = ON_CURVE_TOL) -> Certificate:
    """Sampled embeddedness certificate for a simple closed polygonal boundary.

    Designed for 5-gon boundaries, where the density bounds are sharp enough
    to always certify; longer knotted boundaries are expected to fail and
    come back Inconclusive.  Distances are closed forms, those of the
    simplicity check's segment pairs too, and all samples go through the
    density kernel in one batch; samples within tol of the curve get the
    on-curve chain angle and bound.  The k vertices join the same angle call
    as at-vertex apexes, with no detection, and a vertex at or above its bound
    makes the verdict Inconclusive with a reason naming it.  The worst sample
    is the first hull sample of least margin.  Verdict Certified means every
    hull sample and every vertex satisfied its strict density bound; it is
    evidence at the sampled resolution, not a proof over the whole hull.
    """
    _check_space(space, curve)
    report = validate(curve)
    if not report.simple:
        raise GeometryError(f"curve must be simple: {report.violations}")
    if not curve.closed or curve.k < 3:
        raise GeometryError("certification expects a closed curve of >= 3 segments")
    preconditions = ["boundary curve is simple (validated)"]
    if space.kind is Kind.SPHERE:
        try:
            _, radius = min_enclosing_ball(space.canonical, embed(space, curve.vertices))
        except NumericalError:
            raise  # the active set gave up: no reason to call the curve uncoverable
        except GeometryError:
            # canonical coords: the only other GeometryError is x* = 0
            return Certificate(CertVerdict.INCONCLUSIVE, 0, None, preconditions, reason=(
                "vertices lie in no open hemisphere: no geodesic ball of radius < pi/2,"
                " so none of radius < pi/4, contains them"))
        if radius >= SPHERE_BALL_LIMIT:
            return Certificate(CertVerdict.INCONCLUSIVE, 0, None, preconditions,
                               reason=f"enclosing geodesic ball radius {radius:.6f} >= pi/4")
        preconditions.append(f"enclosing geodesic ball radius {radius:.6f} < pi/4")

    samples = hull_sample(space, curve.vertices, n_samples, rng=rng)
    case, index = _locate(space, samples, curve, tol)
    case, index = np.r_[case, [_AT_VERTEX] * curve.k], np.r_[index, np.arange(curve.k)]
    angle = _angles(space, np.concatenate([samples, curve.vertices]), curve, case, index)
    bound = _bounds(curve, case, index)
    density = angle / (2.0 * math.pi)
    worst = None
    if n_samples:
        w = int(np.argmin(bound[:n_samples] - density[:n_samples]))
        worst = _report(samples[w], angle[w], case[w], bound[w])
    failed = ~(density < bound)
    reasons = ["a sampled density met or exceeded its bound"] if np.any(failed[:n_samples]) else []
    reasons += [f"vertex {v} has density {density[n_samples + v]:.6f} >= its at-vertex bound "
                f"{bound[n_samples + v]:.6f}" for v in np.flatnonzero(failed[n_samples:])]
    verdict = CertVerdict.INCONCLUSIVE if reasons else CertVerdict.CERTIFIED
    return Certificate(verdict, n_samples, worst, preconditions, "; ".join(reasons) or None)
