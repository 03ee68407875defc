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
from itertools import combinations, islice

import numpy as np

from .errors import GeometryError, OnCurveError
from .polycurve import (
    PolygonalCurve,
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
    geodesic_arrays,
    unembed,
    vertex_angle_arrays,
    _interp_can,
    _dist_can,
)

ON_CURVE_TOL = 1e-8
SPHERE_BALL_LIMIT = math.pi / 4.0


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


def _coerce_coords(space: SpaceForm, p) -> np.ndarray:
    x = np.asarray(getattr(p, "coords", p), dtype=float)
    if x.shape != (space.ambient_dim,):
        raise GeometryError(f"apex coords must have length {space.ambient_dim}")
    return x


def _check_sphere_admissible(space: SpaceForm, p: np.ndarray, curve: PolygonalCurve) -> None:
    """Raise unless each apex of p (..., ambient_dim) is clear of the curve's
    antipodes; the first offending apex, in order, names the failure."""
    vd = dist_arrays(space, p[..., None, :], curve.vertices)
    anti_vertex = np.any(vd > np.pi - 1e-9, axis=-1)
    anti_dist = np.min(_segment_distances(space.kind, -embed(space, p), curve), axis=-1)
    bad = np.ravel(anti_vertex | (anti_dist < ON_CURVE_TOL))
    if np.any(bad):
        if np.ravel(anti_vertex)[np.argmax(bad)]:
            raise GeometryError("apex is antipodal to a curve vertex")
        raise GeometryError("the apex antipode meets a curve segment")


# ---------------------------------------------------------------------------
# cone density: one batched kernel, its wrappers and the sampled oracle
# ---------------------------------------------------------------------------


def _densities(space: SpaceForm, x: np.ndarray, curve: PolygonalCurve,
               tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cone angle, case code into _CASES and curve index of each apex x (n, ambient_dim).

    An apex within tol of a segment is at the nearest vertex if that is within
    tol, else on the first segment within tol; the index names it (-1 off the
    curve).  Off the curve every segment adds its apex angle, in one broadcast
    call, and apexes in S^n must clear the curve's antipodes.  On the curve,
    segments through the apex add nothing, so only kept pairs are gathered.
    """
    seg_d = _segment_distances(space.kind, embed(space, x), curve)
    on = np.min(seg_d, axis=-1) < tol
    starts, ends = _segments(curve.vertices, curve.closed)
    angle = np.empty(len(x))
    case = np.zeros(len(x), dtype=int)
    index = np.full(len(x), -1)
    if not np.all(on):
        off = x[~on]
        if space.kind is Kind.SPHERE:
            _check_sphere_admissible(space, off, curve)
        angle[~on] = np.sum(vertex_angle_arrays(space, off[:, None, :], starts, ends), axis=-1)
    if np.any(on):
        xs = x[on]
        vd = dist_arrays(space, xs[:, None, :], curve.vertices)
        at_vertex = np.min(vd, axis=-1) < tol
        idx = np.where(at_vertex, np.argmin(vd, axis=-1), np.argmax(seg_d[on] < tol, axis=-1))
        s = np.arange(curve.n_segments)
        skip = (s == idx[:, None]) | (at_vertex[:, None] & ((s + 1) % curve.k == idx[:, None]))
        rows, segs = np.nonzero(~skip)
        chain = np.zeros(skip.shape)
        chain[rows, segs] = vertex_angle_arrays(space, xs[rows], starts[segs], ends[segs])
        angle[on] = np.sum(chain, axis=-1)
        case[on] = np.where(at_vertex, _AT_VERTEX, _ON_EDGE)
        index[on] = idx
    return angle, case, index


def _bounds(curve: PolygonalCurve, case: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Strict density bound for each apex of _densities: 2 off the curve,
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
    angle, case, _ = _densities(space, _coerce_coords(space, p)[None], curve, ON_CURVE_TOL)
    if case[0]:
        raise OnCurveError("apex lies on the curve; use on_curve_bound")
    return float(angle[0])


def on_curve_bound(space: SpaceForm, p, curve: PolygonalCurve) -> float:
    """Density bound for an apex on the curve: 3/2 on an edge interior,
    3/2 - theta/(2 pi) at a vertex of exterior angle theta."""
    _, case, index = _densities(space, _coerce_coords(space, p)[None], curve, ON_CURVE_TOL)
    if not case[0]:
        raise GeometryError("point does not lie on the curve")
    return float(_bounds(curve, case, index)[0])


def density_report(space: SpaceForm, p, curve: PolygonalCurve,
                   tol: float = ON_CURVE_TOL) -> ConeDensityReport:
    """Cone density at p with the applicable strict bound; p lies on the
    curve when it is within tol of it."""
    x = _coerce_coords(space, p)
    angle, case, index = _densities(space, x[None], curve, tol)
    return _report(x, angle[0], case[0], _bounds(curve, case, index)[0])


def cone_angle_sampled(space: SpaceForm, p, curve: PolygonalCurve,
                       samples_per_segment: int = 2048) -> float:
    """Quadrature oracle for cone_angle.

    Moves p to the chart base point by an isometry, maps the vertices to
    the chart in which geodesics from the base point become rays from the
    origin (stereographic chart on the sphere, Poincare ball in hyperbolic
    space, a translation in Euclidean space), samples every segment along
    its geodesic in one call, radially projects the samples to the unit
    sphere, and sums chord-limit arc lengths.
    """
    x = _coerce_coords(space, p)
    if point_curve_distance(space, x, curve) < ON_CURVE_TOL:
        raise OnCurveError("apex lies on the curve; use on_curve_bound")
    if space.kind is Kind.SPHERE:
        _check_sphere_admissible(space, x, curve)
    iso = base_point_isometry(space, x)
    if space.kind is Kind.SPHERE:
        chart_space = space.with_model(Model.STEREO_BALL)
    elif space.kind is Kind.HYPERBOLIC:
        chart_space = space.with_model(Model.POINCARE_BALL)
    else:
        chart_space = space
    starts, ends = _segments(convert_coords(space, iso.apply(curve.vertices), chart_space.model),
                             curve.closed)
    t = np.linspace(0.0, 1.0, samples_per_segment + 1)
    # every segment, sampled along its geodesic, in one (k, S+1) chart array
    chart = geodesic_arrays(chart_space, starts[:, None, :], ends[:, None, :], t)
    rad = np.sqrt(np.einsum("ksi,ksi->ks", chart, chart))
    if np.any(rad < 1e-14):
        raise GeometryError("radial projection hit the apex")
    step = np.diff(chart / rad[..., None], axis=1)
    chords = np.sqrt(np.einsum("ksi,ksi->ks", step, step))
    return float(np.sum(2.0 * np.arcsin(np.clip(chords / 2.0, 0.0, 1.0))))


# ---------------------------------------------------------------------------
# geodesic hull sampling
# ---------------------------------------------------------------------------


def hull_sample(space: SpaceForm, vertices: np.ndarray, n: int, rng=0,
                weights: np.ndarray | None = None) -> np.ndarray:
    """Sample the geodesic convex hull of a vertex set.

    Each sample is an iterated weighted geodesic combination: interpolate
    through the vertices with Dirichlet weights (depth k-1 >= 3 for k >= 4).
    In Euclidean space this reproduces the convex combination exactly, so
    outputs satisfy LP membership in conv(vertices).
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
        if np.any(weights < 0):
            raise GeometryError("weights must be nonnegative")
        weights = weights / np.sum(weights, axis=-1, keepdims=True)
    kind = space.kind
    x = np.broadcast_to(embed(space, v[0]), (n, embed(space, v[0]).shape[-1])).copy()
    acc = weights[:, 0].copy()
    for i in range(1, k):
        wi = weights[:, i]
        new_acc = acc + wi
        t = np.where(new_acc > 1e-300, wi / np.where(new_acc > 1e-300, new_acc, 1.0), 0.0)
        x = _interp_can(kind, x, np.broadcast_to(embed(space, v[i]), x.shape), t)
        acc = new_acc
    return unembed(space, x)


# ---------------------------------------------------------------------------
# smallest enclosing geodesic ball (sphere)
# ---------------------------------------------------------------------------


def min_enclosing_ball(space: SpaceForm, points: np.ndarray) -> tuple[np.ndarray, float]:
    """Smallest geodesic ball containing the points (sphere kind).

    For unit vectors in an open hemisphere, max over unit c of min_i <c, p_i>
    equals min over x in conv(P) of |x| (Gilbert 1966, Wolfe 1976), so the
    smallest cap has centre x*/|x*| and radius arccos |x*|, where x* is the
    min-norm point of the hull of the embedded points in R^n.  x* is the
    min-norm point of the affine hull of some subset of at most n + 1 points
    with nonnegative weights, and every subset with nonnegative weights gives
    a point of conv(P), so x* is the least of them: no optimality test.  Each
    subset is solved relative to its first point: x = p0 + y with y = D^T mu
    and D y = -D p0, D = P_S[1:] - p0.  For unit points -D p0 is |D|^2/2 row
    by row, which the difference rows give to full relative precision where
    the dot products lose it on small caps.  Returns (center in space.model
    coords, geodesic radius max_i d(center, p_i)); raises GeometryError when
    the points lie in no open hemisphere (x* = 0).
    """
    if space.kind is not Kind.SPHERE:
        raise GeometryError("min_enclosing_ball is implemented for the sphere")
    pc = embed(space, np.atleast_2d(np.asarray(points, dtype=float)))
    k, n = pc.shape
    best = pc[0]
    for size in range(2, min(k, n + 1) + 1):
        subsets = combinations(range(k), size)
        while chunk := list(islice(subsets, 4096)):  # bounded memory on long curves
            sub = pc[chunk]
            d = sub[:, 1:] - sub[:, :1]
            b = 0.5 * np.einsum("sji,sji->sj", d, d)
            pinv = np.linalg.pinv(d)
            y = np.einsum("sij,sj->si", pinv, b)
            mu = np.einsum("sij,si->sj", pinv, y)
            x = sub[:, 0] + y
            resid = np.linalg.norm(np.einsum("sji,si->sj", d, y) - b, axis=-1)
            ok = (np.all(mu >= 0.0, axis=-1) & (np.sum(mu, axis=-1) <= 1.0)
                  & (resid <= 1e-9 * np.linalg.norm(b, axis=-1)))
            norms = np.where(ok, np.linalg.norm(x, axis=-1), np.inf)
            i = int(np.argmin(norms))
            if norms[i] < np.linalg.norm(best):
                best = x[i]
    nb = np.linalg.norm(best)  # cos(radius)
    if nb < 1e-12:
        raise GeometryError("points lie in no open hemisphere")
    c = best / nb
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
    simplicity check's segment pairs too, and all samples go
    through the density kernel in one batch; samples within tol of the curve
    get the on-curve chain angle and bound.  The worst sample is the first of
    least margin.  Verdict Certified means every hull sample satisfied its
    strict density bound; it is evidence at the sampled resolution, not a
    proof over the whole hull.
    """
    report = validate(curve)
    if not report.simple:
        raise GeometryError(f"curve must be simple: {report.violations}")
    if not curve.closed or curve.k < 3:
        raise GeometryError("certification expects a closed curve of >= 3 segments")
    preconditions = ["boundary curve is simple (validated)"]
    if space.kind is Kind.SPHERE:
        try:
            # canonical coords: the only GeometryError left is the hemisphere one
            _, radius = min_enclosing_ball(space.canonical, embed(space, curve.vertices))
        except GeometryError:
            return Certificate(CertVerdict.INCONCLUSIVE, 0, None, preconditions, reason=(
                "vertices lie in no open hemisphere: no geodesic ball of radius < pi/2,"
                " so none of radius < pi/4, contains them"))
        if radius >= SPHERE_BALL_LIMIT:
            return Certificate(CertVerdict.INCONCLUSIVE, 0, None, preconditions,
                               reason=f"enclosing geodesic ball radius {radius:.6f} >= pi/4")
        preconditions.append(f"enclosing geodesic ball radius {radius:.6f} < pi/4")

    samples = hull_sample(space, curve.vertices, n_samples, rng=rng)
    angle, case, index = _densities(space, samples, curve, tol)
    bound = _bounds(curve, case, index)
    density = angle / (2.0 * math.pi)
    worst = None
    if n_samples:
        w = int(np.argmin(bound - density))
        worst = _report(samples[w], angle[w], case[w], bound[w])
    all_pass = bool(np.all(density < bound))
    verdict = CertVerdict.CERTIFIED if all_pass else CertVerdict.INCONCLUSIVE
    reason = None if all_pass else "a sampled density met or exceeded its bound"
    return Certificate(verdict, n_samples, worst, preconditions, reason)
