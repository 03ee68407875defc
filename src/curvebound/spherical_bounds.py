"""Length bounds for spherical polygons and chains, with sharpness witnesses.

Closed spherical polygons on k vertices have total length at most
2*floor(k/2)*pi.  Open chains gain or lose the endpoint separation theta:
3 points (open)  -> 2 pi - theta,
4 points (open)  -> 2 pi + theta,
2m+1 points open -> 2m pi - theta.
Equality forces an antipodal vertex pair or a single great circle, which
check_bound reports as flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstructionError, GeometryError
from .polycurve import PolygonalCurve, _segments, total_curvature, validate
from .spaceform import SpaceForm, _half_angle, as_rng

FLAG_TOL = 1e-8  # antipodal / great-circle detection


class BoundVariant(str, Enum):
    TRIANGLE = "triangle"       # 3 vertices, closed, bound 2 pi
    CHAIN1 = "chain1"           # 3 vertices, open, bound 2 pi - theta
    CHAIN2 = "chain2"           # 4 vertices, open, bound 2 pi + theta
    CLOSED_ODD = "closed_odd"   # 2m+1 vertices, closed, bound 2m pi
    OPEN_ODD = "open_odd"       # 2m+1 vertices, open, bound 2m pi - theta


_CLOSED_VARIANTS = (BoundVariant.TRIANGLE, BoundVariant.CLOSED_ODD)


@dataclass
class EqualityFlags:
    antipodal_pair: bool
    great_circle: bool


@dataclass
class BoundCheck:
    variant: BoundVariant
    points: np.ndarray
    measured: float
    bound: float
    theta: float | None
    slack: float
    equality_flags: EqualityFlags


@dataclass
class ExtremalResult:
    variant: BoundVariant
    k: int
    sup_estimate: float
    argmax: np.ndarray
    bound: float
    budget: tuple[int, int]


def _check_unit(points: np.ndarray) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    norms = np.linalg.norm(p, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise GeometryError("vertices must be unit vectors")
    return p / norms[..., None]


def _variant_arity(variant: BoundVariant, k: int) -> bool:
    closed = variant in _CLOSED_VARIANTS
    if variant is BoundVariant.TRIANGLE and k != 3:
        raise GeometryError("triangle variant needs exactly 3 vertices")
    if variant is BoundVariant.CHAIN1 and k != 3:
        raise GeometryError("chain1 variant needs exactly 3 vertices")
    if variant is BoundVariant.CHAIN2 and k != 4:
        raise GeometryError("chain2 variant needs exactly 4 vertices")
    if variant in (BoundVariant.CLOSED_ODD, BoundVariant.OPEN_ODD):
        if k < 3 or k % 2 == 0:
            raise GeometryError(f"{variant.value} variant needs an odd vertex count >= 3")
    return closed


def analytic_bound(k: int, closed: bool, theta=0.0):
    """Sharp length bound for a k-vertex spherical polygon or chain.

    theta, the endpoint separation of an open chain, may be an array.
    """
    if closed:
        return 2.0 * (k // 2) * math.pi
    if k % 2 == 1:
        return (k - 1) * math.pi - theta
    return (k - 2) * math.pi + theta


def _length_theta(p: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Length and endpoint separation theta (0 when closed) of (..., k, n) configurations."""
    segs = _half_angle(*_segments(p, closed))
    theta = np.zeros(p.shape[:-2]) if closed else _half_angle(p[..., 0, :], p[..., -1, :])
    return np.sum(segs, axis=-1), theta


def check_bound(points, variant: BoundVariant) -> BoundCheck:
    """Measure a configuration's length against its variant bound."""
    p = _check_unit(points)
    out = check_bound_batch(p[None], variant)
    theta = None if out["theta"] is None else float(out["theta"][0])
    flags = EqualityFlags(
        antipodal_pair=bool(out["antipodal_pair"][0]),
        great_circle=bool(out["great_circle"][0]),
    )
    return BoundCheck(variant, p, float(out["measured"][0]), float(out["bound"][0]),
                      theta, float(out["slack"][0]), flags)


def _great_circle_candidates(p: np.ndarray) -> np.ndarray:
    """Rows of a (B, k, 3) batch whose third singular value may lie below FLAG_TOL.

    A row is dropped when one of its k cyclically consecutive vertex triples
    (one triple when k == 3) has |det T| > |T|_F^2 FLAG_TOL: a factor 2 above
    the exact bound, as a rounding margin.  NaN rows stay candidates, so the
    SVD still rejects them.
    """
    k = p.shape[1]
    idx = np.arange(1 if k == 3 else k)
    a, b, c = (p[:, (idx + s) % k] for s in range(3))
    # any three rows T of P: sigma_3(T) <= sigma_3(P) (interlacing) and |det T| <=
    # (|T|_F^2 / 2) sigma_3(T), so sigma_3(P) < FLAG_TOL needs |det T| < |T|_F^2 FLAG_TOL / 2
    frob = np.sum(a * a + b * b + c * c, axis=-1)
    det = np.sum(a * np.cross(b, c), axis=-1)
    return ~np.any(np.abs(det) > frob * FLAG_TOL, axis=1)


def check_bound_batch(points: np.ndarray, variant: BoundVariant) -> dict:
    """Measure a batch (B, k, n) of unit-vector polygons against the variant bound.

    Equality flags: an antipodal vertex pair, and all vertices on one great
    circle (third singular value below FLAG_TOL).
    """
    p = np.asarray(points, dtype=float)
    b, k, n = p.shape
    closed = _variant_arity(variant, k)
    measured, theta = _length_theta(p, closed)
    bound = np.full(b, analytic_bound(k, closed, theta))

    antipodal = np.zeros(b, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            antipodal |= np.linalg.norm(p[:, i] + p[:, j], axis=-1) < FLAG_TOL
    coplanar = np.full(b, n <= 2)
    if n > 2:
        rows = _great_circle_candidates(p) if n == 3 else slice(None)
        coplanar[rows] = np.linalg.svd(p[rows], compute_uv=False)[:, 2] < FLAG_TOL
    return {
        "measured": measured,
        "bound": bound,
        "slack": bound - measured,
        "theta": None if closed else theta,
        "antipodal_pair": antipodal,
        "great_circle": coplanar,
    }


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


def _slack(p: np.ndarray, k: int, closed: bool) -> float:
    """check_bound's slack of one (k, n) configuration, without the flags.

    The rows are renormalized as check_bound renormalizes them.
    """
    measured, theta = _length_theta(_check_unit(p), closed)
    return float(analytic_bound(k, closed, theta) - measured)


def extremal_search(
    k: int,
    variant: BoundVariant = BoundVariant.CLOSED_ODD,
    budget: tuple[int, int] = (32, 500),
    rng=0,
    dim: int = 3,
) -> ExtremalResult:
    """Empirically maximize configuration length under the variant's rules.

    Coordinate-wise ascent with one exact move per vertex.  Fix the
    neighbours a and b of a vertex q.  Its two arcs sum to
    d(a,q) + d(q,b) = 2 pi - d(-a,q) - d(q,-b) <= 2 pi - d(a,b),
    with equality at q = -a and at q = -b.  An open chain's endpoint has one
    neighbour a and meets the far endpoint b through theta: the +theta
    variants give the same sum, and CHAIN2's -theta gives
    d(q,a) - d(q,b) <= d(a,b), with equality at q = -a.  So moving q to the
    antipode of its previous vertex (of its only neighbour at the start of
    an open chain) attains the exact per-vertex maximum, and no local
    optimizer can do better.  The search ends on degenerate configurations
    that attain the bound; near-simple ones are sharpness_family's job.

    The supremum estimate is the cap minus the slack that check_bound
    reports for argmax, clamped at the cap.
    """
    closed = _variant_arity(variant, k)
    rng = as_rng(rng)
    restarts, sweeps = budget
    cap = analytic_bound(k, closed)

    best_slack = np.inf
    best_cfg = None
    for _ in range(max(1, restarts)):
        p = rng.standard_normal((k, dim))
        p /= np.linalg.norm(p, axis=-1, keepdims=True)
        slack = _slack(p, k, closed)
        for _sweep in range(max(1, sweeps)):
            improved = False
            for i in range(k):
                old = p[i].copy()
                p[i] = -p[i - 1 if i > 0 or closed else 1]
                s = _slack(p, k, closed)
                if s < slack - 1e-13:
                    slack = s
                    improved = True
                else:
                    p[i] = old
            if not improved:
                break
        if slack < best_slack:
            best_slack = slack
            best_cfg = p.copy()

    sup = min(cap - best_slack, cap)
    return ExtremalResult(variant, k, sup, best_cfg, cap, (restarts, sweeps))


# ---------------------------------------------------------------------------
# sharpness family
# ---------------------------------------------------------------------------


def sharpness_family(m: int, eps: float, seed=0) -> PolygonalCurve:
    """A simple closed (2m+1)-gon in R^3 with total curvature in [2m pi - eps, 2m pi).

    Construction: a segment traversed back and forth m times plus one extra
    vertex in a segment interior (total curvature exactly 2m pi when
    degenerate), perturbed by eps/(10 k) per coordinate and re-sampled until
    it validates as simple.  The perturbation scale is halved if the angle
    deficit overshoots eps.  A simple triangle is planar and convex, so its
    total curvature is 2 pi exactly: for m = 1 the witness attains the bound,
    and the first simple perturbation is returned.
    """
    if m < 1:
        raise GeometryError("m must be >= 1")
    if not 0.0 < eps <= 0.1:
        raise GeometryError("eps must lie in (0, 0.1]")
    k = 2 * m + 1
    target = 2.0 * m * math.pi
    base = np.zeros((k, 3))
    base[1:-1:2, 0] = 1.0
    base[-1] = (0.5, 0.0, 0.0)
    rng = as_rng(seed)
    pattern = rng.uniform(-1.0, 1.0, size=(k, 3))
    delta = eps / (10.0 * k)
    space = SpaceForm.euclidean(3)
    for _ in range(80):
        curve = PolygonalCurve(space, base + delta * pattern, closed=True)
        report = validate(curve)
        if not report.simple:
            pattern = rng.uniform(-1.0, 1.0, size=(k, 3))
            continue
        tc = total_curvature(curve)
        if m == 1 or target - eps <= tc <= target - 1e-12:
            return curve
        delta *= 0.5
    raise ConstructionError(
        f"could not certify a simple sharpness witness for m={m}, eps={eps}"
    )
