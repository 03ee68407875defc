"""Mobius action on the unit sphere and numerical Mobius volume.

The conformal volume machinery: ball translations T_a act on the boundary
sphere, the Mobius volume of a curve is the supremum of spherical length
over the translation orbit.  The sup is approached (possibly only in the
blow-up limit |a| -> 1, where the image converges to a great circle), so
the search caps |a| and takes the max with the analytic blow-up value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NumericalError
from .spaceform import as_rng

BALL_LIMIT = 1.0 - 1e-12
SEARCH_CAP = 1.0 - 1e-6
DENOM_TOL = 1e-14
GRID_CHUNK_ELEMS = 2**14  # rows x chords per translate_lengths call in the grid
GRID_REFINEMENTS = 2  # shrinking balls after the grid's global layer


@dataclass(frozen=True)
class MobiusMap:
    """Ball translation with parameter a, |a| < 1, acting on the sphere."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        if self.a.ndim != 1:
            raise GeometryError("translation parameter must be a vector")
        if np.linalg.norm(self.a) >= BALL_LIMIT:
            raise GeometryError("translation parameter must satisfy |a| < 1 - 1e-12")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return mobius_translate(self.a, x)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(-self.a)


def mobius_translate(a, x: np.ndarray) -> np.ndarray:
    """T_a(x) = [(1-|a|^2) x + (|x|^2 + 2<x,a> + 1) a] / (|a|^2 |x|^2 + 2<x,a> + 1).

    Bijection of the unit sphere with inverse T_{-a}; output renormalized
    (drift before renormalization is at the 1e-14 level).
    """
    if isinstance(a, MobiusMap):
        a = a.a
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(a) >= BALL_LIMIT:
        raise GeometryError("translation parameter must satisfy |a| < 1 - 1e-12")
    a2 = float(np.dot(a, a))
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    xa = np.sum(x * a, axis=-1, keepdims=True)
    den = a2 * x2 + 2.0 * xa + 1.0
    if np.any(np.abs(den) < DENOM_TOL):
        raise NumericalError("Mobius translation denominator vanished")
    out = ((1.0 - a2) * x + (x2 + 2.0 * xa + 1.0) * a) / den
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# sampled curves and length
# ---------------------------------------------------------------------------


@dataclass
class SampledCurve:
    """Dense samples of a curve on the unit sphere.

    ``breaks`` lists sample indices where the curve is merely continuous
    (corners); length extrapolation is applied per smooth piece so corners
    do not pollute the convergence order.
    """

    points: np.ndarray          # (N, n) unit vectors
    closed: bool = True
    breaks: tuple[int, ...] = ()

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        norms = np.linalg.norm(self.points, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise GeometryError("samples must be unit vectors")
        n = self.points.shape[0]
        self.breaks = tuple(sorted(int(b) % n for b in set(self.breaks)))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def transform(self, a) -> "SampledCurve":
        return SampledCurve(mobius_translate(a, self.points), self.closed, self.breaks)


def _chord_plan(n: int, closed: bool, breaks=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (I, J) and weights w with length = w @ |x_I - x_J|.

    The samples split at ``breaks`` into smooth pieces.  A piece of m chords
    with m >= 4 even is extrapolated by Richardson step-halving,
    l1 + (l1 - l2) / 3: its chords weigh 4/3 and its double-step chords
    -1/3.  The chords of any other piece weigh 1.
    """
    if n < 2:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    if closed:
        marks = list(breaks) if breaks else [0]
        pieces = [np.arange(start, stop + 1) if stop > start
                  else np.concatenate([np.arange(start, n), np.arange(0, stop + 1)])
                  for start, stop in zip(marks, marks[1:] + marks[:1])]
    else:
        marks = [0] + [b for b in breaks if 0 < b < n - 1] + [n - 1]
        pieces = [np.arange(a, b + 1) for a, b in zip(marks[:-1], marks[1:])]
    i, j, w = [], [], []
    for idx in pieces:
        m = idx.size - 1
        richardson = m >= 4 and m % 2 == 0
        i.append(idx[:-1])
        j.append(idx[1:])
        w.append(np.full(m, 4.0 / 3.0 if richardson else 1.0))
        if richardson:
            i.append(idx[:-2:2])
            j.append(idx[2::2])
            w.append(np.full(m // 2, -1.0 / 3.0))
    return np.concatenate(i), np.concatenate(j), np.concatenate(w)


def _chord_lengths(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    d = np.take(pts, i, axis=0) - np.take(pts, j, axis=0)
    return np.sqrt(np.einsum("pk,pk->p", d, d))


def polyline_length(points: np.ndarray, closed: bool, breaks: tuple[int, ...] = ()) -> float:
    """Length of a sampled curve in R^n, extrapolated piece by piece."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    i, j, w = _chord_plan(pts.shape[0], closed, breaks)
    return float(w @ _chord_lengths(pts, i, j))


def curve_length_on_sphere(curve: SampledCurve) -> float:
    """Spherical length of the sampled curve.

    A curve on the unit sphere has round-metric length equal to its
    Euclidean arc length, so chord sums with Richardson extrapolation
    converge at O(h^2) and better on smooth pieces.
    """
    return polyline_length(curve.points, curve.closed, curve.breaks)


@dataclass(frozen=True)
class Chords:
    """Chord plan of a sampled curve for ``translate_lengths``.

    ``xt`` holds the samples, normalized once, one row per coordinate; ``c``
    the weighted chords w * |x_i - x_j| of ``_chord_plan``.
    """

    xt: np.ndarray  # (n, N) unit samples, transposed
    i: np.ndarray   # (P,) chord start indices
    j: np.ndarray   # (P,) chord end indices
    c: np.ndarray   # (P,) weighted chord lengths

    @classmethod
    def of(cls, curve: SampledCurve) -> "Chords":
        x = curve.points / np.linalg.norm(curve.points, axis=-1, keepdims=True)
        i, j, w = _chord_plan(curve.n, curve.closed, curve.breaks)
        return cls(np.ascontiguousarray(x.T), i, j, w * _chord_lengths(x, i, j))


def translate_lengths(chords: Chords, A) -> np.ndarray:
    """Spherical lengths of the curve under the translations T_a, a in rows of A.

    Closed form from the conformal identity for unit x, y:
    |T_a x - T_a y| = (1 - |a|^2) |x - y| / (|x + a| |y + a|).  The
    denominators |x + a|^2 are summed coordinate by coordinate rather than
    expanded as 1 + |a|^2 + 2<x, a>, whose cancellation near x = -a costs
    up to 1e-8 relative.  Rows with |a| >= BALL_LIMIT or a denominator
    below DENOM_TOL give -inf.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    a2 = np.einsum("bk,bk->b", A, A)
    den = np.square(chords.xt[0] + A[:, :1])
    for k in range(1, A.shape[1]):
        den += np.square(chords.xt[k] + A[:, k:k + 1])
    ok = (np.sqrt(a2) < BALL_LIMIT) & (den.min(axis=-1) >= DENOM_TOL)
    den[~ok] = 1.0
    r = 1.0 / np.sqrt(den)
    pairs = np.take(r, chords.i, axis=1) * np.take(r, chords.j, axis=1)
    return np.where(ok, (1.0 - a2) * (pairs @ chords.c), -np.inf)


def round_sphere_volume(m: int) -> float:
    """Volume of the unit (m-1)-sphere: m * omega_m, omega_m = pi^(m/2)/Gamma(m/2+1)."""
    if m < 1:
        raise GeometryError("dimension parameter must be >= 1")
    omega = math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)
    return m * omega


# ---------------------------------------------------------------------------
# curve constructors
# ---------------------------------------------------------------------------


def great_circle_curve(n: int = 2048, frame: np.ndarray | None = None) -> SampledCurve:
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    if frame is None:
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
    else:
        e1, e2 = frame
    pts = np.cos(t)[:, None] * e1 + np.sin(t)[:, None] * e2
    return SampledCurve(pts, closed=True)


def latitude_circle_curve(beta: float, n: int = 2048) -> SampledCurve:
    """Circle at colatitude beta from the north pole; length 2 pi sin(beta)."""
    if not 0.0 < beta < np.pi:
        raise GeometryError("colatitude must lie in (0, pi)")
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    sb, cb = math.sin(beta), math.cos(beta)
    pts = np.stack([sb * np.cos(t), sb * np.sin(t), np.full_like(t, cb)], axis=-1)
    return SampledCurve(pts, closed=True)


def example_34_curve(eps: float, samples_per_piece: int = 512) -> SampledCurve:
    """Piecewise-circular Jordan curve on S^2 built from two orthogonal
    great circles.

    Remove the two equator arcs within angle eps of the intersection axis,
    then reconnect the four endpoints with two half great circles, one
    through each pole, meeting the equator orthogonally.  Total length is
    4 pi - 4 eps.
    """
    if not 0.0 < eps < np.pi / 2:
        raise GeometryError("eps must lie in (0, pi/2)")
    m = samples_per_piece
    north = np.array([0.0, 0.0, 1.0])
    south = -north

    def equator(phi):
        return np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)

    def semicircle(start, pole, s):
        return np.cos(s)[:, None] * start + np.sin(s)[:, None] * pole

    s_half = np.linspace(0.0, np.pi, m, endpoint=False)
    phi_a = np.linspace(eps, np.pi - eps, m, endpoint=False)
    a_end = equator(np.array([np.pi - eps]))[0]
    phi_b = np.linspace(-eps, -(np.pi - eps), m, endpoint=False)
    b_end = equator(np.array([-(np.pi - eps)]))[0]

    pieces = [
        equator(phi_a),                      # arc of S from eps to pi - eps
        semicircle(a_end, north, s_half),    # detour over the north pole
        equator(phi_b),                      # arc of S from -eps to -(pi - eps)
        semicircle(b_end, south, s_half),    # detour under the south pole
    ]
    pts = np.concatenate(pieces, axis=0)
    breaks = (0, m, 2 * m, 3 * m)
    return SampledCurve(pts, closed=True, breaks=breaks)


# ---------------------------------------------------------------------------
# Mobius volume search
# ---------------------------------------------------------------------------


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on first call.

    Importing ``scipy.optimize`` costs more than most subcommands' whole
    run, and only the Mobius volume search needs it.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


@dataclass
class MobiusVolumeResult:
    curve: SampledCurve
    sup_estimate: float
    argmax_a: np.ndarray
    lower_bound_great_sphere: float
    budget: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "sup_estimate": self.sup_estimate,
            "argmax_a": [float(v) for v in self.argmax_a],
            "lower_bound_great_sphere": self.lower_bound_great_sphere,
            "budget": self.budget,
        }


def mobius_volume(curve: SampledCurve, restarts: int = 32, iterations: int = 500,
                  rng=0) -> MobiusVolumeResult:
    """Lower estimate of sup over |a| < 1 of the translated curve's length.

    Multi-start Nelder-Mead over the translation parameter with a barrier
    at |a| = SEARCH_CAP, always including a = 0; each evaluation is one row of
    ``translate_lengths`` on a chord plan built once.  For closed curves
    the analytic blow-up lower bound (a pushed to a curve point gives a
    great circle of length 2 pi in the limit) is folded into the max.
    """
    rng = as_rng(rng)
    dim = curve.points.shape[1]
    chords = Chords.of(curve)

    def neg_length(a):
        if np.linalg.norm(a) >= SEARCH_CAP:
            return 1e9 * (1.0 + float(np.linalg.norm(a)))
        return -float(translate_lengths(chords, a)[0])

    starts = [np.zeros(dim)]
    while len(starts) < max(1, restarts):
        cand = rng.uniform(-1.0, 1.0, size=dim)
        if np.linalg.norm(cand) < 0.9:
            starts.append(cand)

    best_len = -np.inf
    best_a = np.zeros(dim)
    for a0 in starts:
        res = minimize(
            neg_length,
            a0,
            method="Nelder-Mead",
            options={
                "maxiter": iterations,
                "xatol": 1e-10,
                "fatol": 1e-12,
                "initial_simplex": _init_simplex(a0, 0.05),
            },
        )
        val = -float(res.fun)
        if val > best_len:
            best_len = val
            best_a = np.asarray(res.x, dtype=float)

    lower = round_sphere_volume(2) if curve.closed else 0.0
    sup = max(best_len, lower)
    budget = {"restarts": int(restarts), "iterations": int(iterations), "cap": SEARCH_CAP}
    return MobiusVolumeResult(curve, sup, best_a, lower, budget)


def _init_simplex(a0: np.ndarray, step: float) -> np.ndarray:
    d = a0.shape[0]
    simplex = np.tile(a0, (d + 1, 1))
    for i in range(d):
        simplex[i + 1, i] += step
    return simplex


def mobius_volume_grid(curve: SampledCurve, n_points: int = 10_000, rng=0) -> MobiusVolumeResult:
    """Grid/refinement cross-check oracle for mobius_volume.

    Evaluates the objective on a global random grid in the parameter
    ball, then on successively shrinking balls around the running best.
    Each layer's points go through ``translate_lengths`` in chunks of
    GRID_CHUNK_ELEMS // (number of chords) rows, so memory stays bounded
    for any grid size.  The best value is taken with strict ``>`` and the
    first argmax, so ties keep the earliest point, as one point at a time
    would.
    """
    rng = as_rng(rng)
    dim = curve.points.shape[1]
    layers = GRID_REFINEMENTS + 1
    per_layer = max(1, n_points // layers)
    chords = Chords.of(curve)
    rows = max(1, GRID_CHUNK_ELEMS // max(1, chords.c.size))

    best_len = float(translate_lengths(chords, np.zeros(dim))[0])
    best_a = np.zeros(dim)
    center = np.zeros(dim)
    radius = SEARCH_CAP
    for _ in range(layers):
        raw = rng.standard_normal((per_layer, dim))
        raw /= np.linalg.norm(raw, axis=-1, keepdims=True)
        radii = radius * rng.uniform(0.0, 1.0, per_layer) ** (1.0 / dim)
        pts = center + raw * radii[:, None]
        pts = pts[np.linalg.norm(pts, axis=-1) < SEARCH_CAP]
        for start in range(0, pts.shape[0], rows):
            vals = translate_lengths(chords, pts[start:start + rows])
            k = int(np.argmax(vals))
            if vals[k] > best_len:
                best_len = float(vals[k])
                best_a = pts[start + k]
        center = best_a
        radius *= 2.0 * (per_layer ** (-1.0 / dim))

    lower = round_sphere_volume(2) if curve.closed else 0.0
    sup = max(best_len, lower)
    budget = {"n_points": int(n_points), "refinements": GRID_REFINEMENTS, "cap": SEARCH_CAP}
    return MobiusVolumeResult(curve, sup, best_a, lower, budget)
