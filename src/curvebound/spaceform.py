"""Constant-curvature ambient spaces: models, conversions, distances, angles.

Three space kinds are supported, each with explicit coordinate models:

* Euclidean  -- Cartesian coordinates in R^n.
* Sphere     -- unit vectors in R^(n+1), or the stereographic chart
                (the base point (-1, 0, ..., 0) maps to the chart origin).
* Hyperbolic -- the upper hyperboloid sheet in Minkowski R^(n+1), or the
                Poincare ball (the base point (1, 0, ..., 0) maps to 0).

All array-level functions accept leading batch axes; the Point/op layer
wraps them for single inputs.  Internally every computation runs in the
canonical model of its kind (Cartesian / embedded sphere / hyperboloid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    GeometryError,
    ModelMismatchError,
    NonUniqueGeodesicError,
    NumericalError,
)

ANTIPODAL_TOL = 1e-8
POINT_COORDS_TOL = 1e-6  # the model-constraint error check_point_coords allows


class Kind(str, Enum):
    EUCLIDEAN = "euclidean"
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"


class Model(str, Enum):
    CARTESIAN = "cartesian"
    UNIT_SPHERE = "unit_sphere"
    STEREO_BALL = "stereo_ball"
    HYPERBOLOID = "hyperboloid"
    POINCARE_BALL = "poincare_ball"


_ADMISSIBLE = {
    Kind.EUCLIDEAN: (Model.CARTESIAN,),
    Kind.SPHERE: (Model.UNIT_SPHERE, Model.STEREO_BALL),
    Kind.HYPERBOLIC: (Model.HYPERBOLOID, Model.POINCARE_BALL),
}

_CANONICAL = {
    Kind.EUCLIDEAN: Model.CARTESIAN,
    Kind.SPHERE: Model.UNIT_SPHERE,
    Kind.HYPERBOLIC: Model.HYPERBOLOID,
}


@dataclass(frozen=True)
class SpaceForm:
    """A constant-curvature space of dimension ``dim`` with a coordinate model."""

    kind: Kind
    dim: int
    model: Model

    def __post_init__(self):
        if self.dim < 1:
            raise GeometryError(f"dimension must be >= 1, got {self.dim}")
        if self.model not in _ADMISSIBLE[self.kind]:
            raise ModelMismatchError(
                f"model {self.model.value} is not valid for a {self.kind.value} space"
            )

    @staticmethod
    def euclidean(dim: int) -> "SpaceForm":
        return SpaceForm(Kind.EUCLIDEAN, dim, Model.CARTESIAN)

    @staticmethod
    def sphere(dim: int, model: Model = Model.UNIT_SPHERE) -> "SpaceForm":
        return SpaceForm(Kind.SPHERE, dim, model)

    @staticmethod
    def hyperbolic(dim: int, model: Model = Model.POINCARE_BALL) -> "SpaceForm":
        return SpaceForm(Kind.HYPERBOLIC, dim, model)

    @property
    def canonical(self) -> "SpaceForm":
        return SpaceForm(self.kind, self.dim, _CANONICAL[self.kind])

    @property
    def ambient_dim(self) -> int:
        """Length of a coordinate vector in this model."""
        if self.model in (Model.UNIT_SPHERE, Model.HYPERBOLOID):
            return self.dim + 1
        return self.dim

    def with_model(self, model: Model) -> "SpaceForm":
        return SpaceForm(self.kind, self.dim, model)

    def base_point_coords(self) -> np.ndarray:
        """Coordinates of the chart base point in this model."""
        if self.kind is Kind.EUCLIDEAN:
            return np.zeros(self.dim)
        x = np.zeros(self.dim + 1)
        x[0] = -1.0 if self.kind is Kind.SPHERE else 1.0
        if self.model in (Model.UNIT_SPHERE, Model.HYPERBOLOID):
            return x
        return np.zeros(self.dim)


@dataclass
class Point:
    """A point of a space form, tagged with the model its coords live in."""

    coords: np.ndarray
    space: SpaceForm

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (self.space.ambient_dim,):
            raise ModelMismatchError(
                f"expected {self.space.ambient_dim} coordinates for "
                f"{self.space.kind.value}/{self.space.model.value}, "
                f"got shape {self.coords.shape}"
            )
        check_point_coords(self.space, self.coords)

    def convert(self, model: Model) -> "Point":
        return convert(self, model)


def check_point_coords(space: SpaceForm, x: np.ndarray) -> None:
    """Raise if coords violate the model constraint by more than POINT_COORDS_TOL."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise GeometryError("non-finite coordinates")
    if space.model is Model.UNIT_SPHERE:
        err = np.abs(np.linalg.norm(x, axis=-1) - 1.0)
        if np.any(err > POINT_COORDS_TOL):
            raise GeometryError(f"point off the unit sphere by {float(np.max(err)):.3e}")
    elif space.model is Model.HYPERBOLOID:
        q = x[..., 0] ** 2 - np.sum(x[..., 1:] ** 2, axis=-1)
        if np.any(np.abs(q - 1.0) > 10 * POINT_COORDS_TOL) or np.any(x[..., 0] <= 0):
            raise GeometryError("point off the hyperboloid sheet")
    elif space.model is Model.POINCARE_BALL:
        r = np.linalg.norm(x, axis=-1)
        if np.any(r >= 1.0):
            raise GeometryError("Poincare ball coordinates must satisfy |x| < 1")


# ---------------------------------------------------------------------------
# model conversions (array level, batch friendly)
# ---------------------------------------------------------------------------


def embed(space: SpaceForm, x: np.ndarray) -> np.ndarray:
    """Model coords -> canonical coords (embedded sphere / hyperboloid / id)."""
    x = np.asarray(x, dtype=float)
    if space.model in (Model.CARTESIAN, Model.UNIT_SPHERE, Model.HYPERBOLOID):
        return x
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    if space.model is Model.STEREO_BALL:
        out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
        out[..., :1] = (r2 - 1.0) / (r2 + 1.0)
        out[..., 1:] = 2.0 * x / (r2 + 1.0)
        return out
    # Poincare ball
    if np.any(r2 >= 1.0):
        raise GeometryError("Poincare ball coordinates must satisfy |x| < 1")
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :1] = (1.0 + r2) / (1.0 - r2)
    out[..., 1:] = 2.0 * x / (1.0 - r2)
    return out


def unembed(space: SpaceForm, y: np.ndarray) -> np.ndarray:
    """Canonical coords -> coords in space.model."""
    y = np.asarray(y, dtype=float)
    if space.model in (Model.CARTESIAN, Model.UNIT_SPHERE, Model.HYPERBOLOID):
        return y
    if space.model is Model.STEREO_BALL:
        den = 1.0 - y[..., :1]
        if np.any(np.abs(den) < 1e-14):
            raise NumericalError("stereographic chart blows up at the projection pole")
        return y[..., 1:] / den
    return y[..., 1:] / (1.0 + y[..., :1])


def convert_coords(space: SpaceForm, x: np.ndarray, target: Model) -> np.ndarray:
    return unembed(space.with_model(target), embed(space, x))


def convert(p: Point, target: Model) -> Point:
    """Re-express a point in another model of the same space kind."""
    target_space = p.space.with_model(target)
    return Point(convert_coords(p.space, p.coords, target), target_space)


# ---------------------------------------------------------------------------
# metric primitives on canonical coords
# ---------------------------------------------------------------------------

# With <.,.> the Euclidean product on R^n and S^n and the Minkowski product on
# the hyperboloid, every point a of S^n or H^n has <a, a> = K, the curvature
# (+1 or -1), and the segment [a, b] of length L is cos(s) a + sin(s) u
# (sphere) or cosh(s) a + sinh(s) u (hyperboloid), s in [0, L], for the unit
# tangent u at a towards b.
_CURVATURE = {Kind.SPHERE: 1.0, Kind.HYPERBOLIC: -1.0}


def _inner(kind: Kind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> over the last axis: Minkowski on the hyperboloid, else Euclidean."""
    if kind is Kind.HYPERBOLIC:
        return np.einsum("...i,...i->...", x[..., 1:], y[..., 1:]) - x[..., 0] * y[..., 0]
    return np.einsum("...i,...i->...", x, y)


def _norm(kind: Kind, x: np.ndarray) -> np.ndarray:
    """|x| = sqrt <x, x>; on the hyperboloid a timelike x reads 0."""
    if kind is Kind.HYPERBOLIC:
        return np.sqrt(np.maximum(_inner(kind, x, x), 0.0))
    return np.sqrt(_inner(kind, x, x))


def _half_angle(x: np.ndarray, y: np.ndarray, kind: Kind = Kind.EUCLIDEAN) -> np.ndarray:
    """Angle between unit vectors x and y: 2 atan2(|x - y|, |x + y|).

    Kahan's form ("Miscalculating Area and Angles of a Needle-like
    Triangle", 2014) keeps full relative accuracy at every angle in [0, pi].
    """
    return 2.0 * np.arctan2(_norm(kind, x - y), _norm(kind, x + y))


def _dist_can(kind: Kind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if kind is Kind.EUCLIDEAN:
        return np.linalg.norm(a - b, axis=-1)
    if kind is Kind.SPHERE:
        return _half_angle(a, b)
    # cosh d = 1 + <a-b, a-b>_M / 2, so d = 2 arcsinh(|a-b|_M / 2): stable
    # at small separations where arccosh(-<a,b>_M) cancels; the difference
    # vector turns nearly null at large separations, so switch forms there
    t = np.maximum(-_inner(kind, a, b), 1.0)
    diff = a - b
    s = np.maximum(_inner(kind, diff, diff), 0.0)
    return np.where(t < 2.0, 2.0 * np.arcsinh(0.5 * np.sqrt(s)), np.arccosh(t))


def _renorm(kind: Kind, y: np.ndarray) -> np.ndarray:
    """Scale ambient vectors onto the canonical model of kind: the identity in
    R^n, y/|y| on S^n and y/sqrt(q), q = -<y,y>_M, on the hyperboloid sheet."""
    if kind is Kind.EUCLIDEAN:
        return y
    if kind is Kind.SPHERE:
        r = _norm(kind, y)[..., None]
        if np.any(r < ANTIPODAL_TOL):
            raise GeometryError("an ambient vector near 0 names no point of the sphere")
        return y / r
    q = -_inner(kind, y, y)
    if np.any(q <= 0):
        raise NumericalError("left the hyperboloid sheet")
    return y / np.sqrt(q)[..., None]


def _tangent(kind: Kind, p, x) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Tangent at p towards x, canonical coords; p and x broadcast.

    For d = x - p it returns the part of d orthogonal to p, w = d - K <d,p> p
    (w = d in R^n), its length |w| and <d,p> (None in R^n).  |w| is the sine,
    hyperbolic sine or length of the side, and <d,p> < -1 puts x in the
    hemisphere opposite p.  The projection is taken against p itself, so w
    stays tangent at p when p is off the model by rounding.
    """
    d = x - p
    if kind is Kind.EUCLIDEAN:
        return d, _norm(kind, d), None
    c = _inner(kind, d, p)
    w = d - c[..., None] * p if kind is Kind.SPHERE else d + c[..., None] * p
    return w, _norm(kind, w), c


def _tangents_can(kind: Kind, p, x) -> np.ndarray:
    """Unit tangent at p towards x, canonical coords; p and x broadcast.
    A side shorter than 1e-12 raises GeometryError."""
    w, wn, c = _tangent(kind, p, x)
    short = wn < 1e-12
    if kind is Kind.SPHERE and np.any(short & (c < -1.0)):
        raise GeometryError("spherical vertex angle needs side lengths < pi")
    if np.any(short):
        raise GeometryError("vertex angle undefined: a side has zero length")
    return w / wn[..., None]


def _angle_can(kind: Kind, p, u, v) -> np.ndarray:
    """Angle at p of the geodesic triangle (p, u, v), canonical coords: the
    half-angle of the unit tangents at p towards u and v."""
    return _half_angle(_tangents_can(kind, p, u), _tangents_can(kind, p, v), kind)


def _frame_can(kind: Kind, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent u at a towards b and length L of each segment [a, b].

    A segment of length 0 gets u = 0, which still gives the right distances.
    """
    ell = _dist_can(kind, a, b)
    if kind is Kind.SPHERE and np.any(np.pi - ell < ANTIPODAL_TOL):
        raise NonUniqueGeodesicError("geodesic between near-antipodal points is not unique")
    w, wn, _ = _tangent(kind, a, b)
    return w / np.where(wn > 0.0, wn, 1.0)[..., None], ell


def _along(kind: Kind, a: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The point at arc length s from a along the unit tangent u; S^n and H^n."""
    s = s[..., None]
    if kind is Kind.SPHERE:
        return np.cos(s) * a + np.sin(s) * u
    return np.cosh(s) * a + np.sinh(s) * u


def _mid_frame(kind: Kind, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint c of the segment [a, b], unit tangent u at c towards b and
    half-length h: the segment is cos(s) c + sin(s) u (sphere) or
    cosh(s) c + sinh(s) u (hyperboloid) for s in [-h, h]."""
    c = _renorm(kind, a + b)
    return (c, *_frame_can(kind, c, b))


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
    w = _renorm(Kind.HYPERBOLIC, a0 + a1)[..., 1:]
    c0 = np.sqrt(1.0 + _inner(Kind.EUCLIDEAN, w, w))[..., None]
    x = np.stack(np.broadcast_arrays(a0, a1, b0, b1))
    x0, wx = x[..., :1], _inner(Kind.EUCLIDEAN, w, x[..., 1:])[..., None]
    y = np.concatenate([c0 * x0 - wx, x[..., 1:] - (x0 - wx / (1.0 + c0)) * w], axis=-1)
    return tuple(_renorm(Kind.HYPERBOLIC, y))


# ---------------------------------------------------------------------------
# array-level API (model coords in, batch axes allowed)
# ---------------------------------------------------------------------------


def dist_arrays(space: SpaceForm, a, b) -> np.ndarray:
    return _dist_can(space.kind, embed(space, a), embed(space, b))


def geodesic_arrays(space: SpaceForm, a, b, t) -> np.ndarray:
    """The point at parameter t of the geodesic from a (t=0) to b (t=1); t
    broadcasts against the batch axes."""
    a, b, t = embed(space, a), embed(space, b), np.asarray(t, dtype=float)
    if space.kind is Kind.EUCLIDEAN:
        return a + t[..., None] * (b - a)
    u, ell = _frame_can(space.kind, a, b)
    return unembed(space, _along(space.kind, a, u, t * ell))


def vertex_angle_arrays(space: SpaceForm, p, u, v) -> np.ndarray:
    return _angle_can(space.kind, embed(space, p), embed(space, u), embed(space, v))


# ---------------------------------------------------------------------------
# Point-level ops
# ---------------------------------------------------------------------------


def _coerce(space: SpaceForm, p) -> np.ndarray:
    if isinstance(p, Point):
        if p.space != space:
            raise ModelMismatchError(
                f"point belongs to {p.space.kind.value}/{p.space.model.value}, "
                f"expected {space.kind.value}/{space.model.value}"
            )
        return p.coords
    x = np.asarray(p, dtype=float)
    if x.shape[-1] != space.ambient_dim:
        raise ModelMismatchError(
            f"expected {space.ambient_dim} coordinates, got {x.shape[-1]}"
        )
    return x


def dist(space: SpaceForm, p, q) -> float:
    """Geodesic distance between two points of ``space``."""
    return float(dist_arrays(space, _coerce(space, p), _coerce(space, q)))


def geodesic_point(space: SpaceForm, p, q, t: float) -> Point:
    """The point at parameter ``t`` on the geodesic from p (t=0) to q (t=1)."""
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"interpolation parameter must be in [0, 1], got {t}")
    x = geodesic_arrays(space, _coerce(space, p), _coerce(space, q), t)
    return Point(x, space)


def vertex_angle(space: SpaceForm, p, u, v) -> float:
    """Interior angle at p between the geodesics [p,u] and [p,v], in [0, pi]."""
    return float(
        vertex_angle_arrays(space, _coerce(space, p), _coerce(space, u), _coerce(space, v))
    )


# ---------------------------------------------------------------------------
# radial profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Jacobian profile of geodesic polar coordinates: sin / id / sinh."""

    kind: Kind

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < 0):
            raise GeometryError("radial profile needs rho >= 0")
        if self.kind is Kind.SPHERE:
            if np.any(rho > np.pi):
                raise GeometryError("spherical radius must lie in [0, pi]")
            return np.sin(rho)
        if self.kind is Kind.EUCLIDEAN:
            return rho + 0.0
        return np.sinh(rho)


def radial_profile(space_or_kind) -> RadialProfile:
    kind = space_or_kind.kind if isinstance(space_or_kind, SpaceForm) else Kind(space_or_kind)
    return RadialProfile(kind)


# ---------------------------------------------------------------------------
# isometries on canonical coords
# ---------------------------------------------------------------------------


@dataclass
class Isometry:
    """Affine-on-canonical-coords isometry: x -> M x + b."""

    space: SpaceForm
    matrix: np.ndarray
    offset: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        n = self.space.canonical.ambient_dim
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.offset is None:
            self.offset = np.zeros(n)
        self.offset = np.asarray(self.offset, dtype=float)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to model coords of self.space, returning the same model."""
        y = embed(self.space, np.asarray(x, dtype=float))
        return unembed(self.space, _renorm(self.space.kind, y @ self.matrix.T + self.offset))

    def inverse(self) -> "Isometry":
        if self.space.kind is Kind.EUCLIDEAN:
            mi = self.matrix.T
            return Isometry(self.space, mi, -mi @ self.offset)
        if self.space.kind is Kind.SPHERE:
            return Isometry(self.space, self.matrix.T)
        # Lorentz inverse: J M^T J with J = diag(-1, 1, ..., 1)
        j = np.ones(self.matrix.shape[0])
        j[0] = -1.0
        return Isometry(self.space, (j[:, None] * self.matrix.T) * j[None, :])


def reflection_swapping(space: SpaceForm, p, q) -> Isometry:
    """The hyperplane reflection exchanging p and q (identity if p == q)."""
    a = embed(space, _coerce(space, p))
    b = embed(space, _coerce(space, q))
    n = a.shape[-1]
    w = a - b
    ww = float(_inner(space.kind, w, w))
    if abs(ww) < 1e-28:
        return Isometry(space, np.eye(n))
    j = np.ones(n)  # w * j is the covector <w, .>
    if space.kind is Kind.HYPERBOLIC:
        j[0] = -1.0
    m = np.eye(n) - 2.0 * np.outer(w, w * j) / ww
    if space.kind is Kind.EUCLIDEAN:
        # reflect across the perpendicular bisector of [p, q]
        mid = 0.5 * (a + b)
        return Isometry(space, m, mid - m @ mid)
    return Isometry(space, m)


def base_point_isometry(space: SpaceForm, p) -> Isometry:
    """An isometry sending p to the chart base point of its kind."""
    base = space.canonical.base_point_coords()
    if space.kind is Kind.EUCLIDEAN:
        return Isometry(space, np.eye(space.dim), -_coerce(space, p))
    return reflection_swapping(space, _coerce(space, p), unembed(space, base))


def random_isometry(space: SpaceForm, rng) -> Isometry:
    """A Haar-ish random isometry, for invariance testing."""
    rng = as_rng(rng)
    if space.kind is Kind.EUCLIDEAN:
        q, r = np.linalg.qr(rng.standard_normal((space.dim, space.dim)))
        q = q * np.sign(np.diag(r))
        return Isometry(space, q, rng.standard_normal(space.dim))
    if space.kind is Kind.SPHERE:
        n = space.dim + 1
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        return Isometry(space, q)
    n = space.dim + 1
    q1, r1 = np.linalg.qr(rng.standard_normal((space.dim, space.dim)))
    q1 = q1 * np.sign(np.diag(r1))
    rot = np.eye(n)
    rot[1:, 1:] = q1
    s = rng.uniform(0.1, 1.5)
    boost = np.eye(n)
    boost[0, 0] = boost[1, 1] = math.cosh(s)
    boost[0, 1] = boost[1, 0] = math.sinh(s)
    q2, r2 = np.linalg.qr(rng.standard_normal((space.dim, space.dim)))
    q2 = q2 * np.sign(np.diag(r2))
    rot2 = np.eye(n)
    rot2[1:, 1:] = q2
    return Isometry(space, rot @ boost @ rot2)


def as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
