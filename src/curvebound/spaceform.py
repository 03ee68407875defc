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


def _mink_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a[..., 1:], b[..., 1:]) - a[..., 0] * b[..., 0]


def _norm(kind: Kind, x: np.ndarray) -> np.ndarray:
    """|x| in the ambient product: Minkowski for hyperboloid tangents, else Euclidean."""
    if kind is Kind.HYPERBOLIC:
        return np.sqrt(np.maximum(_mink_dot(x, x), 0.0))
    return np.sqrt(np.einsum("...i,...i->...", x, x))


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
    t = np.maximum(-_mink_dot(a, b), 1.0)
    diff = a - b
    s = np.maximum(_mink_dot(diff, diff), 0.0)
    return np.where(t < 2.0, 2.0 * np.arcsinh(0.5 * np.sqrt(s)), np.arccosh(t))


def _renorm_sphere(y: np.ndarray) -> np.ndarray:
    return y / np.linalg.norm(y, axis=-1, keepdims=True)


def _renorm_hyperboloid(y: np.ndarray) -> np.ndarray:
    q = y[..., 0] ** 2 - np.sum(y[..., 1:] ** 2, axis=-1)
    if np.any(q <= 0):
        raise NumericalError("left the hyperboloid sheet")
    return y / np.sqrt(q)[..., None]


def _interp_can(kind: Kind, a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """Geodesic interpolation in canonical coords; t broadcasts."""
    t = np.asarray(t, dtype=float)[..., None]
    if kind is Kind.EUCLIDEAN:
        return (1.0 - t) * a + t * b
    d = _dist_can(kind, a, b)[..., None]
    if kind is Kind.SPHERE:
        if np.any(np.pi - d < ANTIPODAL_TOL):
            raise NonUniqueGeodesicError(
                "geodesic between near-antipodal points is not unique"
            )
        small = d < 1e-9
        safe = np.where(small, 1.0, np.sin(d))
        out = (np.sin((1.0 - t) * d) * a + np.sin(t * d) * b) / safe
        if np.any(small):
            lin = (1.0 - t) * a + t * b
            out = np.where(small, lin, out)
        return _renorm_sphere(out)
    small = d < 1e-9
    safe = np.where(small, 1.0, np.sinh(d))
    out = (np.sinh((1.0 - t) * d) * a + np.sinh(t * d) * b) / safe
    if np.any(small):
        lin = (1.0 - t) * a + t * b
        out = np.where(small, lin, out)
    return _renorm_hyperboloid(out)


def _angle_can(kind: Kind, p, u, v) -> np.ndarray:
    """Angle at p of the geodesic triangle (p, u, v), canonical coords.

    The tangent at p towards x is the part of d = x - p orthogonal to p:
    d - <d,p> p on the sphere, d + <d,p>_M p on the hyperboloid, d in R^n.
    Its length is the sine, hyperbolic sine or length of the side, and
    <d,p> < -1 puts x in the hemisphere opposite p.
    """
    tangents = []
    for x in (u, v):
        t = x - p
        if kind is Kind.SPHERE:
            c = np.einsum("...i,...i->...", t, p)
            t = t - c[..., None] * p
        elif kind is Kind.HYPERBOLIC:
            t = t + _mink_dot(t, p)[..., None] * p
        tn = _norm(kind, t)
        short = tn < 1e-12
        if kind is Kind.SPHERE and np.any(short & (c < -1.0)):
            raise GeometryError("spherical vertex angle needs side lengths < pi")
        if np.any(short):
            raise GeometryError("vertex angle undefined: a side has zero length")
        tangents.append(t / tn[..., None])
    return _half_angle(*tangents, kind)


# ---------------------------------------------------------------------------
# array-level API (model coords in, batch axes allowed)
# ---------------------------------------------------------------------------


def dist_arrays(space: SpaceForm, a, b) -> np.ndarray:
    return _dist_can(space.kind, embed(space, a), embed(space, b))


def geodesic_arrays(space: SpaceForm, a, b, t) -> np.ndarray:
    out = _interp_can(space.kind, embed(space, a), embed(space, b), t)
    return unembed(space, out)


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
        y = y @ self.matrix.T + self.offset
        if self.space.kind is Kind.SPHERE:
            y = _renorm_sphere(y)
        elif self.space.kind is Kind.HYPERBOLIC:
            y = _renorm_hyperboloid(y)
        return unembed(self.space, y)

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
    if space.kind is Kind.HYPERBOLIC:
        ww = float(_mink_dot(w, w))
        if abs(ww) < 1e-28:
            return Isometry(space, np.eye(n))
        j = np.ones(n)
        j[0] = -1.0
        m = np.eye(n) - 2.0 * np.outer(w, w * j) / ww
        return Isometry(space, m)
    ww = float(np.dot(w, w))
    if ww < 1e-28:
        return Isometry(space, np.eye(n)) if space.kind is Kind.SPHERE else Isometry(
            space, np.eye(n), np.zeros(n)
        )
    m = np.eye(n) - 2.0 * np.outer(w, w) / ww
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
