"""Geodesics, Jacobi fields, and log-distance calculus on H^2 x R.

Coordinates (u1, u2, z): Poincare disk times a real height, metric
4 (du1^2 + du2^2)/(1 - r^2)^2 + dz^2 with r^2 = u1^2 + u2^2.  Every unit
geodesic is isometric to the normal form (tanh(c t), 0, sqrt(1-4c^2) t)
with c in [0, 1/2]; the normalizing isometry is constructed explicitly
(disk translation, rotation, vertical shift, optional flip) and stored so
the inverse is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NumericalError

UNIT_SPEED_TOL = 1e-9
SMALL_C = 1e-6
_TRAPEZOID_CAP = 1 << 16  # the most nodes end_curve_ratio evaluates
_TRAPEZOID_TOL = 1e-9  # the change two accepted doublings may each make
FD_STEP = 1e-3  # finite-difference step of the ODE residuals


@dataclass
class H2RPoint:
    u1: float
    u2: float
    z: float

    def __post_init__(self):
        if self.u1 * self.u1 + self.u2 * self.u2 >= 1.0:
            raise GeometryError("disk coordinates must satisfy u1^2 + u2^2 < 1")

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.z])

    @classmethod
    def from_coords(cls, x) -> "H2RPoint":
        x = np.asarray(x, dtype=float)
        return cls(float(x[0]), float(x[1]), float(x[2]))


def _coords(p) -> np.ndarray:
    if isinstance(p, H2RPoint):
        return p.coords
    x = np.asarray(p, dtype=float)
    if x.shape != (3,):
        raise GeometryError("a point of H^2 x R has 3 coordinates")
    if x[0] * x[0] + x[1] * x[1] >= 1.0:
        raise GeometryError("disk coordinates must satisfy u1^2 + u2^2 < 1")
    return x


def metric_norm(p, v) -> float:
    """Product-metric norm of a coordinate tangent vector at p."""
    x = _coords(p)
    v = np.asarray(v, dtype=float)
    lam = 2.0 / (1.0 - x[0] * x[0] - x[1] * x[1])
    return math.sqrt(lam * lam * (v[0] ** 2 + v[1] ** 2) + v[2] ** 2)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def christoffel(u1: float, u2: float) -> np.ndarray:
    """Symbols Gamma[k, i, j] at (u1, u2); any index on the z-factor is 0."""
    r2 = u1 * u1 + u2 * u2
    if r2 >= 1.0:
        raise GeometryError("disk coordinates must satisfy u1^2 + u2^2 < 1")
    a = 2.0 * u1 / (1.0 - r2)
    b = 2.0 * u2 / (1.0 - r2)
    g = np.zeros((3, 3, 3))
    g[0, 0, 0] = a
    g[1, 1, 0] = g[1, 0, 1] = a
    g[0, 1, 1] = -a
    g[1, 1, 1] = b
    g[0, 0, 1] = g[0, 1, 0] = b
    g[1, 0, 0] = -b
    return g


# ---------------------------------------------------------------------------
# normalizing isometry and geodesics
# ---------------------------------------------------------------------------


@dataclass
class H2RIsometry:
    """Normalizing isometry zeta -> mu * (zeta - w)/(1 - conj(w) zeta),
    Z -> s (Z - z0); each factor stored, inverse exact."""

    w: complex
    mu: complex
    z0: float
    flip: bool

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        zeta = x[..., 0] + 1j * x[..., 1]
        out_z = self.mu * (zeta - self.w) / (1.0 - np.conj(self.w) * zeta)
        s = -1.0 if self.flip else 1.0
        return np.stack(
            [np.real(out_z), np.imag(out_z), s * (x[..., 2] - self.z0)], axis=-1
        )

    def inverse_apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = -1.0 if self.flip else 1.0
        xi = (x[..., 0] + 1j * x[..., 1]) * np.conj(self.mu)
        zeta = (xi + self.w) / (1.0 + np.conj(self.w) * xi)
        return np.stack(
            [np.real(zeta), np.imag(zeta), self.z0 + s * x[..., 2]], axis=-1
        )


@dataclass
class GeodesicNormalForm:
    """Normal-form parameter c in [0, 1/2] plus the isometry achieving it."""

    c: float
    isometry: H2RIsometry

    def point_at(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        x = np.tanh(self.c * t)
        z = math.sqrt(max(0.0, 1.0 - 4.0 * self.c * self.c)) * t
        pts = np.stack([x, np.zeros_like(x), z], axis=-1)
        return self.isometry.inverse_apply(pts)


def normal_form(p, v) -> GeodesicNormalForm:
    """Normalize (p, v) to the origin with direction (c, 0, sqrt(1-4c^2)).

    v is a coordinate tangent vector of unit product-metric norm; c is
    half the hyperbolic norm of its horizontal component.
    """
    x = _coords(p)
    v = np.asarray(v, dtype=float)
    speed = metric_norm(x, v)
    if abs(speed - 1.0) > UNIT_SPEED_TOL:
        raise GeometryError(f"tangent vector must be unit speed, got norm {speed!r}")
    w = complex(x[0], x[1])
    h = complex(v[0], v[1])
    hp = h / (1.0 - abs(w) ** 2)
    mu = hp.conjugate() / abs(hp) if abs(hp) > 1e-15 else complex(1.0, 0.0)
    flip = v[2] < 0.0
    iso = H2RIsometry(w=w, mu=mu, z0=float(x[2]), flip=flip)
    lam = 2.0 / (1.0 - x[0] * x[0] - x[1] * x[1])
    c = 0.5 * lam * math.hypot(v[0], v[1])
    return GeodesicNormalForm(c=min(c, 0.5), isometry=iso)


def geodesic(p, v, t):
    """Unit-speed geodesic through p with initial velocity v, evaluated at t.

    Scalar t returns an H2RPoint; an array of parameters returns the
    (len(t), 3) coordinate array.
    """
    nf = normal_form(p, v)
    pts = nf.point_at(t)
    if np.ndim(t) == 0:
        return H2RPoint.from_coords(pts[0] if pts.ndim == 2 else pts)
    return pts


def geodesic_ode_residual(p, v, t: float) -> float:
    """Max-norm residual of the geodesic equation at parameter t,
    via 5-point finite differences of the closed form."""
    nf = normal_form(p, v)
    h = FD_STEP
    ts = t + h * np.arange(-2.0, 3.0)
    g = nf.point_at(ts)
    d1 = (g[0] - 8.0 * g[1] + 8.0 * g[3] - g[4]) / (12.0 * h)
    d2 = (-g[0] + 16.0 * g[1] - 30.0 * g[2] + 16.0 * g[3] - g[4]) / (12.0 * h * h)
    gam = christoffel(g[2][0], g[2][1])
    res = d2 + np.einsum("kij,i,j->k", gam, d1, d1)
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# Jacobi fields
# ---------------------------------------------------------------------------


def _stretch(c: float, t):
    """sinh(2ct)/(2c) with the analytic c -> 0 limit (series below c < 1e-6)."""
    t = np.asarray(t, dtype=float)
    if c < SMALL_C:
        return t + (2.0 * c * t) ** 2 * t / 6.0
    return np.sinh(2.0 * c * t) / (2.0 * c)


def _normal_tangent(c: float) -> np.ndarray:
    """Unit direction (2c, 0, sqrt(1 - 4c^2)) of the normal-form geodesic, orthonormal frame."""
    return np.array([2.0 * c, 0.0, math.sqrt(max(0.0, 1.0 - 4.0 * c * c))])


def jacobi(c: float, t, omega0) -> np.ndarray:
    """Jacobi field along the normal-form geodesic with J(0) = 0 and
    initial data omega0 (unit, orthogonal to gamma'(0) in the frame):
    J(t) = (t w1, sinh(2ct)/(2c) w2, t w3)."""
    if not 0.0 <= c <= 0.5 + 1e-12:
        raise GeometryError("normal-form parameter c must lie in [0, 1/2]")
    w = np.asarray(omega0, dtype=float)
    if w.shape != (3,):
        raise GeometryError("omega0 must be a 3-vector in the orthonormal frame")
    if abs(np.linalg.norm(w) - 1.0) > 1e-9:
        raise GeometryError("omega0 must be a unit vector")
    if abs(float(np.dot(w, _normal_tangent(c)))) > 1e-9:
        raise GeometryError("omega0 must be orthogonal to the geodesic direction")
    t = np.asarray(t, dtype=float)
    comps = np.stack([t * w[0], _stretch(c, t) * w[1], t * w[2]], axis=-1)
    return comps


def jacobi_ode_residual(c: float, t: float, omega0) -> float:
    """Residual of J2'' - 4 c^2 J2 = 0 and J1'' = J3'' = 0 at t."""
    h = FD_STEP
    ts = t + h * np.arange(-2.0, 3.0)
    j = jacobi(c, ts, omega0)
    d2 = (-j[0] + 16.0 * j[1] - 30.0 * j[2] + 16.0 * j[3] - j[4]) / (12.0 * h * h)
    res = d2 - np.array([0.0, 4.0 * c * c * j[2][1], 0.0])
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# log-distance Hessian and Laplacian
# ---------------------------------------------------------------------------


def s_coth_s(s):
    """f(s) = s coth s, extended by f(0) = 1; >= 1 and nondecreasing."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise GeometryError("s_coth_s needs s >= 0")
    small = s < 1e-8
    safe = np.where(small, 1.0, s)
    out = np.where(small, 1.0 + s * s / 3.0, safe / np.tanh(safe))
    return out if out.ndim else float(out)


@dataclass
class FrameNormal:
    """Unit normal components in the orthonormalized exponential frame."""

    n1: float
    n2: float
    n3: float

    def __post_init__(self):
        if abs(self.n1**2 + self.n2**2 + self.n3**2 - 1.0) > 1e-12:
            raise GeometryError("frame normal must be a unit vector")

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.n1, self.n2, self.n3])


def hessian_log_rho(rho, phi) -> np.ndarray:
    """Diagonal of the ambient Hessian of log rho in the orthonormal frame:
    (1/rho^2) diag(-1, 1, rho sin(phi) coth(rho sin(phi)))."""
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(rho <= 0):
        raise GeometryError("hessian_log_rho needs rho > 0")
    if np.any((phi < 0) | (phi > np.pi)):
        raise GeometryError("phi must lie in [0, pi]")
    third = s_coth_s(rho * np.sin(phi))
    shape = np.broadcast(rho, phi).shape
    out = np.stack(
        [
            np.broadcast_to(-1.0 / rho**2, shape),
            np.broadcast_to(1.0 / rho**2, shape),
            third / rho**2,
        ],
        axis=-1,
    )
    return out


def laplacian_log_rho(rho, phi, n) -> np.ndarray:
    """Surface Laplacian of log rho on a minimal surface with unit normal n
    (frame components): [(1 - n3^2) f(rho sin phi) - (n2^2 - n1^2)]/rho^2, f = s coth s.

    Nonnegative; zero exactly when the normal and angle data degenerate
    (n = (0,0,+-1), or n1 = 0 with sin phi = 0).
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if isinstance(n, FrameNormal):
        n = n.coords
    n = np.asarray(n, dtype=float)
    if np.any(rho <= 0):
        raise GeometryError("laplacian_log_rho needs rho > 0")
    if np.any(np.abs(np.sum(n * n, axis=-1) - 1.0) > 1e-9):
        raise GeometryError("normal must be a unit vector")
    f = s_coth_s(rho * np.sin(phi))
    n1, n2, n3 = n[..., 0], n[..., 1], n[..., 2]
    val = ((1.0 - n3 * n3) * f - (n2 * n2 - n1 * n1)) / (rho * rho)
    return val if np.ndim(val) else float(val)


# ---------------------------------------------------------------------------
# end-curve length ratio (vertically regular ends)
# ---------------------------------------------------------------------------


def end_curve_ratio(f, df, r: float) -> float:
    """(1/r) times the length of the horizontal graph u2 = f(u1, z) over the
    intrinsic circle of radius r in the vertical plane u2 = 0.

    The plane u2 = 0 is flat in coordinates (s, z) with u1 = tanh(s/2), so
    the parameter circle is x(t) = tanh(r cos(t)/2), z(t) = r sin(t).  The
    integrand (with A = (1 - x^2)/2, B = (1 - x*^2)/2, x*^2 = x^2 + f^2):

        sqrt[(A sin t / B)^2 + ((A f_x (-sin t) + f_z cos t)/B)^2 + cos^2 t]

    integrates to exactly 2 pi when f = 0, and tends to 2 pi as r grows
    for decaying graphs.  It is evaluated through h = sech(r cos(t)/2),
    A = h^2/2, as A/B = 1/(1 - (f/h)^2) and f_z/B = 2 (f_z/h)/h/(1 - (f/h)^2),
    which stay accurate where h^2 underflows; the graph must keep |f| < h,
    and r beyond about 1490, where h itself underflows, raises NumericalError.

    f and df must be smooth along the circle: the integral is a periodic
    trapezoid rule on 16, 32, 64, ... nodes, accepted once two successive
    doublings each move it by at most _TRAPEZOID_TOL max(1, |T|).  A graph that
    is not smooth there converges slowly and raises NumericalError at 2^16 nodes.
    """
    if r <= 0:
        raise GeometryError("radius must be positive")

    def integrand(t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        x = math.tanh(0.5 * r * c)
        z = r * s
        h = _sech(0.5 * r * c)  # sqrt(1 - x^2), uncancelled
        if h == 0.0:
            raise NumericalError(f"end-curve integrand underflows at r = {r!r}")
        fv = float(f(x, z))
        if abs(fv) >= h:
            raise GeometryError("graph leaves the disk")
        ab = 1.0 / (1.0 - (fv / h) ** 2)  # A/B
        fx, fz = df(x, z)
        t1 = ab * s
        t2 = ab * (float(fx) * (-s) + 2.0 * (float(fz) / h) / h * c)
        return math.sqrt(t1 * t1 + t2 * t2 + c * c)

    # each doubling evaluates only the n new midpoints; fsum rounds each sum once
    n = 16
    vals = [integrand(2.0 * math.pi * j / n) for j in range(n)]
    total = 2.0 * math.pi * math.fsum(vals) / n
    agreed = 0
    while n < _TRAPEZOID_CAP:
        vals += [integrand(math.pi * (2 * j + 1) / n) for j in range(n)]
        n *= 2
        prev, total = total, 2.0 * math.pi * math.fsum(vals) / n
        diff = abs(total - prev)
        agreed = agreed + 1 if diff <= _TRAPEZOID_TOL * max(1.0, abs(total)) else 0
        if agreed == 2:
            return total
    raise NumericalError(
        f"end-curve integral at r = {r!r} unconverged on {n} nodes "
        f"(last change {diff:.3g}); is the graph smooth along the circle?"
    )


def _sech(x: float) -> float:
    """sech x from exp(-|x|): no overflow, and 0 only once exp underflows."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def zero_graph():
    """The trivial graph f = 0 and its partials."""
    return (lambda x, z: 0.0), (lambda x, z: (0.0, 0.0))


def decay_graph(amplitude: float = 0.5, alpha: float = 1.0):
    """Graph f = amplitude * sech(rho)^(1+alpha) over the vertical plane,
    rho the intrinsic distance from the origin: rho = hypot(2 artanh x, z).

    Returns (f, df); the decay rate matches the vertically-regular-ends
    condition with exponent alpha.
    """
    p = 1.0 + alpha

    def rho_of(x, z):
        return math.hypot(2.0 * math.atanh(x), z)

    # |x| >= 1 is the disk's boundary, where rho = inf: the limits are f = 0, df = 0
    def f(x, z):
        if abs(x) >= 1.0:
            return 0.0
        return amplitude * _sech(rho_of(x, z)) ** p

    def df(x, z):
        if abs(x) >= 1.0:
            return 0.0, 0.0
        rho = rho_of(x, z)
        if rho < 1e-12:
            return 0.0, 0.0
        sech = _sech(rho)
        fprime = -amplitude * p * sech**p * math.tanh(rho)
        u = 2.0 * math.atanh(x)
        drdx = (u / rho) * 2.0 / (1.0 - x * x)
        drdz = z / rho
        return fprime * drdx, fprime * drdz

    return f, df
