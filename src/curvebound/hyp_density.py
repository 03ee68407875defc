"""Green's-function density machinery on hyperbolic cones.

Verifies the monotonicity-type density estimate in its equality case:
for a cone over an ideal boundary curve (Poincare ball model, vertex at
the origin), the weighted flux integral over a sphere cross-section is
independent of the radius and equals the spherical length of the ideal
boundary curve.  Densities below 2 certify embeddedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .mobius import SampledCurve, curve_length_on_sphere, polyline_length, round_sphere_volume

SMALL_RADIUS = 1e-2


def _csch_power_antiderivative(n: int, x: np.ndarray) -> np.ndarray:
    """An antiderivative of csch^n, by the reduction formula

        int csch^n = -csch^(n-2) coth / (n-1) - (n-2)/(n-1) int csch^(n-2),

    down to int csch = log tanh(x/2) and int csch^2 = -coth.
    """
    if n == 1:
        return np.log(np.tanh(x / 2.0))
    if n == 2:
        return -1.0 / np.tanh(x)
    return (-np.sinh(x) ** (2 - n) / np.tanh(x)
            - (n - 2) * _csch_power_antiderivative(n - 2, x)) / (n - 1)


@dataclass(frozen=True)
class GreenProfile:
    """Radial Green's profile: G' = sinh^(1-m), G its antiderivative.

    G is defined up to an additive constant.  For m = 2 and m = 3 it is
    G(x) = log tanh(x/2) and G(x) = -coth(x); for m >= 4 it is the closed
    form of the reduction formula, anchored at G(1) = 0.
    """

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise GeometryError("Green profile needs dimension m >= 2")

    def gprime(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise GeometryError("Green profile derivative needs x > 0")
        return np.sinh(x) ** (1 - self.m)

    def g(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise GeometryError("Green profile needs x > 0")
        anti = _csch_power_antiderivative(self.m - 1, x)
        if self.m <= 3:
            return anti
        out = anti - _csch_power_antiderivative(self.m - 1, 1.0)
        return out if x.ndim else float(out)


def laplacian_G(m: int, rho, grad_norm) -> np.ndarray:
    """Surface Laplacian of G(rho) on a minimal submanifold:
    m cosh(rho) sinh(rho)^(-m) (1 - |grad rho|^2) >= 0."""
    rho = np.asarray(rho, dtype=float)
    g = np.asarray(grad_norm, dtype=float)
    if np.any(rho <= 0):
        raise GeometryError("laplacian_G needs rho > 0")
    if np.any(g < 0) or np.any(g > 1.0 + 1e-12):
        raise GeometryError("gradient norm must lie in [0, 1]")
    g = np.minimum(g, 1.0)
    val = m * np.cosh(rho) * np.sinh(rho) ** (-m) * (1.0 - g * g)
    return val if val.ndim else float(val)


@dataclass
class ConeSurface:
    """Cone from the ball-model origin over an ideal boundary curve.

    In the Poincare ball the cone over Gamma on the ideal sphere is the
    Euclidean cone of radial rays from 0; its intersection with the
    geodesic sphere of radius R is the scaled copy tanh(R/2) * Gamma.
    """

    boundary_curve: SampledCurve

    def cross_section(self, R: float) -> np.ndarray:
        if R <= 0:
            raise GeometryError("cross-section radius must be positive")
        return math.tanh(R / 2.0) * self.boundary_curve.points


def cone_boundary_integral(cone: ConeSurface, m: int = 2, R: float = 1.0) -> float:
    """Flux integral over the cone's sphere cross-section at radius R:
    integral of sinh^(1-m)(rho) d(rho)/d(nu) along Sigma cap dB_R.

    On a cone rho = R and d(rho)/d(nu) = 1 on the cross-section, so the
    value is sinh(R)^(1-m) times the hyperbolic length of the scaled copy
    tanh(R/2) * Gamma.  That copy lies on a sphere about the origin where
    the ball metric's conformal factor 2/(1 - |u|^2) is constant, so its
    length is the factor times the Euclidean polyline length; this keeps
    the quadrature convergent uniformly in R.  The Green exponent m is the
    dimension of the cone, which for a curve boundary is always 2; with
    m = 2 the sinh factors cancel and the value reduces to the spherical
    length of the boundary curve, independent of R.
    """
    if R <= 0:
        raise GeometryError("radius must be positive")
    if m != 2:
        raise GeometryError(
            "a cone over a curve is 2-dimensional; its boundary flux integral "
            f"needs profile exponent m = 2, got m = {m}"
        )
    curve = cone.boundary_curve
    pts = cone.cross_section(R)
    rstar = math.tanh(R / 2.0)
    conformal = 2.0 / (1.0 - rstar * rstar)
    euclid = polyline_length(pts, curve.closed, curve.breaks)
    return math.sinh(R) ** (1 - m) * conformal * euclid


@dataclass
class DensityCheck:
    measured: float
    bound: float
    slack: float
    theta: float
    m: int
    embedded_certificate: bool

    def as_dict(self) -> dict:
        return {
            "measured": self.measured,
            "bound": self.bound,
            "slack": self.slack,
            "theta": self.theta,
            "m": self.m,
            "embedded_certificate": self.embedded_certificate,
        }


def density_bound_check(cone: ConeSurface, m: int = 2) -> DensityCheck:
    """Density estimate at the cone vertex versus the boundary length bound.

    measured = m omega_m Theta, obtained as the small-R limit value of
    cone_boundary_integral; bound = spherical length of the ideal boundary
    curve.  On cones the two agree (slack 0 up to quadrature), and
    bound < 2 m omega_m certifies an embedded cone.
    """
    measured = cone_boundary_integral(cone, m=m, R=SMALL_RADIUS)
    bound = curve_length_on_sphere(cone.boundary_curve)
    vol = round_sphere_volume(m)
    theta = measured / vol
    return DensityCheck(
        measured=measured,
        bound=bound,
        slack=bound - measured,
        theta=theta,
        m=m,
        embedded_certificate=bool(bound < 2.0 * vol),
    )
