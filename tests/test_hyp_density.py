from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from curvebound import (
    ConeSurface,
    GeometryError,
    GreenProfile,
    SampledCurve,
    cone_boundary_integral,
    curve_length_on_sphere,
    density_bound_check,
    example_34_curve,
    great_circle_curve,
    laplacian_G,
    latitude_circle_curve,
)

FD_REL = 1e-7
SPREAD_TOL = 1e-8


def triple_wound_curve(n=3000):
    # winds three times around the vertical axis: spherical length > 4 pi
    t = np.linspace(0.0, 6.0 * np.pi, n, endpoint=False)
    z = 0.1 * np.sin(t / 3.0)
    r = np.sqrt(1.0 - z * z)
    return SampledCurve(np.stack([r * np.cos(t), r * np.sin(t), z], axis=-1))


# ---------------------------------------------------------------------------
# Green profile
# ---------------------------------------------------------------------------


def test_gprime_is_derivative_of_g():
    h = 1e-5
    # upper ends chosen so the FD cancellation floor eps |g| / (2h |g'|)
    # stays below the tolerance
    for m, hi in ((2, 10.0), (3, 4.0)):
        prof = GreenProfile(m)
        xs = np.linspace(0.1, hi, 23)
        fd = (prof.g(xs + h) - prof.g(xs - h)) / (2.0 * h)
        rel = np.abs(fd - prof.gprime(xs)) / np.abs(prof.gprime(xs))
        assert np.max(rel) < FD_REL


def test_quadrature_branch_matches_antiderivative():
    # exact antiderivative of sinh^(-3): -cosh/(2 sinh^2) - log(tanh(x/2))/2
    def anti(x):
        return -np.cosh(x) / (2.0 * np.sinh(x) ** 2) - 0.5 * np.log(np.tanh(x / 2.0))

    prof = GreenProfile(4)
    xs = np.array([0.2, 0.7, 1.0, 2.0, 5.0])
    got = prof.g(xs) - prof.g(1.0)
    assert got == pytest.approx(anti(xs) - anti(1.0), abs=1e-9)


def test_closed_form_matches_quadrature_high_m():
    xs = np.geomspace(0.05, 20.0, 31)
    for m in range(4, 9):
        ref = [quad(lambda s: math.sinh(s) ** (1 - m), 1.0, x,
                    epsabs=1e-14, epsrel=1e-13, limit=200)[0] for x in xs]
        assert GreenProfile(m).g(xs) == pytest.approx(ref, rel=1e-11, abs=1e-12)
        assert GreenProfile(m).g(1.0) == 0.0


def test_g_closed_forms():
    p2, p3 = GreenProfile(2), GreenProfile(3)
    xs = np.array([0.3, 1.0, 2.5])
    assert p2.g(xs) == pytest.approx(np.log(np.tanh(xs / 2.0)), abs=1e-14)
    assert p3.g(xs) == pytest.approx(-1.0 / np.tanh(xs), abs=1e-14)
    # the m >= 4 closed form is anchored at G(1) = 0
    assert GreenProfile(4).g(1.0) == pytest.approx(0.0, abs=1e-12)


def test_gprime_values():
    prof = GreenProfile(3)
    assert prof.gprime(1.0) == pytest.approx(np.sinh(1.0) ** -2, abs=1e-15)
    assert float(prof.gprime(np.array([2.0]))[0]) == pytest.approx(np.sinh(2.0) ** -2)


def test_profile_validation():
    with pytest.raises(GeometryError):
        GreenProfile(1)
    prof = GreenProfile(2)
    with pytest.raises(GeometryError):
        prof.g(0.0)
    with pytest.raises(GeometryError):
        prof.gprime(-1.0)


# ---------------------------------------------------------------------------
# surface Laplacian of G
# ---------------------------------------------------------------------------


def test_laplacian_G_closed_form_value():
    got = laplacian_G(2, 1.0, 0.0)
    assert got == pytest.approx(2.0 * np.cosh(1.0) / np.sinh(1.0) ** 2, abs=1e-14)


def test_laplacian_G_nonnegative_and_equality_case(rng):
    rho = rng.uniform(0.05, 8.0, 500)
    grad = rng.uniform(0.0, 1.0, 500)
    vals = laplacian_G(2, rho, grad)
    assert np.all(vals >= 0.0)
    # radial directions saturate the gradient bound and kill the Laplacian
    assert laplacian_G(2, rho, np.ones(500)) == pytest.approx(np.zeros(500), abs=1e-14)


def test_laplacian_G_validation():
    with pytest.raises(GeometryError):
        laplacian_G(2, 0.0, 0.5)
    with pytest.raises(GeometryError):
        laplacian_G(2, 1.0, 1.1)
    with pytest.raises(GeometryError):
        laplacian_G(2, 1.0, -0.1)


# ---------------------------------------------------------------------------
# cone flux integral
# ---------------------------------------------------------------------------


def test_cross_section_scaling():
    cone = ConeSurface(great_circle_curve(n=64))
    sec = cone.cross_section(2.0)
    assert np.linalg.norm(sec, axis=-1) == pytest.approx(
        np.full(64, np.tanh(1.0)), abs=1e-12
    )
    with pytest.raises(GeometryError):
        cone.cross_section(0.0)


def test_flux_is_radius_independent():
    cone = ConeSurface(great_circle_curve())
    vals = [cone_boundary_integral(cone, m=2, R=r) for r in (0.1, 1.0, 5.0, 10.0)]
    assert vals[0] == pytest.approx(2.0 * np.pi, abs=1e-6)
    assert max(vals) - min(vals) < SPREAD_TOL


def test_flux_rejects_wrong_exponent_and_radius():
    cone = ConeSurface(great_circle_curve(n=64))
    with pytest.raises(GeometryError):
        cone_boundary_integral(cone, m=3)
    with pytest.raises(GeometryError):
        cone_boundary_integral(cone, m=2, R=-1.0)


def test_flux_respects_breaks():
    curve = example_34_curve(0.4, samples_per_piece=256)
    cone = ConeSurface(curve)
    got = cone_boundary_integral(cone, m=2, R=3.0)
    assert got == pytest.approx(curve_length_on_sphere(curve), abs=1e-12)


# ---------------------------------------------------------------------------
# density check
# ---------------------------------------------------------------------------


def test_density_check_great_circle():
    chk = density_bound_check(ConeSurface(great_circle_curve()))
    assert abs(chk.slack) < 1e-9
    assert chk.theta == pytest.approx(1.0, abs=1e-6)
    assert chk.embedded_certificate


def test_density_check_latitude_circle():
    beta = np.pi / 3
    chk = density_bound_check(ConeSurface(latitude_circle_curve(beta)))
    assert abs(chk.slack) < 1e-9
    assert chk.theta == pytest.approx(np.sin(beta), abs=1e-6)
    assert chk.embedded_certificate


def test_density_check_rejects_long_boundary():
    chk = density_bound_check(ConeSurface(triple_wound_curve()))
    assert chk.bound > 4.0 * np.pi
    assert not chk.embedded_certificate
    assert chk.theta > 2.0


def test_density_check_dict():
    d = density_bound_check(ConeSurface(great_circle_curve(n=128))).as_dict()
    assert set(d) == {"measured", "bound", "slack", "theta", "m", "embedded_certificate"}
    assert d["m"] == 2
