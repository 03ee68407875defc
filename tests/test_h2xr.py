from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from curvebound import (
    FrameNormal,
    GeometryError,
    H2RIsometry,
    H2RPoint,
    NumericalError,
    christoffel,
    decay_graph,
    end_curve_ratio,
    geodesic,
    geodesic_ode_residual,
    hessian_log_rho,
    jacobi,
    jacobi_ode_residual,
    laplacian_log_rho,
    metric_norm,
    normal_form,
    s_coth_s,
    zero_graph,
)

GEO_TOL = 1e-8
JAC_TOL = 1e-6


def unit_velocity(rng, p):
    raw = rng.normal(size=3)
    return raw / metric_norm(p, raw)


def random_disk_point(rng):
    u = rng.uniform(-0.6, 0.6, 2)
    while u @ u >= 0.8:
        u = rng.uniform(-0.6, 0.6, 2)
    return np.array([u[0], u[1], rng.uniform(-2.0, 2.0)])


# ---------------------------------------------------------------------------
# metric and Christoffel symbols
# ---------------------------------------------------------------------------


def test_metric_norm_at_origin():
    origin = np.zeros(3)
    assert metric_norm(origin, np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)
    assert metric_norm(origin, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)
    assert metric_norm(origin, np.array([0.5, 0.0, 0.0])) == pytest.approx(1.0)


def test_christoffel_matches_metric_derivatives(rng):
    # Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2 with central
    # differences of the coordinate metric
    def metric(u):
        lam = 2.0 / (1.0 - u[0] * u[0] - u[1] * u[1])
        return np.diag([lam * lam, lam * lam, 1.0])

    h = 1e-5
    for _ in range(5):
        u = random_disk_point(rng)[:2]
        dg = np.zeros((3, 3, 3))
        for i in range(2):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            dg[i] = (metric(up) - metric(um)) / (2.0 * h)
        ginv = np.linalg.inv(metric(u))
        term = np.zeros((3, 3, 3))
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    s = 0.0
                    for l in range(3):
                        s += ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                    term[k, i, j] = 0.5 * s
        got = christoffel(u[0], u[1])
        assert got == pytest.approx(term, abs=1e-8)


def test_christoffel_rejects_points_outside_disk():
    with pytest.raises(GeometryError):
        christoffel(0.8, 0.7)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_vertical_geodesic():
    pts = geodesic(np.zeros(3), np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.5, -2.0]))
    want = np.array([[0, 0, 0], [0, 0, 1.5], [0, 0, -2.0]], dtype=float)
    assert pts == pytest.approx(want, abs=1e-12)


def test_horizontal_geodesic():
    t = np.array([0.5, 1.0, 3.0])
    pts = geodesic(np.zeros(3), np.array([0.5, 0.0, 0.0]), t)
    want = np.stack([np.tanh(t / 2.0), np.zeros(3), np.zeros(3)], axis=-1)
    assert pts == pytest.approx(want, abs=1e-12)


def test_geodesic_starts_at_p(rng):
    for _ in range(5):
        p = random_disk_point(rng)
        v = unit_velocity(rng, p)
        q = geodesic(p, v, 0.0)
        assert q.coords == pytest.approx(p, abs=1e-12)


def test_geodesic_residual_small(rng):
    for _ in range(10):
        p = random_disk_point(rng)
        v = unit_velocity(rng, p)
        t = rng.uniform(-1.5, 1.5)
        assert geodesic_ode_residual(p, v, t) < GEO_TOL


def test_non_unit_velocity_rejected():
    with pytest.raises(GeometryError):
        normal_form(np.zeros(3), np.array([1.0, 0.0, 0.0]))


def test_point_validation():
    with pytest.raises(GeometryError):
        H2RPoint(0.9, 0.5, 0.0)
    with pytest.raises(GeometryError):
        geodesic(np.array([1.2, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), 1.0)
    with pytest.raises(GeometryError):
        metric_norm(np.zeros(2), np.zeros(3))


def test_isometry_roundtrip(rng):
    iso = H2RIsometry(w=complex(0.3, -0.2), mu=np.exp(1j * 0.7), z0=1.4, flip=True)
    pts = np.stack([random_disk_point(rng) for _ in range(6)])
    assert iso.inverse_apply(iso.apply(pts)) == pytest.approx(pts, abs=1e-12)


def test_normal_form_parameter_range(rng):
    for _ in range(10):
        p = random_disk_point(rng)
        v = unit_velocity(rng, p)
        nf = normal_form(p, v)
        assert 0.0 <= nf.c <= 0.5
        assert nf.point_at(0.0) == pytest.approx(p, abs=1e-12)


# ---------------------------------------------------------------------------
# Jacobi fields
# ---------------------------------------------------------------------------


def test_jacobi_explicit_value():
    c = 0.25
    w = np.array([0.0, 1.0, 0.0])
    got = jacobi(c, 2.0, w)
    assert got[1] == pytest.approx(np.sinh(1.0) / 0.5, abs=1e-12)
    assert got[0] == got[2] == 0.0


def test_jacobi_linear_when_c_zero():
    w = np.array([1.0, 0.0, 0.0])  # tangent is vertical, so w is orthogonal
    t = np.array([0.5, 2.0])
    assert jacobi(0.0, t, w) == pytest.approx(
        np.stack([t, np.zeros(2), np.zeros(2)], axis=-1), abs=1e-12
    )


def test_jacobi_residual_small(rng):
    for _ in range(6):
        c = rng.uniform(0.0, 0.5)
        tangent = np.array([2.0 * c, 0.0, np.sqrt(1.0 - 4.0 * c * c)])
        w = np.array([tangent[2], 0.0, -tangent[0]])  # orthogonal by construction
        t = rng.uniform(0.2, 2.0)
        assert jacobi_ode_residual(c, t, w) < JAC_TOL
        assert jacobi_ode_residual(c, t, np.array([0.0, 1.0, 0.0])) < JAC_TOL


def test_jacobi_residual_small_c_branch(rng):
    # exercise the series branch next to the hard zero
    for c in (0.0, 1e-9, 1e-7, 9e-7):
        assert jacobi_ode_residual(c, 1.0, np.array([0.0, 1.0, 0.0])) < JAC_TOL


def test_jacobi_validation():
    w2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(GeometryError):
        jacobi(0.6, 1.0, w2)
    with pytest.raises(GeometryError):
        jacobi(0.2, 1.0, 2.0 * w2)
    with pytest.raises(GeometryError):
        jacobi(0.25, 1.0, np.array([1.0, 0.0, 0.0]))  # not orthogonal to tangent


# ---------------------------------------------------------------------------
# s coth s, Hessian, Laplacian
# ---------------------------------------------------------------------------


def test_s_coth_s_properties():
    assert s_coth_s(0.0) == pytest.approx(1.0)
    assert s_coth_s(1.0) == pytest.approx(1.0 / np.tanh(1.0), abs=1e-14)
    s = np.linspace(0.0, 50.0, 2001)
    vals = s_coth_s(s)
    assert np.all(vals >= 1.0)
    assert np.all(np.diff(vals) >= 0.0)
    with pytest.raises(GeometryError):
        s_coth_s(-0.5)


def test_hessian_fixed_values():
    got = hessian_log_rho(2.0, np.pi / 2.0)
    want = np.array([-0.25, 0.25, 2.0 / np.tanh(2.0) / 4.0])
    assert got == pytest.approx(want, abs=1e-14)
    # sin(phi) = 0 collapses the third entry to 1/rho^2
    assert hessian_log_rho(2.0, 0.0)[2] == pytest.approx(0.25)


def test_hessian_validation():
    with pytest.raises(GeometryError):
        hessian_log_rho(0.0, 1.0)
    with pytest.raises(GeometryError):
        hessian_log_rho(1.0, 3.5)


def test_laplacian_is_trace_minus_normal_part(rng):
    for _ in range(20):
        rho = rng.uniform(0.1, 5.0)
        phi = rng.uniform(0.0, np.pi)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        h = hessian_log_rho(rho, phi)
        want = np.sum(h) - float(h @ (n * n))
        got = laplacian_log_rho(rho, phi, n)
        assert got == pytest.approx(want, abs=1e-12)


def test_laplacian_nonnegative_with_equality_cases(rng):
    rho = rng.uniform(0.05, 10.0, 300)
    phi = rng.uniform(0.0, np.pi, 300)
    n = rng.normal(size=(300, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    vals = laplacian_log_rho(rho, phi, n)
    assert np.all(vals >= -1e-12)
    assert laplacian_log_rho(3.0, 1.0, np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-15)
    assert laplacian_log_rho(3.0, 0.0, np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)


def test_frame_normal_validation():
    n = FrameNormal(0.0, 0.6, 0.8)
    assert laplacian_log_rho(1.0, 0.5, n) >= 0.0
    with pytest.raises(GeometryError):
        FrameNormal(0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# end-curve length ratio
# ---------------------------------------------------------------------------


def test_zero_graph_ratio_is_2pi():
    f, df = zero_graph()
    for r in (1.0, 5.0, 20.0):
        assert end_curve_ratio(f, df, r) == pytest.approx(2.0 * np.pi, abs=1e-12)


def test_decay_graph_ratio_converges():
    f, df = decay_graph(amplitude=0.5, alpha=1.0)
    gaps = [abs(end_curve_ratio(f, df, r) - 2.0 * np.pi) for r in (2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] > 1e-4
    assert gaps[-1] < 1e-3


def test_end_curve_ratio_validation():
    f, df = zero_graph()
    with pytest.raises(GeometryError):
        end_curve_ratio(f, df, 0.0)
    big = (lambda x, z: 0.9), (lambda x, z: (0.0, 0.0))
    with pytest.raises(GeometryError):
        end_curve_ratio(big[0], big[1], 5.0)


def _lifted_length_over_r(f, df, r: float) -> float:
    """Oracle: scipy quad of the metric speed of t -> (x, f(x, z), z) on the
    parameter circle, written from the metric 4|du|^2/(1 - |u|^2)^2 + dz^2."""

    def speed(t):
        x, z = math.tanh(0.5 * r * math.cos(t)), r * math.sin(t)
        dx = -0.5 * r * math.sin(t) * (1.0 - x * x)
        dz = r * math.cos(t)
        fx, fz = df(x, z)
        dy = fx * dx + fz * dz
        lam = 2.0 / (1.0 - x * x - f(x, z) ** 2)
        return math.sqrt(lam * lam * (dx * dx + dy * dy) + dz * dz) / r

    return quad(speed, 0.0, 2.0 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


SHIPPED_GRAPHS = {"zero": zero_graph, "decay": decay_graph,
                  "decay_slow": lambda: decay_graph(0.9, 0.2)}


@pytest.mark.parametrize("name", sorted(SHIPPED_GRAPHS))
def test_end_curve_ratio_matches_quad_oracle(name):
    f, df = SHIPPED_GRAPHS[name]()
    for r in (0.1, 0.5, 1.0, 2.0, 4.0, 5.0, 8.0, 16.0, 20.0):
        assert abs(end_curve_ratio(f, df, r) - _lifted_length_over_r(f, df, r)) <= 1e-12


def test_end_curve_ratio_nodes_are_nested_and_reruns_identical():
    f, df = decay_graph()
    seen = []

    def logged(x, z):
        seen.append((x, z))
        return f(x, z)

    first = end_curve_ratio(logged, df, 4.0)
    # 16 + 16 + 32 nodes: two successive doublings must agree, none is redone
    assert len(seen) == 64 and len(set(seen)) == 64
    assert end_curve_ratio(f, df, 4.0) == first


def test_end_curve_ratio_large_radius():
    for f, df in (zero_graph(), decay_graph()):
        for r in (40.0, 60.0, 100.0):
            assert abs(end_curve_ratio(f, df, r) - 2.0 * math.pi) <= 1e-12


@pytest.mark.parametrize("name", sorted(SHIPPED_GRAPHS))
def test_end_curve_ratio_where_sech_squared_underflows(name):
    # sech(r cos t / 2)^2 is subnormal or 0 near t = 0 and pi at these radii
    f, df = SHIPPED_GRAPHS[name]()
    for r in (740.0, 1000.0, 1400.0):
        assert abs(end_curve_ratio(f, df, r) - 2.0 * math.pi) <= 1e-12


def test_end_curve_ratio_names_the_radius_where_sech_underflows():
    f, df = zero_graph()
    with pytest.raises(NumericalError, match="r = 1500.0"):
        end_curve_ratio(f, df, 1500.0)


def test_decay_graph_boundary_limit():
    f, df = decay_graph()
    for x in (1.0, -1.0):
        assert f(x, 0.5) == 0.0
        assert df(x, 0.5) == (0.0, 0.0)


def test_end_curve_ratio_rejects_nonsmooth_graph():
    # the jump at z = 1 is at t = pi/6 and 5pi/6, where sin t != 0, so the
    # integrand jumps there and the trapezoid rule only converges like 1/n
    step = (lambda x, z: 0.3 if z > 1.0 else 0.0), (lambda x, z: (0.0, 0.0))
    with pytest.raises(NumericalError, match="r = 2.0"):
        end_curve_ratio(step[0], step[1], 2.0)
