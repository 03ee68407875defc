"""Distances, geodesics, angles, model conversions, and isometries."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from curvebound import (
    GeometryError,
    Kind,
    Model,
    ModelMismatchError,
    NonUniqueGeodesicError,
    Point,
    SpaceForm,
    base_point_isometry,
    convert,
    dist,
    embed,
    geodesic_point,
    radial_profile,
    random_isometry,
    reflection_swapping,
    unembed,
    vertex_angle,
)
from curvebound.spaceform import _frame_can, dist_arrays, geodesic_arrays, vertex_angle_arrays

from conftest import curved_frame, exp_can

TOL = 1e-12

E2 = SpaceForm.euclidean(2)
E3 = SpaceForm.euclidean(3)
S2 = SpaceForm.sphere(2)
S2_CHART = SpaceForm.sphere(2, Model.STEREO_BALL)
H2 = SpaceForm.hyperbolic(2, Model.HYPERBOLOID)
H2_BALL = SpaceForm.hyperbolic(2, Model.POINCARE_BALL)


def sphere_point(colat, lon):
    return np.array(
        [math.sin(colat) * math.cos(lon), math.sin(colat) * math.sin(lon), math.cos(colat)]
    )


def hyperboloid_point(s, direction=None):
    """Point at hyperbolic distance s from the base point (1, 0, 0)."""
    if direction is None:
        direction = np.array([1.0, 0.0])
    direction = np.asarray(direction) / np.linalg.norm(direction)
    return np.concatenate([[math.cosh(s)], math.sinh(s) * direction])


# ---------------------------------------------------------------------------
# construction and models
# ---------------------------------------------------------------------------


def test_model_admissibility():
    with pytest.raises(ModelMismatchError):
        SpaceForm(Kind.EUCLIDEAN, 2, Model.POINCARE_BALL)
    with pytest.raises(ModelMismatchError):
        SpaceForm(Kind.SPHERE, 2, Model.HYPERBOLOID)
    with pytest.raises(GeometryError):
        SpaceForm.euclidean(0)


def test_ambient_dims():
    assert E3.ambient_dim == 3
    assert S2.ambient_dim == 3
    assert S2_CHART.ambient_dim == 2
    assert H2.ambient_dim == 3
    assert H2_BALL.ambient_dim == 2


def test_point_coordinate_validation():
    with pytest.raises(GeometryError):
        Point(np.array([1.0, 1.0, 1.0]), S2)  # not unit
    with pytest.raises(GeometryError):
        Point(np.array([1.0, 0.0]), H2_BALL)  # on the ball boundary
    with pytest.raises(GeometryError):
        Point(np.array([0.5, 0.5, 0.5]), H2)  # not on the hyperboloid sheet


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_euclidean_345():
    assert dist(E2, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0, abs=TOL)


def test_sphere_quarter_and_antipodal():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert dist(S2, e1, e2) == pytest.approx(math.pi / 2, abs=TOL)
    assert dist(S2, e1, -e1) == pytest.approx(math.pi, abs=TOL)


def test_sphere_small_distance_stability():
    # atan2 form keeps relative accuracy where arccos would lose digits
    p = sphere_point(1e-9, 0.0)
    q = sphere_point(0.0, 0.0)
    assert dist(S2, p, q) == pytest.approx(1e-9, rel=1e-6)


def test_hyperbolic_distance_along_ray():
    p = hyperboloid_point(0.7)
    q = hyperboloid_point(2.2)
    assert dist(H2, p, q) == pytest.approx(1.5, abs=1e-12)


def test_distance_symmetry_and_identity(rng):
    for space in (E3, S2, H2):
        for _ in range(25):
            p = _random_point(rng, space)
            q = _random_point(rng, space)
            assert dist(space, p, q) == pytest.approx(dist(space, q, p), abs=1e-12)
            assert dist(space, p, p) == pytest.approx(0.0, abs=1e-9)


def _random_point(rng, space):
    if space.kind is Kind.EUCLIDEAN:
        return rng.standard_normal(space.dim)
    if space.kind is Kind.SPHERE:
        v = rng.standard_normal(space.dim + 1)
        return v / np.linalg.norm(v)
    v = rng.standard_normal(space.dim)
    return np.concatenate([[math.sqrt(1.0 + v @ v)], v])


# ---------------------------------------------------------------------------
# model conversions
# ---------------------------------------------------------------------------


def test_stereo_chart_base_point_and_radius():
    # chart origin is the base point (-1, 0, 0); radius r = tan(rho / 2)
    base = unembed(S2_CHART, np.array([-1.0, 0.0, 0.0]))
    assert np.allclose(base, [0.0, 0.0], atol=TOL)
    for rho in (0.3, 1.2, 2.0):
        x = np.array([-math.cos(rho), math.sin(rho), 0.0])
        u = unembed(S2_CHART, x)
        assert np.linalg.norm(u) == pytest.approx(math.tan(rho / 2.0), abs=1e-12)


def test_poincare_ball_base_point_and_radius():
    base = unembed(H2_BALL, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(base, [0.0, 0.0], atol=TOL)
    for rho in (0.3, 1.2, 4.0):
        u = unembed(H2_BALL, hyperboloid_point(rho))
        assert np.linalg.norm(u) == pytest.approx(math.tanh(rho / 2.0), abs=1e-12)


def test_conversion_roundtrip(rng):
    for space in (S2_CHART, H2_BALL):
        pts = np.stack([_random_point(rng, space.canonical) for _ in range(40)])
        chart = unembed(space, pts)
        back = embed(space, chart)
        assert np.allclose(back, pts, atol=1e-12)


def test_chart_distances_match_canonical(rng):
    for chart_space in (S2_CHART, H2_BALL):
        canon = chart_space.canonical
        for _ in range(20):
            p = _random_point(rng, canon)
            q = _random_point(rng, canon)
            d_can = dist(canon, p, q)
            d_chart = dist(chart_space, unembed(chart_space, p), unembed(chart_space, q))
            assert d_chart == pytest.approx(d_can, abs=1e-9)


def test_convert_point_wrapper():
    p = Point(np.array([-1.0, 0.0, 0.0]), S2)
    q = convert(p, Model.STEREO_BALL)
    assert q.space.model is Model.STEREO_BALL
    assert np.allclose(q.coords, [0.0, 0.0], atol=TOL)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------


def test_euclidean_midpoint():
    m = geodesic_point(E2, np.array([0.0, 0.0]), np.array([2.0, 0.0]), 0.5)
    assert np.allclose(m.coords, [1.0, 0.0], atol=TOL)


def test_sphere_midpoint_is_normalized_mean():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    m = geodesic_point(S2, e1, e2, 0.5)
    assert np.allclose(m.coords, np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0), atol=TOL)


def test_sphere_antipodal_geodesic_rejected():
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(NonUniqueGeodesicError):
        geodesic_point(S2, e1, -e1, 0.5)


def test_hyperbolic_midpoint_closed_form():
    # sinh-weighted interpolation along the ray through the base point
    p = hyperboloid_point(0.0)
    q = hyperboloid_point(2.0)
    m = geodesic_point(H2, p, q, 0.5)
    assert np.allclose(m.coords, hyperboloid_point(1.0), atol=1e-12)


def test_geodesic_parametrizes_by_arc_length(rng):
    for space in (E3, S2, H2):
        p = _random_point(rng, space)
        q = _random_point(rng, space)
        d = dist(space, p, q)
        for t in (0.0, 0.25, 0.7, 1.0):
            m = geodesic_point(space, p, q, t)
            assert dist(space, p, m.coords) == pytest.approx(t * d, abs=1e-9)


# ---------------------------------------------------------------------------
# vertex angles
# ---------------------------------------------------------------------------


def test_euclidean_right_angle():
    a = vertex_angle(E2, np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert a == pytest.approx(math.pi / 2, abs=TOL)


def test_spherical_octant_angle():
    # octant triangle: all three angles are right angles
    a = vertex_angle(
        S2,
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
    )
    assert a == pytest.approx(math.pi / 2, abs=1e-12)


def test_hyperbolic_angle_law_of_cosines():
    # computed against the explicit cosh relation with independently
    # chosen side lengths
    p = hyperboloid_point(0.0)
    u = hyperboloid_point(1.0, [1.0, 0.0])
    v = hyperboloid_point(1.0, [0.0, 1.0])
    a, b = 1.0, 1.0
    c = dist(H2, u, v)
    expected = math.acos(
        (math.cosh(a) * math.cosh(b) - math.cosh(c)) / (math.sinh(a) * math.sinh(b))
    )
    assert vertex_angle(H2, p, u, v) == pytest.approx(expected, abs=1e-12)


def test_small_triangle_angles_converge_to_euclidean():
    """Shrinking a fixed triangle makes curved angles euclidean, O(lambda^2)."""
    base = np.array([0.4, 0.1])
    du = np.array([0.31, 0.07])
    dv = np.array([-0.05, 0.23])
    flat = vertex_angle(E2, base, base + du, base + dv)

    def sphere_of(lam):
        def lift(u):
            colat, lon = lam * u
            return sphere_point(colat + 1e-30, lon)

        # colat/lon chart is conformal at colat -> 0 only; use tangent exp map
        p = sphere_point(lam * base[0], lam * base[1])
        return p

    errs = []
    for lam in (0.1, 0.05, 0.025):
        def lift(u):
            x = lam * u
            r = np.linalg.norm(x)
            d = x / r
            return np.array(
                [math.sin(r) * d[0], math.sin(r) * d[1], math.cos(r)]
            )

        a = vertex_angle(S2, lift(base), lift(base + du), lift(base + dv))
        errs.append(abs(a - flat))
    # quadratic decay: quartering lambda should roughly quarter the error
    assert errs[2] < errs[0] / 8.0


def test_degenerate_angle_rejected():
    p = np.array([0.0, 0.0])
    with pytest.raises(GeometryError):
        vertex_angle(E2, p, p, np.array([1.0, 0.0]))


def test_near_antipodal_side_rejected():
    p = np.array([0.0, 0.0, 1.0])
    for gap in (0.0, 1e-13):
        u = np.array([math.sin(gap), 0.0, -math.cos(gap)])
        with pytest.raises(GeometryError, match="side lengths < pi"):
            vertex_angle(S2, p, u, np.array([1.0, 0.0, 0.0]))


ORACLE_MODELS = [
    SpaceForm.euclidean(3),
    SpaceForm.sphere(3, Model.UNIT_SPHERE),
    SpaceForm.sphere(3, Model.STEREO_BALL),
    SpaceForm.hyperbolic(3, Model.HYPERBOLOID),
    SpaceForm.hyperbolic(3, Model.POINCARE_BALL),
]


def _mp_angle(space, p, u, v) -> float:
    """The angle at p, from the float coords taken as exact, at 50 digits.

    Chart coords go to canonical ones by the exact chart maps; the tangent
    towards x is x minus its projection on p, which needs no normalization;
    the angle is atan2 of the Gram determinant's root and the inner product.
    """
    with mpmath.workdps(50):
        def canonical(x):
            x = [mpmath.mpf(float(c)) for c in x]
            r2 = sum(c * c for c in x)
            if space.model is Model.STEREO_BALL:
                return [(r2 - 1) / (r2 + 1)] + [2 * c / (r2 + 1) for c in x]
            if space.model is Model.POINCARE_BALL:
                return [(1 + r2) / (1 - r2)] + [2 * c / (1 - r2) for c in x]
            return x

        sign = -1 if space.kind is Kind.HYPERBOLIC else 1

        def dot(a, b):
            return sign * a[0] * b[0] + sum(x * y for x, y in zip(a[1:], b[1:]))

        cp = canonical(p)
        tangents = []
        for x in (canonical(u), canonical(v)):
            if space.kind is Kind.EUCLIDEAN:
                tangents.append([a - b for a, b in zip(x, cp)])
            else:
                c = dot(x, cp) / dot(cp, cp)
                tangents.append([a - c * b for a, b in zip(x, cp)])
        tu, tv = tangents
        g = dot(tu, tv)
        return float(mpmath.atan2(mpmath.sqrt(dot(tu, tu) * dot(tv, tv) - g * g), g))


def _thin_triangles(space, rng, side, count):
    """count triangles (p, u, v) with sides near ``side`` and random apex angles.

    Canonical models get triangles around random points of unit order; the
    chart triangles sit within a few sides of the chart origin, where chart
    coords carry as many digits as the triangle's shape.
    """
    tris = []
    for _ in range(count):
        phi = rng.uniform(0.0, math.pi)
        if space.kind is Kind.EUCLIDEAN or space.model in (Model.STEREO_BALL, Model.POINCARE_BALL):
            e1, e2 = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
            if space.kind is Kind.EUCLIDEAN:
                p, r = rng.uniform(-1.0, 1.0, 3), side
            else:
                p, r = 0.3 * side * rng.standard_normal(3) / math.sqrt(3.0), 0.5 * side
            tris.append((p, p + r * e1, p + r * (math.cos(phi) * e1 + math.sin(phi) * e2)))
        else:
            x, (e1, e2) = curved_frame(space.kind, rng, 0.5)
            w = math.cos(phi) * e1 + math.sin(phi) * e2
            tris.append((x, exp_can(space.kind, x, e1, side), exp_can(space.kind, x, w, side)))
    return [np.stack(c) for c in zip(*tris)]


ORACLE_SIDES = [10.0**e for e in range(-8, 1)]


@pytest.mark.parametrize("space", ORACLE_MODELS, ids=lambda s: f"{s.kind.value}-{s.model.value}")
def test_vertex_angle_matches_high_precision_oracle(space):
    rng = np.random.default_rng(1401)
    worst = 0.0
    for side in ORACLE_SIDES:
        p, u, v = _thin_triangles(space, rng, side, 12)
        got = vertex_angle_arrays(space, p, u, v)
        ref = np.array([_mp_angle(space, *tri) for tri in zip(p, u, v)])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-14


def _mp_frame(kind, a, b) -> np.ndarray:
    """The unit tangent at a towards b at 50 digits, from the float canonical
    coords a and b each scaled exactly onto the model first."""
    with mpmath.workdps(50):
        sign = -1 if kind is Kind.HYPERBOLIC else 1

        def dot(x, y):
            return sign * x[0] * y[0] + sum(s * t for s, t in zip(x[1:], y[1:]))

        def on_model(x):
            x = [mpmath.mpf(float(c)) for c in x]
            r = mpmath.sqrt(sign * dot(x, x))
            return [c / r for c in x]

        pa, pb = on_model(a), on_model(b)
        d = [y - x for x, y in zip(pa, pb)]
        c = sign * dot(d, pa)
        w = [s - c * t for s, t in zip(d, pa)]
        n = mpmath.sqrt(dot(w, w))
        return np.array([float(s / n) for s in w])


def _short_sides(space, rng, side, count):
    """count pairs of points about ``side`` apart, in space.model coords:
    around random points of unit order in the canonical models and within a
    few tenths of the chart origin in the charts."""
    a, b = [], []
    for _ in range(count):
        if space.model in (Model.STEREO_BALL, Model.POINCARE_BALL):
            p, e = 0.3 * rng.standard_normal(3) / math.sqrt(3.0), rng.standard_normal(3)
            a.append(p)
            b.append(p + 0.5 * side * e / np.linalg.norm(e))
        else:
            x, (e,) = curved_frame(space.kind, rng, 0.5, count=1)
            a.append(x)
            b.append(exp_can(space.kind, x, e, side))
    return np.stack(a), np.stack(b)


@pytest.mark.parametrize("space", ORACLE_MODELS[1:], ids=lambda s: f"{s.kind.value}-{s.model.value}")
def test_segment_frame_matches_high_precision_oracle(space):
    # embedded coords sit off the model by rounding; the frame's tangent must
    # not divide that error by the side length
    rng = np.random.default_rng(3601)
    worst = 0.0
    for side in (1e-3, 1e-6, 1e-9):
        a, b = (embed(space, x) for x in _short_sides(space, rng, side, 12))
        u, _ = _frame_can(space.kind, a, b)
        ref = np.stack([_mp_frame(space.kind, *pair) for pair in zip(a, b)])
        worst = max(worst, float(np.max(np.linalg.norm(u - ref, axis=-1))))
    assert worst <= 1e-14


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


def test_batch_kernels_match_scalar(rng):
    for space in (E3, S2, H2):
        canon = space.canonical
        ps = np.stack([_random_point(rng, canon) for _ in range(16)])
        qs = np.stack([_random_point(rng, canon) for _ in range(16)])
        us = np.stack([_random_point(rng, canon) for _ in range(16)])
        d = dist_arrays(canon, ps, qs)
        g = geodesic_arrays(canon, ps, qs, 0.3)
        a = vertex_angle_arrays(canon, ps, qs, us)
        for i in range(16):
            assert d[i] == pytest.approx(dist(canon, ps[i], qs[i]), abs=1e-12)
            assert np.allclose(g[i], geodesic_point(canon, ps[i], qs[i], 0.3).coords,
                               atol=1e-12)
            assert a[i] == pytest.approx(vertex_angle(canon, ps[i], qs[i], us[i]),
                                         abs=1e-12)


# ---------------------------------------------------------------------------
# radial profile
# ---------------------------------------------------------------------------


def test_radial_profiles():
    rho = np.array([0.0, 0.5, 1.5])
    assert np.allclose(radial_profile(E3)(rho), rho)
    assert np.allclose(radial_profile(S2)(rho), np.sin(rho))
    assert np.allclose(radial_profile(H2)(rho), np.sinh(rho))
    with pytest.raises(GeometryError):
        radial_profile(S2)(np.array([3.5]))
    with pytest.raises(GeometryError):
        radial_profile(E3)(np.array([-0.1]))


# ---------------------------------------------------------------------------
# isometries
# ---------------------------------------------------------------------------


def test_random_isometry_preserves_distance(rng):
    for space in (E3, S2, H2):
        iso = random_isometry(space, rng)
        for _ in range(10):
            p = _random_point(rng, space)
            q = _random_point(rng, space)
            assert dist(space, iso.apply(p), iso.apply(q)) == pytest.approx(
                dist(space, p, q), abs=1e-9
            )
            assert np.allclose(iso.inverse().apply(iso.apply(p)), p, atol=1e-9)


def test_base_point_isometry_centers(rng):
    for space in (E3, S2, H2):
        p = _random_point(rng, space)
        iso = base_point_isometry(space, p)
        assert np.allclose(iso.apply(p), space.canonical.base_point_coords(), atol=1e-9)


def test_reflection_swaps_endpoints(rng):
    for space in (E3, S2, H2):
        p = _random_point(rng, space)
        q = _random_point(rng, space)
        iso = reflection_swapping(space, p, q)
        assert np.allclose(iso.apply(p), q, atol=1e-9)
        assert np.allclose(iso.apply(q), p, atol=1e-9)
