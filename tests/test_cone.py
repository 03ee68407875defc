from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog, nnls

from curvebound import (
    CertVerdict,
    DensityCase,
    GeometryError,
    Kind,
    Model,
    OnCurveError,
    PolygonalCurve,
    SpaceForm,
    certify_embedded,
    cone_angle,
    cone_angle_sampled,
    convert_coords,
    density_report,
    geodesic_point,
    hexagonal_trefoil,
    hull_sample,
    min_enclosing_ball,
    on_curve_bound,
    random_isometry,
    unembed,
    validate,
    vertex_angle,
)
from curvebound import cone

from conftest import (
    curved_frame,
    euclidean_curve,
    exp_can,
    random_simple_polygons,
    random_unit,
    small_plane_pentagon,
)

DUAL_ROUTE_TOL = 1e-6


FIVE_MODELS = [SpaceForm.euclidean(3), SpaceForm.sphere(3), SpaceForm.sphere(3, Model.STEREO_BALL),
               SpaceForm.hyperbolic(3), SpaceForm.hyperbolic(3, Model.HYPERBOLOID)]
FIVE_IDS = ["E3", "S3", "S3-stereo", "H3-ball", "H3-hyperboloid"]


def model_polygon(space, rng, k):
    """Vertices, in space.model coords, of a random simple k-gon of size about
    0.2 near the chart origin (the north pole on the sphere)."""
    verts = 0.15 * random_simple_polygons(rng, 1, k=k)[0]
    if space.kind is Kind.SPHERE:
        verts = np.concatenate([verts, np.ones((k, 1))], axis=1)
        return unembed(space, verts / np.linalg.norm(verts, axis=-1, keepdims=True))
    if space.kind is Kind.HYPERBOLIC:
        return convert_coords(SpaceForm.hyperbolic(3), verts, space.model)
    return verts


def unit_square():
    return euclidean_curve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])


def circle_curve(radius, height, n=2000):
    t = 2.0 * np.pi * np.arange(n) / n
    v = np.stack([radius * np.cos(t), radius * np.sin(t), np.full(n, height)], axis=1)
    return euclidean_curve(v)


# ---------------------------------------------------------------------------
# cone angle, closed form
# ---------------------------------------------------------------------------


def test_circle_cone_angle_matches_closed_form():
    rho, h = 1.0, 2.0
    curve = circle_curve(rho, h)
    got = cone_angle(SpaceForm.euclidean(3), np.zeros(3), curve)
    # the circle projects to a spherical circle of radius rho/sqrt(rho^2+h^2)
    want = 2.0 * np.pi * rho / np.hypot(rho, h)
    assert abs(got - want) < 1e-4


def test_equator_from_pole_is_2pi():
    space = SpaceForm.sphere(2)
    for k in (3, 5, 12):
        t = 2.0 * np.pi * np.arange(k) / k
        eq = np.stack([np.cos(t), np.sin(t), np.zeros(k)], axis=1)
        curve = PolygonalCurve(space, eq)
        got = cone_angle(space, np.array([0.0, 0.0, 1.0]), curve)
        assert abs(got - 2.0 * np.pi) < 1e-9


def test_cone_angle_decreases_with_apex_distance(rng):
    curve = euclidean_curve(random_simple_polygons(rng, 1)[0])
    space = SpaceForm.euclidean(3)
    angles = [cone_angle(space, np.array([d, 0.0, 0.0]), curve) for d in (5.0, 10.0, 20.0)]
    assert angles[0] > angles[1] > angles[2]
    assert angles[2] < 2.0 * angles[1]  # roughly inverse in the distance
    assert angles[2] < 1.0


def test_cone_angle_isometry_invariant(rng):
    for space in (SpaceForm.sphere(3), SpaceForm.hyperbolic(3)):
        verts = 0.3 * random_simple_polygons(rng, 1)[0]
        if space.kind.value == "sphere":
            emb = np.concatenate([verts, np.ones((5, 1))], axis=1)
            verts = emb / np.linalg.norm(emb, axis=-1, keepdims=True)
        p = np.zeros(space.ambient_dim)
        if space.kind.value == "sphere":
            p = np.zeros(4)
            p[-1] = -1.0
            p[0] = 0.8
            p /= np.linalg.norm(p)
        curve = PolygonalCurve(space, verts)
        iso = random_isometry(space, rng=5)
        moved = curve.apply_isometry(iso)
        a = cone_angle(space, p, curve)
        b = cone_angle(space, iso.apply(p), moved)
        assert abs(a - b) < 1e-9


def test_apex_on_curve_raises():
    sq = unit_square()
    space = SpaceForm.euclidean(3)
    with pytest.raises(OnCurveError):
        cone_angle(space, np.array([0.5, 0.0, 0.0]), sq)
    with pytest.raises(OnCurveError):
        cone_angle_sampled(space, np.array([0.0, 0.0, 0.0]), sq)


def test_sphere_antipodal_apex_rejected():
    space = SpaceForm.sphere(2)
    t = 2.0 * np.pi * np.arange(5) / 5.0
    cap = np.stack([0.3 * np.cos(t), 0.3 * np.sin(t), np.full(5, np.sqrt(1 - 0.09))], axis=1)
    curve = PolygonalCurve(space, cap)
    with pytest.raises(GeometryError):
        cone_angle(space, -cap[0], curve)


# ---------------------------------------------------------------------------
# dual route: closed form vs quadrature
# ---------------------------------------------------------------------------


def test_dual_route_euclidean(rng):
    curve = euclidean_curve(random_simple_polygons(rng, 1)[0])
    space = SpaceForm.euclidean(3)
    p = np.array([2.5, 0.1, 0.3])
    a = cone_angle(space, p, curve)
    b = cone_angle_sampled(space, p, curve)
    assert abs(a - b) < DUAL_ROUTE_TOL


def test_dual_route_sphere(rng):
    space = SpaceForm.sphere(3)
    verts = 0.25 * random_simple_polygons(rng, 1)[0]
    emb = np.concatenate([verts, np.ones((5, 1))], axis=1)
    verts = emb / np.linalg.norm(emb, axis=-1, keepdims=True)
    curve = PolygonalCurve(space, verts)
    p = np.array([0.2, -0.1, 0.05, 1.0])
    p /= np.linalg.norm(p)
    a = cone_angle(space, p, curve)
    b = cone_angle_sampled(space, p, curve)
    assert abs(a - b) < DUAL_ROUTE_TOL


def test_dual_route_hyperbolic(rng):
    space = SpaceForm.hyperbolic(3)
    verts = 0.3 * random_simple_polygons(rng, 1)[0]
    curve = PolygonalCurve(space, verts)
    p = np.array([0.45, 0.1, -0.2])
    a = cone_angle(space, p, curve)
    b = cone_angle_sampled(space, p, curve)
    assert abs(a - b) < DUAL_ROUTE_TOL


@pytest.mark.parametrize("space", [SpaceForm.euclidean(3), SpaceForm.hyperbolic(3),
                                   SpaceForm.sphere(3, Model.STEREO_BALL)])
def test_sampled_angle_sums_its_segments(space, rng):
    # the one-pass quadrature equals one pass per segment
    verts = 0.3 * random_simple_polygons(rng, 1)[0]
    p = np.array([0.45, 0.1, -0.2])
    whole = cone_angle_sampled(space, p, PolygonalCurve(space, verts), samples_per_segment=256)
    parts = sum(cone_angle_sampled(space, p, PolygonalCurve(space, verts[[i, (i + 1) % 5]],
                                                            closed=False),
                                   samples_per_segment=256)
                for i in range(5))
    assert whole == pytest.approx(parts, rel=0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# on-curve cases
# ---------------------------------------------------------------------------


def test_square_edge_midpoint_density():
    sq = unit_square()
    space = SpaceForm.euclidean(3)
    p = np.array([0.5, 0.0, 0.0])
    assert on_curve_bound(space, p, sq) == pytest.approx(1.5)
    rep = density_report(space, p, sq)
    assert rep.case is DensityCase.ON_EDGE
    # remaining three sides sweep a half turn of directions
    assert rep.angle == pytest.approx(np.pi, abs=1e-12)
    assert rep.density == pytest.approx(0.5, abs=1e-12)
    assert rep.passed


def test_square_corner_density():
    sq = unit_square()
    space = SpaceForm.euclidean(3)
    p = np.array([0.0, 0.0, 0.0])
    # exterior angle pi/2 lowers the vertex bound to 5/4
    assert on_curve_bound(space, p, sq) == pytest.approx(1.25)
    rep = density_report(space, p, sq)
    assert rep.case is DensityCase.AT_VERTEX
    assert rep.angle == pytest.approx(np.pi / 2.0, abs=1e-12)
    assert rep.density == pytest.approx(0.25, abs=1e-12)
    assert rep.margin == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("space", [SpaceForm.euclidean(3), SpaceForm.sphere(3),
                                   SpaceForm.hyperbolic(3),
                                   SpaceForm.hyperbolic(3, Model.HYPERBOLOID)],
                         ids=["E3", "S3", "H3-ball", "H3-hyperboloid"])
def test_on_curve_chain_angle_matches_segment_loop(space, closed, rng):
    """The one-call chain angle against a per-segment sum that skips the
    segments through the apex; nine vertices take numpy's sum past its
    eight-term sequential block, so only the order of the terms differs."""
    verts = random_simple_polygons(rng, 1, k=9)[0]
    if space.kind is Kind.SPHERE:
        verts = np.concatenate([0.2 * verts, np.ones((9, 1))], axis=1)
        verts /= np.linalg.norm(verts, axis=-1, keepdims=True)
    elif space.kind is Kind.HYPERBOLIC:
        verts = convert_coords(SpaceForm.hyperbolic(3), 0.15 * verts, space.model)
    curve = PolygonalCurve(space, verts, closed=closed)
    edge_point = geodesic_point(space, verts[5], verts[6], 0.3).coords
    for x, case, skip in ((verts[3], DensityCase.AT_VERTEX, {2, 3}),
                          (edge_point, DensityCase.ON_EDGE, {5})):
        rep = density_report(space, x, curve)
        assert rep.case is case
        want = sum(vertex_angle(space, x, *curve.segment(s))
                   for s in range(curve.n_segments) if s not in skip)
        assert rep.angle == pytest.approx(want, rel=0.0, abs=1e-13)
        assert rep.bound_applied == on_curve_bound(space, x, curve)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("space", FIVE_MODELS, ids=FIVE_IDS)
def test_density_kernel_batch_matches_per_apex(space, closed, rng):
    """One batched kernel call against one call per apex, bit for bit: three
    vertices (both ends of an open curve among them), two edge points and
    hull samples off the curve, on curves of five and nine vertices."""
    tol = cone.ON_CURVE_TOL
    for k in (5, 9):
        verts = model_polygon(space, rng, k)
        curve = PolygonalCurve(space, verts, closed=closed)
        edges = [geodesic_point(space, verts[i], verts[i + 1], 0.4).coords for i in (0, 2)]
        apexes = np.concatenate([verts[[0, 1, k - 1]], edges, hull_sample(space, verts, 6, rng=1)])
        angle, case, index = cone._densities(space, apexes, curve, tol)
        assert [cone._CASES[c] for c in case] == (
            [DensityCase.AT_VERTEX] * 3 + [DensityCase.ON_EDGE] * 2 + [DensityCase.OFF_CURVE] * 6)
        assert index.tolist() == [0, 1, k - 1, 0, 2] + [-1] * 6
        for i, x in enumerate(apexes):
            one = cone._densities(space, x[None], curve, tol)
            assert (one[0][0], one[1][0], one[2][0]) == (angle[i], case[i], index[i])
        # an open curve's ends (rows 0 and 2) have no bound
        rows = np.arange(len(apexes)) if closed else np.r_[1, 3:len(apexes)]
        for i, bound in zip(rows, cone._bounds(curve, case[rows], index[rows])):
            rep = density_report(space, apexes[i], curve)
            assert (rep.angle, rep.case, rep.bound_applied) == (
                angle[i], cone._CASES[case[i]], bound)


def test_density_report_tol_decides_on_or_off_curve():
    # 5e-9 off edge 0, inside the square
    sq, space = unit_square(), SpaceForm.euclidean(3)
    p = np.array([0.5, 5e-9, 0.0])
    off = density_report(space, p, sq, tol=1e-10)
    assert off.case is DensityCase.OFF_CURVE
    assert off.density == pytest.approx(1.0, abs=1e-6)
    assert density_report(space, p, sq, tol=1e-6).case is DensityCase.ON_EDGE


def test_open_curve_ends_have_no_bound():
    chain = euclidean_curve([[0, 0, 0], [1, 0, 0], [1, 1, 0]], closed=False)
    space = SpaceForm.euclidean(3)
    for end in chain.vertices[[0, -1]]:
        for fn in (density_report, on_curve_bound):
            with pytest.raises(GeometryError, match="no exterior angle at an open-curve endpoint"):
                fn(space, end, chain)
        with pytest.raises(OnCurveError):
            cone_angle(space, end, chain)
    assert on_curve_bound(space, chain.vertices[1], chain) == pytest.approx(1.25)


def test_on_curve_bound_rejects_off_curve_point():
    with pytest.raises(GeometryError):
        on_curve_bound(SpaceForm.euclidean(3), np.array([5.0, 5.0, 5.0]), unit_square())


def test_density_report_interior_point_of_convex_curve():
    rep = density_report(SpaceForm.euclidean(3), np.array([0.5, 0.5, 0.0]), unit_square())
    assert rep.case is DensityCase.OFF_CURVE
    assert rep.density == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


@pytest.mark.parametrize("space", [SpaceForm.hyperbolic(3), SpaceForm.sphere(3)],
                         ids=["H3", "S3"])
def test_on_curve_threshold_at_tiny_offsets(space):
    # a convex pentagon in the totally geodesic plane exp_x(span(t1, t2)) whose
    # edge 0 passes through x; the apex leaves x along the normal t3, so its
    # distance to the curve is the offset itself
    kind = space.kind
    x, (t1, t2, t3) = curved_frame(kind, np.random.default_rng(33), 0.3, count=3)
    verts = [exp_can(kind, x, np.cos(phi) * t1 + np.sin(phi) * t2, r)
             for phi, r in ((np.pi, 0.3), (0.0, 0.3), (0.8, 0.4), (1.6, 0.4), (2.4, 0.4))]
    curve = PolygonalCurve(space, unembed(space, np.array(verts)))
    for offset, case in ((0.5e-8, DensityCase.ON_EDGE), (2e-8, DensityCase.OFF_CURVE)):
        rep = density_report(space, unembed(space, exp_can(kind, x, t3, offset)), curve)
        assert rep.case is case


# ---------------------------------------------------------------------------
# hull sampling
# ---------------------------------------------------------------------------


def test_hull_samples_lie_in_convex_hull(rng):
    verts = random_simple_polygons(rng, 1)[0]
    samples = hull_sample(SpaceForm.euclidean(3), verts, 40, rng=2)
    k = verts.shape[0]
    for s in samples:
        # feasibility LP: s = sum w_i v_i, w >= 0, sum w = 1
        a_eq = np.vstack([verts.T, np.ones(k)])
        b_eq = np.concatenate([s, [1.0]])
        res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k)
        assert res.success


def test_hull_sample_exact_weights(rng):
    verts = random_simple_polygons(rng, 1)[0]
    w = rng.dirichlet(np.ones(5), size=8)
    samples = hull_sample(SpaceForm.euclidean(3), verts, 8, weights=w)
    assert samples == pytest.approx(w @ verts, abs=1e-9)


def test_hull_sample_weight_validation(rng):
    verts = random_simple_polygons(rng, 1)[0]
    with pytest.raises(GeometryError):
        hull_sample(SpaceForm.euclidean(3), verts, 4, weights=np.ones((3, 5)))
    with pytest.raises(GeometryError):
        hull_sample(SpaceForm.euclidean(3), verts, 1, weights=-np.ones((1, 5)))


# ---------------------------------------------------------------------------
# smallest enclosing ball
# ---------------------------------------------------------------------------


def test_meb_symmetric_triple():
    beta = 0.5
    t = 2.0 * np.pi * np.arange(3) / 3.0
    pts = np.stack(
        [np.sin(beta) * np.cos(t), np.sin(beta) * np.sin(t), np.full(3, np.cos(beta))],
        axis=1,
    )
    center, radius = min_enclosing_ball(SpaceForm.sphere(2), pts)
    assert center == pytest.approx(np.array([0.0, 0.0, 1.0]), abs=1e-7)
    assert radius == pytest.approx(beta, abs=1e-7)


def test_meb_two_points():
    a = np.array([1.0, 0.0, 0.0])
    t = 0.6
    b = np.array([np.cos(t), np.sin(t), 0.0])
    center, radius = min_enclosing_ball(SpaceForm.sphere(2), np.stack([a, b]))
    mid = (a + b) / np.linalg.norm(a + b)
    assert center == pytest.approx(mid, abs=1e-7)
    assert radius == pytest.approx(t / 2.0, abs=1e-7)


def test_meb_requires_sphere():
    with pytest.raises(GeometryError):
        min_enclosing_ball(SpaceForm.euclidean(3), np.eye(3))


def cap_pentagons(rng, count):
    """Pentagons in S^3 (canonical coords) about random centres, with cap
    radii spread log-uniformly over 1e-5 .. 1.2."""
    out = []
    for r in np.geomspace(1e-5, 1.2, count):
        c = random_unit(rng, 1, 4)[0]
        u = rng.standard_normal((5, 4))
        u -= np.outer(u @ c, c)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        rho = r * rng.uniform(0.3, 1.0, (5, 1))
        out.append(np.cos(rho) * c + np.sin(rho) * u)
    return out


def nnls_cap_lower_bound(p):
    """arccos |x| for a point x of conv(p) found without the cap code.

    nnls solves [P^T; M 1^T] lam ~ [0; M] with lam >= 0.  The objective is
    homogeneous in lam apart from the sum row, so lam / sum(lam) is the
    min-norm point's weights; any hull point has |x| >= |x*| = cos(radius),
    so the result bounds the smallest cap radius from below (up to the
    rounding of arccos near 1: about 1e-16 / sin(radius)).
    """
    m = 100.0
    a = np.vstack([p.T, np.full((1, len(p)), m)])
    lam, _ = nnls(a, np.r_[np.zeros(p.shape[1]), m])
    x = p.T @ (lam / lam.sum())
    return float(np.arccos(min(np.linalg.norm(x), 1.0)))


@pytest.mark.parametrize("model", [Model.UNIT_SPHERE, Model.STEREO_BALL])
def test_meb_closes_the_nnls_duality_gap(model, rng):
    space = SpaceForm.sphere(3, model)
    for p in cap_pentagons(rng, 60):
        center, radius = min_enclosing_ball(space, unembed(space, p))
        assert center.shape == (space.ambient_dim,)
        gap = radius - nnls_cap_lower_bound(p)
        assert -1e-10 <= gap <= 1e-9


def test_meb_is_isometry_invariant(rng):
    space = SpaceForm.sphere(3)
    for p in cap_pentagons(rng, 30):
        center, radius = min_enclosing_ball(space, p)
        iso = random_isometry(space, rng)
        moved_center, moved_radius = min_enclosing_ball(space, iso.apply(p))
        assert moved_radius == pytest.approx(radius, rel=1e-12, abs=1e-15)
        assert moved_center == pytest.approx(iso.apply(center), abs=1e-9)


def equatorial_pentagon():
    t = 2.0 * np.pi * np.arange(5) / 5.0
    return np.stack([np.cos(t), np.sin(t), np.zeros(5)], axis=1)


def regular_tetrahedron():
    return np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)


@pytest.mark.parametrize("verts", [equatorial_pentagon(), regular_tetrahedron()],
                         ids=["equatorial_pentagon", "tetrahedron"])
def test_meb_no_open_hemisphere(verts):
    """Both vertex sets contain 0 in their hull: the smallest cap has radius
    pi/2 (pentagon) or more (tetrahedron), so there is no centre to report."""
    space = SpaceForm.sphere(2)
    with pytest.raises(GeometryError, match="no open hemisphere"):
        min_enclosing_ball(space, verts)
    cert = certify_embedded(space, PolygonalCurve(space, verts), n_samples=50)
    assert cert.verdict is CertVerdict.INCONCLUSIVE
    assert cert.n_samples == 0
    assert "no open hemisphere" in cert.reason and "pi/4" in cert.reason


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def test_certify_planar_convex_square():
    cert = certify_embedded(SpaceForm.euclidean(3), unit_square(), n_samples=300, rng=1)
    assert cert.verdict is CertVerdict.CERTIFIED
    assert cert.worst.density <= 1.0 + 1e-9


def test_certify_random_pentagon_each_kind(rng):
    verts = random_simple_polygons(rng, 1)[0]

    cert = certify_embedded(SpaceForm.euclidean(3), euclidean_curve(verts), n_samples=200)
    assert cert.verdict is CertVerdict.CERTIFIED

    hyp = PolygonalCurve(SpaceForm.hyperbolic(3), 0.3 * verts)
    cert = certify_embedded(SpaceForm.hyperbolic(3), hyp, n_samples=200)
    assert cert.verdict is CertVerdict.CERTIFIED

    emb = np.concatenate([0.2 * verts, np.ones((5, 1))], axis=1)
    sph = PolygonalCurve(SpaceForm.sphere(3), emb / np.linalg.norm(emb, axis=-1, keepdims=True))
    cert = certify_embedded(SpaceForm.sphere(3), sph, n_samples=200)
    assert cert.verdict is CertVerdict.CERTIFIED
    assert any("radius" in p for p in cert.preconditions)


@pytest.mark.parametrize("r", [1e-5, 1e-6])
@pytest.mark.parametrize("space", [SpaceForm.sphere(3), SpaceForm.hyperbolic(3, Model.HYPERBOLOID)],
                         ids=["sphere", "hyperbolic"])
def test_certify_small_plane_pentagon_density_is_one(space, r):
    # every hull sample lies in the pentagon's totally geodesic plane, where the cone is
    # that plane: density 1 inside the pentagon and less outside
    verts, _ = small_plane_pentagon(space.kind, r)
    cert = certify_embedded(space, PolygonalCurve(space, verts), n_samples=300, rng=3)
    assert cert.verdict is CertVerdict.CERTIFIED
    assert cert.worst.density <= 1.0 + 1e-12


def test_certify_large_spherical_curve_inconclusive():
    space = SpaceForm.sphere(2)
    t = 2.0 * np.pi * np.arange(5) / 5.0
    eq = np.stack([np.cos(t), np.sin(t), np.zeros(5)], axis=1)
    cert = certify_embedded(space, PolygonalCurve(space, eq), n_samples=50)
    assert cert.verdict is CertVerdict.INCONCLUSIVE
    assert "pi/4" in cert.reason


def test_certify_trefoil_inconclusive():
    curve = hexagonal_trefoil()
    assert validate(curve).simple
    cert = certify_embedded(SpaceForm.euclidean(3), curve, n_samples=400, rng=0)
    assert cert.verdict is CertVerdict.INCONCLUSIVE
    assert cert.worst.density >= 2.0


def test_certify_rejects_bad_curves():
    bow = euclidean_curve([[0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(GeometryError):
        certify_embedded(SpaceForm.euclidean(3), bow, n_samples=10)
    chain = euclidean_curve([[0, 0, 0], [1, 0, 0], [1, 1, 0]], closed=False)
    with pytest.raises(GeometryError):
        certify_embedded(SpaceForm.euclidean(3), chain, n_samples=10)


@pytest.mark.parametrize("space", [SpaceForm.euclidean(3), SpaceForm.hyperbolic(3),
                                   SpaceForm.sphere(3, Model.STEREO_BALL)],
                         ids=["E3", "H3", "S3"])
def test_certify_matches_per_sample_loop(space, monkeypatch, rng):
    """The batched pass against the loop it replaced: density_report at every
    sample, worst = first of least margin.  Two samples sit on the curve."""
    curve = PolygonalCurve(space, 0.15 * random_simple_polygons(rng, 1)[0])
    samples = hull_sample(space, curve.vertices, 300, rng=4)
    on_curve = [curve.vertices[1], geodesic_point(space, curve.vertices[2],
                                                  curve.vertices[3], 0.3).coords]
    samples = np.concatenate([samples[:100], on_curve, samples[100:]])
    monkeypatch.setattr(cone, "hull_sample", lambda *args, **kwargs: samples)
    cert = certify_embedded(space, curve, n_samples=len(samples))

    reports = [density_report(space, s, curve) for s in samples]
    assert [r.case for r in reports].count(DensityCase.OFF_CURVE) == len(samples) - 2
    worst = min(reports, key=lambda r: r.margin)
    assert cert.worst.as_dict() == worst.as_dict()
    passed = all(r.passed for r in reports)
    assert cert.verdict is (CertVerdict.CERTIFIED if passed else CertVerdict.INCONCLUSIVE)
