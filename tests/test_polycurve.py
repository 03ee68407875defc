from __future__ import annotations

import numpy as np
import pytest

from curvebound import (
    GeometryError,
    Kind,
    Model,
    Point,
    PolygonalCurve,
    SpaceForm,
    SphericalPolygon,
    cusp_vertices,
    indicatrix_length_batch,
    point_curve_distance,
    point_segment_distance,
    random_isometry,
    segment_pair_distance,
    simple_mask_euclidean,
    spherical_length,
    tangent_indicatrix,
    total_curvature,
    total_curvature_batch,
    turning_angles,
    unembed,
    validate,
)
from curvebound.polycurve import SIMPLE_TOL, _nonadjacent_pairs

from conftest import (curved_frame, euclidean_curve, exp_can, random_simple_polygons,
                      small_plane_pentagon)

EXACT = 1e-12
LOOSE = 1e-9


def pentagram():
    # {5/2} star polygon: each visit advances 4pi/5 around the circle
    t = 4.0 * np.pi * np.arange(5) / 5.0
    return np.stack([np.cos(t), np.sin(t), np.zeros(5)], axis=1)


def regular_ngon(k):
    t = 2.0 * np.pi * np.arange(k) / k
    return np.stack([np.cos(t), np.sin(t), np.zeros(k)], axis=1)


# ---------------------------------------------------------------------------
# curve container
# ---------------------------------------------------------------------------


def test_counts_and_length():
    sq = euclidean_curve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    assert sq.k == 4
    assert sq.n_segments == 4
    assert abs(sq.length() - 4.0) < EXACT
    chain = euclidean_curve([[0, 0, 0], [1, 0, 0], [1, 1, 0]], closed=False)
    assert chain.n_segments == 2
    assert abs(chain.length() - 2.0) < EXACT


def test_from_points_roundtrip_and_errors():
    space = SpaceForm.euclidean(3)
    pts = [Point(v, space) for v in regular_ngon(4)]
    curve = PolygonalCurve.from_points(pts)
    assert curve.k == 4
    assert curve.point(2).coords == pytest.approx(pts[2].coords)
    with pytest.raises(GeometryError):
        PolygonalCurve.from_points([])
    other = Point(np.array([0.1, 0.0]), SpaceForm.euclidean(2))
    with pytest.raises(GeometryError):
        PolygonalCurve.from_points([pts[0], other])


def test_wrong_coordinate_width_rejected():
    with pytest.raises(GeometryError):
        PolygonalCurve(SpaceForm.euclidean(3), np.zeros((4, 2)))


def test_segment_wraps_around():
    sq = euclidean_curve(regular_ngon(4))
    a, b = sq.segment(3)
    assert a == pytest.approx(sq.vertices[3])
    assert b == pytest.approx(sq.vertices[0])


# ---------------------------------------------------------------------------
# pairwise distances
# ---------------------------------------------------------------------------


def test_segment_distances_euclidean():
    space = SpaceForm.euclidean(3)
    crossing = segment_pair_distance(
        space,
        np.array([-1.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, -1.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
    )
    assert crossing < EXACT
    parallel = segment_pair_distance(
        space,
        np.array([0.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([1.0, 1.0, 0.0]),
    )
    assert abs(parallel - 1.0) < EXACT


def test_point_segment_distance_euclidean():
    space = SpaceForm.euclidean(2)
    a, b = np.array([0.0, 0.0]), np.array([2.0, 0.0])
    assert point_segment_distance(space, np.array([1.0, 3.0]), a, b) == pytest.approx(3.0)
    # beyond the endpoint the nearest point is the endpoint itself
    assert point_segment_distance(space, np.array([5.0, 4.0]), a, b) == pytest.approx(5.0)


def test_segment_distances_sphere():
    space = SpaceForm.sphere(2)
    ex, ey, ez = np.eye(3)
    touching = segment_pair_distance(space, ez, ex, ez, ey)
    assert touching < 1e-7
    mid = (ex + ey) / np.linalg.norm(ex + ey)
    d = point_segment_distance(space, ez, ex, ey)
    assert abs(d - np.pi / 2.0) < 1e-7
    assert point_segment_distance(space, mid, ex, ey) < 1e-7


def test_point_curve_distance():
    sq = euclidean_curve([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    d = point_curve_distance(sq.space, np.array([0.0, 0.0, 0.0]), sq)
    assert abs(d - np.sqrt(0.5)) < EXACT


# ---------------------------------------------------------------------------
# curved distances: crossings, isoclinic arcs, tiny offsets
# ---------------------------------------------------------------------------

CURVED_SPACES = [SpaceForm.hyperbolic(3), SpaceForm.sphere(3)]


def crossing_ends(kind, rng, alpha, dim=3, scale=0.5, longest=0.6):
    """Endpoints of two segments that cross at an interior point at angle alpha,
    around a point drawn at chart scale ``scale``."""
    x, (t1, t2) = curved_frame(kind, rng, scale, dim=dim)
    e2 = np.cos(alpha) * t1 + np.sin(alpha) * t2
    a, b, c, d = rng.uniform(0.05, longest, 4)
    return (exp_can(kind, x, t1, -a), exp_can(kind, x, t1, b),
            exp_can(kind, x, e2, -c), exp_can(kind, x, e2, d))


# (space, chart scale, longest half-segment); the last case lies far from the
# base point, where the hyperboloid's coordinates run into the hundreds
CROSSING_CASES = {
    "S2": (SpaceForm.sphere(2), 0.5, 0.6),
    "S3": (SpaceForm.sphere(3), 0.5, 0.6),
    "S5": (SpaceForm.sphere(5), 0.5, 0.6),
    "H2": (SpaceForm.hyperbolic(2), 0.5, 0.6),
    "H3": (SpaceForm.hyperbolic(3), 0.5, 0.6),
    "H2-far": (SpaceForm.hyperbolic(2, Model.HYPERBOLOID), 8.0, 3.0),
}


@pytest.mark.parametrize("case", CROSSING_CASES)
@pytest.mark.parametrize("alpha", [1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3])
def test_crossing_segments_have_zero_distance(case, alpha):
    space, scale, longest = CROSSING_CASES[case]
    rng = np.random.default_rng(31)
    for _ in range(10):
        ends = crossing_ends(space.kind, rng, alpha, space.dim, scale, longest)
        d = segment_pair_distance(space, *(unembed(space, e) for e in ends))
        assert d < SIMPLE_TOL


@pytest.mark.parametrize("case", CROSSING_CASES)
def test_crossing_distance_is_rounding_noise(case):
    # the crossing is found to within rounding at every angle, also far out
    space, scale, longest = CROSSING_CASES[case]
    rng = np.random.default_rng(32)
    for alpha in (1e-12, 1e-9, 1e-7, 1e-5, 1e-3):
        for _ in range(20):
            ends = crossing_ends(space.kind, rng, alpha, space.dim, scale, longest)
            assert segment_pair_distance(space, *(unembed(space, e) for e in ends)) < 1e-13


@pytest.mark.parametrize("space", CURVED_SPACES, ids=["H3", "S3"])
def test_validate_rejects_curved_bowtie(space):
    # segments 0 and 2 cross at x at angle 0.2; vertex 4 leaves the plane
    rng = np.random.default_rng(6)
    for _ in range(4):
        x, (t1, t2, t3) = curved_frame(space.kind, rng, 0.4, count=3)
        e2 = np.cos(0.2) * t1 + np.sin(0.2) * t2
        a, b, c, d, r = rng.uniform(0.2, 0.5, 5)
        verts = [exp_can(space.kind, x, t1, -a), exp_can(space.kind, x, t1, b),
                 exp_can(space.kind, x, e2, -c), exp_can(space.kind, x, e2, d),
                 exp_can(space.kind, x, t3, r)]
        rep = validate(PolygonalCurve(space, unembed(space, np.array(verts))))
        assert not rep.simple
        assert any(v.startswith("segments 0 and 2 intersect") for v in rep.violations)


def test_validate_rejects_small_angle_crossing_on_sphere():
    # segments 0 and 2 cross at x at 1e-7 rad with their back ends 0.02 apart;
    # vertex 4 leaves the plane
    space = SpaceForm.sphere(3)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x, (t1, t2, t3) = curved_frame(space.kind, rng, 0.4, count=3)
        e2 = np.cos(1e-7) * t1 + np.sin(1e-7) * t2
        verts = [exp_can(space.kind, x, t1, -0.55), exp_can(space.kind, x, t1, 0.25),
                 exp_can(space.kind, x, e2, -0.53), exp_can(space.kind, x, e2, 0.45),
                 exp_can(space.kind, x, t3, 0.3)]
        rep = validate(PolygonalCurve(space, unembed(space, np.array(verts))))
        assert not rep.simple
        assert any(v.startswith("segments 0 and 2 intersect") for v in rep.violations)


def test_hopf_fibre_arcs_keep_constant_distance():
    # Hopf fibres e^{i theta} q of S^3 in C^2 = R^4 stay arccos|<q1, q2>_C| apart;
    # the arcs' planes are isoclinic, so G has two equal singular values
    space = SpaceForm.sphere(3)
    delta = 0.37

    def fibre(q, theta):
        z = np.exp(1j * theta) * q
        return np.array([z[0].real, z[0].imag, z[1].real, z[1].imag])

    q1 = np.array([1.0, 0.0])
    q2 = np.array([np.cos(delta), np.sin(delta)])
    iso = random_isometry(space, rng=3)
    for lo, hi, want in ((0.4, 1.6, delta),
                         (1.5, 2.5, np.arccos(np.cos(delta) * np.cos(0.5)))):
        ends = [fibre(q1, 0.0), fibre(q1, 1.0), fibre(q2, lo), fibre(q2, hi)]
        assert abs(segment_pair_distance(space, *ends) - want) < 1e-12
        assert abs(segment_pair_distance(space, *iso.apply(np.array(ends))) - want) < 1e-12


@pytest.mark.parametrize("space", [SpaceForm.hyperbolic(3), SpaceForm.hyperbolic(3, Model.HYPERBOLOID),
                                   SpaceForm.sphere(3), SpaceForm.sphere(3, Model.STEREO_BALL)],
                         ids=["poincare", "hyperboloid", "unit_sphere", "stereo"])
def test_segment_distance_resolves_offset_of_1e_9(space):
    rng = np.random.default_rng(32)
    for _ in range(10):
        x, (t1, t2) = curved_frame(space.kind, rng, 0.5)
        a, b = exp_can(space.kind, x, t1, -0.3), exp_can(space.kind, x, t1, 0.4)
        p = exp_can(space.kind, x, t2, 1e-9)
        d = point_segment_distance(space, *(unembed(space, e) for e in (p, a, b)))
        assert 0.5e-9 <= d <= 2e-9


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------


def test_validate_simple_pentagon():
    rep = validate(euclidean_curve(regular_ngon(5)))
    assert rep.simple
    assert rep.violations == []


def test_validate_bowtie_reports_crossing():
    bow = euclidean_curve([[0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]])
    rep = validate(bow)
    assert not rep.simple
    assert any("segments" in v and "intersect" in v for v in rep.violations)


def test_validate_coincident_vertices():
    rep = validate(euclidean_curve([[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
    assert not rep.simple
    assert any("coincident" in v for v in rep.violations)


def test_validate_too_few_vertices():
    rep = validate(euclidean_curve([[0, 0, 0], [1, 0, 0]]))
    assert not rep.simple
    assert rep.violations == ["too few vertices"]


def test_validate_cusp_overlap():
    rep = validate(euclidean_curve([[0, 0, 0], [2, 0, 0], [1, 0, 0]], closed=False))
    assert not rep.simple
    assert any("cusp" in v for v in rep.violations)


def test_validate_near_antipodal_arc_on_sphere():
    eps = 1e-10
    v = np.array([
        [1.0, 0.0, 0.0],
        [-np.cos(eps), np.sin(eps), 0.0],
        [0.0, 0.0, 1.0],
    ])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rep = validate(PolygonalCurve(SpaceForm.sphere(2), v))
    assert not rep.simple
    assert any("antipodal" in v for v in rep.violations)


def test_nonadjacent_pairs_in_lexicographic_order():
    for nseg in range(1, 10):
        for closed in (True, False):
            want = [(i, j) for i in range(nseg) for j in range(i + 2, nseg)
                    if not (closed and i == 0 and j == nseg - 1)]
            i, j = _nonadjacent_pairs(nseg, closed)
            assert list(zip(i.tolist(), j.tolist())) == want


def test_simple_mask_matches_validate(rng):
    batch = rng.normal(size=(40, 5, 3))
    mask = simple_mask_euclidean(batch)
    space = SpaceForm.euclidean(3)
    for verts, flag in zip(batch, mask):
        assert validate(PolygonalCurve(space, verts)).simple == flag


def test_simple_mask_flags_bowtie():
    good = regular_ngon(4)
    bow = np.array([[0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    mask = simple_mask_euclidean(np.stack([good, bow]))
    assert mask.tolist() == [True, False]


# ---------------------------------------------------------------------------
# turning angles and total curvature
# ---------------------------------------------------------------------------


def test_square_turning_angles():
    ang = turning_angles(euclidean_curve(regular_ngon(4)))
    assert ang == pytest.approx(np.full(4, np.pi / 2.0), abs=EXACT)


def test_convex_polygon_total_curvature_is_2pi():
    for k in (3, 6, 17):
        tc = total_curvature(euclidean_curve(regular_ngon(k)))
        assert abs(tc - 2.0 * np.pi) < LOOSE


def test_pentagram_total_curvature_is_4pi():
    tc = total_curvature(euclidean_curve(pentagram()))
    assert abs(tc - 4.0 * np.pi) < LOOSE


def test_open_chain_skips_endpoints():
    chain = euclidean_curve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0]], closed=False)
    ang = turning_angles(chain)
    assert ang.shape == (2,)
    assert ang == pytest.approx(np.full(2, np.pi / 2.0), abs=EXACT)
    assert abs(total_curvature(chain) - np.pi) < EXACT


def test_cusp_vertices_found():
    chain = euclidean_curve([[0, 0, 0], [1, 0, 0], [0, 0, 0]], closed=False)
    assert cusp_vertices(chain) == [1]
    straight = euclidean_curve([[0, 0, 0], [1, 0, 0], [2, 0, 0]], closed=False)
    assert cusp_vertices(straight) == []


def test_octant_triangle_total_curvature():
    # all three interior angles are right angles, so each exterior angle is pi/2
    tri = PolygonalCurve(SpaceForm.sphere(2), np.eye(3))
    assert abs(total_curvature(tri) - 1.5 * np.pi) < LOOSE


def test_hyperbolic_triangle_turns_more_than_euclidean():
    space = SpaceForm.hyperbolic(2)
    r = np.tanh(0.5)
    t = 2.0 * np.pi * np.arange(3) / 3.0
    v = r * np.stack([np.cos(t), np.sin(t)], axis=1)
    tc = total_curvature(PolygonalCurve(space, v))
    assert tc > 2.0 * np.pi + 1e-3


@pytest.mark.parametrize("r", [1e-5, 1e-6])
@pytest.mark.parametrize("space", [SpaceForm.sphere(3), SpaceForm.hyperbolic(3, Model.HYPERBOLOID)],
                         ids=["sphere", "hyperbolic"])
def test_small_pentagon_total_curvature_obeys_gauss_bonnet(space, r):
    # in a totally geodesic plane of curvature K the exterior angles sum to 2 pi - K area
    verts, area = small_plane_pentagon(space.kind, r)
    curvature = 1.0 if space.kind is Kind.SPHERE else -1.0
    tc = total_curvature(PolygonalCurve(space, verts))
    assert abs(tc - (2.0 * np.pi - curvature * area)) <= 1e-11


def test_batch_total_curvature_matches_loop(rng):
    batch = rng.normal(size=(25, 6, 3))
    space = SpaceForm.euclidean(3)
    got = total_curvature_batch(space, batch)
    want = [total_curvature(PolygonalCurve(space, v)) for v in batch]
    assert got == pytest.approx(want, abs=EXACT)


# ---------------------------------------------------------------------------
# tangent indicatrix
# ---------------------------------------------------------------------------


def test_indicatrix_length_equals_total_curvature(rng):
    polys = random_simple_polygons(rng, 50, k=7)
    space = SpaceForm.euclidean(3)
    for verts in polys:
        curve = PolygonalCurve(space, verts)
        ind = tangent_indicatrix(curve)
        assert abs(spherical_length(ind) - total_curvature(curve)) < 1e-10


def test_indicatrix_batch_matches_scalar(rng):
    polys = random_simple_polygons(rng, 30, k=5)
    got = indicatrix_length_batch(polys)
    space = SpaceForm.euclidean(3)
    want = [spherical_length(tangent_indicatrix(PolygonalCurve(space, v))) for v in polys]
    assert got == pytest.approx(want, abs=EXACT)


def test_indicatrix_requires_closed_euclidean():
    with pytest.raises(GeometryError):
        tangent_indicatrix(euclidean_curve(regular_ngon(4), closed=False))
    tri = PolygonalCurve(SpaceForm.sphere(2), np.eye(3))
    with pytest.raises(GeometryError):
        tangent_indicatrix(tri)
    degenerate = euclidean_curve([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(GeometryError):
        tangent_indicatrix(degenerate)


def test_spherical_polygon_requires_unit_vectors():
    with pytest.raises(GeometryError):
        SphericalPolygon(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_spherical_length_open_polyline():
    arc = SphericalPolygon(np.eye(3), closed=False)
    assert abs(spherical_length(arc) - np.pi) < EXACT
