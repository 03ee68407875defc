"""Property tests of curve distances and cone angles in all five coordinate models.

Inputs are drawn in the chart of each kind (Cartesian, stereographic ball,
Poincare ball) around its base point and converted to the model under test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvebound import (
    GeometryError,
    Kind,
    Model,
    PolygonalCurve,
    SpaceForm,
    cone_angle,
    convert_coords,
    embed,
    point_curve_distance,
    random_isometry,
    segment_pair_distance,
    vertex_angle,
)
from curvebound.polycurve import _segseg_can
from curvebound.spaceform import _dist_can, _interp_can

MODELS = [
    SpaceForm.euclidean(3),
    SpaceForm.sphere(3, Model.UNIT_SPHERE),
    SpaceForm.sphere(3, Model.STEREO_BALL),
    SpaceForm.hyperbolic(3, Model.HYPERBOLOID),
    SpaceForm.hyperbolic(3, Model.POINCARE_BALL),
]
CHART = {Kind.EUCLIDEAN: Model.CARTESIAN, Kind.SPHERE: Model.STEREO_BALL,
         Kind.HYPERBOLIC: Model.POINCARE_BALL}

ORACLE_POINTS = 2001
INVARIANCE_TOL = 1e-9
BATCH_TOL = 1e-15
ROUNDING = 1e-12

seeds = st.integers(0, 2**32 - 1)
property_settings = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def chart_points(space: SpaceForm, rng, n: int) -> np.ndarray:
    """n points within chart radius 0.6 of the base point, in space.model coords."""
    x = rng.standard_normal((n, space.dim))
    x *= (0.6 * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)) / np.linalg.norm(x, axis=-1, keepdims=True)
    chart = space.with_model(CHART[space.kind])
    return convert_coords(chart, x, space.model)


def moved(space: SpaceForm, iso, x: np.ndarray) -> np.ndarray:
    y = iso.apply(x)
    # keep the stereographic chart away from its projection pole
    assume(space.model is not Model.STEREO_BALL or np.max(np.linalg.norm(y, axis=-1)) < 10.0)
    return y


def pentagon(space: SpaceForm, rng) -> PolygonalCurve:
    return PolygonalCurve(space, chart_points(space, rng, 5), closed=True)


ids = [f"{s.kind.value}-{s.model.value}" for s in MODELS]


@pytest.mark.parametrize("space", MODELS, ids=ids)
@property_settings
@given(seed=seeds)
def test_point_curve_distance_isometry_invariant(space, seed):
    rng = np.random.default_rng(seed)
    curve, pts = pentagon(space, rng), chart_points(space, rng, 8)
    iso = random_isometry(space, rng)
    moved_curve = PolygonalCurve(space, moved(space, iso, curve.vertices))
    a = point_curve_distance(space, pts, curve)
    b = point_curve_distance(space, moved(space, iso, pts), moved_curve)
    assert np.max(np.abs(a - b)) < INVARIANCE_TOL


@pytest.mark.parametrize("space", MODELS, ids=ids)
@property_settings
@given(seed=seeds)
def test_segment_pair_distance_isometry_invariant(space, seed):
    rng = np.random.default_rng(seed)
    ends = chart_points(space, rng, 4)
    iso = random_isometry(space, rng)
    a = segment_pair_distance(space, *ends)
    b = segment_pair_distance(space, *moved(space, iso, ends))
    assert abs(a - b) < INVARIANCE_TOL


@pytest.mark.parametrize("space", MODELS, ids=ids)
@property_settings
@given(seed=seeds)
def test_segment_pair_distance_symmetric(space, seed):
    # swapping the segments, or reversing both, leaves the two point sets as they are
    rng = np.random.default_rng(seed)
    a0, a1, b0, b1 = chart_points(space, rng, 4)
    d = segment_pair_distance(space, a0, a1, b0, b1)
    assert abs(segment_pair_distance(space, b0, b1, a0, a1) - d) < INVARIANCE_TOL
    assert abs(segment_pair_distance(space, a1, a0, b1, b0) - d) < INVARIANCE_TOL


@pytest.mark.parametrize("space", MODELS, ids=ids)
@property_settings
@given(seed=seeds)
def test_cone_angle_isometry_invariant(space, seed):
    rng = np.random.default_rng(seed)
    curve, apex = pentagon(space, rng), chart_points(space, rng, 1)[0]
    iso = random_isometry(space, rng)
    moved_curve = PolygonalCurve(space, moved(space, iso, curve.vertices))
    try:
        a = cone_angle(space, apex, curve)
    except GeometryError:
        assume(False)
    b = cone_angle(space, moved(space, iso, apex), moved_curve)
    assert abs(a - b) < INVARIANCE_TOL


@pytest.mark.parametrize("space", MODELS, ids=ids)
@property_settings
@given(seed=seeds)
def test_vertex_angle_isometry_invariant(space, seed):
    rng = np.random.default_rng(seed)
    tri = chart_points(space, rng, 3)
    iso = random_isometry(space, rng)
    try:
        a = vertex_angle(space, *tri)
    except GeometryError:
        assume(False)
    b = vertex_angle(space, *moved(space, iso, tri))
    assert abs(a - b) < INVARIANCE_TOL


@pytest.mark.parametrize("space", MODELS, ids=ids)
@property_settings
@given(seed=seeds)
def test_batched_distances_match_scalar(space, seed):
    rng = np.random.default_rng(seed)
    curve, pts = pentagon(space, rng), chart_points(space, rng, 12)
    batch = point_curve_distance(space, pts.reshape(3, 4, -1), curve).ravel()
    scalar = np.array([point_curve_distance(space, p, curve) for p in pts])
    assert np.max(np.abs(batch - scalar)) <= BATCH_TOL

    ends = chart_points(space, rng, 24).reshape(4, 6, -1)
    batch = _segseg_can(space.kind, *embed(space, ends))
    scalar = np.array([segment_pair_distance(space, *ends[:, i]) for i in range(6)])
    assert np.max(np.abs(batch - scalar)) <= BATCH_TOL


def dense_segment(space: SpaceForm, a, b) -> np.ndarray:
    """ORACLE_POINTS evenly spaced canonical points of the segment [a, b]."""
    return _interp_can(space.kind, embed(space, a), embed(space, b),
                       np.linspace(0.0, 1.0, ORACLE_POINTS))


@pytest.mark.parametrize("space", MODELS, ids=ids)
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_dense_sampling_brackets_point_curve_distance(space, seed):
    # every curve point lies within half a sample spacing of a sample, and
    # distance is 1-Lipschitz, so oracle - gap <= exact <= oracle
    rng = np.random.default_rng(seed)
    curve, p = pentagon(space, rng), chart_points(space, rng, 1)[0]
    pc = embed(space, p)
    oracle = min(float(np.min(_dist_can(space.kind, pc, dense_segment(space, *curve.segment(i)))))
                 for i in range(curve.n_segments))
    gap = float(np.max(curve.segment_lengths())) / (2 * (ORACLE_POINTS - 1))
    exact = point_curve_distance(space, p, curve)
    assert oracle - gap - ROUNDING <= exact <= oracle + ROUNDING


@pytest.mark.parametrize("space", MODELS, ids=ids)
@settings(max_examples=4, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_dense_sampling_brackets_segment_pair_distance(space, seed):
    rng = np.random.default_rng(seed)
    a0, a1, b0, b1 = chart_points(space, rng, 4)
    xs, ys = dense_segment(space, a0, a1), dense_segment(space, b0, b1)
    oracle = min(float(np.min(_dist_can(space.kind, xs[i:i + 256, None, :], ys[None, :, :])))
                 for i in range(0, ORACLE_POINTS, 256))
    lens = _dist_can(space.kind, xs[0], xs[-1]) + _dist_can(space.kind, ys[0], ys[-1])
    gap = float(lens) / (2 * (ORACLE_POINTS - 1))
    exact = segment_pair_distance(space, a0, a1, b0, b1)
    assert oracle - gap - ROUNDING <= exact <= oracle + ROUNDING
