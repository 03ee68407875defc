"""Property tests of curve distances, cone angles, total curvature, certify
verdicts, validate and CLI reports in all five coordinate models, and of
check_bound's slack under orthogonal maps.

Inputs are drawn in the chart of each kind (Cartesian, stereographic ball,
Poincare ball) around its base point and converted to the model under test.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvebound import cli
from curvebound import (
    GeometryError,
    Kind,
    Model,
    PolygonalCurve,
    SpaceForm,
    certify_embedded,
    cone_angle,
    convert_coords,
    embed,
    point_curve_distance,
    point_segment_distance,
    random_isometry,
    segment_pair_distance,
    total_curvature,
    validate,
    vertex_angle,
)
from curvebound.polycurve import SIMPLE_TOL, _nonadjacent_pairs, _segseg_can, _segments
from curvebound.spaceform import _dist_can
from curvebound.spherical_bounds import BoundVariant, check_bound
from kernel_oracles import interp

MODELS = [
    SpaceForm.euclidean(3),
    SpaceForm.sphere(3, Model.UNIT_SPHERE),
    SpaceForm.sphere(3, Model.STEREO_BALL),
    SpaceForm.hyperbolic(3, Model.HYPERBOLOID),
    SpaceForm.hyperbolic(3, Model.POINCARE_BALL),
]
# each curved kind's two admissible models, the first its canonical one
MODEL_PAIRS = [(SpaceForm.sphere(3), Model.STEREO_BALL),
               (SpaceForm.hyperbolic(3, Model.HYPERBOLOID), Model.POINCARE_BALL)]
CHART = {Kind.EUCLIDEAN: Model.CARTESIAN, Kind.SPHERE: Model.STEREO_BALL,
         Kind.HYPERBOLIC: Model.POINCARE_BALL}

ORACLE_POINTS = 2001
INVARIANCE_TOL = 1e-9
BATCH_TOL = 1e-15
ROUNDING = 1e-12
CERTIFY_SAMPLES = 200

seeds = st.integers(0, 2**32 - 1)
property_settings = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def chart_points(space: SpaceForm, rng, n: int, radius: float = 0.6) -> np.ndarray:
    """n points within chart radius ``radius`` of the base point, in space.model coords."""
    x = rng.standard_normal((n, space.dim))
    x *= (radius * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)) / np.linalg.norm(x, axis=-1, keepdims=True)
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


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("space", MODELS, ids=ids)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_point_curve_distance_is_the_least_scalar_segment_distance(space, closed, seed):
    # bit for bit: the batched kernel shares each apex-vertex distance between
    # the two segments at that vertex, paired by segment on open curves too
    rng = np.random.default_rng(seed)
    curve = PolygonalCurve(space, chart_points(space, rng, int(rng.integers(3, 8))), closed)
    pts = chart_points(space, rng, 12)
    batch = point_curve_distance(space, pts.reshape(3, 4, -1), curve).ravel()
    scalar = [min(point_segment_distance(space, p, *curve.segment(i)) for i in range(curve.n_segments))
              for p in pts]
    assert np.array_equal(batch, scalar)


def dense_segment(space: SpaceForm, a, b) -> np.ndarray:
    """ORACLE_POINTS evenly spaced canonical points of the segment [a, b]."""
    return interp(space.kind, embed(space, a), embed(space, b), np.linspace(0.0, 1.0, ORACLE_POINTS))


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


def certify_summary(space: SpaceForm, vertices: np.ndarray, seed: int):
    """certify's verdict, its reason with the numbers blanked (which checks
    failed, not by how much) and the worst sampled density (None when a
    precondition failed before sampling)."""
    curve = PolygonalCurve(space, vertices)
    assume(validate(curve).simple)
    cert = certify_embedded(space, curve, n_samples=CERTIFY_SAMPLES, rng=seed)
    reason = None if cert.reason is None else re.sub(r"\d+(\.\d+)?", "#", cert.reason)
    return cert.verdict, reason, None if cert.worst is None else cert.worst.density


def assert_same_certificate(a, b):
    assert a[:2] == b[:2]
    assert (a[2] is None) == (b[2] is None)
    if a[2] is not None:
        assert abs(a[2] - b[2]) <= ROUNDING


def certify_polygon(space: SpaceForm, rng) -> np.ndarray:
    """Vertices of a random 5- to 7-gon of chart radius 0.2-0.7: about a third
    of them fail a sampled density bound, and on the sphere they fall on both
    sides of certify's pi/4 cap (chart radius tan(pi/8) = 0.41)."""
    return chart_points(space, rng, int(rng.integers(5, 8)), rng.uniform(0.2, 0.7))


@pytest.mark.parametrize("space", MODELS, ids=ids)
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_certify_verdict_isometry_invariant(space, seed):
    rng = np.random.default_rng(seed)
    verts = certify_polygon(space, rng)
    iso = random_isometry(space, rng)
    assert_same_certificate(certify_summary(space, verts, seed),
                            certify_summary(space, moved(space, iso, verts), seed))


@pytest.mark.parametrize("space, model", MODEL_PAIRS, ids=["sphere", "hyperbolic"])
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_certify_verdict_model_invariant(space, model, seed):
    rng = np.random.default_rng(seed)
    verts = certify_polygon(space, rng)
    assert_same_certificate(certify_summary(space, verts, seed),
                            certify_summary(space.with_model(model),
                                            convert_coords(space, verts, model), seed))


def validate_polygon(space: SpaceForm, rng) -> np.ndarray:
    """Vertices of a random pentagon of chart radius 0.6.  Half of them lie in
    the totally geodesic plane of last chart coordinate 0, where most cross
    themselves, and a quarter repeat their first vertex."""
    chart = space.with_model(CHART[space.kind])
    x = chart_points(chart, rng, 5)
    if rng.uniform() < 0.5:
        x[:, -1] = 0.0
    if rng.uniform() < 0.25:
        x[1] = x[0]
    return convert_coords(chart, x, space.model)


def validate_in_both_models(space: SpaceForm, model: Model, seed: int):
    verts = validate_polygon(space, np.random.default_rng(seed))
    other = space.with_model(model)
    return (validate(PolygonalCurve(space, verts)),
            validate(PolygonalCurve(other, convert_coords(space, verts, model))))


@pytest.mark.parametrize("space, model", MODEL_PAIRS, ids=["sphere", "hyperbolic"])
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_validate_flags_model_invariant(space, model, seed):
    # which defects, at which segments and vertices, is the next test's
    a, b = validate_in_both_models(space, model, seed)
    assert a.simple == b.simple


@pytest.mark.parametrize("space, model", MODEL_PAIRS, ids=["sphere", "hyperbolic"])
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_validate_messages_model_invariant(space, model, seed):
    a, b = validate_in_both_models(space, model, seed)
    assert a.violations == b.violations


def clear_of_simple_tol(curve: PolygonalCurve) -> bool:
    """Whether every segment length and non-adjacent segment pair distance of
    the curve is below SIMPLE_TOL / 1000 or above 1000 SIMPLE_TOL, so that an
    isometry's rounding cannot move it across SIMPLE_TOL."""
    ends = _segments(embed(curve.space, curve.vertices), curve.closed)
    d = [_segseg_can(curve.space.kind, *(x[i] for x in ends), *(x[j] for x in ends))
         for i, j in _nonadjacent_pairs(curve.n_segments, curve.closed)]
    d = np.concatenate([curve.segment_lengths(), *d])
    return bool(np.all((d < 1e-3 * SIMPLE_TOL) | (d > 1e3 * SIMPLE_TOL)))


@pytest.mark.parametrize("space", MODELS, ids=ids)
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_validate_isometry_invariant(space, seed):
    rng = np.random.default_rng(seed)
    verts = validate_polygon(space, rng)
    assume(clear_of_simple_tol(PolygonalCurve(space, verts)))
    iso = random_isometry(space, rng)
    a = validate(PolygonalCurve(space, verts))
    b = validate(PolygonalCurve(space, moved(space, iso, verts)))
    assert (a.simple, a.violations) == (b.simple, b.violations)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("space", MODELS, ids=ids)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_total_curvature_isometry_invariant(space, closed, seed):
    # INVARIANCE_TOL, as for the vertex angles it sums
    rng = np.random.default_rng(seed)
    verts = chart_points(space, rng, int(rng.integers(3, 8)))
    iso = random_isometry(space, rng)
    a = total_curvature(PolygonalCurve(space, verts, closed))
    b = total_curvature(PolygonalCurve(space, moved(space, iso, verts), closed))
    assert abs(a - b) < INVARIANCE_TOL


BOUND_VARIANTS = [(BoundVariant.TRIANGLE, 3), (BoundVariant.CHAIN1, 3), (BoundVariant.CHAIN2, 4),
                  (BoundVariant.CLOSED_ODD, 5), (BoundVariant.OPEN_ODD, 7)]


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("variant, k", BOUND_VARIANTS, ids=[v.value for v, _ in BOUND_VARIANTS])
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_check_bound_slack_isometry_invariant(variant, k, dim, seed):
    # an orthogonal map, mirrors included, moves each unit vector by rounding
    # only, and every arc keeps full accuracy (_half_angle), so the slack
    # moves by a few units in the last place of the length
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((k, dim))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    q = random_isometry(SpaceForm.sphere(dim - 1), rng).matrix
    a = check_bound(pts, variant).slack
    b = check_bound(pts @ q.T, variant).slack
    assert abs(a - b) <= ROUNDING


def run_cli(argv: list[str], curve: dict) -> tuple[int, str, str]:
    """curvebound argv[0] on a file holding curve, then argv[1:], in process;
    the file's path reads CURVE in stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(curve, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([argv[0], path, *argv[1:]])
    return code, out.getvalue(), err.getvalue().replace(path, "CURVE")


def assert_same_report(a, b):
    """Equal but for the coordinate fields ("point"), floats to within one unit
    in the twelfth significant digit the reports round to."""
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a.keys() - {"point"}:
            assert_same_report(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_report(x, y)
    elif isinstance(a, float):
        assert math.isclose(a, b, rel_tol=1e-11, abs_tol=ROUNDING)
    else:
        assert a == b


@pytest.mark.parametrize("space, model", MODEL_PAIRS, ids=["sphere", "hyperbolic"])
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(seed=seeds)
def test_cli_reports_model_invariant(space, model, seed):
    # one curve and apex written in both models; bounds-check reads 5- and
    # 7-gons on the sphere and rejects 6-gons and hyperbolic curves, in both
    rng = np.random.default_rng(seed)
    verts, apex = certify_polygon(space, rng), chart_points(space, rng, 1)[0]
    runs = []
    for s in (space, space.with_model(model)):
        curve = {"space": s.kind.value, "dim": s.dim, "model": s.model.value, "closed": True,
                 "vertices": convert_coords(space, verts, s.model).tolist()}
        point = ",".join(repr(float(x)) for x in convert_coords(space, apex, s.model))
        runs.append([run_cli(argv, curve) for argv in (
            ["totcurv"], ["certify", "--budget", "200", "--seed", str(seed)],
            ["cone-density", f"--point={point}"], ["bounds-check"])])
    for (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(*runs):
        assert (code_a, err_a) == (code_b, err_b)
        if code_a == 1:
            assert out_a == out_b == ""
        else:
            assert_same_report(json.loads(out_a), json.loads(out_b))
