from __future__ import annotations

import numpy as np
import pytest

from curvebound import (
    GeometryError,
    MobiusMap,
    SampledCurve,
    curve_length_on_sphere,
    example_34_curve,
    great_circle_curve,
    latitude_circle_curve,
    mobius_translate,
    mobius_volume,
    mobius_volume_grid,
    polyline_length,
    round_sphere_volume,
    simple_mask_euclidean,
)

from conftest import random_unit

LENGTH_TOL = 1e-6
CIRCLE_CAP_TOL = 1e-9


# ---------------------------------------------------------------------------
# the translation group
# ---------------------------------------------------------------------------


def test_translate_identity_and_inverse(rng):
    x = random_unit(rng, 50, 3)
    assert mobius_translate(np.zeros(3), x) == pytest.approx(x, abs=1e-14)
    a = np.array([0.4, -0.2, 0.1])
    y = mobius_translate(a, x)
    assert mobius_translate(-a, y) == pytest.approx(x, abs=1e-12)


def test_translate_stays_on_sphere(rng):
    x = random_unit(rng, 200, 3)
    y = mobius_translate(np.array([0.7, 0.1, -0.3]), x)
    assert np.linalg.norm(y, axis=-1) == pytest.approx(np.ones(200), abs=1e-12)


def test_translate_fixed_points():
    a = np.array([0.3, 0.4, 0.0])
    axis = a / np.linalg.norm(a)
    assert mobius_translate(a, axis) == pytest.approx(axis, abs=1e-12)
    assert mobius_translate(a, -axis) == pytest.approx(-axis, abs=1e-12)


def test_map_object_validation():
    with pytest.raises(GeometryError):
        MobiusMap(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(GeometryError):
        MobiusMap(np.zeros((2, 3)))
    m = MobiusMap(np.array([0.2, 0.0, 0.0]))
    x = np.array([0.0, 0.0, 1.0])
    assert m.inverse().apply(m.apply(x)) == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------------------
# sampled curves and length
# ---------------------------------------------------------------------------


def test_great_circle_length():
    assert abs(curve_length_on_sphere(great_circle_curve()) - 2.0 * np.pi) < LENGTH_TOL


def test_latitude_circle_length():
    for beta in (np.pi / 6, np.pi / 4, np.pi / 3):
        got = curve_length_on_sphere(latitude_circle_curve(beta))
        assert abs(got - 2.0 * np.pi * np.sin(beta)) < LENGTH_TOL


def test_example_curve_length():
    eps = 0.3
    got = curve_length_on_sphere(example_34_curve(eps))
    assert abs(got - (4.0 * np.pi - 4.0 * eps)) < LENGTH_TOL


def test_example_curve_is_simple():
    pts = example_34_curve(np.pi / 4, samples_per_piece=48).points
    assert simple_mask_euclidean(pts[None, :, :]).all()


def test_polyline_length_open_with_breaks():
    # two straight legs meeting at a right angle; the corner is a break
    n = 9
    leg1 = np.stack([np.linspace(0, 1, n), np.zeros(n)], axis=1)
    leg2 = np.stack([np.ones(n - 1), np.linspace(0, 1, n)[1:]], axis=1)
    pts = np.concatenate([leg1, leg2])
    assert polyline_length(pts, closed=False, breaks=(n - 1,)) == pytest.approx(2.0)


def test_sampled_curve_validation_and_breaks():
    with pytest.raises(GeometryError):
        SampledCurve(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    c = SampledCurve(np.eye(3), breaks=(5, 1))
    assert c.breaks == (1, 2)  # stored sorted, modulo n
    assert c.n == 3


def test_transform_preserves_structure():
    c = example_34_curve(0.5, samples_per_piece=32)
    moved = c.transform(np.array([0.3, 0.0, 0.1]))
    assert moved.closed == c.closed
    assert moved.breaks == c.breaks
    assert moved.n == c.n


def test_constructor_validation():
    with pytest.raises(GeometryError):
        latitude_circle_curve(0.0)
    with pytest.raises(GeometryError):
        latitude_circle_curve(np.pi)
    with pytest.raises(GeometryError):
        example_34_curve(0.0)
    with pytest.raises(GeometryError):
        example_34_curve(np.pi / 2)


def test_round_sphere_volume_values():
    assert round_sphere_volume(1) == pytest.approx(2.0)
    assert round_sphere_volume(2) == pytest.approx(2.0 * np.pi)
    assert round_sphere_volume(3) == pytest.approx(4.0 * np.pi)
    with pytest.raises(GeometryError):
        round_sphere_volume(0)


def test_round_sphere_volume_exact_closed_forms():
    pi = np.pi
    exact = {1: 2.0, 2: 2.0 * pi, 3: 4.0 * pi, 4: 2.0 * pi**2,
             5: 8.0 * pi**2 / 3.0, 6: pi**3}
    for m, vol in exact.items():
        assert round_sphere_volume(m) == pytest.approx(vol, rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# translated circles never beat the great circle
# ---------------------------------------------------------------------------


def test_translated_circles_capped_at_2pi(rng):
    lat = latitude_circle_curve(np.pi / 3, n=512)
    great = great_circle_curve(n=512)
    for curve in (lat, great):
        for _ in range(25):
            a = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.norm(a) >= 1.0 - 1e-6:
                continue
            length = curve_length_on_sphere(curve.transform(a))
            assert length <= 2.0 * np.pi + CIRCLE_CAP_TOL


# ---------------------------------------------------------------------------
# volume search
# ---------------------------------------------------------------------------


def test_volume_of_great_circle():
    res = mobius_volume(great_circle_curve(n=512), restarts=2, iterations=60, rng=0)
    assert res.sup_estimate == pytest.approx(2.0 * np.pi, abs=1e-4)
    assert res.sup_estimate <= 2.0 * np.pi + CIRCLE_CAP_TOL
    assert res.lower_bound_great_sphere == pytest.approx(2.0 * np.pi)


def test_volume_of_latitude_circle_folds_in_blowup_limit():
    # the finite-|a| search alone undershoots; the limit value 2 pi wins
    res = mobius_volume(latitude_circle_curve(np.pi / 3, n=512),
                        restarts=2, iterations=60, rng=0)
    assert res.sup_estimate == pytest.approx(2.0 * np.pi, abs=1e-9)


def test_volume_never_below_initial_length():
    c = example_34_curve(np.pi / 4, samples_per_piece=128)
    res = mobius_volume(c, restarts=3, iterations=80, rng=1)
    assert res.sup_estimate >= curve_length_on_sphere(c) - 1e-9
    assert res.sup_estimate < 4.0 * np.pi - 0.1
    assert res.budget["restarts"] == 3


def test_grid_agrees_with_optimizer():
    c = example_34_curve(np.pi / 4, samples_per_piece=128)
    opt = mobius_volume(c, restarts=6, iterations=150, rng=0)
    grid = mobius_volume_grid(c, n_points=2000, rng=1)
    assert abs(opt.sup_estimate - grid.sup_estimate) < 1e-3


def test_result_dict_is_json_friendly():
    res = mobius_volume(great_circle_curve(n=256), restarts=1, iterations=30)
    d = res.as_dict()
    assert set(d) == {"sup_estimate", "argmax_a", "lower_bound_great_sphere", "budget"}
    assert all(isinstance(v, float) for v in d["argmax_a"])
