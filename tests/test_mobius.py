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
from curvebound import mobius
from curvebound.mobius import (
    BALL_LIMIT,
    Chords,
    translate_lengths,
    translate_lengths_and_gradients,
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
# the closed-form length kernel against an independent oracle
# ---------------------------------------------------------------------------

KERNEL_TOL = 1e-11


def _oracle_length(curve: SampledCurve, a) -> float:
    """Length of T_a(curve) in long double: T_a from its definition, each
    image renormalized, chord sums extrapolated piece by piece."""
    ld = np.longdouble
    x = curve.points.astype(ld)
    a = np.asarray(a, dtype=float).astype(ld)
    a2 = np.sum(a * a)
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    xa = np.sum(x * a, axis=-1, keepdims=True)
    y = ((1 - a2) * x + (x2 + 2 * xa + 1) * a) / (a2 * x2 + 2 * xa + 1)
    y /= np.sqrt(np.sum(y * y, axis=-1, keepdims=True))

    def chord_sum(p):
        return np.sum(np.sqrt(np.sum(np.diff(p, axis=0) ** 2, axis=-1)))

    def piece(p):
        m = len(p) - 1
        fine = chord_sum(p)
        if m >= 4 and m % 2 == 0:
            return fine + (fine - chord_sum(p[::2])) / 3
        return fine

    n = len(y)
    if curve.closed:
        marks = list(curve.breaks) or [0]
        spans = zip(marks, marks[1:] + marks[:1])
        pieces = [y[s:t + 1] if t > s else np.concatenate([y[s:], y[:t + 1]])
                  for s, t in spans]
    else:
        marks = [0] + [b for b in curve.breaks if 0 < b < n - 1] + [n - 1]
        pieces = [y[s:t + 1] for s, t in zip(marks[:-1], marks[1:])]
    return float(sum(piece(p) for p in pieces))


def _kernel_curves():
    blowup = example_34_curve(np.pi / 4, samples_per_piece=32)
    return {
        "closed": latitude_circle_curve(1.0, n=96),
        "closed_breaks": blowup,
        "open_breaks": SampledCurve(blowup.points[5:90], closed=False, breaks=(27, 59)),
    }


def _kernel_params(curve, rng):
    rows = []
    for s in (0.0, 0.3, 0.9, 0.99, 0.999, 0.9999):
        rows.append(s * random_unit(rng, 1, 3)[0])
    for k in (0, 17, 40):
        # pushed toward a sample and away from it: T_a blows up near -a/|a|
        rows += [0.9999 * curve.points[k], -0.9999 * curve.points[k]]
    return np.array(rows)


@pytest.mark.parametrize("name", ["closed", "closed_breaks", "open_breaks"])
def test_translate_lengths_match_oracle(name, rng):
    curve = _kernel_curves()[name]
    params = _kernel_params(curve, rng)
    got = translate_lengths(Chords.of(curve), params)
    want = np.array([_oracle_length(curve, a) for a in params])
    assert np.max(np.abs(got - want)) <= KERNEL_TOL


@pytest.mark.parametrize("name", ["closed", "closed_breaks", "open_breaks"])
def test_translate_lengths_batch_matches_rows(name, rng):
    curve = _kernel_curves()[name]
    chords = Chords.of(curve)
    params = _kernel_params(curve, rng)
    batch = translate_lengths(chords, params)
    rows = np.array([translate_lengths(chords, a)[0] for a in params])
    assert np.all(np.abs(batch - rows) <= 1e-13 * np.abs(rows))


def test_translate_lengths_reject_rows_without_raising():
    curve = _kernel_curves()["closed_breaks"]
    x = curve.points[3]
    params = np.array([
        [0.2, 0.1, 0.0],
        (1.0 - 1e-13) * x,            # |a| >= BALL_LIMIT
        -(1.0 - 5e-8) * x,            # |x + a|^2 = 2.5e-15 < DENOM_TOL
        BALL_LIMIT * np.array([0.0, 0.6, 0.8]),
    ])
    got = translate_lengths(Chords.of(curve), params)
    assert np.isfinite(got[0])
    assert np.all(got[1:] == -np.inf)
    value, grad = translate_lengths_and_gradients(Chords.of(curve), params)
    assert np.array_equal(value, got)
    assert np.all(np.isfinite(grad)) and np.all(grad[1:] == 0.0)


@pytest.mark.parametrize("name", ["closed", "closed_breaks", "open_breaks"])
def test_gradient_kernel_rows_match_one_row_calls(name, rng):
    curve = _kernel_curves()[name]
    chords = Chords.of(curve)
    params = _kernel_params(curve, rng)
    value, grad = translate_lengths_and_gradients(chords, params)
    rows = [translate_lengths_and_gradients(chords, a) for a in params]
    assert np.array_equal(value, np.concatenate([v for v, _ in rows]))
    assert np.array_equal(grad, np.concatenate([g for _, g in rows]))
    assert np.array_equal(value, translate_lengths(chords, params))
    assert np.array_equal(value, np.array([translate_lengths(chords, a)[0] for a in params]))


def _long_double_length(chords, a):
    x = chords.lift[:, 1].astype(np.longdouble)
    r = 1.0 / np.sqrt(np.sum(np.square(x + a[:, None]), axis=0))
    c = chords.c.astype(np.longdouble)
    return (1.0 - a @ a) * np.sum(c * r[chords.i] * r[chords.j])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("name", ["great", "translated", "blowup_pi8", "blowup_pi4"])
def test_gradient_matches_long_double_differences(name, rng):
    curve = {
        "great": great_circle_curve(n=256),
        "translated": latitude_circle_curve(0.7, n=256).transform(np.array([0.2, -0.3, 0.1])),
        "blowup_pi8": example_34_curve(np.pi / 8, samples_per_piece=64),
        "blowup_pi4": example_34_curve(np.pi / 4, samples_per_piece=64),
    }[name]
    chords = Chords.of(curve)
    radii = 0.9 * rng.uniform(0.0, 1.0, 10) ** (1.0 / 3.0)
    params = np.concatenate([random_unit(rng, 10, 3) * radii[:, None],
                             [0.9 * curve.points[3], -0.9 * curve.points[3]]])
    _, grad = translate_lengths_and_gradients(chords, params)
    h = np.longdouble(1e-7)
    for a, g in zip(params.astype(np.longdouble), grad):
        fd = np.array([(_long_double_length(chords, a + h * e)
                        - _long_double_length(chords, a - h * e)) / (2 * h)
                       for e in np.eye(3, dtype=np.longdouble)], dtype=float)
        assert np.linalg.norm(fd - g) <= 1e-9 * max(1.0, np.linalg.norm(fd))


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


@pytest.mark.parametrize("b", [[0.3, 0.0, 0.0], [0.0, -0.25, 0.35], [0.3, 0.3, -0.3]])
def test_volume_is_mobius_invariant_off_the_origin(b):
    # both searches seed a = 0; on the translated curve the maximizer is
    # a = -b, so agreeing with the untranslated sup is a real cross-check
    curve = example_34_curve(np.pi / 4, samples_per_piece=128)
    base = mobius_volume(curve, restarts=6, iterations=150, rng=0).sup_estimate
    moved = curve.transform(np.array(b))
    opt = mobius_volume(moved, restarts=6, iterations=150, rng=0)
    grid = mobius_volume_grid(moved, n_points=10**4, rng=0)
    for res in (opt, grid):
        assert abs(res.sup_estimate - base) <= 1e-3
        assert np.linalg.norm(res.argmax_a) > 0.2


def test_grid_chunking_does_not_change_the_result(monkeypatch):
    curve = example_34_curve(np.pi / 8, samples_per_piece=32).transform(np.array([0.1, 0.2, 0.0]))
    chunked = mobius_volume_grid(curve, n_points=600, rng=3)
    monkeypatch.setattr(mobius, "GRID_CHUNK_ELEMS", 1)
    single = mobius_volume_grid(curve, n_points=600, rng=3)
    assert chunked.sup_estimate == pytest.approx(single.sup_estimate, rel=1e-13)
    assert np.array_equal(chunked.argmax_a, single.argmax_a)


# sup_estimate of the scipy Nelder-Mead search that the lock-step descent
# replaced, on the blow-up curves of criterion 8 and of the tests above
NELDER_MEAD_SUP = {
    ("pi/8", None, 6, 150, 0): 10.995574281687116,
    ("pi/4", None, 6, 150, 0): 9.424777955870976,
    ("pi/4", None, 3, 80, 1): 9.424777955870976,
    ("pi/4", (0.3, 0.0, 0.0), 6, 150, 0): 9.424777955870976,
    ("pi/4", (0.0, -0.25, 0.35), 6, 150, 0): 9.424777955870976,
    ("pi/4", (0.3, 0.3, -0.3), 6, 150, 0): 9.424777955870976,
}


@pytest.mark.parametrize("key", list(NELDER_MEAD_SUP), ids=str)
def test_descent_reaches_the_nelder_mead_values(key):
    eps, b, restarts, iterations, seed = key
    curve = example_34_curve({"pi/8": np.pi / 8, "pi/4": np.pi / 4}[eps], samples_per_piece=128)
    if b is not None:
        curve = curve.transform(np.array(b))
    res = mobius_volume(curve, restarts=restarts, iterations=iterations, rng=seed)
    assert res.sup_estimate >= NELDER_MEAD_SUP[key] - 1e-9


def test_search_runs_one_descent_and_repeats_with_its_seed(monkeypatch):
    descents = []
    real = mobius.minimize

    def spy(*args, **kwargs):
        descents.append(real(*args, **kwargs))
        return descents[-1]

    monkeypatch.setattr(mobius, "minimize", spy)
    curve = example_34_curve(np.pi / 4, samples_per_piece=64).transform(np.array([0.1, 0.2, 0.0]))
    first = mobius_volume(curve, restarts=5, iterations=100, rng=7)
    second = mobius_volume(curve, restarts=5, iterations=100, rng=7)
    assert len(descents) == 2
    assert first.sup_estimate == second.sup_estimate
    assert np.array_equal(first.argmax_a, second.argmax_a)
    one, two = descents
    assert np.array_equal(one.x, two.x) and np.array_equal(one.fun, two.fun)
    assert (one.nfev, one.nit, one.success) == (two.nfev, two.nit, two.success)
    assert type(one.nfev) is int and type(one.nit) is int and type(one.success) is bool
    assert 5 < one.nfev <= 5 * (1 + 100) and 0 < one.nit <= 100
    assert -one.fun.min() == first.sup_estimate


def test_descent_chunking_does_not_change_the_result(monkeypatch):
    curve = example_34_curve(np.pi / 8, samples_per_piece=32).transform(np.array([0.1, 0.2, 0.0]))
    chunked = mobius_volume(curve, restarts=6, iterations=100, rng=3)
    monkeypatch.setattr(mobius, "GRID_CHUNK_ELEMS", 1)
    single = mobius_volume(curve, restarts=6, iterations=100, rng=3)
    assert chunked.sup_estimate == single.sup_estimate
    assert np.array_equal(chunked.argmax_a, single.argmax_a)


def test_descent_stays_inside_the_cap(monkeypatch):
    # the moved curve's maximizer is a = -b, |b| = 0.52, outside a 0.2 cap
    monkeypatch.setattr(mobius, "SEARCH_CAP", 0.2)
    b = np.array([0.3, 0.3, -0.3])
    moved = example_34_curve(np.pi / 4, samples_per_piece=64).transform(b)
    starts = np.array([[0.0, 0.0, 0.0], [0.1, -0.1, 0.0], [-0.1, 0.0, 0.15]])
    res = mobius.minimize(Chords.of(moved), starts, 300)
    norms = np.linalg.norm(res.x, axis=-1)
    assert res.success
    assert np.all(norms <= 0.2 * (1.0 + 1e-15))
    assert np.all(norms >= 0.2 * (1.0 - 1e-15))
    assert np.all(res.x @ -b > 0.19 * np.linalg.norm(b))


def test_result_dict_is_json_friendly():
    res = mobius_volume(great_circle_curve(n=256), restarts=1, iterations=30)
    d = res.as_dict()
    assert set(d) == {"sup_estimate", "argmax_a", "lower_bound_great_sphere", "budget"}
    assert all(isinstance(v, float) for v in d["argmax_a"])
