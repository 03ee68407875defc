from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvebound import (
    BoundVariant,
    GeometryError,
    analytic_bound,
    check_bound,
    check_bound_batch,
    extremal_search,
    sharpness_family,
    total_curvature,
    validate,
)
from curvebound.spherical_bounds import FLAG_TOL

from conftest import random_unit

EXACT = 1e-12
EQ = 1e-9


def test_analytic_bound_table():
    assert analytic_bound(3, True) == pytest.approx(2.0 * np.pi)
    assert analytic_bound(5, True) == pytest.approx(4.0 * np.pi)
    assert analytic_bound(7, True) == pytest.approx(6.0 * np.pi)
    th = 0.37
    assert analytic_bound(3, False, th) == pytest.approx(2.0 * np.pi - th)
    assert analytic_bound(4, False, th) == pytest.approx(2.0 * np.pi + th)
    assert analytic_bound(5, False, th) == pytest.approx(4.0 * np.pi - th)


# ---------------------------------------------------------------------------
# exact equality configurations
# ---------------------------------------------------------------------------


def test_triangle_with_antipodal_pair_attains_bound(rng):
    p = random_unit(rng, 1, 3)[0]
    q = random_unit(rng, 1, 3)[0]
    chk = check_bound(np.stack([p, q, -p]), BoundVariant.TRIANGLE)
    assert abs(chk.slack) < EQ
    assert chk.equality_flags.antipodal_pair
    assert chk.equality_flags.great_circle
    assert chk.theta is None


def test_antipodal_triangles_have_zero_slack():
    # [a, -a, b] has length pi + (pi - d(a, b)) + d(a, b) = 2 pi for every b
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        a, b = random_unit(rng, 2, 3)
        worst = max(worst, abs(check_bound(np.stack([a, -a, b]), BoundVariant.TRIANGLE).slack))
    assert worst <= 1e-15


def test_chain1_equality(rng):
    a = random_unit(rng, 1, 3)[0]
    b = random_unit(rng, 1, 3)[0]
    chk = check_bound(np.stack([a, -a, b]), BoundVariant.CHAIN1)
    # arcs pi + (pi - theta) meet the 2 pi - theta bound exactly
    assert abs(chk.slack) < EQ
    assert chk.theta == pytest.approx(np.arccos(np.clip(a @ b, -1, 1)))


def test_chain2_equality(rng):
    a = random_unit(rng, 1, 3)[0]
    b = random_unit(rng, 1, 3)[0]
    chk = check_bound(np.stack([a, -a, b, -b]), BoundVariant.CHAIN2)
    assert abs(chk.slack) < EQ
    assert chk.equality_flags.antipodal_pair


def test_closed_odd_equality(rng):
    a = random_unit(rng, 1, 3)[0]
    b = random_unit(rng, 1, 3)[0]
    cfg = np.stack([a, -a, a, -a, b])
    chk = check_bound(cfg, BoundVariant.CLOSED_ODD)
    assert chk.bound == pytest.approx(4.0 * np.pi)
    assert abs(chk.slack) < EQ


def test_generic_configuration_has_positive_slack(rng):
    cfg = random_unit(rng, 5, 3)
    chk = check_bound(cfg, BoundVariant.CLOSED_ODD)
    assert chk.slack > 0.0
    assert not chk.equality_flags.antipodal_pair
    assert not chk.equality_flags.great_circle


def test_measured_matches_direct_arc_sum(rng):
    cfg = random_unit(rng, 5, 3)
    chk = check_bound(cfg, BoundVariant.CLOSED_ODD)
    arcs = [
        np.arccos(np.clip(cfg[i] @ cfg[(i + 1) % 5], -1, 1)) for i in range(5)
    ]
    assert chk.measured == pytest.approx(sum(arcs), abs=EXACT)


def test_planar_configuration_flags_great_circle():
    t = 2.0 * np.pi * np.arange(5) / 5.0
    cfg = np.stack([np.cos(t), np.sin(t), np.zeros(5)], axis=1)
    chk = check_bound(cfg, BoundVariant.CLOSED_ODD)
    assert chk.equality_flags.great_circle
    assert not chk.equality_flags.antipodal_pair


# ---------------------------------------------------------------------------
# arity and input validation
# ---------------------------------------------------------------------------


def test_variant_arity_errors(rng):
    four = random_unit(rng, 4, 3)
    five = random_unit(rng, 5, 3)
    with pytest.raises(GeometryError):
        check_bound(four, BoundVariant.TRIANGLE)
    with pytest.raises(GeometryError):
        check_bound(five, BoundVariant.CHAIN2)
    with pytest.raises(GeometryError):
        check_bound(four, BoundVariant.CLOSED_ODD)
    with pytest.raises(GeometryError):
        check_bound(four, BoundVariant.OPEN_ODD)


def test_non_unit_vertices_rejected():
    with pytest.raises(GeometryError):
        check_bound(np.diag([2.0, 1.0, 1.0]), BoundVariant.TRIANGLE)


# ---------------------------------------------------------------------------
# batch agreement
# ---------------------------------------------------------------------------


def _equality_configs(rng, k):
    """An antipodal pair inserted into a random configuration, and k points
    on a tilted great circle."""
    anti = random_unit(rng, k, 3)
    anti[k // 2] = -anti[0]
    frame = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :2]
    t = rng.uniform(0.0, 2.0 * np.pi, k)
    circle = np.cos(t)[:, None] * frame[:, 0] + np.sin(t)[:, None] * frame[:, 1]
    return [anti, circle]


def _assert_batch_matches_scalar(rng, variant, k, n_random):
    configs = list(random_unit(rng, n_random * k, 3).reshape(n_random, k, 3))
    configs += _equality_configs(rng, k)
    checks = [check_bound(cfg, variant) for cfg in configs]
    # the batch sees the scalar path's renormalized vertices
    out = check_bound_batch(np.stack([chk.points for chk in checks]), variant)
    assert out["antipodal_pair"][-2] and out["great_circle"][-1]
    for i, chk in enumerate(checks):
        assert chk.measured == out["measured"][i]
        assert chk.bound == out["bound"][i]
        assert chk.slack == out["slack"][i]
        assert chk.theta == (None if out["theta"] is None else out["theta"][i])
        assert chk.equality_flags.antipodal_pair == out["antipodal_pair"][i]
        assert chk.equality_flags.great_circle == out["great_circle"][i]
    return out


def test_batch_matches_scalar_closed(rng):
    for variant, k in ((BoundVariant.TRIANGLE, 3), (BoundVariant.CLOSED_ODD, 5)):
        out = _assert_batch_matches_scalar(rng, variant, k, 30)
        assert out["theta"] is None


def test_batch_matches_scalar_chain2(rng):
    _assert_batch_matches_scalar(rng, BoundVariant.CHAIN2, 4, 20)


def test_batch_matches_scalar_open(rng):
    for variant, k in ((BoundVariant.CHAIN1, 3), (BoundVariant.OPEN_ODD, 7)):
        _assert_batch_matches_scalar(rng, variant, k, 20)


def _near_great_circle(rng, count, k, n):
    """Rows on a random great circle, tilted out of its plane by a third
    singular value of about 10**U(-10, -6), then renormalized."""
    t = rng.uniform(0.0, 2.0 * np.pi, (count, k))
    coords = np.zeros((count, k, n))
    coords[..., 0], coords[..., 1] = np.cos(t), np.sin(t)
    tilt = 10.0 ** rng.uniform(-10.0, -6.0, (count, 1, 1))
    coords[..., 2:] = tilt * rng.standard_normal((count, k, n - 2))
    frames = np.linalg.qr(rng.standard_normal((count, n, n)))[0]
    p = coords @ np.swapaxes(frames, -1, -2)
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("variant, k", [
    (BoundVariant.TRIANGLE, 3), (BoundVariant.CLOSED_ODD, 5), (BoundVariant.CLOSED_ODD, 7),
    (BoundVariant.CHAIN2, 4), (BoundVariant.OPEN_ODD, 5),
])
def test_great_circle_flag_matches_full_svd(rng, variant, k, n):
    """The triple-product screen in front of the SVD drops no flagged row, and
    no output depends on which other rows share the batch."""
    p = np.concatenate([_near_great_circle(rng, 400, k, n), random_unit(rng, 200 * k, n)
                        .reshape(200, k, n)])
    p = p[rng.permutation(len(p))]
    out = check_bound_batch(p, variant)
    sigma3 = np.linalg.svd(p, compute_uv=False)[:, 2]
    assert np.array_equal(out["great_circle"], sigma3 < FLAG_TOL)
    assert 50 < out["great_circle"].sum() < 350   # the planted values straddle FLAG_TOL
    for i in range(0, len(p), 7):
        row = check_bound_batch(p[i:i + 1], variant)
        for key, value in out.items():
            assert (value is None) == (row[key] is None)
            if value is not None:
                assert value[i] == row[key][0]


def test_nan_rows_still_reach_the_svd():
    p = random_unit(np.random.default_rng(0), 9, 3).reshape(3, 3, 3)
    p[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        check_bound_batch(p, BoundVariant.TRIANGLE)


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------


def test_extremal_triangle_attains_2pi():
    res = extremal_search(3, BoundVariant.TRIANGLE, budget=(4, 50), rng=7)
    assert res.bound == pytest.approx(2.0 * np.pi)
    assert res.sup_estimate >= 2.0 * np.pi - 1e-6
    assert res.sup_estimate <= res.bound + 1e-6


def test_extremal_closed_5gon_reaches_4pi():
    res = extremal_search(5, BoundVariant.CLOSED_ODD, budget=(6, 120), rng=3)
    assert res.sup_estimate >= 4.0 * np.pi - 1e-3
    assert res.sup_estimate <= 4.0 * np.pi + 1e-6
    assert res.argmax.shape == (5, 3)


def test_extremal_never_exceeds_bound():
    for variant, k in [
        (BoundVariant.CHAIN1, 3),
        (BoundVariant.CHAIN2, 4),
        (BoundVariant.OPEN_ODD, 5),
    ]:
        res = extremal_search(k, variant, budget=(2, 40), rng=11)
        assert res.sup_estimate <= res.bound + 1e-6


def test_extremal_input_errors():
    with pytest.raises(GeometryError):
        extremal_search(2, BoundVariant.TRIANGLE)
    with pytest.raises(GeometryError):
        extremal_search(5, BoundVariant.TRIANGLE)
    with pytest.raises(GeometryError):
        extremal_search(5, BoundVariant.CHAIN2)


@pytest.mark.parametrize("k, variant", [
    (4, BoundVariant.OPEN_ODD),
    (6, BoundVariant.OPEN_ODD),
    (4, BoundVariant.CLOSED_ODD),
    (5, BoundVariant.CHAIN1),
])
def test_extremal_rejects_variant_arity_mismatch(k, variant):
    """The search accepts exactly the (variant, k) pairs that check_bound accepts."""
    with pytest.raises(GeometryError, match=f"{variant.value} variant needs"):
        extremal_search(k, variant)
    with pytest.raises(GeometryError, match=f"{variant.value} variant needs"):
        check_bound(random_unit(np.random.default_rng(0), k, 3), variant)


# sup_estimate of the search that re-optimized each vertex by Nelder-Mead, at
# budget (2, 40) and seeds 0-3: every seed gave the variant's cap, bit for bit
NELDER_MEAD_SUP = {
    (BoundVariant.TRIANGLE, 3): 6.283185307179586,
    (BoundVariant.CHAIN1, 3): 6.283185307179586,
    (BoundVariant.CHAIN2, 4): 6.283185307179586,
    (BoundVariant.CLOSED_ODD, 3): 6.283185307179586,
    (BoundVariant.CLOSED_ODD, 5): 12.566370614359172,
    (BoundVariant.CLOSED_ODD, 7): 18.84955592153876,
    (BoundVariant.CLOSED_ODD, 9): 25.132741228718345,
    (BoundVariant.OPEN_ODD, 3): 6.283185307179586,
    (BoundVariant.OPEN_ODD, 5): 12.566370614359172,
    (BoundVariant.OPEN_ODD, 7): 18.84955592153876,
    (BoundVariant.OPEN_ODD, 9): 25.132741228718345,
}


@pytest.mark.parametrize("variant, k", list(NELDER_MEAD_SUP))
@pytest.mark.parametrize("seed", range(4))
def test_extremal_argmax_attains_sup(variant, k, seed):
    res = extremal_search(k, variant, budget=(2, 40), rng=seed)
    assert res.sup_estimate == NELDER_MEAD_SUP[(variant, k)]
    chk = check_bound(res.argmax, variant)
    assert chk.slack == pytest.approx(res.bound - res.sup_estimate, abs=1e-9)


@pytest.mark.parametrize("variant, k", list(NELDER_MEAD_SUP))
def test_extremal_sup_is_check_bound_of_argmax(variant, k):
    """One restart often ends on exact antipodes, where arccos is most sensitive."""
    for seed in range(50):
        res = extremal_search(k, variant, budget=(1, 20), rng=seed)
        slack = check_bound(res.argmax, variant).slack
        assert res.bound - res.sup_estimate == pytest.approx(max(slack, 0.0), abs=EXACT)


def _sdist(u: np.ndarray, v: np.ndarray) -> float:
    # half-angle form: exact at antipodes, where arccos of <u, v> is not
    return float(2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([3, 4, 5]))
def test_antipodal_move_is_the_per_vertex_maximum(seed, dim):
    """Fix neighbours a, b: q = -a maximizes d(a,q) + d(q,b) and d(q,a) - d(q,b).

    This is why extremal_search needs no local optimizer at a vertex.
    """
    a, b, q = random_unit(np.random.default_rng(seed), 3, dim)
    cap = 2.0 * np.pi - _sdist(a, b)
    assert _sdist(a, q) + _sdist(q, b) <= cap + EXACT
    for top in (-a, -b):
        assert _sdist(a, top) + _sdist(top, b) == pytest.approx(cap, abs=EXACT)
    assert _sdist(q, a) - _sdist(q, b) <= _sdist(a, b) + EXACT
    assert _sdist(-a, a) - _sdist(-a, b) == pytest.approx(_sdist(a, b), abs=EXACT)


# ---------------------------------------------------------------------------
# sharpness family
# ---------------------------------------------------------------------------


def test_sharpness_witness_m1_attains_2pi():
    # every simple triangle is planar and convex, so the m = 1 bound is attained
    curve = sharpness_family(1, 1e-2)
    assert validate(curve).simple
    assert abs(total_curvature(curve) - 2.0 * np.pi) <= 1e-14


def test_sharpness_witness_m2():
    curve = sharpness_family(2, 1e-2)
    assert curve.k == 5
    assert validate(curve).simple
    tc = total_curvature(curve)
    assert 4.0 * np.pi - 1e-2 <= tc < 4.0 * np.pi


def test_sharpness_witness_m3():
    curve = sharpness_family(3, 5e-2, seed=1)
    assert curve.k == 7
    assert validate(curve).simple
    tc = total_curvature(curve)
    assert 6.0 * np.pi - 5e-2 <= tc < 6.0 * np.pi


def test_sharpness_rejects_bad_parameters():
    with pytest.raises(GeometryError):
        sharpness_family(0, 1e-2)
    with pytest.raises(GeometryError):
        sharpness_family(2, 0.0)
    with pytest.raises(GeometryError):
        sharpness_family(2, 0.5)
