"""Time the polygon pair walks (segment-pair distances, `validate`, the
simplicity mask and knot projection) and the smallest enclosing cap.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/layer_times.py

For one fixed pentagon in each of R^3, S^3 (unit-sphere coordinates) and H^3
(Poincare ball) it times ``polycurve._segseg_can`` on the pentagon's five
non-adjacent segment pairs as one batch, in canonical coordinates, and
``polycurve.validate`` on the whole curve, in microseconds per call and per
segment pair.  It times ``knot.project`` on the R^3 pentagon, and
``simple_mask_euclidean`` on random batches of the sweep benchmark's chunk
shapes, per call and per polygon.  Each of these figures is the least, over
ROUNDS rounds, of the mean wall time of CALLS calls (CALLS // MASK_SHARE for
the masks).

On a closed curve of LONG_K vertices it reports the least of LONG_ROUNDS
single calls of ``validate`` (R^3, S^3, H^3) and ``knot.project``, in
microseconds, and the tracemalloc peak of one more call, in MB.

``cone.hull_sample`` draws HULL_SAMPLES hull samples of each pentagon, with
the Dirichlet draw ``certify_embedded`` makes, timed like the pentagon layers
per call and per sample.  The density kernel's two steps run on those
samples: ``cone._locate`` (case detection) and ``cone._angles`` (cone angles
in the detected cases), per call and per apex.  ``polycurve.point_curve_distance``
runs on the same samples, per call and per point.  ``cone.certify_embedded`` on
each pentagon, with its default HULL_SAMPLES samples, is timed per call like
the masks.

``cone.min_enclosing_ball`` is timed on the S^3 pentagon like the pentagon
layers, and on random caps of CAP_RADIUS in S^3 with CAP_KS vertices: per
call, the least of ROUNDS means of CALLS // MASK_SHARE calls up to k = 20,
and the least of LONG_ROUNDS single calls above it.

The script prints one JSON object; it imports ``curvebound`` from the path it
is run with.
"""

from __future__ import annotations

import json
import platform
import time
import tracemalloc

import numpy as np

from curvebound import (Model, PolygonalCurve, SpaceForm, embed, point_curve_distance, project,
                        simple_mask_euclidean, validate)
from curvebound.cone import (ON_CURVE_TOL, _angles, _locate, certify_embedded, hull_sample,
                             min_enclosing_ball)
from curvebound.polycurve import _nonadjacent_pairs, _segments, _segseg_can

CALLS = 200  # calls per timed round
ROUNDS = 7  # timed rounds; the least mean counts
MASK_SHARE = 20  # a mask call takes about as long as this many pentagon calls
MASK_SHAPES = ((7143, 5, 3), (4286, 7, 3))  # the sweep benchmark's chunks
LONG_K = 1200  # vertices of the long curves
LONG_ROUNDS = 3  # single timed calls on a long curve; the least counts
DIRECTION = (0.1, 0.2, 1.0)  # knot projection direction
CAP_KS = (12, 20, 100)  # vertices of the random S^3 caps
CAP_RADIUS = 0.5  # their largest vertex distance from the cap's centre
HULL_SAMPLES = 1000  # certify_embedded's default sample count


def pentagons() -> dict[str, PolygonalCurve]:
    """Three simple pentagons of the size the certify benchmark uses."""
    t = 2.0 * np.pi * np.arange(5) / 5.0
    wobble = np.array([0.1, -0.2, 0.15, 0.0, -0.1])
    flat = np.stack([np.cos(t), np.sin(t), wobble], axis=-1)
    tang = np.concatenate([flat / np.linalg.norm(flat, axis=-1, keepdims=True), np.zeros((5, 1))], -1)
    r = np.array([0.5, 0.6, 0.45, 0.55, 0.65])[:, None]
    sphere = np.cos(r) * np.array([0.0, 0.0, 0.0, 1.0]) + np.sin(r) * tang
    return {
        "R3": PolygonalCurve(SpaceForm.euclidean(3), flat),
        "S3": PolygonalCurve(SpaceForm.sphere(3), sphere),
        "H3": PolygonalCurve(SpaceForm.hyperbolic(3), 0.4 * flat),
    }


def long_curves() -> dict[str, PolygonalCurve]:
    """A wavy circle of LONG_K vertices in R^3, S^3 (stereographic ball) and
    H^3 (Poincare ball), and a (2, 3) torus knot of LONG_K vertices."""
    t = 2.0 * np.pi * np.arange(LONG_K) / LONG_K
    flat = np.stack([np.cos(t), np.sin(t), 0.1 * np.sin(3.0 * t)], axis=-1)
    trefoil = np.stack([np.sin(t) + 2.0 * np.sin(2.0 * t),
                        np.cos(t) - 2.0 * np.cos(2.0 * t), -np.sin(3.0 * t)], axis=-1)
    return {
        "R3": PolygonalCurve(SpaceForm.euclidean(3), flat),
        "S3": PolygonalCurve(SpaceForm.sphere(3, Model.STEREO_BALL), 0.5 * flat),
        "H3": PolygonalCurve(SpaceForm.hyperbolic(3), 0.5 * flat),
        "trefoil": PolygonalCurve(SpaceForm.euclidean(3), trefoil),
    }


def caps() -> dict[int, np.ndarray]:
    """Random point sets of each size in CAP_KS, in S^3 unit-sphere
    coordinates, at distances up to CAP_RADIUS from a random centre."""
    rng = np.random.default_rng(0)
    out = {}
    for k in CAP_KS:
        c = rng.standard_normal(4)
        c /= np.linalg.norm(c)
        u = rng.standard_normal((k, 4))
        u -= np.outer(u @ c, c)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        rho = CAP_RADIUS * rng.uniform(0.3, 1.0, (k, 1))
        out[k] = np.cos(rho) * c + np.sin(rho) * u
    return out


def best_mean_us(fn, calls: int = CALLS, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    out = {"unit": "us", "calls": CALLS, "rounds": ROUNDS, "mask_calls": CALLS // MASK_SHARE,
           "long_k": LONG_K, "long_rounds": LONG_ROUNDS,
           "python": platform.python_version(), "numpy": np.__version__, "layers": {}}
    layers = out["layers"]
    for name, curve in pentagons().items():
        if not validate(curve).simple:
            raise SystemExit(f"the {name} pentagon is not simple")
        i, j = (np.concatenate(x) for x in zip(*_nonadjacent_pairs(curve.n_segments, curve.closed)))
        a, b = _segments(embed(curve.space, curve.vertices), curve.closed)
        ends = (a[i], b[i], a[j], b[j])
        kind = curve.space.kind
        timed = [("polycurve._segseg_can", lambda: _segseg_can(kind, *ends)),
                 ("polycurve.validate", lambda: validate(curve))]
        if name == "R3":
            timed.append(("knot.project", lambda: project(curve, DIRECTION)))
        for layer, fn in timed:
            per_call = best_mean_us(fn)
            layers[f"{layer}.{name}"] = {"per_call": round(per_call, 2),
                                         "per_pair": round(per_call / i.size, 2),
                                         "pairs": int(i.size)}
        per_call = best_mean_us(lambda: hull_sample(curve.space, curve.vertices, HULL_SAMPLES))
        layers[f"cone.hull_sample.{name}"] = {"per_call": round(per_call, 2),
                                              "per_sample": round(per_call / HULL_SAMPLES, 4),
                                              "samples": HULL_SAMPLES}
        x = hull_sample(curve.space, curve.vertices, HULL_SAMPLES)
        case, index = _locate(curve.space, x, curve, ON_CURVE_TOL)
        for layer, fn in (("cone._locate", lambda: _locate(curve.space, x, curve, ON_CURVE_TOL)),
                          ("cone._angles", lambda: _angles(curve.space, x, curve, case, index))):
            per_call = best_mean_us(fn)
            layers[f"{layer}.{name}"] = {"per_call": round(per_call, 2),
                                         "per_apex": round(per_call / HULL_SAMPLES, 4),
                                         "apexes": HULL_SAMPLES}
        per_call = best_mean_us(lambda: point_curve_distance(curve.space, x, curve))
        layers[f"polycurve.point_curve_distance.{name}"] = {"per_call": round(per_call, 2),
                                                            "per_point": round(per_call / HULL_SAMPLES, 4),
                                                            "points": HULL_SAMPLES}
        per_call = best_mean_us(lambda: certify_embedded(curve.space, curve), CALLS // MASK_SHARE)
        layers[f"cone.certify_embedded.{name}"] = {"per_call": round(per_call, 1)}
    rng = np.random.default_rng(0)
    for shape in MASK_SHAPES:
        batch = rng.standard_normal(shape)
        per_call = best_mean_us(lambda: simple_mask_euclidean(batch), CALLS // MASK_SHARE)
        layers[f"polycurve.simple_mask_euclidean.{shape[0]}x{shape[1]}"] = {
            "per_call": round(per_call, 1), "per_polygon": round(per_call / shape[0], 3)}
    sphere = SpaceForm.sphere(3)
    pentagon = pentagons()["S3"].vertices
    layers["cone.min_enclosing_ball.S3"] = {
        "per_call": round(best_mean_us(lambda: min_enclosing_ball(sphere, pentagon)), 2)}
    for k, points in caps().items():
        calls, rounds = (CALLS // MASK_SHARE, ROUNDS) if k <= 20 else (1, LONG_ROUNDS)
        per_call = best_mean_us(lambda: min_enclosing_ball(sphere, points), calls, rounds)
        layers[f"cone.min_enclosing_ball.S3.k{k}"] = {"per_call": round(per_call, 1)}
    for name, curve in long_curves().items():
        if name == "trefoil":
            layer, fn = "knot.project", lambda: project(curve, DIRECTION)
        else:
            layer, fn = "polycurve.validate", lambda: validate(curve)
        layers[f"{layer}.{name}.k{LONG_K}"] = {
            "per_call": round(best_mean_us(fn, 1, LONG_ROUNDS), 0), "peak_mb": round(peak_mb(fn), 2)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
