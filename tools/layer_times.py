"""Time the segment-pair distance kernel and `validate` on fixed pentagons.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/layer_times.py

For one fixed pentagon in each of R^3, S^3 (unit-sphere coordinates) and H^3
(Poincare ball) it times ``polycurve._segseg_can`` on the pentagon's five
non-adjacent segment pairs as one batch, in canonical coordinates, and
``polycurve.validate`` on the whole curve.  Each figure is the least, over
ROUNDS rounds, of the mean wall time of CALLS calls, in
microseconds per call and per segment pair.  The script prints one JSON
object; it imports ``curvebound`` from the path it is run with, so the same
script times any checkout.
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np

from curvebound import PolygonalCurve, SpaceForm, embed, validate
from curvebound.polycurve import _nonadjacent_pairs, _segments, _segseg_can

CALLS = 200  # calls per timed round
ROUNDS = 7  # timed rounds; the least mean counts


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


def best_mean_us(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(CALLS):
            fn()
        best = min(best, (time.perf_counter() - start) / CALLS)
    return best * 1e6


def main() -> int:
    out = {"unit": "us", "calls": CALLS, "rounds": ROUNDS,
           "python": platform.python_version(), "numpy": np.__version__, "layers": {}}
    for name, curve in pentagons().items():
        if not validate(curve).simple:
            raise SystemExit(f"the {name} pentagon is not simple")
        i, j = _nonadjacent_pairs(curve.n_segments, curve.closed)
        a, b = _segments(embed(curve.space, curve.vertices), curve.closed)
        ends = (a[i], b[i], a[j], b[j])
        kind = curve.space.kind
        for layer, fn in (("polycurve._segseg_can", lambda: _segseg_can(kind, *ends)),
                          ("polycurve.validate", lambda: validate(curve))):
            per_call = best_mean_us(fn)
            out["layers"][f"{layer}.{name}"] = {"per_call": round(per_call, 2),
                                                "per_pair": round(per_call / i.size, 2),
                                                "pairs": int(i.size)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
