"""The benchmark's four workloads: inputs drawn from a seed, jobs, output checks.

A workload is built once per process (its set-up) and then hands out jobs in
cycles.  ``cycle(i)`` is the ordered job mix of cycle ``i``.  The timed phase
runs ``round(seconds / CYCLE_S)`` whole cycles, where ``CYCLE_S`` is the time
one cycle took on the reference machine (2-core x86-64 VM, Python 3.11,
numpy 2.4, scipy 1.17).  Every run therefore has the same jobs in the same
proportions, and the same job count.
Inputs come from ``numpy.random.default_rng([seed, ...])`` only, so the same
seed gives the same inputs; cycle ``i`` reuses the inputs of cycle
``i % POOL`` so set-up stays bounded.  A traced run times the first
``TRACE_CYCLES`` cycles, which cover every input kind.

Every job returns the program's output; ``Job.check`` returns ``None`` when
the output is correct and a one-line reason otherwise.  Tolerances are those
of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import jsonschema
import numpy as np

import curvebound as cb
import curvebound.cli as cli
from curvebound import BoundVariant, CertVerdict, SpaceForm

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
EUC3 = SpaceForm.euclidean(3)
HYP3 = SpaceForm.hyperbolic(3)
SPH3 = SpaceForm.sphere(3)


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    cli: bool = False  # an in-process ``curvebound.cli.main`` call


def _rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))


def _within(name: str, value: float, expected: float, tol: float) -> str | None:
    if abs(value - expected) <= tol:
        return None
    return f"{name} {value!r} differs from {expected!r} by more than {tol:g}"


# ---------------------------------------------------------------------------
# seed-drawn pentagons (the generators of acceptance criteria 2 and 6)
# ---------------------------------------------------------------------------


def hyperbolic_pentagon(rng) -> cb.PolygonalCurve:
    """Poincare-ball pentagon at the scale of criterion 6, inside |x| < 0.9."""
    while True:
        verts = rng.standard_normal((5, 3)) * 0.25
        if np.linalg.norm(verts, axis=-1).max() >= 0.9:
            continue
        curve = cb.PolygonalCurve(HYP3, verts, closed=True)
        if cb.validate(curve).simple:
            return curve


def spherical_ball_pentagon(rng) -> cb.PolygonalCurve:
    """Simple pentagon within distance 0.69 < pi/4 of a base point of S^3."""
    base = np.array([0.0, 0.0, 0.0, 1.0])
    while True:
        tang = rng.standard_normal((5, 4))
        tang[:, 3] = 0.0
        tang /= np.linalg.norm(tang, axis=-1, keepdims=True)
        t = rng.uniform(0.1, 0.69, (5, 1))
        curve = cb.PolygonalCurve(SPH3, np.cos(t) * base + np.sin(t) * tang, closed=True)
        if cb.validate(curve).simple:
            return curve


def euclidean_pentagon(rng) -> cb.PolygonalCurve:
    while True:
        curve = cb.PolygonalCurve(EUC3, rng.standard_normal((5, 3)), closed=True)
        if cb.validate(curve).simple:
            return curve


def planar_convex_pentagon(rng) -> cb.PolygonalCurve:
    """Convex pentagon inscribed in a circle, placed by a random rotation."""
    while True:
        ang = np.sort(rng.uniform(0.0, TWO_PI, 5))
        gaps = np.diff(np.append(ang, ang[0] + TWO_PI))
        if gaps.min() > 0.3 and gaps.max() < math.pi - 0.3:
            break
    flat = np.stack([np.cos(ang), np.sin(ang), np.zeros(5)], axis=-1) * rng.uniform(0.5, 2.0)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return cb.PolygonalCurve(EUC3, flat @ rot.T + rng.standard_normal(3), closed=True)


def simple_batch(rng, count: int, k: int) -> np.ndarray:
    out, need = [], count
    while need > 0:
        raw = rng.standard_normal((max(2 * need, 64), k, 3))
        got = raw[cb.simple_mask_euclidean(raw, closed=True)][:need]
        out.append(got)
        need -= len(got)
    return np.concatenate(out, axis=0)


def unit_rows(rng, shape) -> np.ndarray:
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# certify-curved
# ---------------------------------------------------------------------------


class CertifyCurved:
    """One ``certify_embedded(n_samples=1000)`` per job, cycling Euclidean,
    spherical (inside the pi/4 ball) and hyperbolic pentagons.

    Certification cost varies tenfold from one pentagon shape to the next, so
    shapes drawn afresh for every seed would make the metrics follow the seed
    more than the code.  The shapes are therefore a fixed corpus, drawn once
    from ``CORPUS_SEED`` and kept whenever they validate as simple; the seed
    draws the isometry that places each pentagon and the hull samples.
    """

    name = "certify-curved"
    CORPUS_SEED = 106
    POOL = 24  # one cycle per shape in a 20-second run
    TRACE_CYCLES = 12
    CYCLE_S = 0.85
    N_SAMPLES = 1000
    KINDS = (
        ("euclidean", EUC3),
        ("sphere", SPH3),
        ("hyperbolic", HYP3),
    )

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        c = self.CORPUS_SEED
        corpus = {
            "euclidean": [(planar_convex_pentagon if j % 2 == 0 else euclidean_pentagon)(
                _rng(c, 0, j)) for j in range(self.POOL)],
            "sphere": [spherical_ball_pentagon(_rng(c, 1, j)) for j in range(self.POOL)],
            "hyperbolic": [hyperbolic_pentagon(_rng(c, 2, j)) for j in range(self.POOL)],
        }
        self.pool = {kind: [_place(curve, _rng(seed, k, j)) for j, curve in enumerate(corpus[kind])]
                     for k, kind in enumerate(corpus)}

    def cycle(self, i: int) -> list[Job]:
        jobs = []
        j = i % self.POOL
        for k, (kind, space) in enumerate(self.KINDS):
            curve = self.pool[kind][j]
            planar = kind == "euclidean" and j % 2 == 0
            jobs.append(Job(
                f"certify.{kind}",
                lambda space=space, curve=curve, k=k: cb.certify_embedded(
                    space, curve, n_samples=self.N_SAMPLES, rng=[self.seed, i, k]),
                _certificate_check(planar),
            ))
        return jobs

    def close(self) -> None:
        pass


def _rotation(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _place(curve: cb.PolygonalCurve, rng) -> cb.PolygonalCurve:
    """The curve moved by a random isometry: a rotation about the origin
    (which fixes the model's base point), plus a translation in R^3."""
    verts = curve.vertices @ _rotation(rng, curve.vertices.shape[1]).T
    if curve.space.kind is cb.Kind.EUCLIDEAN:
        verts = verts + rng.standard_normal(3)
    return cb.PolygonalCurve(curve.space, verts, closed=True)


def _certificate_check(planar: bool):
    def check(cert) -> str | None:
        if cert.verdict is not CertVerdict.CERTIFIED:
            return f"verdict {cert.verdict.value}: {cert.reason}"
        if planar and cert.worst.density > 1.0 + 1e-9:
            return f"planar convex worst density {cert.worst.density!r} > 1 + 1e-9"
        return None

    return check


# ---------------------------------------------------------------------------
# conformal-search
# ---------------------------------------------------------------------------


class ConformalSearch:
    """Optimizer-driven searches on sampled spherical curves: Mobius volume of
    circles and blow-up curves, the grid cross-check, extremal searches and
    the criterion-9 cone density checks.

    An extremal search's random starts are its whole input, and its run time
    varies fivefold with them, so its starts come from a fixed corpus seed;
    the seed draws the circles and the Mobius-volume restarts.
    """

    name = "conformal-search"
    CORPUS_SEED = 102
    POOL = 8
    TRACE_CYCLES = 2  # the grid alternates between two curves
    CYCLE_S = 9.0
    TRANSLATED = 6
    CIRCLE_N = 512
    GRID_POINTS = 10**4
    EXTREMAL_BUDGET = (2, 120)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.blowup = {(eps, n): cb.example_34_curve(eps, samples_per_piece=n)
                       for eps in (math.pi / 8.0, math.pi / 4.0) for n in (128, 512)}
        self.inputs = []
        for j in range(self.POOL):
            rng = _rng(seed, j)
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            translated = []
            for _ in range(self.TRANSLATED):
                a = rng.standard_normal(3)
                a *= rng.uniform(0.0, 0.6) / np.linalg.norm(a)
                beta = rng.uniform(math.pi / 12.0, math.pi / 2.0)
                translated.append(cb.latitude_circle_curve(beta, self.CIRCLE_N).transform(a))
            self.inputs.append({
                "great": cb.great_circle_curve(self.CIRCLE_N, frame=q[:2]),
                "latitude": cb.latitude_circle_curve(
                    rng.uniform(math.pi / 12.0, math.pi / 2.0), self.CIRCLE_N),
                "translated": translated,
            })

    def cycle(self, i: int) -> list[Job]:
        inp = self.inputs[i % self.POOL]
        seed = self.seed
        # the grid cross-check alternates between the two 128-sample curves
        grid_eps = math.pi / 8.0 if i % 2 == 0 else math.pi / 4.0
        opt = {}

        def blowup_check(key):
            def check(res):
                opt[key] = res.sup_estimate
                return _margin_check(res)

            return check

        def grid_check(res):
            if (grid_eps, 128) not in opt:
                return "no optimizer result to cross-check"
            return _within("|opt - grid|", res.sup_estimate, opt[(grid_eps, 128)], 1e-3)

        jobs = [
            Job("mobius.great", lambda: cb.mobius_volume(
                inp["great"], restarts=4, iterations=120, rng=[seed, i, 0]),
                lambda r: _within("great circle volume", r.sup_estimate, TWO_PI, 1e-4)),
            Job("mobius.latitude", lambda: cb.mobius_volume(
                inp["latitude"], restarts=4, iterations=120, rng=[seed, i, 1]),
                lambda r: _within("latitude circle volume", r.sup_estimate, TWO_PI, 1e-3)),
        ]
        for t, curve in enumerate(inp["translated"]):
            jobs.append(Job("mobius.translated", lambda curve=curve, t=t: cb.mobius_volume(
                curve, restarts=3, iterations=80, rng=[seed, i, 10 + t]), _excess_check))
        for b, (key, curve) in enumerate(sorted(self.blowup.items())):
            jobs.append(Job(f"mobius.blowup{key[1]}", lambda curve=curve, b=b: cb.mobius_volume(
                curve, restarts=6, iterations=150, rng=[seed, i, 20 + b]), blowup_check(key)))
        jobs.append(Job("mobius.grid", lambda: cb.mobius_volume_grid(
            self.blowup[(grid_eps, 128)], n_points=self.GRID_POINTS, rng=[seed, i, 2]),
            grid_check))
        for v, (k, variant) in enumerate(((5, BoundVariant.CLOSED_ODD),
                                          (3, BoundVariant.CHAIN1),
                                          (4, BoundVariant.CHAIN2))):
            jobs.append(Job(
                f"extremal.{variant.value}",
                lambda k=k, variant=variant, v=v: cb.extremal_search(
                    k, variant, budget=self.EXTREMAL_BUDGET,
                    rng=[self.CORPUS_SEED, i % self.POOL, v]),
                _extremal_check))
        # the six cones of criterion 9: two circles, two translated circles
        # and both 128-sample blow-up curves
        cones = [inp["great"], inp["latitude"], *inp["translated"][:2],
                 self.blowup[(math.pi / 8.0, 128)], self.blowup[(math.pi / 4.0, 128)]]
        for curve in cones:
            jobs.append(Job("cone.density", lambda curve=curve: _cone_density(curve), _cone_check))
        return jobs

    def close(self) -> None:
        pass


def _excess_check(res) -> str | None:
    excess = res.sup_estimate - TWO_PI
    return None if excess <= 1e-9 else f"translated circle excess {excess:.3e} > 1e-9"


def _margin_check(res) -> str | None:
    margin = FOUR_PI - res.sup_estimate
    return None if margin > 0.0 else f"blow-up margin {margin:.3e} <= 0"


def _extremal_check(res) -> str | None:
    gap = res.bound - res.sup_estimate
    return None if 0.0 <= gap <= 1e-3 else f"{res.variant.value} gap {gap:.3e} outside [0, 1e-3]"


def _cone_density(curve) -> tuple[float, float]:
    cone = cb.ConeSurface(curve)
    slack = cb.density_bound_check(cone).slack
    vals = [cb.cone_boundary_integral(cone, m=2, R=r) for r in (0.1, 1.0, 5.0, 10.0)]
    return slack, max(vals) - min(vals)


def _cone_check(row) -> str | None:
    slack, spread = row
    if abs(slack) > 1e-6 or spread >= 1e-8:
        return f"cone slack {slack:.2e} or flux spread {spread:.2e} out of tolerance"
    return None


# ---------------------------------------------------------------------------
# sweep-batch
# ---------------------------------------------------------------------------


class SweepBatch:
    """The vectorized sweeps of criteria 1, 3, 4, 10 and 12, cut into
    ``CHUNKS`` equal-size jobs: job ``c`` of a cycle runs slice ``c`` of every
    sweep, so every job does the same mix and amount of work.  Every cycle
    sweeps the same seed-drawn batches."""

    name = "sweep-batch"
    TRIANGLES = 10**5
    POLYGONS = {5: 5 * 10**4, 7: 3 * 10**4}
    KNOT_PENTAGONS = 400
    TREFOIL_DIRECTIONS = 300
    LAPLACIAN_DRAWS = 10**6
    RESIDUALS = 1000
    CHUNKS = 7
    TRACE_CYCLES = 1
    CYCLE_S = 1.6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = _rng(seed)
        triangles = unit_rows(rng, (self.TRIANGLES, 3, 3))
        polygons = {k: rng.standard_normal((n, k, 3)) for k, n in self.POLYGONS.items()}
        knots = [cb.PolygonalCurve(EUC3, v, closed=True)
                 for v in simple_batch(rng, self.KNOT_PENTAGONS, 5)]
        self.trefoil = cb.hexagonal_trefoil()
        directions = rng.standard_normal((self.TREFOIL_DIRECTIONS, 3))
        n = self.LAPLACIAN_DRAWS
        lap = (rng.uniform(1e-3, 10.0, n), rng.uniform(0.0, math.pi, n), unit_rows(rng, (n, 3)))
        geo = []
        while len(geo) < self.RESIDUALS:
            u = rng.uniform(-0.8, 0.8, 2)
            if np.linalg.norm(u) >= 0.8:
                continue
            p = np.array([u[0], u[1], rng.uniform(-2.0, 2.0)])
            v = rng.standard_normal(3)
            geo.append((p, v / cb.metric_norm(p, v), rng.uniform(-3.0, 3.0)))
        jac = []
        while len(jac) < self.RESIDUALS:
            i = len(jac)
            c = 10.0 ** rng.uniform(-9.0, -6.5) if i % 2 else rng.uniform(0.0, 0.5)
            tangent = np.array([2.0 * c, 0.0, math.sqrt(max(0.0, 1.0 - 4.0 * c * c))])
            w = rng.standard_normal(3)
            w -= np.dot(w, tangent) * tangent
            nw = np.linalg.norm(w)
            if nw >= 1e-8:
                jac.append((c, rng.uniform(0.1, 3.0), w / nw))
        knots = list(enumerate(knots))  # the index keys each pentagon's projection seed
        self.chunks = [{
            "triangles": triangles[_part(self.TRIANGLES, c, self.CHUNKS)],
            "polygons": {k: v[_part(len(v), c, self.CHUNKS)] for k, v in polygons.items()},
            "knots": knots[_part(len(knots), c, self.CHUNKS)],
            "directions": directions[_part(len(directions), c, self.CHUNKS)],
            "lap": tuple(a[_part(n, c, self.CHUNKS)] for a in lap),
            "geo": geo[_part(len(geo), c, self.CHUNKS)],
            "jac": jac[_part(len(jac), c, self.CHUNKS)],
        } for c in range(self.CHUNKS)]

    def cycle(self, i: int) -> list[Job]:
        return [Job("sweep.chunk", lambda part=part: self._sweep(i, part), _sweep_check)
                for part in self.chunks]

    def _sweep(self, i: int, part: dict) -> dict:
        return {
            "triangles": cb.check_bound_batch(part["triangles"], BoundVariant.TRIANGLE),
            "polygons": {k: _polygon_sweep(v) for k, v in part["polygons"].items()},
            "knots": {cb.knot_determinant(c, rng=[self.seed, i, j]) for j, c in part["knots"]},
            "trefoil": self._trefoil(part["directions"]),
            "laplacian": cb.laplacian_log_rho(*part["lap"]),
            "residuals": _residuals(part["geo"], part["jac"]),
        }

    def _trefoil(self, directions) -> set[int]:
        dets = set()
        for d in directions:
            try:
                dets.add(cb.determinant(cb.project(self.trefoil, d)))
            except cb.ConstructionError:
                continue
        return dets

    def close(self) -> None:
        pass


def _part(n: int, c: int, chunks: int) -> slice:
    """Slice ``c`` of ``chunks`` near-equal slices of ``range(n)``."""
    return slice(n * c // chunks, n * (c + 1) // chunks)


def _residuals(geo, jac) -> tuple[float, float, list[float]]:
    geo_max = max(cb.geodesic_ode_residual(p, v, t) for p, v, t in geo)
    jac_max = max(cb.jacobi_ode_residual(c, t, w) for c, t, w in jac)
    f, df = cb.decay_graph(amplitude=0.5, alpha=1.0)
    gaps = [abs(cb.end_curve_ratio(f, df, r) - TWO_PI) for r in (2.0, 4.0, 8.0, 16.0)]
    return geo_max, jac_max, gaps


def _sweep_check(out) -> str | None:
    checks = [
        _slack_check(out["triangles"]),
        *(_polygon_check((k - 1) // 2)(v) for k, v in out["polygons"].items()),
        None if out["knots"] == {1} else f"pentagon determinants {sorted(out['knots'])}",
        None if out["trefoil"] == {3} else f"trefoil determinants {sorted(out['trefoil'])}",
        _laplacian_check(out["laplacian"]),
        _residual_check(out["residuals"]),
    ]
    return next((err for err in checks if err is not None), None)


def _polygon_sweep(verts: np.ndarray):
    mask = cb.simple_mask_euclidean(verts, closed=True)
    tc = cb.total_curvature_batch(EUC3, verts, closed=True)
    ind = cb.indicatrix_length_batch(verts)
    return mask, tc, ind


def _slack_check(res) -> str | None:
    worst = float(res["slack"].min())
    return None if worst >= -1e-9 else f"triangle slack {worst:.3e} < -1e-9"


def _polygon_check(m: int):
    def check(out) -> str | None:
        mask, tc, ind = out
        worst = float(np.abs(tc - ind).max())
        if worst > 1e-10:
            return f"|tc - indicatrix| {worst:.3e} > 1e-10"
        if not bool((tc[mask] < 2.0 * m * math.pi).all()):
            return f"a simple {2 * m + 1}-gon reached total curvature {2 * m}pi"
        return None

    return check


def _laplacian_check(vals) -> str | None:
    low = float(vals.min())
    return None if low >= -1e-12 else f"laplacian minimum {low:.3e} < -1e-12"


def _residual_check(out) -> str | None:
    geo, jac, gaps = out
    if geo >= 1e-8 or jac >= 1e-6:
        return f"geodesic residual {geo:.2e} or Jacobi residual {jac:.2e} too large"
    if not all(gaps[i + 1] < gaps[i] for i in range(3)) or gaps[-1] >= 1e-3:
        return f"end-curve gaps {gaps} do not decrease below 1e-3"
    return None


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


class CliCold:
    """One ``python -m curvebound.cli`` process per job, cycling through eight
    subcommands at default budgets on seed-drawn curve files.  Each subcommand
    has two inputs; a cycle takes the first input of every other subcommand
    and the second of the rest, and the next cycle swaps them."""

    name = "cli-cold"
    TRACE_CYCLES = 2  # both inputs of every subcommand
    CYCLE_S = 9.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = Path(tempfile.mkdtemp(prefix="cli-cold-", dir=workdir))
        self._expected: dict[int, Any] = {}
        rng = _rng(seed)
        euc = euclidean_pentagon(_rng(seed, 0))
        hyp = hyperbolic_pentagon(_rng(seed, 1))
        sph = spherical_ball_pentagon(_rng(seed, 2))
        tri = unit_rows(rng, (3, 3))
        odd5 = unit_rows(rng, (5, 3))
        lat = cb.latitude_circle_curve(rng.uniform(math.pi / 12.0, math.pi / 2.0), 256)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        great = cb.great_circle_curve(256, frame=q[:2])
        f = {
            "euc": self._write("euc", euc, "euclidean"),
            "hyp": self._write("hyp", hyp, "hyperbolic", model="poincare_ball"),
            "sph": self._write("sph", sph, "sphere"),
            "tri": self._write_raw("tri", "sphere", 2, tri, "vertices"),
            "odd5": self._write_raw("odd5", "sphere", 2, odd5, "vertices"),
            "lat": self._write_raw("lat", "sphere", 2, lat.points, "samples"),
            "great": self._write_raw("great", "sphere", 2, great.points, "samples"),
            "trefoil": self._write("trefoil", cb.hexagonal_trefoil(), "euclidean"),
        }
        apex_e = _apex(rng, EUC3, euc)
        apex_h = _apex(rng, HYP3, hyp)
        s = [int(x) for x in rng.integers(0, 2**31, 4)]
        pt = lambda p: ",".join(repr(float(x)) for x in p)  # noqa: E731
        # (argv, library call that gives the expected values) per subcommand
        self.calls = [
            [(["totcurv", f["euc"]], lambda: _exp_totcurv(euc)),
             (["totcurv", f["hyp"]], lambda: _exp_totcurv(hyp))],
            [(["bounds-check", f["tri"]], lambda: _exp_bounds(tri, BoundVariant.TRIANGLE)),
             (["bounds-check", f["odd5"]], lambda: _exp_bounds(odd5, BoundVariant.CLOSED_ODD))],
            [(["certify", f["euc"], "--seed", str(s[0])], lambda: _exp_certify(EUC3, euc, s[0])),
             (["certify", f["sph"], "--seed", str(s[0])], lambda: _exp_certify(SPH3, sph, s[0]))],
            [(["cone-density", f["euc"], f"--point={pt(apex_e)}"],
              lambda: _exp_density(EUC3, apex_e, euc)),
             (["cone-density", f["hyp"], f"--point={pt(apex_h)}"],
              lambda: _exp_density(HYP3, apex_h, hyp))],
            [(["hyp-density", f["lat"]], lambda: _exp_hyp(lat)),
             (["hyp-density", f["great"]], lambda: _exp_hyp(great))],
            [(["h2xr-check", "--seed", str(s[1])], _exp_h2xr),
             (["h2xr-check", "--seed", str(s[2])], _exp_h2xr)],
            [(["sharpness", "--m", "1", "--seed", str(s[3])], lambda: _exp_sharpness(1, s[3])),
             (["sharpness", "--m", "2", "--seed", str(s[3])], lambda: _exp_sharpness(2, s[3]))],
            [(["knot-det", f["euc"], "--seed", str(s[1])], lambda: _exp_knot(euc, s[1], 1)),
             (["knot-det", f["trefoil"], "--seed", str(s[1])], lambda: _exp_knot(
                 cb.hexagonal_trefoil(), s[1], 3))],
        ]

    def _write(self, name, curve, space, model=None) -> str:
        doc = {"space": space, "dim": curve.space.dim, "closed": curve.closed,
               "vertices": curve.vertices.tolist()}
        if model is not None:
            doc["model"] = model
        return self._dump(name, doc)

    def _write_raw(self, name, space, dim, pts, field) -> str:
        return self._dump(name, {"space": space, "dim": dim, "closed": True, field: pts.tolist()})

    def _dump(self, name, doc) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def cycle(self, i: int) -> list[Job]:
        return [self._job(c, (c + i) % 2, in_process=False) for c in range(len(self.calls))]

    def in_process_cycle(self, i: int) -> list[Job]:
        return [self._job(c, (c + i) % 2, in_process=True) for c in range(len(self.calls))]

    def _job(self, c: int, variant: int, in_process: bool) -> Job:
        argv, expected = self.calls[c][variant]
        key = 2 * c + variant

        def check(out) -> str | None:
            if key not in self._expected:
                self._expected[key] = expected()
            return _check_report(argv[0], out, self._expected[key])

        run = (lambda: run_main(argv)) if in_process else (lambda: self._spawn(argv))
        return Job(f"cli.{argv[0]}", run, check, cli=in_process)

    def _spawn(self, argv) -> tuple[int, str, str]:
        proc = subprocess.run([sys.executable, "-m", "curvebound.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def run_main(argv) -> tuple[int, str, str]:
    """``curvebound.cli.main`` in this process, with its report captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _apex(rng, space, curve) -> np.ndarray:
    center = curve.vertices.mean(axis=0)
    while True:
        p = center + rng.normal(0.0, 0.05, 3)
        if cb.point_curve_distance(space, p, curve) > 1e-3:
            return p


def _exp_totcurv(curve):
    return {"total_curvature": cb.total_curvature(curve)}


def _exp_bounds(pts, variant):
    chk = cb.check_bound(pts, variant)
    return {"measured": chk.measured, "slack": chk.slack}


def _exp_certify(space, curve, seed):
    cert = cb.certify_embedded(space, curve, n_samples=1000, rng=seed)
    return {"verdict": cert.verdict.value, "worst.density": cert.worst.density}


def _exp_density(space, p, curve):
    rep = cb.density_report(space, p, curve)
    return {"density": rep.density, "angle": rep.angle}


def _exp_hyp(curve):
    chk = cb.density_bound_check(cb.ConeSurface(cb.SampledCurve(curve.points, closed=True)))
    return {"measured": chk.measured, "bound": chk.bound}


def _exp_h2xr():
    out = {"within_tolerance": True}
    for name, (f, df) in (("zero", cb.zero_graph()), ("decay", cb.decay_graph())):
        for r in (2.0, 4.0, 8.0, 16.0):
            out[f"ratio.{name}.{r:g}"] = cb.end_curve_ratio(f, df, r)
    return out


def _exp_sharpness(m, seed):
    return {"total_curvature": cb.total_curvature(cb.sharpness_family(m, 1e-2, seed=seed))}


def _exp_knot(curve, seed, det):
    got = cb.knot_determinant(curve, rng=seed)
    if got != det:
        raise ValueError(f"library knot determinant {got}, expected {det}")
    return {"determinant": det}


def _report_values(command: str, results: dict) -> dict:
    if command == "certify":
        return {"verdict": results["verdict"], "worst.density": results["worst"]["density"]}
    if command == "h2xr-check":
        out = {"within_tolerance": results["within_tolerance"]}
        for row in results["end_curve_sweep"]:
            out[f"ratio.{row['graph']}.{row['r']:g}"] = row["ratio"]
        return out
    return results


def _check_report(command: str, out, expected: dict) -> str | None:
    code, text, err = out
    if code != 0:
        return f"{command} exited {code}: {err.strip()[-200:]}"
    try:
        report = json.loads(text)
        jsonschema.validate(report, cli.REPORT_SCHEMA)
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        return f"{command} report invalid: {exc}"
    got = _report_values(command, report["results"])
    for key, want in expected.items():
        value = got.get(key)
        if isinstance(want, float):
            if not isinstance(value, (int, float)) or abs(value - want) > 1e-9:
                return f"{command} {key} {value!r} differs from library {want!r}"
        elif value != want:
            return f"{command} {key} {value!r} differs from library {want!r}"
    return None


# ---------------------------------------------------------------------------
# the layer probe shared by every traced run
# ---------------------------------------------------------------------------

PROBE_SEED = 0


class Probe:
    """A fixed set of small calls that reaches every traced layer once.

    Every traced pass ends with it, so each layer reports a measured time on
    every workload; it is the same on every workload and seed.  Its calls use
    the smallest budgets that still reach each layer, so the workload's own
    jobs dominate a traced pass; the results file records the probe's share.
    Its CLI calls are warm in-process ``main(argv)`` runs and give
    ``cli.main_ms``; their check is the exit status and the report schema.
    """

    BUDGETS = {"certify": "20", "h2xr-check": "5"}

    def __init__(self, workdir: Path):
        self.cli = CliCold(PROBE_SEED, workdir)
        rng = _rng(PROBE_SEED, 99)
        self.triangles = unit_rows(rng, (1000, 3, 3))
        self.polygons = rng.standard_normal((1000, 5, 3))
        self.lap = (rng.uniform(1e-3, 10.0, 10**4), rng.uniform(0.0, math.pi, 10**4),
                    unit_rows(rng, (10**4, 3)))
        self.blowup = cb.example_34_curve(math.pi / 8.0, samples_per_piece=128)
        # the second input of every other subcommand, so a spherical curve is certified
        self.argvs = []
        for c, calls in enumerate(self.cli.calls):
            argv = calls[(c + 1) % 2][0]
            if argv[0] in self.BUDGETS:
                argv = argv + ["--budget", self.BUDGETS[argv[0]]]
            self.argvs.append(argv)
        self.argvs += [
            ["mobius-vol", str(self.cli.dir / "lat.json"), "--budget", "1,20"],
            ["extremal-search", "--k", "5", "--budget", "1,1"],
        ]

    def jobs(self) -> list[Job]:
        jobs = [Job(f"cli.{argv[0]}", lambda argv=argv: run_main(argv),
                    lambda out, cmd=argv[0]: _check_report(cmd, out, {}), cli=True)
                for argv in self.argvs]
        jobs += [
            Job("probe.triangles", lambda: cb.check_bound_batch(
                self.triangles, BoundVariant.TRIANGLE), _slack_check),
            Job("probe.polygons5", lambda: _polygon_sweep(self.polygons), _polygon_check(2)),
            Job("probe.laplacian", lambda: cb.laplacian_log_rho(*self.lap), _laplacian_check),
            Job("probe.grid", lambda: cb.mobius_volume_grid(self.blowup, n_points=50, rng=0),
                _margin_check),
        ]
        return jobs

    def close(self) -> None:
        self.cli.close()


WORKLOADS = {w.name: w for w in (CliCold, CertifyCurved, ConformalSearch, SweepBatch)}
