"""Batch front end: curve I/O, command dispatch, deterministic report emission.

Reports are JSON by default (CSV is accepted only for the h2xr-check sweep
table), validated against a versioned schema before writing, and
byte-identical for identical (input, seed, config).  Exit codes: 0 for
success or a Certified verdict, 2 when a run is Inconclusive or finds a bound
violation, 1 for input errors (malformed JSON gets line/column diagnostics).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
# bound under jsonschema's name: the benchmark tracer wraps cli.jsonschema.validate
from . import schema as jsonschema
from .errors import ConstructionError, GeometryError

# Each handler and loader imports the library modules it runs, so that a cold
# process compiles only those.
if TYPE_CHECKING:
    from .mobius import SampledCurve
    from .polycurve import PolygonalCurve
    from .spaceform import SpaceForm
    from .spherical_bounds import BoundVariant

SCHEMA_VERSION = 1

GEODESIC_RESIDUAL_TOL = 1e-8
JACOBI_RESIDUAL_TOL = 1e-6
SLACK_TOL = 1e-9
# end_curve_ratio is good to a few 1e-14, so h2xr-check reports ratio - 2 pi in
# multiples of this rather than in rounding digits
EXCESS_QUANTUM = 1e-13
# the values of spherical_bounds.BoundVariant, spelled out so that building the
# parser imports no library module; tests/test_cli.py checks that they agree
BOUND_VARIANTS = ("triangle", "chain1", "chain2", "closed_odd", "open_odd")

COMMANDS = (
    "totcurv",
    "bounds-check",
    "extremal-search",
    "sharpness",
    "certify",
    "mobius-vol",
    "cone-density",
    "hyp-density",
    "h2xr-check",
    "knot-det",
)

_COORDS = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "number"},
    },
}

CURVE_SCHEMA = {
    "type": "object",
    "properties": {
        "space": {"enum": ["euclidean", "sphere", "hyperbolic"]},
        "dim": {"type": "integer", "minimum": 1},
        "model": {
            "enum": [
                "cartesian",
                "unit_sphere",
                "stereo_ball",
                "hyperboloid",
                "poincare_ball",
            ]
        },
        "vertices": _COORDS,
        "samples": _COORDS,
        "closed": {"type": "boolean"},
        "breaks": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
    },
    "required": ["space", "dim", "closed"],
    "oneOf": [{"required": ["vertices"]}, {"required": ["samples"]}],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "tool": {"const": "curvebound"},
        "tool_version": {"type": "string"},
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": ["integer", "null"]},
        "budget": {"type": ["object", "null"]},
        "tolerance": {"type": ["number", "null"]},
        "results": {"type": "object"},
    },
    "required": [
        "schema_version",
        "tool",
        "tool_version",
        "command",
        "seed",
        "budget",
        "tolerance",
        "results",
    ],
    "additionalProperties": False,
}


class InputError(Exception):
    """User-facing input problem; exits with status 1."""


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def sig12(x: float) -> float:
    """Round to 12 significant digits so reports are stable across platforms."""
    if x == 0.0 or not math.isfinite(x):
        return float(x)
    return float(f"{x:.12g}")


def pi_multiple(x: float) -> str:
    """Symbolic rendering relative to the nearest integer multiple of pi."""
    m = int(round(x / math.pi))
    delta = x - m * math.pi
    if m == 0:
        return f"{x:.12g}"
    head = "pi" if m == 1 else ("-pi" if m == -1 else f"{m}pi")
    if abs(delta) < 1e-12:
        return head
    sign = "+" if delta > 0 else "-"
    return f"{head} {sign} {abs(delta):.6g}"


# ---------------------------------------------------------------------------
# curve file I/O
# ---------------------------------------------------------------------------


def load_curve_file(path: str) -> dict:
    """Parse and schema-validate a curve file; coordinates stay as lists."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read curve file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    try:
        jsonschema.validate(data, CURVE_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise InputError(f"curve file {path} failed schema validation: {exc.message}") from exc
    return data


def _space_from_file(data: dict) -> SpaceForm:
    """The file's space form; without a ``model`` field, its kind's canonical model."""
    from .spaceform import _CANONICAL, Kind, Model, SpaceForm

    kind = Kind(data["space"])
    return SpaceForm(kind, data["dim"], Model(data.get("model", _CANONICAL[kind])))


def _vertices_from_file(data: dict) -> tuple[SpaceForm, np.ndarray]:
    """The file's space and vertices, which must satisfy its model within
    spaceform.POINT_COORDS_TOL."""
    from .spaceform import check_point_coords

    if "vertices" not in data:
        raise InputError("this command needs a curve file with a 'vertices' field")
    space = _space_from_file(data)
    verts = np.asarray(data["vertices"], dtype=float)
    try:
        check_point_coords(space, verts)
    except GeometryError as exc:
        raise InputError(f"invalid curve: {exc}") from exc
    return space, verts


def polygonal_from_file(data: dict) -> PolygonalCurve:
    from .polycurve import PolygonalCurve

    space, verts = _vertices_from_file(data)
    try:
        return PolygonalCurve(space, verts, closed=data["closed"])
    except GeometryError as exc:
        raise InputError(f"invalid curve: {exc}") from exc


def sampled_from_file(data: dict) -> SampledCurve:
    from .mobius import SampledCurve

    if "samples" not in data:
        raise InputError("this command needs a curve file with a 'samples' field")
    if data["space"] != "sphere":
        raise InputError("sampled curves must live on the sphere")
    pts = np.asarray(data["samples"], dtype=float)
    breaks = tuple(data.get("breaks", ()))
    try:
        return SampledCurve(pts, closed=data["closed"], breaks=breaks)
    except GeometryError as exc:
        raise InputError(f"invalid sampled curve: {exc}") from exc


def _unit_sphere_points(data: dict) -> np.ndarray:
    """Configuration vertices in embedded unit-sphere coordinates."""
    from .spaceform import embed

    space, verts = _vertices_from_file(data)
    if data["space"] != "sphere":
        raise InputError("this command expects a spherical configuration")
    return embed(space, verts)


# ---------------------------------------------------------------------------
# command handlers: each returns (results, budget, exit_code)
# ---------------------------------------------------------------------------


def _parse_budget(spec: str | None, names: tuple[str, ...], defaults: tuple[int, ...]) -> dict:
    if spec is None:
        vals = defaults
    else:
        try:
            vals = tuple(int(tok) for tok in spec.split(","))
        except ValueError as exc:
            raise InputError(f"--budget must be comma-separated integers, got {spec!r}") from exc
        if len(vals) > len(names):
            raise InputError(f"--budget takes at most {len(names)} values here: {','.join(names)}")
        vals = vals + defaults[len(vals):]
    if any(v < 1 for v in vals):
        raise InputError("--budget values must be >= 1")
    return dict(zip(names, vals))


def _parse_floats(spec: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise InputError(f"{flag} must be comma-separated numbers, got {spec!r}") from exc


def _cmd_totcurv(args) -> tuple[dict, dict | None, int]:
    from .polycurve import spherical_length, tangent_indicatrix, total_curvature
    from .spaceform import Kind

    curve = polygonal_from_file(load_curve_file(args.curve))
    tc = total_curvature(curve)
    results = {
        "space": curve.space.kind.value,
        "k": curve.k,
        "closed": curve.closed,
        "total_curvature": sig12(tc),
        "total_curvature_symbolic": pi_multiple(tc),
    }
    if curve.space.kind is Kind.EUCLIDEAN and curve.closed:
        results["indicatrix_length"] = sig12(spherical_length(tangent_indicatrix(curve)))
    return results, None, 0


def _default_variant(k: int, closed: bool) -> BoundVariant:
    from .spherical_bounds import BoundVariant

    if closed:
        if k == 3:
            return BoundVariant.TRIANGLE
        if k % 2 == 1:
            return BoundVariant.CLOSED_ODD
        raise InputError(f"no closed bound variant covers k={k}; pass --variant")
    if k == 3:
        return BoundVariant.CHAIN1
    if k == 4:
        return BoundVariant.CHAIN2
    if k % 2 == 1:
        return BoundVariant.OPEN_ODD
    raise InputError(f"no open bound variant covers k={k}; pass --variant")


def _cmd_bounds_check(args) -> tuple[dict, dict | None, int]:
    from .spherical_bounds import BoundVariant, check_bound

    data = load_curve_file(args.curve)
    pts = _unit_sphere_points(data)
    if args.variant is not None:
        variant = BoundVariant(args.variant)
    else:
        variant = _default_variant(pts.shape[0], data["closed"])
    chk = check_bound(pts, variant)
    tol = args.tol if args.tol is not None else SLACK_TOL
    violation = chk.slack < -tol
    results = {
        "variant": chk.variant.value,
        "k": int(chk.points.shape[0]),
        "measured": sig12(chk.measured),
        "measured_symbolic": pi_multiple(chk.measured),
        "bound": sig12(chk.bound),
        "bound_symbolic": pi_multiple(chk.bound),
        "theta": sig12(chk.theta) if chk.theta is not None else None,
        "slack": sig12(chk.slack),
        "violation": bool(violation),
        "equality_flags": {
            "antipodal_pair": chk.equality_flags.antipodal_pair,
            "great_circle": chk.equality_flags.great_circle,
        },
    }
    return results, None, 2 if violation else 0


def _cmd_extremal_search(args) -> tuple[dict, dict | None, int]:
    from .spherical_bounds import BoundVariant, extremal_search

    budget = _parse_budget(args.budget, ("restarts", "sweeps"), (32, 500))
    variant = BoundVariant(args.variant) if args.variant is not None else BoundVariant.CLOSED_ODD
    res = extremal_search(
        args.k,
        variant=variant,
        budget=(budget["restarts"], budget["sweeps"]),
        rng=args.seed,
    )
    results = {
        "variant": res.variant.value,
        "k": res.k,
        "sup_estimate": sig12(res.sup_estimate),
        "sup_estimate_symbolic": pi_multiple(res.sup_estimate),
        "bound": sig12(res.bound),
        "bound_symbolic": pi_multiple(res.bound),
        "gap": sig12(res.bound - res.sup_estimate),
        "argmax": [[sig12(v) for v in row] for row in res.argmax],
    }
    return results, budget, 0


def _cmd_sharpness(args) -> tuple[dict, dict | None, int]:
    from .polycurve import total_curvature
    from .spherical_bounds import sharpness_family

    if args.m is None:
        raise InputError("sharpness needs --m")
    eps = args.eps if args.eps is not None else 1e-2
    try:
        curve = sharpness_family(args.m, eps, seed=args.seed)
    except ConstructionError as exc:
        return {"constructed": False, "reason": str(exc)}, None, 2
    tc = total_curvature(curve)
    target = 2.0 * args.m * math.pi
    results = {
        "constructed": True,
        "m": args.m,
        "eps": eps,
        "k": curve.k,
        "total_curvature": sig12(tc),
        "total_curvature_symbolic": pi_multiple(tc),
        "target": sig12(target),
        "target_symbolic": pi_multiple(target),
        "deficit": sig12(target - tc),
        "vertices": [[sig12(v) for v in row] for row in curve.vertices],
    }
    return results, None, 0


def _cmd_certify(args) -> tuple[dict, dict | None, int]:
    from .cone import ON_CURVE_TOL, CertVerdict, certify_embedded

    curve = polygonal_from_file(load_curve_file(args.curve))
    budget = _parse_budget(args.budget, ("samples",), (1000,))
    tol = args.tol if args.tol is not None else ON_CURVE_TOL
    cert = certify_embedded(curve.space, curve, budget["samples"], rng=args.seed, tol=tol)
    results = cert.as_dict()
    if results["worst"] is not None:
        for key in ("angle", "density", "bound_applied", "margin"):
            results["worst"][key] = sig12(results["worst"][key])
        results["worst"]["point"] = [sig12(v) for v in results["worst"]["point"]]
        results["worst"]["angle_symbolic"] = pi_multiple(results["worst"]["angle"])
    code = 0 if cert.verdict is CertVerdict.CERTIFIED else 2
    return results, budget, code


def _cmd_mobius_vol(args) -> tuple[dict, dict | None, int]:
    from .mobius import mobius_volume

    curve = sampled_from_file(load_curve_file(args.curve))
    budget = _parse_budget(args.budget, ("restarts", "iterations"), (32, 500))
    res = mobius_volume(
        curve,
        restarts=budget["restarts"],
        iterations=budget["iterations"],
        rng=args.seed,
    )
    results = res.as_dict()
    results["sup_estimate"] = sig12(results["sup_estimate"])
    results["sup_estimate_symbolic"] = pi_multiple(results["sup_estimate"])
    results["lower_bound_great_sphere"] = sig12(results["lower_bound_great_sphere"])
    results["argmax_a"] = [sig12(v) for v in results["argmax_a"]]
    results["budget"] = {k: sig12(v) if isinstance(v, float) else v
                         for k, v in results["budget"].items()}
    return results, budget, 0


def _cmd_cone_density(args) -> tuple[dict, dict | None, int]:
    from .cone import ON_CURVE_TOL, density_report

    curve = polygonal_from_file(load_curve_file(args.curve))
    if args.point is None:
        raise InputError("cone-density needs --point")
    p = np.asarray(_parse_floats(args.point, "--point"), dtype=float)
    tol = args.tol if args.tol is not None else ON_CURVE_TOL
    rep = density_report(curve.space, p, curve, tol=tol)
    results = rep.as_dict()
    for key in ("angle", "density", "bound_applied", "margin"):
        results[key] = sig12(results[key])
    results["point"] = [sig12(v) for v in results["point"]]
    results["angle_symbolic"] = pi_multiple(results["angle"])
    return results, None, 0 if rep.passed else 2


def _cmd_hyp_density(args) -> tuple[dict, dict | None, int]:
    from .hyp_density import ConeSurface, cone_boundary_integral, density_bound_check

    curve = sampled_from_file(load_curve_file(args.curve))
    cone = ConeSurface(curve)
    chk = density_bound_check(cone)
    radii = _parse_floats(args.radii, "--radii") if args.radii else [0.1, 1.0, 5.0, 10.0]
    values = [cone_boundary_integral(cone, R=r) for r in radii]
    spread = max(values) - min(values)
    results = chk.as_dict()
    for key in ("measured", "bound", "slack", "theta"):
        results[key] = sig12(results[key])
    results["radii"] = radii
    results["boundary_integrals"] = [sig12(v) for v in values]
    results["radius_spread"] = sig12(spread)
    return results, None, 0 if chk.embedded_certificate else 2


def _cmd_h2xr_check(args) -> tuple[dict, dict | None, int]:
    from .h2xr import (
        _normal_tangent,
        decay_graph,
        end_curve_ratio,
        geodesic_ode_residual,
        jacobi_ode_residual,
        metric_norm,
        zero_graph,
    )
    from .spaceform import as_rng

    budget = _parse_budget(args.budget, ("trials",), (100,))
    n = budget["trials"]
    rng = as_rng(args.seed)

    worst_geo = 0.0
    for _ in range(n):
        u = rng.uniform(-0.6, 0.6, size=2)
        while u @ u >= 0.64:
            u = rng.uniform(-0.6, 0.6, size=2)
        p = np.array([u[0], u[1], rng.uniform(-2.0, 2.0)])
        v = rng.standard_normal(3)
        v /= metric_norm(p, v)
        t = rng.uniform(-3.0, 3.0)
        worst_geo = max(worst_geo, geodesic_ode_residual(p, v, t))

    worst_jac = 0.0
    for i in range(n):
        if i % 2 == 0:
            c = rng.uniform(0.0, 0.5)
        else:
            c = 10.0 ** rng.uniform(-9.0, -5.0)
        tang = _normal_tangent(c)
        w = rng.standard_normal(3)
        w -= (w @ tang) * tang
        nw = np.linalg.norm(w)
        if nw < 1e-8:
            continue
        t = rng.uniform(-3.0, 3.0)
        worst_jac = max(worst_jac, jacobi_ode_residual(c, t, w / nw))

    radii = _parse_floats(args.radii, "--radii") if args.radii else [2.0, 4.0, 8.0, 16.0]
    sweep = []
    for name, (f, df) in (("zero", zero_graph()), ("decay", decay_graph())):
        for r in radii:
            ratio = end_curve_ratio(f, df, r)
            sweep.append(
                {
                    "graph": name,
                    "r": r,
                    "ratio": sig12(ratio),
                    "excess": sig12(round((ratio - 2.0 * math.pi) / EXCESS_QUANTUM)
                                    * EXCESS_QUANTUM),
                }
            )

    ok = worst_geo <= GEODESIC_RESIDUAL_TOL and worst_jac <= JACOBI_RESIDUAL_TOL
    results = {
        "trials": n,
        "geodesic_residual_max": sig12(worst_geo),
        "geodesic_residual_tol": GEODESIC_RESIDUAL_TOL,
        "jacobi_residual_max": sig12(worst_jac),
        "jacobi_residual_tol": JACOBI_RESIDUAL_TOL,
        "within_tolerance": bool(ok),
        "end_curve_sweep": sweep,
    }
    return results, budget, 0 if ok else 2


def _cmd_knot_det(args) -> tuple[dict, dict | None, int]:
    from .knot import determinant, project, random_projection

    curve = polygonal_from_file(load_curve_file(args.curve))
    budget = _parse_budget(args.budget, ("retries",), (100,))
    if args.direction is not None:
        direction = _parse_floats(args.direction, "--direction")
        if len(direction) != 3:
            raise InputError("--direction needs exactly 3 components")
        diagram = project(curve, direction)
    else:
        diagram = random_projection(curve, rng=args.seed, retries=budget["retries"])
    det = determinant(diagram)
    results = {
        "determinant": det,
        "n_crossings": len(diagram.crossings),
        "n_arcs": diagram.n_arcs,
        "gauss_code": list(diagram.gauss_code),
    }
    return results, budget, 0


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _render_csv(report: dict) -> str:
    rows = report["results"]["end_curve_sweep"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["graph", "r", "ratio", "excess"])
    for row in rows:
        writer.writerow([row["graph"], row["r"], row["ratio"], row["excess"]])
    return buf.getvalue()


def _emit(report: dict, fmt: str, out: str | None) -> None:
    jsonschema.validate(report, REPORT_SCHEMA)
    text = _render_csv(report) if fmt == "csv" else _render_json(report)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract wants 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvebound",
        description="Curvature bounds, density certificates, and knot checks "
        "for polygonal curves in space forms.",
    )
    parser.add_argument("--version", action="version", version=f"curvebound {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    shared = {  # each subcommand takes only the ones it reads
        "seed": dict(type=int, default=0, help="RNG seed (default 0)"),
        "budget": dict(default=None, help="comma-separated integer budget, command-specific"),
        "tol": dict(type=float, default=None, help="tolerance override"),
        "format": dict(choices=("json", "csv"), default="json", help="report format"),
    }

    def add(name: str, handler, help_: str, curve: bool, flags=()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if curve:
            p.add_argument("curve", help="path to a JSON curve file")
        for flag in flags:
            p.add_argument(f"--{flag}", **shared[flag])
        p.add_argument("--out", default=None, help="report path (default stdout)")
        return p

    add("totcurv", _cmd_totcurv, "total curvature of a polygonal curve", curve=True)

    p = add("bounds-check", _cmd_bounds_check,
            "check a spherical configuration against its length bound", curve=True,
            flags=("tol",))
    p.add_argument("--variant", choices=BOUND_VARIANTS, default=None)

    p = add("extremal-search", _cmd_extremal_search,
            "search for length-maximizing spherical configurations", curve=False,
            flags=("seed", "budget"))
    p.add_argument("--k", type=int, default=5, help="number of vertices (default 5)")
    p.add_argument("--variant", choices=BOUND_VARIANTS, default=None)

    p = add("sharpness", _cmd_sharpness, "construct a near-extremal simple closed polygon",
            curve=False, flags=("seed",))
    p.add_argument("--m", type=int, default=None, help="bound parameter: target 2m pi")
    p.add_argument("--eps", type=float, default=None, help="curvature deficit (default 1e-2)")

    add("certify", _cmd_certify, "sampled embeddedness certificate for a 5-gon boundary",
        curve=True, flags=("seed", "budget", "tol"))

    add("mobius-vol", _cmd_mobius_vol,
        "supremum of spherical length over ball Mobius translations", curve=True,
        flags=("seed", "budget"))

    p = add("cone-density", _cmd_cone_density, "cone angle and density bound at a point",
            curve=True, flags=("tol",))
    p.add_argument("--point", default=None, help="comma-separated apex coordinates")

    p = add("hyp-density", _cmd_hyp_density,
            "hyperbolic cone density bound at the cone point", curve=True)
    p.add_argument("--radii", default=None,
                   help="comma-separated radii for the spread check")

    p = add("h2xr-check", _cmd_h2xr_check, "residual and end-curve checks in H2 x R",
            curve=False, flags=("seed", "budget", "format"))
    p.add_argument("--radii", default=None,
                   help="comma-separated end-curve radii (default 2,4,8,16)")

    p = add("knot-det", _cmd_knot_det, "knot determinant from a generic planar projection",
            curve=True, flags=("seed", "budget"))
    p.add_argument("--direction", default=None,
                   help="comma-separated projection direction (default: random)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # a flag the subcommand does not read, such as totcurv --seed
        sys.stderr.write(f"curvebound: error: unrecognized arguments: {' '.join(extra)}\n")
        return 1

    try:
        results, budget, code = args.handler(args)
    except (InputError, GeometryError) as exc:
        sys.stderr.write(f"curvebound: error: {exc}\n")
        return 1

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "curvebound",
        "tool_version": __version__,
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "budget": budget,
        "tolerance": getattr(args, "tol", None),
        "results": results,
    }
    _emit(report, getattr(args, "format", "json"), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
