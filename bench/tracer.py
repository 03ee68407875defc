"""In-memory span tracer for the benchmark's traced runs.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces each
traced function with a recording wrapper wherever a ``curvebound`` module
binds it: at package level and under the names other modules import it by
(``curvebound.cone.point_segment_distance``, ``curvebound.mobius.minimize``).
Calls that resolve through a module global therefore record a span, and
``uninstall`` puts every original back.

A span is ``[name, parent, job, t0_ns, t1_ns, elems, raised]``.  Spans stay in
memory; ``aggregate`` turns them into per-layer statistics and
``write_spans`` stores them once, at the end of a run.  A layer's self time is
its span duration minus the durations of its direct child spans (calls are
nested on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

import numpy as np


def _size(result) -> int:
    return int(np.size(result))


def _first_axis(result) -> int:
    return int(np.shape(result)[0])


def _batch_dict(result) -> int:
    return int(np.shape(result["slack"])[0])


# module -> function -> element counter (None: the layer reports no elems).
# Counters read the call's result, whose leading axes are the batch.
# spaceform.geodesic_arrays is left out: only cone_angle_sampled calls it, and
# no workload runs that oracle.
LAYERS: dict[str, dict] = {
    "polycurve": {
        "point_segment_distance": None,
        "segment_pair_distance": None,
        "validate": None,
        "simple_mask_euclidean": _first_axis,
        "total_curvature_batch": _first_axis,
        "indicatrix_length_batch": _first_axis,
    },
    "spaceform": {
        "dist_arrays": _size,
        "vertex_angle_arrays": _size,
        "embed": None,
        "unembed": None,
    },
    "cone": {
        "certify_embedded": None,
        "hull_sample": _first_axis,
        "min_enclosing_ball": None,
        "cone_angle": None,
        "density_report": None,
    },
    "mobius": {
        "mobius_volume": None,
        "mobius_volume_grid": None,
        "mobius_translate": None,
        "curve_length_on_sphere": None,
    },
    "spherical_bounds": {
        "extremal_search": None,
        "check_bound": None,
        "check_bound_batch": _batch_dict,
        "sharpness_family": None,
    },
    "knot": {
        "project": None,
        "random_projection": None,
        "determinant": None,
    },
    "hyp_density": {
        "density_bound_check": None,
        "cone_boundary_integral": None,
    },
    "h2xr": {
        "geodesic_ode_residual": None,
        "jacobi_ode_residual": None,
        "laplacian_log_rho": _size,
        "end_curve_ratio": None,
    },
}

# scipy's minimize, as bound by mobius and spherical_bounds.
OPTIMIZE_SPAN = "optimize.minimize"
SCHEMA_SPAN = "cli.schema"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in a fixed order."""
    out = []
    for mod, funcs in LAYERS.items():
        for fn, elems in funcs.items():
            out.append((f"{mod}.{fn}.calls", "count"))
            out.append((f"{mod}.{fn}.self_ms", "ms"))
            if elems is not None:
                out.append((f"{mod}.{fn}.elems", "count"))
    out += [
        ("cone.psd_calls_per_sample", "ratio"),
        ("cone.on_curve_share", "ratio"),
        ("mobius.eval_us", "us"),
        ("optimize.minimize.calls", "count"),
        ("optimize.minimize.self_ms", "ms"),
        ("optimize.minimize.nfev", "count"),
        ("optimize.minimize.nit", "count"),
        ("optimize.success_ratio", "ratio"),
        ("knot.project_accept_ratio", "ratio"),
        ("cli.interp_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.main_ms", "ms"),
        ("cli.schema_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


class _SchemaProxy:
    """Stands in for the ``jsonschema`` module inside ``curvebound.cli`` so
    only the validations the CLI makes are traced."""

    def __init__(self, module, validate):
        self._module = module
        self.validate = validate

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self.optimize = {"nfev": 0, "nit": 0, "success": 0}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.job, time.perf_counter_ns(), 0, 0, False])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int, elems: int = 0, raised: bool = False) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter_ns()
        span[5] = elems
        span[6] = raised
        self._stack.pop()

    def _wrap(self, name, fn, count_elems, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(idx, raised=True)
                raise
            tracer.leave(idx, count_elems(result) if count_elems else 0)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import curvebound.cli as cli

        mods = {name: importlib.import_module(f"curvebound.{name}") for name in LAYERS}
        hosts = [mod for name, mod in sorted(sys.modules.items())
                 if name == "curvebound" or name.startswith("curvebound.")]
        for mod_name, funcs in LAYERS.items():
            for fn_name, elems in funcs.items():
                original = getattr(mods[mod_name], fn_name)
                self._bind_everywhere(hosts, original,
                                      self._wrap(f"{mod_name}.{fn_name}", original, elems))

        minimize = mods["mobius"].minimize

        def tally(res):
            self.optimize["nfev"] += int(res.nfev)
            self.optimize["nit"] += int(res.nit)
            self.optimize["success"] += int(bool(res.success))

        self._bind_everywhere(hosts, minimize,
                              self._wrap(OPTIMIZE_SPAN, minimize, None, tally))

        real = cli.jsonschema
        self._set(cli, "jsonschema",
                  _SchemaProxy(real, self._wrap(SCHEMA_SPAN, real.validate, None)))

    def _bind_everywhere(self, hosts, original, wrapper) -> None:
        for host in hosts:
            for attr, value in list(vars(host).items()):
                if value is original:
                    self._set(host, attr, wrapper)

    def _set(self, host, attr, value) -> None:
        self._patches.append((host, attr, getattr(host, attr)))
        setattr(host, attr, value)

    def uninstall(self) -> None:
        for host, attr, original in reversed(self._patches):
            setattr(host, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self.job = -1
        self.optimize = {"nfev": 0, "nit": 0, "success": 0}


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self time (ns), elems, raised."""
    child_ns = [0] * len(spans)
    for name, parent, _job, t0, t1, _e, _r in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    stats: dict[str, dict] = {}
    for i, (name, _parent, _job, t0, t1, elems, raised) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                    "elems": 0, "raised": 0})
        s["calls"] += 1
        s["total_ns"] += t1 - t0
        s["self_ns"] += t1 - t0 - child_ns[i]
        s["elems"] += elems
        s["raised"] += int(raised)
    return stats


def counts_of(stats: dict[str, dict], optimize: dict) -> dict[str, int]:
    """The deterministic part of a pass: call, element and optimizer counts."""
    out = {f"{name}.{key}": s[key] for name, s in sorted(stats.items())
           for key in ("calls", "elems", "raised")}
    out.update({f"{OPTIMIZE_SPAN}.{k}": v for k, v in sorted(optimize.items())})
    return out


def write_spans(path, spans: list[list]) -> None:
    """Store spans once, as gzipped JSON rows relative to the first start."""
    t_base = spans[0][3] if spans else 0
    rows = [[n, p, j, (t0 - t_base) // 1000, (t1 - t0) // 1000, e, int(r)]
            for n, p, j, t0, t1, e, r in spans]
    doc = {"columns": ["name", "parent", "job", "start_us", "dur_us", "elems", "raised"],
           "spans": rows}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))

