"""Runs one workload in a fresh interpreter; ``run.py`` launches it.

Set-up (imports, inputs from the seed, one warm-up job) ends at the monotonic
time reported as ``t_ready``, so the launcher can measure set-up from process
start.  Then, with tracing off, the timed phase runs as many whole cycles of
the job mix as take ``--seconds`` on the reference machine; or, with ``--trace 1``, untraced and
traced passes over a fixed job list alternate for ``--seconds``.  The result
is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

NS_PER_MS = 1e6


def _run_job(job) -> tuple[float, object, str | None]:
    """Time one job; a raised exception is the job's failure."""
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        return time.perf_counter() - t0, None, f"{job.kind} raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def _check(job, out) -> str | None:
    try:
        return job.check(out)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the job
        return f"{job.kind} check raised {type(exc).__name__}: {exc}"


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def timed_phase(workload, seconds: float) -> dict:
    times, kinds, errors = [], [], []
    failed = 0
    check_s = 0.0
    cycles = 0
    t_start = time.monotonic()
    # A fixed number of whole cycles, so the job count, and with it the tail
    # percentile, is the same on every run however fast the machine is.
    n_cycles = max(1, round(seconds / workload.CYCLE_S))
    while cycles < n_cycles:
        for job in workload.cycle(cycles):
            dt, out, err = _run_job(job)
            t_check = time.perf_counter()
            if err is None:
                err = _check(job, out)
            check_s += time.perf_counter() - t_check
            times.append(dt)
            kinds.append(job.kind)
            if err is not None:
                failed += 1
                errors.append(err)
        cycles += 1
    wall = time.monotonic() - t_start - check_s
    by_kind = {}
    for kind in dict.fromkeys(kinds):
        kt = [t for t, k in zip(times, kinds) if k == kind]
        by_kind[kind] = {"jobs": len(kt), "p50_ms": 1e3 * statistics.median(kt)}
    return {
        "attempted": len(times),
        "failed": failed,
        "errors": errors[:5],
        "cycles": cycles,
        "wall_s": wall,
        "check_s": check_s,
        "job_ms": [1e3 * t for t in times],
        "by_kind": by_kind,
        "peak_rss_mb": _peak_rss_mb(children=workload.name == "cli-cold"),
    }


def _launch_ms(code: str, repeats: int = 3) -> float:
    """Median wall time of ``python -c code`` in a fresh interpreter."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        out.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(out)


def _pass(jobs, tracer: tr.Tracer | None) -> dict:
    """One pass over the fixed job list; checks run after tracing stops."""
    if tracer is not None:
        tracer.reset()
        tracer.install()
    outs, times = [], []
    try:
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = j
                idx = tracer.enter(f"job.{job.kind}")
            dt, out, err = _run_job(job)
            if tracer is not None:
                tracer.leave(idx, raised=err is not None)
            outs.append((out, err))
            times.append(dt)
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors = [err if err is not None else _check(job, out) for job, (out, err) in zip(jobs, outs)]
    errors = [e for e in errors if e is not None]
    cli_s = [t for job, t in zip(jobs, times) if job.cli]
    return {"wall_s": sum(times), "times": times, "errors": errors, "cli_main_s": cli_s}


def traced_phase(workload, probe, seconds: float, spans_path: Path) -> dict:
    interp_ms = _launch_ms("pass")
    import_ms = _launch_ms("import curvebound.cli") - interp_ms

    cycle = workload.in_process_cycle if workload.name == "cli-cold" else workload.cycle
    jobs = [j for i in range(workload.TRACE_CYCLES) for j in cycle(i)]
    n_own = len(jobs)
    jobs += probe.jobs()

    tracer = tr.Tracer()
    plain, traced, self_ms, counts = [], [], {}, None
    counts_repeat = True
    errors = []
    t_start = time.monotonic()
    while not traced or time.monotonic() - t_start < seconds:
        p = _pass(jobs, None)
        plain.append(p)
        errors += p["errors"]
        t = _pass(jobs, tracer)
        errors += t["errors"]
        stats = tr.aggregate(tracer.spans)
        pass_counts = tr.counts_of(stats, tracer.optimize)
        if counts is None:
            counts, first = pass_counts, (stats, dict(tracer.optimize))
            tr.write_spans(spans_path, tracer.spans)
        elif pass_counts != counts:
            counts_repeat = False
            errors.append("call or element counts differ between traced passes")
        for name, s in stats.items():
            self_ms.setdefault(name, []).append(s["self_ns"] / NS_PER_MS)
        traced.append(t)

    stats, optimize = first
    plain_s = statistics.median(p["wall_s"] for p in plain)
    traced_s = statistics.median(t["wall_s"] for t in traced)
    self_ms = {k: statistics.median(v) for k, v in self_ms.items()}
    metrics = _layer_metrics(stats, optimize, self_ms)
    n_cli = len(plain[0]["cli_main_s"])
    metrics.update({
        "cli.interp_ms": interp_ms,
        "cli.import_ms": import_ms,
        "cli.main_ms": statistics.median(1e3 * sum(p["cli_main_s"]) / n_cli for p in plain),
        "cli.schema_ms": self_ms.get(tr.SCHEMA_SPAN, 0.0) / n_cli,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
    })
    probe_share = statistics.median(sum(p["times"][n_own:]) / p["wall_s"] for p in plain)
    attempted = len(jobs) * (len(plain) + len(traced))
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "passes": len(traced),
        "jobs_per_pass": len(jobs),
        "probe_jobs_per_pass": len(jobs) - n_own,
        "probe_share": probe_share,
        "plain_pass_s": [p["wall_s"] for p in plain],
        "traced_pass_s": [t["wall_s"] for t in traced],
        "counts_repeat": counts_repeat,
        "counts": counts,
        "layers": {name: {"calls": s["calls"], "self_ms": self_ms[name],
                          "total_ms": s["total_ns"] / NS_PER_MS, "elems": s["elems"],
                          "raised": s["raised"]} for name, s in sorted(stats.items())},
        "per_layer": metrics,
    }


def _layer_metrics(stats: dict, optimize: dict, self_ms: dict) -> dict:
    def get(name, key="calls"):
        return stats.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for mod, funcs in tr.LAYERS.items():
        for fn, elems in funcs.items():
            name = f"{mod}.{fn}"
            out[f"{name}.calls"] = get(name)
            out[f"{name}.self_ms"] = self_ms.get(name, 0.0)
            if elems is not None:
                out[f"{name}.elems"] = get(name, "elems")
    samples = get("cone.hull_sample", "elems")
    mobius = ("mobius_volume", "mobius_volume_grid", "mobius_translate", "curve_length_on_sphere")
    opt_calls = get(tr.OPTIMIZE_SPAN)
    out.update({
        "cone.psd_calls_per_sample": ratio(get("polycurve.point_segment_distance"), samples),
        "cone.on_curve_share": ratio(get("cone.density_report"), samples),
        "mobius.eval_us": 1e3 * ratio(sum(self_ms.get(f"mobius.{f}", 0.0) for f in mobius),
                                      get("mobius.mobius_translate")),
        "optimize.minimize.calls": opt_calls,
        "optimize.minimize.self_ms": self_ms.get(tr.OPTIMIZE_SPAN, 0.0),
        "optimize.minimize.nfev": optimize["nfev"],
        "optimize.minimize.nit": optimize["nit"],
        "optimize.success_ratio": ratio(optimize["success"], opt_calls),
        "knot.project_accept_ratio": ratio(get("knot.project") - get("knot.project", "raised"),
                                           get("knot.project")),
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    workload = wl.WORKLOADS[args.workload](args.seed, args.workdir)
    probe = None
    try:
        warm = workload.cycle(0)[0]
        _, out, err = _run_job(warm)
        err = err or _check(warm, out)
        if err is not None:
            raise RuntimeError(f"warm-up job failed: {err}")
        t_ready = time.monotonic()
        if args.setup_only:
            result = {"t_ready": t_ready}
        elif args.trace:
            probe = wl.Probe(args.workdir)
            result = traced_phase(workload, probe, args.seconds, args.spans)
        else:
            result = timed_phase(workload, args.seconds)
        result["t_ready"] = t_ready
    finally:
        workload.close()
        if probe is not None:
            probe.close()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
