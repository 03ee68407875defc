"""curvebound benchmark: one workload per call, every output checked.

Usage, from the repository root:

    python3 bench/run.py --workload certify-curved --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (tracing off); with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
machine and run metadata is written to ``bench/results/``.  Workloads,
metrics and the layer-to-end-to-end mapping are described in
``bench/README.md``.

This launcher imports nothing from the program.  Each workload runs in fresh
interpreters (``worker.py``), so set-up time and peak memory belong to that
workload: two set-up-only launches plus the measured one give three set-up
times, and ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-cold", "certify-curved", "conformal-search", "sweep-batch")
SETUP_LAUNCHES = 3
WORKER_TIMEOUT_S = 150
# In-process workloads hold BLAS to one thread: jobs are closed-loop and
# single-threaded, and on the 2-core reference machine a second BLAS thread
# made runs slower and noisier.  cli-cold keeps the caller's setting, since
# BLAS start-up is part of the cold start users see.
BLAS_THREADS = "1"
WAIT = "0 in every layer by construction: one closed-loop client, no queue, no second thread"


def worker_env(workload: str) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if workload != "cli-cold":
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = BLAS_THREADS
    return env


def launch(args, workdir: Path, env: dict, *extra: str) -> dict:
    """Run ``worker.py`` to completion; return its result and set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    t_launch = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_launch
    return result


def tail(job_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it, and its value."""
    ordered = sorted(job_ms)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def metadata(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "git_sha": sha,
        "blas_threads": (os.environ.get("OPENBLAS_NUM_THREADS", "default")
                         if args.workload == "cli-cold" else BLAS_THREADS),
    }


def end_to_end(args, workdir: Path, env: dict) -> tuple[dict, dict]:
    setups = [launch(args, workdir, env, "--setup-only")["setup_s"]
              for _ in range(SETUP_LAUNCHES - 1)]
    res = launch(args, workdir, env)
    setups.append(res["setup_s"])
    ok = res["attempted"] - res["failed"]
    pct, tail_ms = tail(res["job_ms"])
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "jobs_per_s": {"value": ok / res["wall_s"], "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(res["job_ms"]), "unit": "ms"},
        "job_tail_ms": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    fail_frac = res["failed"] / res["attempted"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh launches: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "jobs_per_s": f"{ok} jobs in {res['wall_s']:.2f} s ({res['cycles']} whole cycles)",
        "job_p50_ms": f"over {res['attempted']} jobs",
        "job_tail_ms": f"p{pct:.1f} of {res['attempted']} jobs, 10 slower",
        "peak_rss_mb": "of the cli children" if args.workload == "cli-cold"
                       else "of the workload process",
    }
    print(f"{'fail_frac':<28} {fail_frac:>14.6g} ratio  {res['failed']} of {res['attempted']} jobs")
    details = {"setup_s_runs": setups, "fail_frac": fail_frac, "tail_percentile": pct,
               "jobs": res["attempted"], **{k: res[k] for k in (
                   "failed", "errors", "cycles", "wall_s", "check_s", "by_kind", "job_ms")}}
    return metrics, {"notes": notes, "details": details, "correct": res["failed"] == 0,
                     "attempted": res["attempted"], "failed": res["failed"]}


def per_layer(args, workdir: Path, env: dict, spans: Path) -> tuple[dict, dict]:
    import tracer  # the metric list only; tracer imports numpy, not the program

    res = launch(args, workdir, env, "--spans", str(spans))
    units = dict(tracer.per_layer_names())
    metrics = {name: {"value": res["per_layer"][name], "unit": unit}
               for name, unit in units.items()}
    notes = {
        "trace.overhead_frac": f"traced / untraced pass time - 1 over {res['passes']} pass "
                               f"pairs of {res['jobs_per_pass']} jobs",
    }
    print(f"wait time: {WAIT}")
    print(f"counts repeat across traced passes: {res['counts_repeat']}")
    print(f"probe share of an untraced pass: {res['probe_share']:.3f} "
          f"({res['probe_jobs_per_pass']} of {res['jobs_per_pass']} jobs)")
    details = {k: res[k] for k in ("passes", "jobs_per_pass", "probe_jobs_per_pass",
                                   "probe_share", "plain_pass_s", "traced_pass_s",
                                   "counts_repeat", "counts", "layers", "errors")}
    details["spans_file"] = str(spans.relative_to(ROOT))
    details["wait_ms"] = WAIT
    return metrics, {"notes": notes, "details": details,
                     "correct": res["failed"] == 0 and res["counts_repeat"],
                     "attempted": res["attempted"], "failed": res["failed"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="curvebound benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "curvebound" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no curvebound sources under {ROOT / 'src'}\n")
        return 2

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=results))
    env = worker_env(args.workload)
    try:
        if args.trace:
            metrics, info = per_layer(args, workdir, env, results / f"{stem}.spans.json.gz")
        else:
            metrics, info = end_to_end(args, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']:<6} {info['notes'].get(name, '')}")
    for err in info["details"].get("errors", []):
        print(f"failure: {err}")
    doc = {"meta": metadata(args), "metrics": metrics, "correct": info["correct"],
           "attempted": info["attempted"], "failed": info["failed"], **info["details"]}
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": info["correct"], "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
