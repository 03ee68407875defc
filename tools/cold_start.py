"""Time every subcommand's cold start in two checkouts, alternating them.

Usage, from any directory:

    python3 tools/cold_start.py --parent PARENT_CHECKOUT --change . \\
        --rounds 10 --out BENCH_30.json

The script writes one input file per curve kind into a temporary directory.
It then runs each of the ten subcommands as ``python -m curvebound.cli`` in a
fresh interpreter: cli-cold's eight, plus ``mobius-vol`` and
``extremal-search``.  Each run sees the checkout's ``src`` on ``PYTHONPATH``
and this process's environment, so ``PYTHONDONTWRITEBYTECODE`` and
``PYTHONPYCACHEPREFIX`` are as the caller set them; the output records
whether bytecode was written.  In each round every subcommand runs once per checkout: the
parent goes first on even rounds and the change on odd ones.  Each run's wall
time covers interpreter start, imports and the command.  The script checks
that both checkouts give the same exit code, stdout and stderr.  One more
process per subcommand and checkout lists the ``curvebound`` modules that
``curvebound.cli.main`` has loaded after the run.  The script then merges one
section into the output file.  Per subcommand it holds each side's median and
quartiles in ms, the rounds the change won, the exit code and the two
module lists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# after one curvebound.cli.main(argv) call: the sorted curvebound modules
LOADED_PROBE = """
import contextlib, io, json, sys
import curvebound.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    curvebound.cli.main(json.loads(sys.argv[1]))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "curvebound")))
"""

PENTAGON = [[0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1.3, 0.9, 0.2], [0.5, 1.4, -0.1],
            [-0.3, 0.8, 0.1]]
TREFOIL = [[2.232050807569, -0.133974596216, -1.0], [1.0, 2.0, 1.0],
           [-1.232050807569, -1.866025403784, -1.0], [1.232050807569, -1.866025403784, 1.0],
           [-1.0, 2.0, -1.0], [-2.232050807569, -0.133974596216, 1.0]]


def write_inputs(directory: Path) -> dict[str, str]:
    """A Euclidean pentagon, a spherical triangle, a 256-sample latitude circle
    and a hexagonal trefoil, as curve files."""
    t = 2.0 * np.pi * np.arange(256) / 256
    lat = np.stack([0.8 * np.cos(t), 0.8 * np.sin(t), np.full(256, 0.6)], axis=1)
    docs = {
        "euc": {"space": "euclidean", "dim": 3, "closed": True, "vertices": PENTAGON},
        "tri": {"space": "sphere", "dim": 2, "closed": True,
                "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
        "lat": {"space": "sphere", "dim": 2, "closed": True, "samples": lat.tolist()},
        "trefoil": {"space": "euclidean", "dim": 3, "closed": True, "vertices": TREFOIL},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    return paths


def subcommands(f: dict[str, str]) -> dict[str, list[str]]:
    return {
        "totcurv": ["totcurv", f["euc"]],
        "bounds-check": ["bounds-check", f["tri"]],
        "certify": ["certify", f["euc"], "--seed", "1"],
        "cone-density": ["cone-density", f["euc"], "--point=0.5,0.6,3.0"],
        "hyp-density": ["hyp-density", f["lat"]],
        "h2xr-check": ["h2xr-check", "--seed", "1"],
        "sharpness": ["sharpness", "--m", "2", "--seed", "1"],
        "knot-det": ["knot-det", f["trefoil"], "--seed", "1"],
        "mobius-vol": ["mobius-vol", f["lat"]],
        "extremal-search": ["extremal-search", "--k", "5"],
    }


def env_for(checkout: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def run_once(checkout: Path, argv: list[str]) -> tuple[float, tuple[int, str, str]]:
    """Wall time in ms of one ``python -m curvebound.cli`` process, and its output."""
    env = env_for(checkout)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "curvebound.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    ms = 1e3 * (time.perf_counter() - t0)
    return ms, (proc.returncode, proc.stdout, proc.stderr)


def loaded_modules(checkout: Path, argv: list[str]) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", LOADED_PROBE, json.dumps(argv)],
                          env=env_for(checkout), capture_output=True, text=True, check=True,
                          timeout=300)
    return json.loads(proc.stdout)


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def git_sha(checkout: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                         text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating cold-start times per subcommand")
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True, help="BENCH file to create or update")
    ap.add_argument("--section", default="cold_start", help="section of the output file")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("quartiles need at least two rounds")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {side: {} for side in sides}
    mismatches = []
    codes = {}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        commands = subcommands(write_inputs(Path(tmp)))
        loads = {name: {side: loaded_modules(path, cmd) for side, path in sides.items()}
                 for name, cmd in commands.items()}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name, cmd in commands.items():
                outputs = {}
                for side in order:
                    ms, outputs[side] = run_once(sides[side], cmd)
                    times[side].setdefault(name, []).append(ms)
                if outputs["parent"] != outputs["change"]:
                    mismatches.append({"round": r, "command": name})
                codes[name] = outputs["change"][0]
            print(json.dumps({"round": r, **{side: {n: round(t[n][-1], 1) for n in t}
                                             for side, t in times.items()}}), flush=True)

    per_command = {}
    for name in commands:
        p, c = times["parent"][name], times["change"][name]
        per_command[name] = {
            "argv": [a if not a.startswith(tempfile.gettempdir()) else Path(a).name
                     for a in commands[name]],
            "parent_ms": spread(p),
            "change_ms": spread(c),
            "wins": sum(b < a for a, b in zip(p, c)),
            "rounds": len(c),
            "exit_code": codes[name],
            "modules": loads[name],
        }
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc[args.section] = {
        "what": "python3 tools/cold_start.py, one python -m curvebound.cli process per run",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "writes_bytecode": not sys.flags.dont_write_bytecode,
        "commits": {side: git_sha(path) for side, path in sides.items()},
        "identical_output": not mismatches,
        "mismatches": mismatches,
        "per_command": per_command,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
