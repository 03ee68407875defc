"""Run alternating parent/change pairs of the benchmark and summarise them.

Usage, from any directory:

    python3 tools/bench_pairs.py --parent PARENT_CHECKOUT --change . \\
        --workload cli-cold --seeds 41-50 --out BENCH_3.json

For each seed it runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, the parent first on even pairs and the
change first on odd ones, and reads the results file each run writes under
``bench/results/``.  T is ``run_seconds`` from the change's ``BENCHMARK.json``,
which also gives the metric directions.  The script then merges one section
for the workload into the output file: the per-pair metric values, each side's
median and quartiles, the number of pairs the change won (ties count for
neither side), the relative change of the medians with whether it stays within
the metric's ``bound`` in the direction ``better`` calls worse, and the per-kind
job medians.  Machine metadata comes from the change's runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

META_KEYS = ("nproc", "machine", "python", "numpy", "scipy", "jsonschema")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    path = checkout / "bench" / "results" / f"{workload}-seed{seed}-trace0.json"
    res = json.loads(path.read_text(encoding="utf-8"))
    if not res["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed {res['failed']} jobs")
    return res


def src_dirty(checkout: Path) -> bool:
    out = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                         capture_output=True, text=True)
    if out.returncode:
        raise SystemExit(f"{checkout}: git status failed: {out.stderr.strip()}")
    return bool(out.stdout.strip())


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(runs: dict[str, list[dict]], specs: list[dict]) -> dict:
    """Per metric: wins, each side's spread, and the median change against the
    metric's bound (positive ``rel_change`` is a rise, whatever ``better`` says)."""
    summary = {}
    for spec in specs:
        name, direction = spec["name"], spec["better"]
        vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        spreads = {side: spread(v) for side, v in vals.items()}
        rel = spreads["change"]["median"] / spreads["parent"]["median"] - 1.0
        summary[name] = {"unit": runs["change"][0]["metrics"][name]["unit"],
                         "better": direction, "wins": wins, "pairs": len(vals["change"]),
                         **spreads, "rel_change": rel,
                         "within_bound": sign * rel <= spec["bound"]}
    return summary


def by_kind(runs: list[dict]) -> dict:
    return {k: statistics.median(r["by_kind"][k]["p50_ms"] for r in runs)
            for k in runs[0]["by_kind"]}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 41-50")
    ap.add_argument("--out", type=Path, required=True, help="BENCH file to create or update")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench_spec = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench_spec["run_seconds"]
    # before the first pair: a checkout that is not a git work tree fails here
    dirty = {side: src_dirty(path) for side, path in sides.items()}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, seconds))
        pair = {"seed": seed, "first": order[0]}
        for side in ("parent", "change"):
            pair[side] = {k: m["value"] for k, m in runs[side][-1]["metrics"].items()}
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    change_meta = runs["change"][0]["meta"]
    doc["machine"] = {k: change_meta[k] for k in META_KEYS}
    doc.setdefault("workloads", {})[args.workload] = {
        "seconds": seconds,
        "blas_threads": change_meta["blas_threads"],
        "commits": {side: {"git_sha": runs[side][0]["meta"]["git_sha"],
                           "src_dirty": dirty[side]} for side in sides},
        "summary": summarise(runs, bench_spec["end_to_end"]),
        "by_kind_p50_ms": {side: by_kind(rs) for side, rs in runs.items()},
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
