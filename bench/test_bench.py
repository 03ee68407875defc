"""Traced runs with the same seed must report identical counts.

Run from the repository root: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "certify-curved", "conformal-search", "sweep-batch")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    doc = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
    return line, doc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_fixed_seed(workload):
    first, first_doc = traced_run(workload, 7)
    second, second_doc = traced_run(workload, 7)
    assert first["correct"] and second["correct"]
    assert first_doc["counts"] == second_doc["counts"]
    counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {k: m["value"] for k, m in second["metrics"].items() if m["unit"] == "count"}
    assert counts["cone.certify_embedded.calls"] > 0
