"""The benchmark's tracer wraps library functions by name: bench/tracer.py's
``install`` looks up every name in its LAYERS table, ``mobius.minimize`` and
``cli.jsonschema.validate``, so deleting or renaming any of them breaks every
traced benchmark run.  The tracer source is compiled in memory, so nothing is
written under bench/."""

from __future__ import annotations

import importlib
from pathlib import Path

import curvebound.cli as cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_namespace() -> dict:
    namespace = {"__name__": "tracer_under_test"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_exists():
    layers = tracer_namespace()["LAYERS"]
    assert layers
    missing = [f"{mod}.{fn}" for mod, funcs in layers.items() for fn in funcs
               if not callable(getattr(importlib.import_module(f"curvebound.{mod}"), fn, None))]
    assert missing == []
    assert callable(importlib.import_module("curvebound.mobius").minimize)
    assert callable(cli.jsonschema.validate)
