"""The in-repo schema checker against jsonschema, which stays a test
dependency as its oracle: on a corpus of mutated curve files and reports the
two must accept and reject the same inputs with the same message."""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest

from curvebound import schema
from curvebound.cli import CURVE_SCHEMA, REPORT_SCHEMA, main

jsonschema = pytest.importorskip("jsonschema")

VERTEX_CURVE = {"space": "sphere", "dim": 2, "model": "unit_sphere", "closed": True,
                "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
SAMPLE_CURVE = {"space": "sphere", "dim": 2, "closed": False, "breaks": [1, 2],
                "samples": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
REPORT = {"schema_version": 1, "tool": "curvebound", "tool_version": "0.1.0",
          "command": "certify", "seed": 0, "budget": {"samples": 1000},
          "tolerance": 1e-9, "results": {"verdict": "Certified"}}


def edit(base, drop=(), **changes):
    out = {k: v for k, v in base.items() if k not in drop}
    out.update(changes)
    return out


def named_cases():
    """(name, instance, schema): one case per failure mode the CLI can meet."""
    v = VERTEX_CURVE
    nan_file = json.loads('{"space": "euclidean", "dim": 3, "closed": true,'
                          ' "vertices": [[NaN, 0, Infinity], [1, -Infinity, 0]]}')
    curves = {
        "valid vertices": v,
        "valid samples": SAMPLE_CURVE,
        "missing space": edit(v, drop=("space",)),
        "missing closed and dim": edit(v, drop=("closed", "dim")),
        "extra key": edit(v, bogus=1),
        "two extra keys": edit(v, zeta=1, alpha=2),
        "vertices and samples": edit(v, samples=[[1.0, 0.0, 0.0]]),
        "neither vertices nor samples": edit(v, drop=("vertices",)),
        "empty vertices": edit(v, vertices=[]),
        "nested-empty vertices": edit(v, vertices=[[]]),
        "empty and nested-empty samples": edit(SAMPLE_CURVE, samples=[[1.0], []]),
        "string coordinate": edit(v, vertices=[[1.0, "0", 0.0]]),
        "bool coordinate": edit(v, vertices=[[True, 0.0, 0.0]]),
        "dim 0": edit(v, dim=0),
        "dim 3.0": edit(v, dim=3.0),
        "dim True": edit(v, dim=True),
        "dim 3.5": edit(v, dim=3.5),
        "dim NaN": edit(v, dim=math.nan),
        "breaks [1.0]": edit(SAMPLE_CURVE, breaks=[1.0]),
        "breaks [-1]": edit(SAMPLE_CURVE, breaks=[-1]),
        "breaks not a list": edit(SAMPLE_CURVE, breaks=1),
        "unknown space": edit(v, space="torus"),
        "unknown model": edit(v, model="klein"),
        "closed 1": edit(v, closed=1),
        "NaN and infinities from json.loads": nan_file,
        "not an object": [v],
        "several violations": edit(v, drop=("closed",), dim=0, bogus=1,
                                   vertices=[["x"]]),
    }
    reports = {
        "valid report": REPORT,
        "null seed, budget and tolerance": edit(REPORT, seed=None, budget=None,
                                               tolerance=None),
        "schema_version True": edit(REPORT, schema_version=True),
        "schema_version 1.0": edit(REPORT, schema_version=1.0),
        "schema_version 2": edit(REPORT, schema_version=2),
        "unknown command": edit(REPORT, command="nope"),
        "tool differs": edit(REPORT, tool="other"),
        "seed 1.5": edit(REPORT, seed=1.5),
        "seed False": edit(REPORT, seed=False),
        "tolerance NaN": edit(REPORT, tolerance=math.nan),
        "tolerance True": edit(REPORT, tolerance=True),
        "budget list": edit(REPORT, budget=[1000]),
        "missing results": edit(REPORT, drop=("results",)),
        "extra diagnostics": edit(REPORT, diagnostics={}),
    }
    return ([(name, inst, CURVE_SCHEMA) for name, inst in curves.items()]
            + [(name, inst, REPORT_SCHEMA) for name, inst in reports.items()])


POOL = [True, False, None, 0, -1, 1, 2, 3.0, 3.5, -0.5, math.nan, math.inf, 1e300,
        "", "x", "sphere", "unit_sphere", "totcurv", [], [[]], [1.0], [-1], [[1, "x"]],
        [[0.0, 1.0]], {}, {"a": 1}]
KEYS = ["space", "dim", "model", "vertices", "samples", "closed", "breaks", "extra",
        "schema_version", "tool", "tool_version", "command", "seed", "budget",
        "tolerance", "results"]


def mutate(rng, obj):
    """One random edit: drop, add or replace a key, or replace a nested item."""
    obj = copy.deepcopy(obj)
    if not isinstance(obj, dict):
        return obj
    op = rng.integers(4)
    if op == 0 and obj:
        del obj[list(obj)[rng.integers(len(obj))]]
    elif op == 1:
        obj[KEYS[rng.integers(len(KEYS))]] = POOL[rng.integers(len(POOL))]
    else:
        arrays = [k for k, val in obj.items() if isinstance(val, list) and val]
        if op == 2 and arrays:
            outer = obj[arrays[rng.integers(len(arrays))]]
            i = rng.integers(len(outer))
            if isinstance(outer[i], list) and outer[i] and rng.integers(2):
                outer[i][rng.integers(len(outer[i]))] = POOL[rng.integers(len(POOL))]
            else:
                outer[i] = POOL[rng.integers(len(POOL))]
        elif obj:
            obj[list(obj)[rng.integers(len(obj))]] = POOL[rng.integers(len(POOL))]
    return obj


def random_cases(seed=22, per_base=1000):
    rng = np.random.default_rng(seed)
    cases = []
    for base, sch in ((VERTEX_CURVE, CURVE_SCHEMA), (SAMPLE_CURVE, CURVE_SCHEMA),
                      (REPORT, REPORT_SCHEMA)):
        for _ in range(per_base):
            inst = base
            for _ in range(rng.integers(1, 4)):
                inst = mutate(rng, inst)
            cases.append((inst, sch))
    return cases


def checker_outcome(instance, sch):
    try:
        schema.validate(instance, sch)
    except schema.ValidationError as exc:
        return exc.message
    return None


def oracle_outcome(instance, sch, fast=False):
    """jsonschema.validate's outcome; ``fast`` skips its metaschema check of
    the (fixed, already checked) schema and keeps best_match over iter_errors."""
    if fast:
        err = jsonschema.exceptions.best_match(
            jsonschema.Draft202012Validator(sch).iter_errors(instance))
        return None if err is None else err.message
    try:
        jsonschema.validate(instance, sch)
    except jsonschema.ValidationError as exc:
        return exc.message
    return None


@pytest.mark.parametrize("instance, sch", [pytest.param(inst, sch, id=name)
                                           for name, inst, sch in named_cases()])
def test_named_cases_match_jsonschema(instance, sch):
    assert checker_outcome(instance, sch) == oracle_outcome(instance, sch)


def test_named_cases_accept_exactly_the_valid_ones():
    accepted = {name for name, inst, sch in named_cases() if checker_outcome(inst, sch) is None}
    assert accepted == {"valid vertices", "valid samples", "dim 3.0", "breaks [1.0]",
                        "NaN and infinities from json.loads", "valid report",
                        "null seed, budget and tolerance", "schema_version 1.0",
                        "tolerance NaN"}


def test_random_mutations_match_jsonschema():
    """3000 curve files and reports with one to three random edits each."""
    for sch in (CURVE_SCHEMA, REPORT_SCHEMA):
        jsonschema.Draft202012Validator.check_schema(sch)
    cases = random_cases()
    outcomes = [checker_outcome(inst, sch) for inst, sch in cases]
    assert outcomes == [oracle_outcome(inst, sch, fast=True) for inst, sch in cases]
    rejected = [o for o in outcomes if o is not None]
    assert 0.5 * len(cases) < len(rejected) < len(cases)
    assert any("valid under each of" in o for o in rejected)
    assert any("not valid under any" in o for o in rejected)


def test_unsupported_keywords_raise():
    with pytest.raises(ValueError, match="'maxItems'"):
        schema.validate([], {"type": "array", "maxItems": 3})
    # also where the instance never reaches the subschema
    with pytest.raises(ValueError, match="'pattern'"):
        schema.validate({}, {"properties": {"a": {"type": "string", "pattern": "x"}}})
    with pytest.raises(ValueError, match="additionalProperties"):
        schema.validate({}, {"additionalProperties": {"type": "string"}})
    with pytest.raises(ValueError, match="const"):
        schema.validate([1], {"const": [1]})


def test_cli_rejects_files_with_jsonschema_messages(capsys, tmp_path):
    """Every rejected curve file exits 1 with jsonschema's message."""
    for i, (name, instance, sch) in enumerate(named_cases()):
        expected = oracle_outcome(instance, sch)
        if sch is not CURVE_SCHEMA or expected is None:
            continue
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(instance))
        code = main(["totcurv", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, ""), name
        assert captured.err == (f"curvebound: error: curve file {path} failed schema "
                                f"validation: {expected}\n"), name
