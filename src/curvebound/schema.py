"""A JSON Schema checker for the CLI's two fixed schemas.

It implements the ten Draft 2020-12 keywords that ``cli.CURVE_SCHEMA`` and
``cli.REPORT_SCHEMA`` use, with jsonschema 4's semantics and messages: the
error raised is the one ``jsonschema.exceptions.best_match`` would pick.  A
schema with any other keyword, an additionalProperties subschema, or a
non-scalar const/enum value raises ValueError, so a schema edit cannot go
unchecked.
"""

from __future__ import annotations

import numbers

_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    # Draft 6 on: integral floats are integers; bools are never numbers
    "integer": lambda x: not isinstance(x, bool) and (
        isinstance(x, int) or isinstance(x, float) and x.is_integer()),
    "null": lambda x: x is None,
    "number": lambda x: not isinstance(x, bool) and isinstance(x, numbers.Number),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}
_SUBSCHEMAS = {"items": lambda v: [v], "properties": dict.values, "oneOf": list}
_SCALAR = (str, int, float, type(None))
_KEYWORDS = ("type", "enum", "const", "minimum", "minItems", "items", "properties",
             "required", "additionalProperties", "oneOf")


class ValidationError(Exception):
    """An instance failed its schema; ``message`` is jsonschema's text."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def _equal(a, b) -> bool:
    """Scalar JSON equality: True and 1 differ, as in jsonschema."""
    return a is b or not isinstance(a, bool) and not isinstance(b, bool) and a == b


def _check_schema(schema: dict) -> None:
    for key, value in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"unsupported schema keyword {key!r}")
        if key == "additionalProperties" and not isinstance(value, bool):
            raise ValueError("additionalProperties must be true or false")
        if key in ("const", "enum") and not all(
                isinstance(v, _SCALAR) for v in ([value] if key == "const" else value)):
            raise ValueError(f"{key} values must be JSON scalars")
        for sub in _SUBSCHEMAS[key](value) if key in _SUBSCHEMAS else ():
            _check_schema(sub)


def _errors(x, schema: dict, path: tuple):
    """Every failure as (path, keyword, message, type matched, context), in
    jsonschema's order: schema keys in turn, subschemas depth first."""
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    matched = any(_TYPES[t](x) for t in types)

    def fail(key, message, context=()):
        return path, key, message, matched, context

    is_obj = isinstance(x, dict)
    for key, value in schema.items():
        if key == "type" and not matched:
            yield fail(key, f"{x!r} is not of type {', '.join(map(repr, types))}")
        elif key == "enum" and not any(_equal(v, x) for v in value):
            yield fail(key, f"{x!r} is not one of {value!r}")
        elif key == "const" and not _equal(x, value):
            yield fail(key, f"{value!r} was expected")
        elif key == "minimum" and _TYPES["number"](x) and x < value:
            yield fail(key, f"{x!r} is less than the minimum of {value!r}")
        elif key == "minItems" and isinstance(x, list) and len(x) < value:
            yield fail(key, f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}")
        elif key == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                yield from _errors(item, value, path + (i,))
        elif key == "properties" and is_obj:
            for name, sub in value.items():
                if name in x:
                    yield from _errors(x[name], sub, path + (name,))
        elif key == "required" and is_obj:
            for name in value:
                if name not in x:
                    yield fail(key, f"{name!r} is a required property")
        elif key == "additionalProperties" and is_obj and value is False:
            extras = sorted({n for n in x if n not in schema.get("properties", {})}, key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                yield fail(key, f"Additional properties are not allowed "
                                f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif key == "oneOf":
            # context paths are relative to x, as jsonschema's are
            found = [list(_errors(x, sub, ())) for sub in value]
            valid = [sub for sub, errs in zip(value, found) if not errs]
            if not valid:
                yield fail(key, f"{x!r} is not valid under any of the given schemas",
                           [e for errs in found for e in errs])
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                yield fail(key, f"{x!r} is valid under each of {reprs}")


def _relevance(err) -> tuple:
    """jsonschema's ``relevance`` key (it has no strong keywords): the greatest
    is the shallowest error, then the later path, then a keyword other than
    oneOf, then one whose schema's type the instance fails."""
    path, key, _, matched, _ = err
    return -len(path), path, key != "oneOf", not matched


def validate(instance, schema: dict) -> None:
    """Raise the ValidationError that ``jsonschema.validate`` would raise."""
    _check_schema(schema)
    best = max(_errors(instance, schema, ()), key=_relevance, default=None)
    if best is None:
        return
    while best[4]:   # descend into a oneOf's context unless its best two tie
        smallest = sorted(best[4], key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            break
        best = smallest[0]
    raise ValidationError(best[2])
