"""Strict JSON problem documents: {"a": [[...]], "b": [...], "x_true": [...]?}."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParseError
from .linalg import LinearSystem


@dataclass(frozen=True)
class ProblemDocument:
    a: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    x_true: Optional[tuple[float, ...]]

    def system(self) -> LinearSystem:
        return LinearSystem(a=np.array(self.a), b=np.array(self.b))


def strict_json(text: str, what: str) -> object:
    """json.loads that rejects NaN/Infinity constants and duplicate keys."""

    def reject_const(name: str) -> float:
        raise ParseError(f"non-finite constant {name} in {what} document")

    def no_dupes(pairs):
        d = {}
        for key, val in pairs:
            if key in d:
                raise ParseError(f"duplicate key {key!r}")
            d[key] = val
        return d

    try:
        return json.loads(text, parse_constant=reject_const, object_pairs_hook=no_dupes)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad {what} JSON: {exc}") from exc


def _number(value: object, where: str) -> float:
    # bool is an int subclass; a document saying true is a mistake
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {where!r} must contain numbers")
    try:
        v = float(value)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ParseError(f"field {where!r} contains a non-finite value")
    return v


def parse_problem(text: str) -> ProblemDocument:
    doc = strict_json(text, "problem")
    if not isinstance(doc, dict):
        raise ParseError("problem document must be a JSON object")
    extra = set(doc) - {"a", "b", "x_true"}
    if extra:
        raise ParseError(f"unknown field {sorted(extra)[0]!r}")
    if "a" not in doc or "b" not in doc:
        missing = "a" if "a" not in doc else "b"
        raise ParseError(f"missing field {missing!r}")

    rows = doc["a"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("field 'a' must be a non-empty list of rows")
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ParseError("field 'a' must be square")
    a = tuple(tuple(_number(v, "a") for v in row) for row in rows)

    bvec = doc["b"]
    if not isinstance(bvec, list) or len(bvec) != n:
        raise ParseError(f"field 'b' must be a list of length {n}")
    b = tuple(_number(v, "b") for v in bvec)

    x_true = None
    if "x_true" in doc and doc["x_true"] is not None:
        xt = doc["x_true"]
        if not isinstance(xt, list) or len(xt) != n:
            raise ParseError(f"field 'x_true' must be a list of length {n}")
        x_true = tuple(_number(v, "x_true") for v in xt)
    return ProblemDocument(a=a, b=b, x_true=x_true)


def load_problem(path: str) -> ProblemDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())
