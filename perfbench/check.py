"""Compare one request's outcome with its golden report.

Rules: pass flags, integers, rationals ("p/q" strings) and other strings
match exactly; other floats match within the request's pinned tolerance;
marker dicts in the golden accept a range instead of a value:

- ``{"$above": t}``: a number (or the string "inf") greater than t, for
  values the program samples and accepts above its own threshold;
- ``{"$at_most": t}``: a number at most t, for measured residuals;
- ``{"$count": true}``: a non-negative integer;
- ``{"$any": true}``: any value, for measured wall time.
"""

from __future__ import annotations

import json
import math


def _number(x):
    if x == "inf":
        return math.inf
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    return None


def _match(actual, gold, tol, path, out):
    if isinstance(gold, dict) and len(gold) == 1 and next(iter(gold)).startswith("$"):
        (kind, bound), = gold.items()
        num = _number(actual)
        ok = {
            "$above": lambda: num is not None and num > bound,
            "$at_most": lambda: num is not None and num <= bound,
            "$count": lambda: type(actual) is int and actual >= 0,
            "$any": lambda: True,
        }[kind]()
        if not ok:
            out.append(f"{path}: {actual!r} fails {kind} {bound!r}")
        return
    if isinstance(gold, bool) or isinstance(gold, str) or gold is None:
        if type(actual) is not type(gold) or actual != gold:
            out.append(f"{path}: {actual!r} != {gold!r}")
        return
    if isinstance(gold, int):
        if type(actual) is not int or actual != gold:
            out.append(f"{path}: {actual!r} != {gold!r}")
        return
    if isinstance(gold, float):
        num = _number(actual)
        if num is None or not abs(num - gold) <= tol:
            out.append(f"{path}: {actual!r} differs from {gold!r} by more than {tol}")
        return
    if isinstance(gold, list):
        if not isinstance(actual, list) or len(actual) != len(gold):
            out.append(f"{path}: expected a list of {len(gold)}, got {actual!r}")
            return
        for i, (a, g) in enumerate(zip(actual, gold)):
            _match(a, g, tol, f"{path}[{i}]", out)
        return
    if isinstance(gold, dict):
        if not isinstance(actual, dict) or set(actual) != set(gold):
            got = sorted(actual) if isinstance(actual, dict) else actual
            out.append(f"{path}: keys {got!r} != {sorted(gold)!r}")
            return
        for k in sorted(gold):
            _match(actual[k], gold[k], tol, f"{path}.{k}", out)
        return
    raise TypeError(f"unsupported golden value at {path}: {gold!r}")


def mismatches(expect: dict, code: int, stdout: str, stderr: str) -> list:
    """Human-readable differences between an outcome and its expectation;
    empty when the request passed."""
    out = []
    if code != expect["exit"]:
        out.append(f"exit code {code} != {expect['exit']}")
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        gold = expect[stream]
        if gold is None:
            if text.strip() and stream == "stdout":
                out.append("unexpected report on stdout")
            continue
        try:
            actual = json.loads(text)
        except json.JSONDecodeError:
            out.append(f"{stream} is not one JSON document")
            continue
        _match(actual, gold, expect["float_tol"], stream, out)
    return out
