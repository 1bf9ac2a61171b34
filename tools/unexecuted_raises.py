"""Count the ``raise`` statements in ``src/equitrans`` that the Tier-1 suite
never executes, per module.

    python tools/unexecuted_raises.py [extra pytest arguments]

Runs ``pytest tests`` in this interpreter under ``sys.settrace`` (so
``coverage`` is not needed), records every line executed in
``src/equitrans``, and prints each ``raise`` that never ran as its
``file:line`` and its source joined onto one line, then the count per module,
most first, and the total.  A ``raise`` counts as run when its first line
runs.  Tests that start a fresh interpreter are not traced.
Expect the suite to take about twice its untraced time.
"""

from __future__ import annotations

import ast
import collections
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equitrans"


def raise_lines() -> dict[str, dict[int, str]]:
    """{source file: {first line of a raise statement: its source on one line}}."""
    out = {}
    for f in sorted(SRC.glob("*.py")):
        text = f.read_text()
        out[str(f)] = {node.lineno: " ".join(ast.get_source_segment(text, node).split())
                       for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)}
    return out


def main(pytest_args) -> int:
    targets = raise_lines()
    executed = collections.defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in targets else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    counts = collections.Counter()
    for path, lines in targets.items():
        module = Path(path).stem
        for line in sorted(lines.keys() - executed[path]):
            print(f"src/equitrans/{module}.py:{line}: {lines[line]}")
            counts[module] += 1
    print(" ".join(f"{module} {n}" for module, n in
                   sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))))
    print(f"total {sum(counts.values())}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
