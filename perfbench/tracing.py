"""Spans and work counters at the layer boundaries of ``equitrans``.

The tracer replaces every public function of each ``equitrans`` module with
a wrapper that records a span (name, start, end, parent span, request id).
Every cross-module call in the package goes through a module attribute such
as ``linalg.rank(...)``, so the wrappers see each layer boundary; a call
inside one module that goes through a global name is a span of the same
layer, and its time stays in that layer's self time.  Spans stay in memory
until the run writes them out.

Three counters need more than a span:

- ``spectral.path_evals`` counts ``MatrixPath.at`` (RK4 makes 4 per step);
- ``groupoids.action_evals`` counts calls of the ``action`` argument that
  ``quotient_metric`` receives;
- ``transversality.sv_probes`` counts ``linalg.min_singular_value`` calls
  made from the transversality layer, and how many of them clear
  ``transversality.SV_THRESHOLD``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "suites", "reps", "linalg", "spectral", "groupoids", "floer",
          "transversality", "bundles")

# name, layer, start, end, parent span index, request id, outermost call of name
NAME, LAYER, START, END, PARENT, REQUEST, OUTER = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.active = collections.Counter()
        self.counts = collections.Counter()
        self.request = None
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name, value):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def install(self):
        mods = {layer: importlib.import_module(f"equitrans.{layer}")
                for layer in LAYERS}
        for layer, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                inner = fn
                if (layer, name) == ("groupoids", "quotient_metric"):
                    inner = self._counting_action(fn)
                elif (layer, name) == ("linalg", "min_singular_value"):
                    inner = self._sv_probe(fn, mods["transversality"].SV_THRESHOLD)
                self._patch(mod, name, self._span(inner, f"{layer}.{name}", layer))
        table = mods["suites"].SUITES
        for battery, fn in list(table.items()):
            self._patch(table, battery,
                        self._span(fn, f"suites.battery.{battery}", "suites"))
        path_cls = mods["spectral"].MatrixPath
        self._patch(path_cls, "at", self._counter(path_cls.at, "spectral.path_evals"))
        return self

    def uninstall(self):
        for owner, name, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, layer):
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, active[name] == 0]
            spans.append(span)
            stack.append(sid)
            active[name] += 1
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                active[name] -= 1
                stack.pop()

        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_action(self, fn):
        counter = self._counter

        @functools.wraps(fn)
        def wrapper(points, group, action, *args, **kwargs):
            return fn(points, group, counter(action, "groupoids.action_evals"),
                      *args, **kwargs)

        return wrapper

    def _sv_probe(self, fn, threshold):
        counts, spans, stack = self.counts, self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["linalg.min_singular_value.calls"] += 1
            # the caller's span is on top: this wrapper runs inside its own
            caller = spans[stack[-2]][LAYER] if len(stack) > 1 else None
            value = fn(*args, **kwargs)
            if caller == "transversality":
                counts["transversality.sv_probes"] += 1
                counts["transversality.sv_success"] += value > threshold
            return value

        return wrapper

    # -- analysis -----------------------------------------------------------

    def mark(self):
        """Positions to slice one pass out of the trace."""
        return len(self.spans), collections.Counter(self.counts)

    def pass_summary(self, start, counts_before):
        """Per-layer figures of the spans recorded since ``start``."""
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= start:
                child[s[PARENT] - start] += s[END] - s[START]
        self_s = collections.Counter()
        calls = collections.Counter()
        incl = collections.Counter()
        n_calls = collections.Counter()
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            self_s[s[LAYER]] += dur - child[i]
            n_calls[s[NAME]] += 1
            parent_layer = spans[s[PARENT] - start][LAYER] if s[PARENT] >= start else None
            if parent_layer != s[LAYER]:
                calls[s[LAYER]] += 1
            if s[OUTER]:
                incl[s[NAME]] += dur
        counts = collections.Counter(self.counts)
        counts.subtract(counts_before)
        return {"self_s": dict(self_s), "calls": dict(calls), "incl_s": dict(incl),
                "n_calls": dict(n_calls), "counts": dict(counts)}
