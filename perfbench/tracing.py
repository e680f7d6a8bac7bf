"""Spans around the public functions of each preordgrp layer.

The benchmark installs a Tracer only in its traced run.  Installing replaces
each wrapped function in every `preordgrp.*` namespace that binds it, since
the modules import each other with `from .intmat import ...`.  Per-element
helpers stay unwrapped (see UNWRAPPED); their time counts as self time of
the wrapped function that calls them.

A span is (function index, start, end, parent span index, op id).  Spans are
kept in memory and written out by `dump` when the run ends.  A span's self
time is its duration minus the durations of the wrapped spans it contains.
"""

import functools
import gzip
import importlib
import inspect
import json
import time

LAYERS = (
    "intmat",
    "fgabelian",
    "finitegroup",
    "preord",
    "monpos",
    "probes",
    "verify",
    "fileformat",
    "cli",
)

# Called per vector, per element or per matrix entry: wrapping them would
# multiply the run time, so the caller's span absorbs their time.
UNWRAPPED = {
    "intmat": {
        "vec_add", "vec_sub", "vec_neg", "vec_dot", "vec_is_zero",
        "row_times_matrix", "xgcd", "solve_left", "in_rowspan_reduced",
    },
    "fgabelian": {"apply", "element_eq", "is_zero_element"},
}


class Tracer:
    def __init__(self):
        self.names = []  # function index -> "layer.function"
        self.calls = []
        self.self_s = []
        self.spans = []
        self.stack = []  # [span index, start, time in child spans]
        self.op = -1
        self.active = False
        self.budget_exhausted = {}  # function name -> ResourceLimitErrors raised
        self.nonneg_keys = set()
        self.zero_morphisms = 0
        self.bytes = {"parse_workspace": 0, "format_workspace": 0}

    # --- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public function of the layers; returns the count."""
        from preordgrp.errors import ResourceLimitError

        modules = {layer: importlib.import_module(f"preordgrp.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("preordgrp")] + list(modules.values())
        for layer, mod in modules.items():
            skip = UNWRAPPED.get(layer, set())
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or name in skip or not callable(fn):
                    continue
                if inspect.isclass(fn) or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn, ResourceLimitError)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        setattr(ns, name, wrapper)
        return len(self.names)

    def _wrap(self, label, fn, limit_error):
        index = len(self.names)
        self.names.append(label)
        self.calls.append(0)
        self.self_s.append(0.0)
        short = label.split(".", 1)[1]
        before = {
            "intmat.nonneg_feasible": self._count_query,
            "fileformat.parse_workspace": self._count_parsed,
        }.get(label)
        after = {
            "probes.random_morphism": self._count_zero_map,
            "fileformat.format_workspace": self._count_formatted,
        }.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            span = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except limit_error:
                tracer.budget_exhausted[short] = tracer.budget_exhausted.get(short, 0) + 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.calls[index] += 1
                tracer.self_s[index] += duration - frame[2]
                tracer.spans[span] = (index, frame[1], end, parent, tracer.op)
            if after is not None:
                after(result)
            return result

        return wrapper

    # --- counters measured at the boundary --------------------------------------

    def _count_query(self, gens, modulus, x, *rest, **kwargs):
        self.nonneg_keys.add(hash((gens, modulus, tuple(x))))

    def _count_parsed(self, text, *rest, **kwargs):
        self.bytes["parse_workspace"] += len(text)

    def _count_formatted(self, text):
        self.bytes["format_workspace"] += len(text)

    def _count_zero_map(self, mor):
        from preordgrp import fgabelian

        if hasattr(mor.map, "matrix"):
            m = mor.map.matrix
            zero = all(fgabelian.is_zero_element(mor.cod.group, m.row(i)) for i in range(m.rows))
        else:
            zero = not any(mor.map.mapping)
        self.zero_morphisms += zero

    # --- results ------------------------------------------------------------------

    def stat(self, label):
        """(calls, self seconds) of one wrapped function."""
        i = self.names.index(label)
        return self.calls[i], self.self_s[i]

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for label, s in zip(self.names, self.self_s):
            out[label.split(".", 1)[0]] += s
        return out

    def calibrate(self, n=20000):
        """Seconds one span adds over a direct call, measured on a no-op."""

        def noop():
            return None

        wrapped = self._wrap("calibration.noop", noop, RuntimeError)
        saved = (self.active, len(self.spans))
        self.active = True
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        self.active = saved[0]
        del self.spans[saved[1] :]
        for seq in (self.names, self.calls, self.self_s):
            seq.pop()
        return max(((t1 - t0) - (t2 - t1)) / n, 0.0)

    def dump(self, path):
        """Write the spans as gzip JSON lines: one header, then one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"functions": self.names, "fields": ["function", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
