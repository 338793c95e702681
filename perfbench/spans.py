"""In-memory span tracing of the program's public functions.

A traced run replaces each public function named in ``TARGETS`` (in every
``heisenberg_hls`` module namespace that holds it, so callers that imported
it by name are traced too) with a wrapper that records one span per call:
name, start, end, parent span and a work count (kernel points, coordinate
rows, search iterations).  Spans stay in memory until the run ends; the
per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

import numpy as np


def _size(_args, _kwargs, out):
    return int(np.size(out))


def _rows(_args, _kwargs, out):
    return int(out.shape[0])


def _maximize(_args, _kwargs, out):
    trace = out[2]
    return len(trace.iterations) - 1, sum(trace.accepted[1:])


# (module, attribute, count) where attribute may be "Class.method"; the span
# name is "<module>.<attribute>".  kbar_many counts kernel evaluations,
# norm_coords and multiply_coords count coordinate rows, uniform_ball counts
# the points it returns and Geometry.norm the rows it is handed.
TARGETS = [
    ("quadrature", "build_kernel_table", None),
    ("quadrature", "kbar_many", _size),
    ("quadrature", "weights_row", None),
    ("quadrature", "KernelTable.apply", None),
    ("quadrature", "hls_quotient", None),
    ("quadrature", "bilinear_energy", None),
    ("quadrature", "fractional_integral", None),
    ("quadrature", "fractional_integral_grid", None),
    ("extremal", "maximize", _maximize),
    ("extremal", "euler_lagrange_step", None),
    ("extremal", "renormalize_concentration", None),
    ("extremal", "dilate_grid_function", None),
    ("extremal", "levy_concentration_grid", None),
    ("grids", "lp_norm", None),
    ("montecarlo", "mc_bilinear_energy", None),
    ("montecarlo", "Geometry.uniform_ball", _rows),
    ("montecarlo", "Geometry.norm", _size),
    ("group", "multiply_coords", _rows),
    ("group", "norm_coords", _size),
    ("concentration", "classify_trichotomy", None),
]

MODULES = ["group", "constants", "grids", "quadrature", "montecarlo", "extremal", "concentration"]


class Tracer:
    """Span recorder.  Row i of ``spans`` is
    [name, start, end, parent, count, extra, label]; parent is a row index
    or -1, times are perf_counter seconds."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str, label: str = "") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, 0, 0, label])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, label: str = ""):
        idx = self._open(name, label)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                c = count(args, kwargs, out)
                row = self.spans[idx]
                row[4], row[5] = c if isinstance(c, tuple) else (c, 0)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Patch every target in place; ``uninstall`` restores them."""
        mods = {m: importlib.import_module(f"heisenberg_hls.{m}") for m in MODULES}
        mods["package"] = importlib.import_module("heisenberg_hls")
        for mod_name, attr, count in TARGETS:
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod_name], cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, count))
                continue
            orig = getattr(mods[mod_name], attr)
            wrapped = self._wrap(orig, name, count)
            for holder in mods.values():
                if getattr(holder, attr, None) is orig:
                    self._undo.append((holder, attr, orig))
                    setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    def write(self, path: str):
        """Write the spans as one JSON object of parallel columns."""
        cols = ["name", "start", "end", "parent", "count", "extra", "label"]
        t0 = self.spans[0][1] if self.spans else 0.0
        data = {c: [] for c in cols}
        for row in self.spans:
            for c, v in zip(cols, row):
                data[c].append(round(v - t0, 7) if c in ("start", "end") else v)
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


class SpanIndex:
    """Aggregates over recorded spans."""

    def __init__(self, spans: list):
        self.spans = spans
        self.by_name: dict[str, list[int]] = {}
        for i, row in enumerate(spans):
            self.by_name.setdefault(row[0], []).append(i)

    def ancestor(self, idx: int, pred):
        p = self.spans[idx][3]
        while p >= 0:
            if pred(self.spans[p]):
                return p
            p = self.spans[p][3]
        return -1

    def select(self, name: str, where=None) -> list[int]:
        found = self.by_name.get(name, [])
        return found if where is None else [i for i in found if where(i)]

    def seconds(self, name: str, where=None) -> float:
        """Total duration, counting a span nested in one of the same name once."""
        total = 0.0
        for i in self.select(name, where):
            if self.ancestor(i, lambda s: s[0] == name) < 0:
                total += self.spans[i][2] - self.spans[i][1]
        return total

    def calls(self, name: str, where=None) -> int:
        return len(self.select(name, where))

    def count(self, name: str, where=None) -> int:
        return sum(self.spans[i][4] for i in self.select(name, where))

    def extra(self, name: str, where=None) -> int:
        return sum(self.spans[i][5] for i in self.select(name, where))

    def caller_module(self, idx: int) -> str:
        """Module of the nearest enclosing span outside the group layer."""
        p = self.ancestor(idx, lambda s: not s[0].startswith("group."))
        return self.spans[p][0].split(".")[0] if p >= 0 else ""

    def label(self, idx: int) -> str:
        """Label of the nearest enclosing labeled span."""
        p = self.ancestor(idx, lambda s: bool(s[6]))
        return self.spans[p][6] if p >= 0 else ""
