"""Runtime span tracer for the traced run.

``Tracer.install`` wraps, in place, every public function that one
``chordshapes`` module imports from another (those calls are the layer
boundaries), plus the entry points the benchmark itself calls.  A span
is ``(name, start, end, parent, request)``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``request`` the index of the
top-level span the call belongs to.  Spans stay in memory until
``write``.  Nothing here runs unless the traced run asks for it, so the
untraced measurement sees the program exactly as shipped.
"""

from __future__ import annotations

import importlib
import json
import types
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "diagram",
    "fatgraph",
    "shapes",
    "bijections",
    "series",
    "enumeration",
    "sampling",
    "cli",
)

# Functions that are also wrapped inside their own module, so calls from
# the same module are spans too: the benchmark's entry points, and
# per-call costs that ROADMAP items name.
OWN_MODULE = {
    "diagram": ("parse_diagram",),
    "series": ("w_gf", "fiber_gf"),
    "enumeration": ("enumerate_shapes",),
    "sampling": ("build_table",),
    "cli": ("main",),
}
METHODS = {
    "sampling": (("BishapeSampler", "__init__"), ("BishapeSampler", "draw"),
                 ("SampleStats", "record")),
    "series": (("PowerSeries", "__mul__"),),
}


class Tracer:
    def __init__(self, now=perf_counter) -> None:
        self.now = now
        self.spans: list = []
        self._stack: list[int] = []
        self._wrapped: dict[int, object] = {}

    def wrap(self, name: str, fn):
        """A wrapper that records one span per call of ``fn``."""
        if id(fn) in self._wrapped:
            return self._wrapped[id(fn)]
        spans, stack, now = self.spans, self._stack, self.now

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            request = stack[0] if stack else idx
            spans.append(None)
            stack.append(idx)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[idx] = (name, start, end, parent, request)

        self._wrapped[id(fn)] = traced
        return traced

    def install(self, package) -> None:
        modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS
        }
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home in LAYERS and home != layer:
                    setattr(mod, attr, self.wrap(f"{home}.{attr}", obj))
        for layer, names in OWN_MODULE.items():
            mod = modules[layer]
            for attr in names:
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", getattr(mod, attr)))
        for layer, pairs in METHODS.items():
            for cls_name, attr in pairs:
                cls = getattr(modules[layer], cls_name)
                fn = self.wrap(f"{layer}.{cls_name}.{attr}", vars(cls)[attr])
                setattr(cls, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[k]
        return dict(out)

    def write(self, path) -> None:
        """One JSON list per line: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(summary: dict) -> dict[str, float]:
    """``<layer>.calls``, ``<layer>.self_s`` and the per-call means the
    benchmark names, from a ``Tracer.summary``."""
    m: dict[str, float] = {}
    for layer in LAYERS:
        rows = [r for n, r in summary.items() if n.split(".")[0] == layer]
        m[f"{layer}.calls"] = sum(r["calls"] for r in rows)
        m[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)

    def mean_us(name: str) -> float:
        row = summary.get(name)
        return 1e6 * row["total_s"] / row["calls"] if row else 0.0

    def calls(name: str) -> int:
        row = summary.get(name)
        return row["calls"] if row else 0

    m["diagram.parse_diagram_us"] = mean_us("diagram.parse_diagram")
    m["fatgraph.classify_loops_us"] = mean_us("fatgraph.classify_loops")
    m["fatgraph.boundary_components_us"] = mean_us("fatgraph.boundary_components")
    m["shapes.project_shape_us"] = mean_us("shapes.project_shape")
    m["shapes.as_shape_calls"] = calls("shapes.as_shape")
    m["series.mul_calls"] = calls("series.PowerSeries.__mul__")
    m["series.fiber_gf_calls"] = calls("series.fiber_gf")
    load = summary.get("sampling.build_table")
    m["sampling.table_load_s"] = load["total_s"] if load else 0.0
    init = summary.get("sampling.BishapeSampler.__init__")
    m["sampling.sampler_init_s"] = init["total_s"] if init else 0.0
    return m
