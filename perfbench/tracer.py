"""Span tracing of the domdimlab layers from outside the package.

``Tracer.install()`` replaces every public function of the five layer
modules (``exactmath``, ``quivalg``, ``homology``, ``nakayama``,
``rigidity``) with a timing wrapper, wherever the function is bound: in
its own module and under any name another ``domdimlab`` module imported
it as (``homology.matmul_rows`` is ``exactmath.matmul_rows``).  Public
methods of the classes in ``METHOD_CLASSES`` are wrapped on the class.
``uninstall()`` puts every original object back.

Spans live in memory as four parallel arrays (name id, parent span id,
start, end); nothing is written until ``save()``.  A span's self time is
its duration minus the durations of its direct children; a layer's self
time is the sum over the spans of functions *defined* in that layer.
Spans opened by the harness itself (one per benchmark item) belong to
the pseudo-layer ``harness``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("exactmath", "quivalg", "homology", "nakayama", "rigidity")

# Classes whose public methods are traced.  The value types (FieldSpec,
# NakAlgebra, NakModule, BoundedValue) are left alone: their accessors
# are called millions of times, cost less than a wrapper, and their time
# already lands in the calling layer.
METHOD_CLASSES = {
    "exactmath": ("SpanBuilder", "Matrix"),
    "quivalg": ("AlgebraTable",),
    "homology": ("Representation", "MinimalResolution"),
}

_MARK = "__perfbench_wrapped__"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "domdimlab" or name.startswith("domdimlab."))]


def _layer_of(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if mod.startswith("domdimlab."):
        layer = mod.split(".", 1)[1]
        if layer in LAYERS:
            return layer
    return None


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def require(self, name: str) -> None:
        """Fail unless ``name`` is a traced function, so that a renamed
        function cannot read as zero work."""
        if name not in self._name_ids:
            raise LookupError(f"{name} is not traced; was it renamed or removed?")

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, qualname: str, layer: str):
        nid = self.name_id(qualname, layer)
        hook = _HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer, args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(val):
                    continue
                layer = _layer_of(val)
                if layer is None or inspect.isgeneratorfunction(val) or val.__name__.startswith("_"):
                    continue
                w = wrappers.get(id(val))
                if w is None:
                    w = wrappers[id(val)] = self._wrap(val, f"{layer}.{val.__name__}", layer)
                self._restore.append((mod, attr, val))
                setattr(mod, attr, w)
        for layer, classes in METHOD_CLASSES.items():
            mod = sys.modules[f"domdimlab.{layer}"]
            for cname in classes:
                cls = getattr(mod, cname, None)
                if cls is None:
                    self.uninstall()
                    raise LookupError(f"domdimlab.{layer}.{cname} is gone; update METHOD_CLASSES")
                for attr, val in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(val):
                        continue
                    if inspect.isgeneratorfunction(val):
                        continue
                    self._restore.append((cls, attr, val))
                    setattr(cls, attr, self._wrap(val, f"{layer}.{cname}.{attr}", layer))
        try:
            for name in _HOOKS:
                self.require(name)
        except LookupError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------
    def arrays(self):
        n = len(self.span_start)
        start = np.frombuffer(self.span_start, dtype=np.float64, count=n)
        end = np.frombuffer(self.span_end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        return name, parent, start, end

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (duration minus direct children)."""
        name, parent, start, end = self.arrays()
        n = len(start)
        if n == 0:
            return {}
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        per_name = np.bincount(name, weights=own, minlength=len(self.names))
        return {self.names[i]: float(per_name[i]) for i in range(len(self.names))}

    def total_times(self) -> dict[str, float]:
        """Summed span durations per name (wall time for non-recursive functions)."""
        name, _, start, end = self.arrays()
        per_name = np.bincount(name, weights=end - start, minlength=len(self.names))
        return {self.names[i]: float(per_name[i]) for i in range(len(self.names))}

    def call_counts(self) -> dict[str, int]:
        name, _, _, _ = self.arrays()
        counts = np.bincount(name, minlength=len(self.names))
        return {self.names[i]: int(counts[i]) for i in range(len(self.names))}

    def save(self, path: str, meta: dict) -> None:
        """Write every span, with parent ids, to a compressed ``.npz`` file."""
        name, parent, start, end = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, name=name, parent=parent, start=start, end=end,
            names=np.array(self.names), layers=np.array(self.name_layer),
            meta=np.array(json.dumps(meta, sort_keys=True)),
        )


# Counters read from arguments and results at the boundary they describe.
def _rref_cells(t: Tracer, args, _res):
    rows = args[1]
    t.count("exactmath.rref.cells", len(rows) * (len(rows[0]) if rows else 0))


def _matmul_cells(t: Tracer, args, _res):
    a, b = args[1], args[2]
    t.count("exactmath.matmul.cells", len(a) * len(b) * (len(b[0]) if b else 0))


def _span_add(t: Tracer, _args, res):
    if res:
        t.count("exactmath.span.useful")


def _cover(t: Tracer, _args, res):
    t.count("homology.cover.dim_sum", res.P.dim)


def _graph(t: Tracer, _args, res):
    t.count("rigidity.graph.vertices", len(res.vertices))
    t.count("rigidity.graph.edges", sum(bin(a).count("1") for a in res.adjacency) // 2)


def _table(t: Tracer, _args, res):
    t.count("quivalg.table_d3_cells", res.dim ** 3)


_HOOKS = {
    "exactmath.rref_rows": _rref_cells,
    "exactmath.matmul_rows": _matmul_cells,
    "exactmath.SpanBuilder.add": _span_add,
    "homology.projective_cover": _cover,
    "rigidity.compat_graph": _graph,
    "quivalg.make_table": _table,
}


def wrapped_attributes() -> list[str]:
    """Every module or class attribute of the package that is a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if getattr(val, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    if getattr(cval, _MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
