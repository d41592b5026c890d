"""Span tracing of diracgeo's layers, installed from outside the package.

Every public function of a layer module, and every public or arithmetic
method of a class defined there, is replaced by a wrapper that records one
span per call: (name, start, end, parent span, invocation id).  Spans live
in flat arrays in memory and are written out once, when the benchmark ends.

A name-bound import (``from .charts import metric_jet``) keeps the original
function object after ``charts.metric_jet`` is patched, so a wrapper is
installed on every binding of the same function object: module attributes
of every ``diracgeo`` module, class attributes (``__radd__ = __add__``) and
values of module-level dicts (the suite registry).  Function-local imports
read the patched module attribute when they run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "diracgeo"
LAYERS = ("charts", "curvature", "jets", "clifford", "forms", "bundles",
          "spin", "seiberg_witten", "report", "suites")

# Methods a layer reaches through operators rather than by name.
ARITHMETIC = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__matmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__"})


def _public(name: str) -> bool:
    return not name.startswith("_") or name in ARITHMETIC


def layer_targets() -> dict:
    """Map span name -> function object for every traced function.

    A function bound under two names in its class (``__rmul__ = __mul__``)
    is traced once, under the name it was defined with.
    """
    targets = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)):
                targets[f"{layer}.{name}"] = obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, meth in vars(obj).items():
                    if (inspect.isfunction(meth) and _public(mname)
                            and meth.__name__ == mname
                            and not inspect.isgeneratorfunction(meth)):
                        targets[f"{layer}.{name}.{mname}"] = meth
    return targets


class Tracer:
    """Records nested spans of the traced layer functions of one process."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("q")
        self.invocation = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._inv = [0]
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name_idx: int):
        name_of, parent, invocation = self.name_of, self.parent, self.invocation
        start, end, stack, inv = self.start, self.end, self._stack, self._inv
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_of)
            name_of.append(name_idx)
            parent.append(stack[-1])
            invocation.append(inv[0])
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def set_invocation(self, inv_id: int) -> None:
        self._inv[0] = inv_id

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Bind a wrapper to every name under which a traced function lives."""
        targets = layer_targets()
        wrappers = {}
        for name, fn in targets.items():
            self.names.append(name)
            wrappers[id(fn)] = (fn, self._wrap(fn, len(self.names) - 1))

        def swap(owner, key, value, setter):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setter(owner, key, hit[1])
                self._restore.append((setter, owner, key, value))

        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                swap(mod, key, value, setattr)
                if inspect.isclass(value) and value.__module__ == modname:
                    for ckey, cval in list(vars(value).items()):
                        swap(value, ckey, cval, setattr)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        swap(value, dkey, dval, dict.__setitem__)

    def uninstall(self) -> None:
        for setter, owner, key, value in reversed(self._restore):
            setter(owner, key, value)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.array(self.name_of, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "invocation": np.array(self.invocation, dtype=np.int64),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}

    def summary(self) -> dict:
        """Calls, self and total seconds per span name, and root-span time.

        Self time is a span's duration minus the durations of its child
        spans; spans of one thread nest, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_by_name = np.bincount(a["name"], weights=self_s, minlength=k)
        total_by_name = np.bincount(a["name"], weights=dur, minlength=k)
        return {"calls": dict(zip(self.names, calls.tolist())),
                "self_s": dict(zip(self.names, self_by_name.tolist())),
                "total_s": dict(zip(self.names, total_by_name.tolist())),
                "min_self_s": float(self_s.min()) if len(self_s) else 0.0,
                "root_s": float(dur[~has_parent].sum())}

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())
