"""Span tracer that wraps the public functions of each packgraph module.

A span is recorded at every call of a wrapped function: the operation it
belongs to, its parent span, the qualified function name, start and end
(``time.perf_counter``), whether an exception left the call, and an optional
size.  Spans stay in memory until ``dump`` writes them out.

Installing the tracer rebinds every name that refers to a wrapped function:
module attributes in every packgraph module (``from .matching import
max_weight_perfect_matching`` binds the same function in ``cycle_packing``,
``oracles`` and ``fixtures``) and values of module-level dicts
(``cli.TSP_SOLVERS``).  Default arguments such as
``tsp_solver=exact_max_tsp`` are bound when the function is defined and are
not rebound, so callers pass ``tsp.exact_max_tsp`` explicitly.
Generator functions are left unwrapped: their work runs after the call
returns, so it is charged to the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "graph",
    "matching",
    "tsp",
    "cycle_packing",
    "path_packing",
    "oracles",
    "reductions",
    "fixtures",
    "cli",
)

# span fields
OP, PARENT, NAME, START, END, ERROR, SIZE = range(7)

# functions whose call size is recorded: the matching engine's vertex count
_SIZE_OF = {
    "matching.max_weight_perfect_matching_matrix": lambda args, kwargs: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        size_of = _SIZE_OF.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [self.op, stack[-1] if stack else -1, name, clock(), 0.0, 0, None]
            if size_of is not None:
                rec[SIZE] = size_of(args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = 1
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"packgraph.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrapped[obj] = self._wrap(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "packgraph" and not modname.startswith("packgraph."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._undo.append((setattr, mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]
                            self._undo.append((dict.__setitem__, obj, key, val))

    def uninstall(self) -> None:
        while self._undo:
            put, target, key, original = self._undo.pop()
            put(target, key, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list) -> dict:
    """Per-layer and per-function calls, self time and errors.

    Self time is a span's duration minus the durations of its direct children;
    in one thread children nest inside their parent, so that is the part of
    the interval no child covers.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
    funcs = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "sizes": []})
    for i, rec in enumerate(spans):
        self_s = rec[END] - rec[START] - child[i]
        layer = rec[NAME].split(".", 1)[0]
        for row in (layers[layer], funcs[rec[NAME]]):
            row["calls"] += 1
            row["self_s"] += self_s
        layers[layer]["errors"] += rec[ERROR]
        if rec[SIZE] is not None:
            funcs[rec[NAME]]["sizes"].append(rec[SIZE])
    return {"layers": dict(layers), "funcs": dict(funcs)}
