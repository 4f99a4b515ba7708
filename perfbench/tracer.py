"""Outside-in span tracer for the pffcert layers.

The tracer wraps functions of the installed ``pffcert`` modules from the
benchmark's side, so nothing under ``src/`` needs to know about it.  Every
call to a wrapped function records one span: its name, start, end, the span
that was open when it started (its parent), the index of the benchmark
operation it belongs to, and the class of the exception it raised, if any.  Spans are kept
in flat arrays in memory; `summary` turns them into per-name call counts and
self times once the operations have finished.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# The layers, in dependency order; each is a module of the pffcert package.
LAYERS = ("arith", "fpoly", "gf", "smallfield", "pff", "charsum", "sieve")

# Methods traced besides the public module-level functions: the tower
# arithmetic that dominates search, and the engine's table build and masks.
METHODS = {
    ("gf", "FieldTower", "multiply"): "gf.multiply",
    ("gf", "FieldTower", "inverse"): "gf.inverse",
    ("gf", "FieldTower", "power"): "gf.power",
    ("gf", "FieldTower", "frobenius"): "gf.frobenius",
    ("smallfield", "SmallFieldEngine", "__init__"): "smallfield.build",
    ("smallfield", "SmallFieldEngine", "mult_fail_mask"): "smallfield.mask",
    ("smallfield", "SmallFieldEngine", "add_fail_mask"): "smallfield.mask",
    ("smallfield", "SmallFieldEngine", "free_mask"): "smallfield.mask",
    ("smallfield", "SmallFieldEngine", "primitive_mask"): "smallfield.mask",
}

# Work items counted per span name, from the arguments of a finished call.
ITEMS = {"smallfield.build": lambda engine, tower: engine.size}


def traced_targets() -> list[tuple[object, str]]:
    """(function, span name) for every traced callable of the loaded package.

    Public module-level functions are taken from each layer module, including
    ``functools.lru_cache`` wrappers, but only where the module defines them
    itself; names it imports from another layer belong to that layer.
    """
    targets = []
    for layer in LAYERS:
        mod = sys.modules[f"pffcert.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            inner = getattr(obj, "__wrapped__", obj)
            if getattr(inner, "__module__", None) == mod.__name__:
                targets.append((obj, f"{layer}.{name}"))
    for (layer, cls, meth), span in METHODS.items():
        klass = getattr(sys.modules[f"pffcert.{layer}"], cls)
        targets.append((vars(klass)[meth], span))
    return targets


class Tracer:
    """Records spans for the wrapped functions while installed.

    Use as a context manager: entering patches every module and class
    attribute of the ``pffcert`` package that binds a traced function (so
    ``sieve.factor``, bound by ``from .arith import factor``, is patched along
    with ``arith.factor``), and leaving restores the originals.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.exceptions: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("i")  # index into self.exceptions, or -1
        self.start = array("d")
        self.end = array("d")
        self.items: dict[str, int] = {}
        self.current_op = -1
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @staticmethod
    def _intern(table: list[str], name: str) -> int:
        if name not in table:
            table.append(name)
        return table.index(name)

    def wrap(self, fn, span_name: str):
        nid = self._intern(self.names, span_name)
        exceptions = self.exceptions
        items, count = self.items, ITEMS.get(span_name)
        clock = time.perf_counter
        open_spans = self._open
        name_id, parent, op, raised = self.name_id, self.parent, self.op, self.raised
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            op.append(self.current_op)
            raised.append(-1)
            end.append(0.0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    items[span_name] = items.get(span_name, 0) + count(*args, **kwargs)
                return result
            except BaseException as exc:
                raised[idx] = self._intern(exceptions, type(exc).__name__)
                raise
            finally:
                end[idx] = clock()
                open_spans.pop()

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def __enter__(self) -> "Tracer":
        owners = [m for name, m in sys.modules.items() if name == "pffcert" or name.startswith("pffcert.")]
        owners += [c for m in list(owners) for c in vars(m).values()
                   if inspect.isclass(c) and c.__module__.startswith("pffcert")]
        for fn, span_name in traced_targets():
            wrapper = self.wrap(fn, span_name)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patches.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays, one entry per span."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time covered by its child spans.

    Spans come from one thread, so a span's children never overlap and the
    time they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def summary(tracer: Tracer) -> dict[str, dict]:
    """Per traced name, called or not: calls, self_s, total_s, and raised
    (exception class name -> count).

    ``total_s`` sums whole durations, so it double-counts a name that is
    nested inside itself; it is meant for names that never are.
    """
    spans = tracer.arrays()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    ids = spans["name_id"]
    k = len(tracer.names)
    calls = np.bincount(ids, minlength=k)
    self_s = np.bincount(ids, weights=own, minlength=k)
    total_s = np.bincount(ids, weights=spans["end"] - spans["start"], minlength=k)
    out = {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i]), "raised": {}}
        for i, name in enumerate(tracer.names)
    }
    for i in np.nonzero(spans["raised"] >= 0)[0]:
        raised = out[tracer.names[ids[i]]]["raised"]
        exc = tracer.exceptions[spans["raised"][i]]
        raised[exc] = raised.get(exc, 0) + 1
    return out
