"""A span tracer that wraps a package's public functions from outside.

Each public function of a traced module is replaced, in every module
namespace and module-level dict of the package that refers to it, by a
wrapper that records one span: name, start, end and parent span.  Spans are
kept in flat arrays in memory and written out once, at the end, together with
their self times.  Nothing inside the traced package is edited.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Iterable, Mapping, Optional, Sequence

# observer(args, kwargs, result) runs after a wrapped call returns
Observer = Callable[[tuple, dict, object], None]


def self_times(parents: Sequence[int], durations: Sequence[int]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    `parents[i]` is the index of span i's parent, or -1 for a root span.
    Children run inside their parent on one thread, so they never overlap
    and their summed duration is the part of the parent they cover.
    """
    covered = [0] * len(durations)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += durations[i]
    return [d - c for d, c in zip(durations, covered)]


class Tracer:
    """Records spans for the public functions of `package.<layer>` modules.

    `only`, when given, limits wrapping to those qualified names
    (`layer.function`); a name asked for that does not exist is reported in
    `absent` rather than raising, so a benchmark keeps working after the
    program drops a function.
    """

    def __init__(
        self,
        package: str,
        layers: Sequence[str],
        only: Optional[Iterable[str]] = None,
        observers: Optional[Mapping[str, Observer]] = None,
    ) -> None:
        self.package = package
        self.layers = list(layers)
        self.only = set(only) if only is not None else None
        self.observers = dict(observers or {})
        self.names: list[str] = []
        self.span_name = array.array("q")
        self.span_parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.absent: list[str] = []
        self.observer_errors: dict[str, str] = {}
        self._stack: list[int] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        originals: dict[str, Callable] = {}
        for layer in self.layers:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if self.only is None or qual in self.only:
                    originals[qual] = obj
        if self.only is not None:
            self.absent += sorted(self.only - set(originals))
        replacement = {
            id(fn): (fn, self._wrap(qual, fn)) for qual, fn in originals.items()
        }
        for mod in self._package_modules():
            for attr, val in list(vars(mod).items()):
                hit = replacement.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = replacement.get(id(item))
                        if hit is not None and hit[0] is item:
                            val[key] = hit[1]

    def wrap_reference(self, layer: str, attr: str, span: str) -> bool:
        """Add a span named `span` around calls made through `layer.attr` only.

        This separates one call site of a shared function, such as the
        concatenations a module makes through its own imported name.
        Returns False, and records `span` as absent, when the name is gone.
        """
        mod = sys.modules.get(f"{self.package}.{layer}")
        fn = getattr(mod, attr, None) if mod is not None else None
        if not callable(fn):
            self.absent.append(span)
            return False
        setattr(mod, attr, self._wrap(span, fn))
        return True

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, qual: str, fn: Callable) -> Callable:
        name_idx = len(self.names)
        self.names.append(qual)
        observer = self.observers.get(qual)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.start, self.end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observer is not None:
                self._observe(qual, observer, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, qual, observer, args, kwargs, result) -> None:
        try:
            observer(args, kwargs, result)
        except Exception as exc:  # noqa: BLE001 - a counter must not stop the run
            self.observer_errors.setdefault(qual, f"{type(exc).__name__}: {exc}")

    # -- reading ----------------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def spans_of(self, name: str) -> list[int]:
        """Indices of the spans recorded under `name`, in call order."""
        try:
            idx = self.names.index(name)
        except ValueError:
            return []
        return [i for i, n in enumerate(self.span_name) if n == idx]

    def busy_ns(self, name: str, since_ns: int = 0) -> int:
        """Summed duration of `name`'s spans that start at or after `since_ns`."""
        return sum(
            self.end[i] - self.start[i] for i in self.spans_of(name) if self.start[i] >= since_ns
        )

    def summary(self) -> dict[str, dict[str, object]]:
        """Per name: call count, busy and self nanoseconds, call durations."""
        durs = self.durations()
        selfs = self_times(self.span_parent, durs)
        out: dict[str, dict[str, object]] = {
            name: {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations_ns": []}
            for name in self.names
        }
        for i, n in enumerate(self.span_name):
            rec = out[self.names[n]]
            rec["calls"] += 1
            rec["busy_ns"] += durs[i]
            rec["self_ns"] += selfs[i]
            rec["durations_ns"].append(durs[i])
        return out

    def write_spans(self, path: str, run_id: str) -> None:
        """One CSV row per span; times in ns from the first span's start."""
        durs = self.durations()
        selfs = self_times(self.span_parent, durs)
        t0 = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as f:
            f.write("run_id,span,parent,name,start_ns,end_ns,self_ns\n")
            for i in range(len(self.start)):
                f.write(
                    f"{run_id},{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.start[i] - t0},{self.end[i] - t0},{selfs[i]}\n"
                )
