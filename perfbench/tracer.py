"""Span tracing installed on the coisotropy modules from outside.

Every public module-level function of the package modules (plus the
row worker ``classify._run_row``) is replaced by a wrapper that records a
span: id, parent id, name, thread, start and end.  Because ``classify`` and
``cli`` import functions by name, the wrapper is bound into every module
global that refers to the original.  Spans stay in memory; callers write
them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager

LAYERS = ("classify", "cli", "matrep", "mforacle", "linalg", "rootsys", "repdata", "dsl")
EXTRA_TARGETS = (("classify", "_run_row"),)


def _is_target(mod, name: str, obj) -> bool:
    if name.startswith("_"):
        return False
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


class Tracer:
    """Records spans for calls into the package; one per traced pass."""

    def __init__(self, package: str = "coisotropy"):
        self.package = importlib.import_module(package)
        self.modules = {n: importlib.import_module(f"{package}.{n}") for n in LAYERS}
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.paused = False
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self.home_thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.caches = {
            f"{layer}.{name}": obj
            for layer, mod in self.modules.items()
            for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
        }

    def _stack(self) -> list[int]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return stack

    def _cross_thread_parent(self) -> int | None:
        # A span opened on a fresh worker thread was caused by whatever the
        # installing thread is running now (the pool owner, reproduce_table).
        home = self._stacks.get(self.home_thread)
        try:
            return home[-1] if home else None
        except IndexError:
            return None

    def _wrap(self, qualname: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            tid = threading.get_ident()
            stack = self._stack()
            parent = stack[-1] if stack else (
                None if tid == self.home_thread else self._cross_thread_parent()
            )
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, qualname, tid, start, end))

        return traced

    def install(self) -> None:
        targets: dict[int, tuple[str, object]] = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if _is_target(mod, name, obj):
                    targets[id(obj)] = (f"{layer}.{name}", obj)
        for layer, name in EXTRA_TARGETS:
            obj = getattr(self.modules[layer], name)
            targets[id(obj)] = (f"{layer}.{name}", obj)
        wrappers = {}
        for key, (qualname, obj) in targets.items():
            self.originals[qualname] = obj
            wrappers[key] = self._wrap(qualname, obj)
        for mod in [self.package, *self.modules.values()]:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and targets[id(obj)][1] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    @contextmanager
    def suspended(self):
        """Run benchmark bookkeeping through the wrappers without spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its interval minus the union of its children's intervals.

    Children on other threads may overlap each other; each is clipped to
    the parent's interval before the union is taken.
    """
    bounds = {sid: (start, end) for sid, _, _, _, start, end in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, start, end in spans:
        if parent in bounds:
            p_start, p_end = bounds[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return {
        sid: (end - start) - union_length(children.get(sid, []))
        for sid, (start, end) in bounds.items()
    }


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, self time and total (inclusive) time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, _, start, end in spans:
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[sid]
        agg["total_s"] += end - start
    return out


def cross_thread_busy(spans, home_tid: int) -> float:
    """Time spent in spans that started a worker thread's unit of work."""
    thread_of = {sid: tid for sid, _, _, tid, _, _ in spans}
    busy = 0.0
    for sid, parent, _, tid, start, end in spans:
        if tid != home_tid and (parent is None or thread_of.get(parent) != tid):
            busy += end - start
    return busy
