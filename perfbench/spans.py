"""In-memory span tracer that wraps functions of the panehr package.

Each wrapped call records a span (name, parent span, start, end) in flat
arrays, so a traced repetition can hold hundreds of thousands of spans
cheaply.  Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.

panehr modules bind names with `from .x import y`, so one function can sit
under several module attributes (`panehr.forests.check_distinguished` and
`panehr.processing.check_distinguished`).  `patch` replaces every attribute
of every panehr module and class that holds the original object, and
`restore` undoes it.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(ident)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[[object], None]] = None) -> Callable:
        """A function that records one span per call of fn."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Like wrap, for a function returning an iterator: one span per
        item produced, counted under `<name>.objects`."""
        def traced(*args, **kwargs):
            return self._iterate(fn(*args, **kwargs), name)
        traced.__wrapped__ = fn
        return traced

    def _iterate(self, it, name: str):
        while True:
            idx = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.counters[name + ".objects"] += 1
            yield item

    # -- installing --------------------------------------------------------

    def patch(self, original: object, replacement: object,
              package: str = "panehr") -> int:
        """Replace `original` by `replacement` wherever a module of the
        package, or a class defined in one, holds it; returns the count."""
        spaces = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package
                                      or modname.startswith(package + ".")):
                continue
            spaces.append(module)
            spaces.extend(v for v in vars(module).values()
                          if isinstance(v, type)
                          and getattr(v, "__module__", "") == modname)
        done = 0
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is original:
                    setattr(space, attr, replacement)
                    self._undo.append((space, attr, original))
                    done += 1
        return done

    def restore(self) -> None:
        for space, attr, original in reversed(self._undo):
            setattr(space, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and the longest span max_s."""
        child = [0.0] * len(self.start)
        for idx in range(len(self.start)):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
            for name in self.names}
        for idx in range(len(self.start)):
            row = out[self.names[self.name_id[idx]]]
            dur = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[idx]
            row["max_s"] = max(row["max_s"], dur)
        return out

    def write(self, path) -> None:
        """Dump every span as `index,parent,name,start_s,end_s` lines."""
        with open(path, "w") as handle:
            handle.write("index,parent,name,start_s,end_s\n")
            for idx in range(len(self.start)):
                handle.write(f"{idx},{self.parent[idx]},"
                             f"{self.names[self.name_id[idx]]},"
                             f"{self.start[idx]:.9f},{self.end[idx]:.9f}\n")
