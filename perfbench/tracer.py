"""Outside-in tracer for dmncheck functions.

The library records no spans of its own, so the benchmark wraps each
named function in every ``dmncheck`` module attribute bound to it.
Rebinding every attribute matters: ``check_correct`` reaches
``render_box`` and ``masked_by`` through names imported into its own
module, and a recursive function calls itself through its module
global.  Each call becomes a span (id, parent id, trace id, start,
end), kept in compact arrays and written out at the end.  A function
a later version removes or renames is listed as absent, not an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "dmncheck"
ROOT = "bench.op"


class Tracer:
    def __init__(self, names):
        self.names = list(names) + [ROOT]
        self.absent: list[str] = []
        self.trace_id = 0
        self._patches: list[tuple] = []
        self._stack: list[int] = []
        self._depth = [0] * len(self.names)
        self._next_id = 0
        # One entry per finished span; "nested" marks a call made
        # inside another call of the same function.
        self.ids = array("q")
        self.parents = array("q")
        self.traces = array("q")
        self.funcs = array("i")
        self.nested = array("b")
        self.starts = array("d")
        self.ends = array("d")

    def __len__(self) -> int:
        return len(self.ids)

    def install(self) -> None:
        modules = [module for key, module in list(sys.modules.items())
                   if module is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for index, name in enumerate(self.names[:-1]):
            module_name, _, attr = name.rpartition(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def remove(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _enter(self, index: int) -> tuple:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        nested = self._depth[index] > 0
        self._depth[index] += 1
        self._stack.append(sid)
        return sid, parent, nested

    def _exit(self, index: int, sid: int, parent: int, nested: bool,
              start: float, end: float) -> None:
        self._stack.pop()
        self._depth[index] -= 1
        self.ids.append(sid)
        self.parents.append(parent)
        self.traces.append(self.trace_id)
        self.funcs.append(index)
        self.nested.append(nested)
        self.starts.append(start)
        self.ends.append(end)

    def _wrap(self, index: int, fn):
        enter, leave, clock = self._enter, self._exit, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, nested = enter(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(index, sid, parent, nested, start, clock())

        return wrapper

    @contextmanager
    def op(self, trace_id: int):
        """Root span of one benchmark operation."""
        self.trace_id = trace_id
        index = len(self.names) - 1
        sid, parent, nested = self._enter(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, sid, parent, nested, start, time.perf_counter())

    def summary(self) -> dict[int, dict[str, dict]]:
        """Per trace id, per function: calls, total_s and self_s.

        total_s counts only outermost calls of a function; self_s is a
        span's duration minus the durations of its child spans.
        """
        child_time: dict[int, float] = {}
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: dict[int, dict[str, dict]] = {}
        for sid, trace, func, nested, start, end in zip(
                self.ids, self.traces, self.funcs, self.nested,
                self.starts, self.ends):
            per_fn = out.setdefault(trace, {})
            row = per_fn.get(func)
            if row is None:
                row = per_fn[func] = {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0}
            duration = end - start
            row["calls"] += 1
            if not nested:
                row["total_s"] += duration
            row["self_s"] += duration - child_time.get(sid, 0.0)
        return {trace: {self.names[func]: row for func, row in per_fn.items()}
                for trace, per_fn in out.items()}

    def write(self, stem) -> None:
        """All spans: ``<stem>.json`` names the functions and columns,
        ``<stem>.bin`` holds each column's array, in that order."""
        columns = (("id", self.ids), ("parent", self.parents),
                   ("trace", self.traces), ("function", self.funcs),
                   ("nested", self.nested), ("start_s", self.starts),
                   ("end_s", self.ends))
        with open(f"{stem}.bin", "wb") as out:
            for _, values in columns:
                values.tofile(out)
        with open(f"{stem}.json", "w", encoding="utf-8") as out:
            json.dump({"functions": self.names, "spans": len(self),
                       "columns": [[name, values.typecode, values.itemsize]
                                   for name, values in columns]},
                      out, indent=2)
