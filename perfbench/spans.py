"""Parent-linked spans around calls into the godement modules.

The tracer wraps public functions from outside the package: every module
namespace that binds the same function object gets the same wrapper, so
a call is seen whichever module makes it (``roots.convolve``,
``theorems.convolve`` and the ``convolve`` that ``matfun.make_pd`` looks
up all land in one span name).  Spans stay in memory and are written out
once, when the run ends.  Tracing assumes one thread; the benchmark
keeps the suite on one worker.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager

# span record fields (a list, so the wrapper can fill it in place)
ID, PARENT, OP, NAME, T0, T1, CHILD, EXTRA = range(8)


class Tracer:
    """In-memory spans; a span's self time is its duration minus its children's."""

    def __init__(self, modules=(), targets=None, clock=time.perf_counter):
        self.modules, self.targets = list(modules), dict(targets or {})
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._op = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent[ID] if parent else -1, self._op, name, 0.0, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[T0] = self.clock()
        return rec

    def _close(self, rec: list) -> None:
        rec[T1] = self.clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += rec[T1] - rec[T0]

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; spans inside share its id."""
        outer = self._op
        rec = self._open(name)
        self._op = rec[OP] = rec[ID]
        try:
            yield rec
        finally:
            self._close(rec)
            self._op = outer

    def wrap(self, name: str, fn, label=None, extra=None):
        """Span around fn.  label(args) refines the span name; extra(args, result)
        stores one number on the span (a flop count, an iteration count)."""
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = opened(label(args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(rec)
            if extra is not None:
                rec[EXTRA] = extra(args, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Wrap targets[(module_name, function_name)] = (label, extra) in every
        module that binds that function, and restore the originals on exit."""
        undo = []
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        try:
            for (home, fname), (label, extra) in self.targets.items():
                original = getattr(by_name[home], fname)
                wrapper = self.wrap(f"{home}.{fname}", original, label, extra)
                for mod in self.modules:
                    if mod.__dict__.get(fname) is original:
                        undo.append((mod, fname, original))
                        setattr(mod, fname, wrapper)
            yield self
        finally:
            for mod, fname, original in reversed(undo):
                setattr(mod, fname, original)

    def write(self, path) -> None:
        """JSON lines, gzip-compressed: a suite pass leaves about half a million spans."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "op": rec[OP], "name": rec[NAME],
                    "t0": rec[T0], "t1": rec[T1], "self_s": rec[T1] - rec[T0] - rec[CHILD],
                    "extra": rec[EXTRA],
                }) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, self_s, total_s (inclusive), extra_sum, extra_max."""
    out: dict[str, dict] = {}
    for rec in spans:
        s = out.get(rec[NAME])
        if s is None:
            s = out[rec[NAME]] = {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                  "extra_sum": 0, "extra_max": 0}
        duration = rec[T1] - rec[T0]
        s["calls"] += 1
        s["total_s"] += duration
        s["self_s"] += duration - rec[CHILD]
        if rec[EXTRA] is not None:
            s["extra_sum"] += rec[EXTRA]
            s["extra_max"] = max(s["extra_max"], rec[EXTRA])
    return out
