"""In-memory span tracer installed from outside the program.

Wrappers replace public functions on polyseg's module attributes, the
places where ``cli`` and the library modules look them up at call time, so
nested calls (``train_flatcat`` -> ``viterbi_segment_with_categories``,
``train_crf`` -> ``log_likelihood_and_gradient``) appear as child spans.
A span is (id, name, start, end, parent) plus its self time, i.e. its
duration minus the time its wrapped children took.  Per-word functions
are aggregated: one span per (function, parent span) with a call count.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import sys
import time
import types

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [span, time covered by children]
        self._aggregates: dict[tuple[str, int | None], dict] = {}

    def _open(self, name: str, aggregate: bool, start: float) -> dict:
        parent = self._stack[-1][0]["id"] if self._stack else None
        if aggregate:
            span = self._aggregates.get((name, parent))
            if span is not None:
                return span
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "start": start, "end": start, "total_s": 0.0, "self_s": 0.0,
                "calls": 0, "counts": {}}
        self.spans.append(span)
        if aggregate:
            self._aggregates[(name, parent)] = span
        return span

    def call(self, name: str, fn, args=(), kwargs=None, aggregate=False, count=None):
        """Run ``fn`` inside a span named ``name``; ``count(counts, args,
        kwargs, result)`` may add counters to the span."""
        start = perf_counter()
        span = self._open(name, aggregate, start)
        frame = [span, 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
            took = end - start
            span["end"] = end
            span["total_s"] += took
            span["self_s"] += took - frame[1]
            span["calls"] += 1
            if self._stack:
                self._stack[-1][1] += took
        if count is not None:
            count(span["counts"], args, kwargs or {}, result)
        return result

    def wrap(self, name: str, fn, aggregate=False, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, aggregate, count)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self, package_modules, module, attr: str, name: str,
                aggregate=False, count=None) -> None:
        """Replace ``module.attr`` and every alias of the same function in
        ``package_modules`` (``from .x import f`` copies) by a wrapper."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, aggregate, count)
        for mod in package_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def dump(self) -> list[dict]:
        """The spans as plain data; sets of distinct arguments become
        their sizes."""
        out = []
        for span in self.spans:
            span = dict(span)
            span["counts"] = {k: len(v) if isinstance(v, set) else v
                              for k, v in span["counts"].items()}
            out.append(span)
        return out


def package_modules(package) -> list[types.ModuleType]:
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items())
                        if n.startswith(prefix) and m is not None]
