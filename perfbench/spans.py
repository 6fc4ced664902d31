"""Span recorder for the traced benchmark run.

The library carries no instrumentation, so the traced run replaces public
library functions in the module namespaces where their callers look them
up (``explore.count_points``, ``bounds.classify_simplicity``,
``mumford.cantor_add``, ...) with wrappers that open a span around the
call.  A span records its name, start, end and the span that was open
when it began.  Spans stay in memory and are written out when the run
ends.  A span's self time is its duration minus the time its direct
children cover; counts are recorded by the same wrappers, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open: list[list] = []  # [span index, name, parent, start, child ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)  # filled in by end()
        self._open.append([index, name, parent, perf_counter_ns(), 0])

    def end(self) -> None:
        stop = perf_counter_ns()
        index, name, parent, start, child_ns = self._open.pop()
        duration = stop - start
        self.spans[index] = (name, start, stop, parent)
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if self._open:
            self._open[-1][4] += duration

    # -- patching ------------------------------------------------------------

    def _traced(self, fn, name, count):
        name_of = name if callable(name) else (lambda args, kwargs: name)
        begin, end, counts = self.begin, self.end, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name_of(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Trace ``module.attr``.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``count(counts, args, result)`` updates counters after a call that
        returned.  The wrapper of an ``lru_cache`` function keeps
        ``cache_info`` and the uncached ``__wrapped__``, which can then be
        traced on its own by wrapping the wrapper's ``__wrapped__``.
        """
        original = getattr(module, attr)
        traced = self._traced(original, name, count)
        if hasattr(original, "cache_info"):
            traced.__wrapped__ = original.__wrapped__
            traced.cache_info = original.cache_info
        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def count_calls(self, module, attr: str, name: str) -> None:
        """Count calls of ``module.attr`` under ``name`` without a span."""
        original = getattr(module, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, counted)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @staticmethod
    def call_cost_s(n: int = 20000) -> float:
        """Seconds a traced wrapper adds to one call, timed on a no-op."""
        def noop(*args):
            return None

        traced = Tracer()._traced(noop, lambda args, kwargs: "noop", None)
        t0 = perf_counter_ns()
        for _ in range(n):
            noop(n)
        t1 = perf_counter_ns()
        for _ in range(n):
            traced(n)
        t2 = perf_counter_ns()
        return max(0, (t2 - t1) - (t1 - t0)) / n / 1e9

    # -- results -----------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        """Summed self time of every span named ``<layer>.*``."""
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items()
                   if name.startswith(prefix)) / 1e9

    def write(self, path) -> None:
        names = sorted(self.calls)
        ids = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[ids[n], s, e, p] for n, s, e, p in self.spans]},
                      fh, separators=(",", ":"))
