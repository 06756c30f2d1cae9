"""Spans around calls into gapflow's modules, installed from outside the program.

A span wraps one function; every module attribute that refers to the function
is swapped for the wrapper while the tracer is installed, so calls made
through ``from .x import f`` bindings are caught too. Spans are aggregated per
name as they close (calls, total seconds, self seconds, exceptions) rather
than kept one by one: a traced ensemble closes millions of step spans.

A span's self time is its duration minus the time covered by the spans it
opened. The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class SpanTotals:
    __slots__ = ("calls", "total", "self", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0


class Tracer:
    """Aggregated spans plus counters filled in by per-span hooks.

    A hook is called as ``hook(args, kwargs, result, parent)`` after its span
    closes without an exception; ``parent`` is the name of the enclosing span
    or None.
    """

    def __init__(self):
        self.totals: dict[str, SpanTotals] = defaultdict(SpanTotals)
        self.counters: dict[str, float] = defaultdict(float)
        self._frames: list[list] = []          # open spans: [name, child seconds]
        self._targets: list[tuple[object, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        totals = self.totals[name]
        frames = self._frames

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                totals.errors += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][1] += elapsed
                totals.calls += 1
                totals.total += elapsed
                totals.self += elapsed - frame[1]
            if hook is not None:
                hook(args, kwargs, result, frames[-1][0] if frames else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, module, attr: str, name: str, hook=None, everywhere: bool = True):
        """Trace ``module.attr`` under ``name``.

        With ``everywhere`` every loaded ``gapflow`` module that binds the same
        object is patched as well; otherwise only ``module`` is.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, hook)
        holders = [module]
        if everywhere:
            holders = [m for key, m in list(sys.modules.items())
                       if (key == "gapflow" or key.startswith("gapflow.")) and m is not None]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._targets.append((holder, key, wrapper))

    def install(self):
        for holder, key, wrapper in self._targets:
            self._saved.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapper)

    def uninstall(self):
        while self._saved:
            holder, key, value = self._saved.pop()
            setattr(holder, key, value)

    def by_layer(self, field: str) -> dict[str, float]:
        """Sum of one SpanTotals field (``self`` or ``errors``) per layer."""
        out: dict[str, float] = defaultdict(float)
        for name, tot in self.totals.items():
            out[name.split(".", 1)[0]] += getattr(tot, field)
        return out
