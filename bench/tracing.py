"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the gasketforms layers from outside the
library.  Each call becomes a span with a name, a duration and the name of
the span that was open when it started; spans are aggregated in memory per
(parent, name) pair, so a traced pass costs memory proportional to the call
graph, not to the number of calls.

A module-level function is re-bound in every gasketforms module that holds
it, because ``from .forms import integrate_path`` makes a second name for the
same object in ``cohomology``; patching only ``forms`` would miss those
calls.  Methods are patched on their class.  ``lru_cache`` statistics are
read from the original cached functions, never from the wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from typing import Callable, Optional

_MIB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, start, child seconds, first call?]
        self.spans: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total s, self s]
        self.first_s: dict[str, float] = {}  # name -> duration of its first call
        self.peak_mib: dict[str, float] = {}  # name -> largest tracemalloc peak of one call
        self._patches: list[tuple[object, str, object, object]] = []

    # -- spans ---------------------------------------------------------------
    def _enter(self, name: str) -> list:
        first = name not in self.first_s
        if first:
            self.first_s[name] = float("nan")
        frame = [name, time.perf_counter(), 0.0, first]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        rec = self.spans.setdefault((parent[0] if parent else "", frame[0]), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[2]
        if frame[3]:
            self.first_s[frame[0]] = duration

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span (used for the root span of each op)."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _wrap(self, name: str, fn: Callable, label: Optional[Callable], memory: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = label(args, kwargs) if label is not None else name
            own_tracemalloc = memory is not None and memory(args, kwargs) and not tracemalloc.is_tracing()
            if own_tracemalloc:
                tracemalloc.start()
            frame = tracer._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                if own_tracemalloc:
                    peak = tracemalloc.get_traced_memory()[1] / _MIB
                    tracemalloc.stop()
                    tracer.peak_mib[span] = max(peak, tracer.peak_mib.get(span, 0.0))

        return traced

    # -- patching ------------------------------------------------------------
    def prepare(self, targets) -> None:
        """Build wrappers for ``(span name, owner, attribute, label, memory)``
        targets and find every binding to patch; ``enable`` applies them.

        ``label(args, kwargs)`` may refine the span name per call and
        ``memory(args, kwargs)`` selects calls whose tracemalloc peak is kept.
        """
        modules = [m for k, m in list(sys.modules.items()) if k == "gasketforms" or k.startswith("gasketforms.")]
        for name, owner, attr, label, memory in targets:
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original, label, memory)
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original, wrapped))

    def enable(self) -> None:
        for site, key, _, wrapped in self._patches:
            setattr(site, key, wrapped)

    def disable(self) -> None:
        for site, key, original, _ in self._patches:
            setattr(site, key, original)

    def reset(self) -> None:
        """Forget the spans recorded so far (the wrappers stay)."""
        self.spans.clear()

    # -- results ---------------------------------------------------------------
    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name over all its parents."""
        calls, self_s = 0, 0.0
        for (_, span), rec in self.spans.items():
            if span == name:
                calls += rec[0]
                self_s += rec[2]
        return calls, self_s

    def summary(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (parent, name), rec in sorted(self.spans.items())
        ]
