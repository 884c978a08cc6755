"""In-memory spans around the program's public calls.

A span records its name, start, end and the span open when it began.
Spans stay in memory and are written out when the run ends. The self
time of a span is its duration minus the time its child spans cover;
calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import contextlib
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``getattr(owner, attr)`` in a span named ``name`` for each
        ``(owner, attr, name)`` and restore the originals on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
        try:
            for (owner, attr, name), (_, _, original) in zip(targets, saved):
                setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of the spans called ``name``, optionally only those
        with an ancestor called ``under``."""
        return [s[2] - s[1] for i, s in enumerate(self.spans)
                if s[0] == name and (under is None or self._has_ancestor(i, under))]

    def total(self, name: str, under: str | None = None) -> float:
        return sum(self.durations(name, under))

    def self_time(self, name: str) -> float:
        """Summed durations of ``name`` spans minus their children."""
        covered = sum(s[2] - s[1] for s in self.spans
                      if s[3] >= 0 and self.spans[s[3]][0] == name)
        return self.total(name) - covered

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


class NullTracer:
    """Tracing off: the same call sites, no records."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    @contextlib.contextmanager
    def patched(self, targets):
        yield
