"""Span tracing around the public functions of the qkdlab layers.

A ``Tracer`` patches module attributes with timing wrappers for the
duration of a ``with tracer.installed(targets):`` block, so nothing under
``src/`` changes.  Each function is wrapped under every binding its callers
look it up by: ``cli`` calls its own ``load_config`` binding, while
``run_stability`` looks up the module global ``mcsim.run_session``.

Spans stay in memory (name, start, end, parent span, pass id, counts) and
are written out as JSON lines when the benchmark ends.  ``on_end``, if
set, is called as each span closes; the harness takes its host-speed
reference samples there, between the program's operations.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "counts")

    def __init__(self, span_id, name, start, parent, run):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run, "counts": self.counts,
        }


class Tracer:
    """Collects spans; the parent of a span is the innermost open span on
    the same thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.on_end = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        s = Span(next(self._ids), name, time.perf_counter(), stack[-1] if stack else None, self.run)
        stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)
            if self.on_end is not None:
                self.on_end()

    def wrap(self, fn, name: str, count=None):
        """``count(args, kwargs, result)`` returns the counts recorded on
        the span, measured where the work happens."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.counts = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``(module, attribute, span name, count)`` targets; restore
        the originals on exit."""
        saved = []
        try:
            for module, attr, name, count in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(orig, name, count))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def remap(self, clock) -> None:
        """Replace every span's start and end ``t`` by ``clock(t)``."""
        for s in self.spans:
            s.start, s.end = clock(s.start), clock(s.end)

    def write(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")


class PassSpans:
    """The spans of one workload pass, indexed for per-layer metrics."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        child_time = defaultdict(float)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                child_time[s.parent] += s.duration
        self._child_time = child_time

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.by_name[name]]

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Busy time minus the time covered by child spans.  Children of
        one span run one after another on its thread, so their durations
        add up to the covered part of its interval."""
        return sum(s.duration - self._child_time[s.id] for s in self.by_name[name])

    def count(self, name: str, key: str):
        return sum(s.counts[key] for s in self.by_name[name] if s.counts)
