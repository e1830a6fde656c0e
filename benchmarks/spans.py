"""Spans recorded from outside a program by wrapping its callables.

A ``Tracer`` replaces named functions and methods with wrappers that record
one span per call (name, start, end, parent) in memory. Targets can be
module attributes, class attributes or entries of a dict, so calls that go
through lookup tables and methods are reached too. Leaving ``installed``
puts every original object back.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    value: float | None  # quantity measured from the call, if any

    @property
    def duration(self) -> float:
        return self.end - self.start


def lookup(owner, key):
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Records spans for the calls made through installed wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording a span per call; ``measure(args, result)`` sets its value."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, tracer.clock(), float("nan"),
                        tracer._open[-1] if tracer._open else -1, None)
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._open.pop()
                span.end = tracer.clock()
            if measure is not None:
                span.value = float(measure(args, result))
            return result

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap each ``(span name, owner, key, measure)`` target; restore on exit."""
        saved = []
        try:
            for name, owner, key, measure in targets:
                original = lookup(owner, key)
                saved.append((owner, key, original))
                _set(owner, key, self.wrap(name, original, measure))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for k, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(k)
    out = []
    for k, s in enumerate(spans):
        inside = [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[k]]
        out.append(s.duration - _covered(inside))
    return out


def under(spans: list[Span], root_name: str) -> list[bool]:
    """Whether each span lies strictly inside a span called ``root_name``."""
    flags: list[bool] = []
    for s in spans:  # a parent always precedes its children
        p = s.parent
        flags.append(p >= 0 and (spans[p].name == root_name or flags[p]))
    return flags
