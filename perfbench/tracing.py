"""In-memory span recording and per-layer self time for the traced runs.

Spans are recorded from the benchmark's side only: :class:`Patch` swaps a
public function or method of the program for a wrapper that opens a span
around each call, and puts the original back afterwards.  Nothing under
``src/`` is edited.  Spans stay in memory until the run ends; the worker
then writes them out as JSON lines.

A span's *self time* is its duration minus the part of its interval that
its direct children cover.  Summing self time per bucket attributes every
covered second to exactly one layer; the root spans' self time is the time
that no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "Patch",
    "wrap",
    "self_times",
    "outer_counts",
    "covered",
]


@dataclass
class Span:
    """One timed call: bucket name, interval, parent and counts."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per-bucket self time: each span's duration minus its children's cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        own = s.duration - covered(s.start, s.end, children.get(s.id, ()))
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def outer_counts(spans: Iterable[Span]) -> dict[str, float]:
    """Summed span counts, skipping spans nested in a span of their bucket.

    A layer entry point that calls another of the same layer (a
    communicator method calling a sibling) must not count its work twice.
    """
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    out: dict[str, float] = {}
    for s in spans:
        if not s.counts:
            continue
        parent = by_id.get(s.parent) if s.parent is not None else None
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is not None:
            continue
        for key, value in s.counts.items():
            out[key] = out.get(key, 0.0) + value
    return out


class Tracer:
    """Records spans of one thread in memory (the worker is single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced iterations."""

    def span(self, name: str) -> contextlib.nullcontext:
        return contextlib.nullcontext()


Counter = Callable[[tuple, dict, Any], dict[str, float]]


def wrap(fn: Callable, tracer: Tracer, name: str, counter: Counter | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                span.counts[key] = span.counts.get(key, 0.0) + value
        return result

    return wrapper


class Patch:
    """Swaps program callables for span-recording wrappers, reversibly.

    ``add(owner, attr, bucket)`` wraps ``owner.attr`` — a module-level
    function (every ``repro`` module that imported the same object by name
    is patched too, so ``from x import f`` call sites are traced) or a
    method of a class (plain, static or class method).
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def add(self, owner: Any, attr: str, bucket: str, counter: Counter | None = None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(owner, type):
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrap(raw.__func__, self.tracer, bucket, counter))
            else:
                wrapped = wrap(raw, self.tracer, bucket, counter)
            self._set(owner, attr, raw, wrapped)
            return
        wrapped = wrap(raw, self.tracer, bucket, counter)
        for module in list(sys.modules.values()):
            mod_name = getattr(module, "__name__", "") or ""
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, key, raw, wrapped)

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner[attr]`` (mapping) to *value*, restored on :meth:`undo`."""
        self._undo.append((owner, attr, owner[attr]))
        owner[attr] = value

    def _set(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> "Patch":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.undo()
