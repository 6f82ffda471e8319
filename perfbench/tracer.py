"""In-memory span tracer that instruments the program from the outside.

The benchmark never edits the library: :class:`Tracer` replaces public
functions and methods with wrappers that open a span around each call and
bump counters, then puts the originals back.  A span records its name,
start, end and parent; spans are kept in memory and aggregated when the
traced phase ends.

Aggregation rules:

* a call made while a span of the same name is already open is not a new
  span (``capture_attack_segments`` inside ``PlatformSegmentSource.capture``
  counts once, under the outer call);
* a metric's time (``<name>_s``) is the summed duration of its spans;
* a span's self time is its duration minus the durations of its direct
  children, so the self times of all spans partition the traced time;
* a layer's self time is the summed self time of the spans named under it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)
    _open: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    enabled: bool = False

    # -- recording ------------------------------------------------------ #

    def _begin(self, name: str, layer: str) -> int | None:
        if not self.enabled or self._open[name]:
            return None
        self._open[name] += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _finish(self, index: int | None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    # -- instrumentation ------------------------------------------------ #

    def traced(self, function, layer: str, name, counter=None):
        """``function`` wrapped to record a span around each call.

        ``name`` is the span name, or a callable ``(args) -> name`` for
        names that depend on the receiver (train/eval mode).  ``counter``
        is an optional ``(tracer, args, kwargs, result) -> None`` hook run
        after each outermost call.  Generator functions are traced one
        ``next`` at a time, so work the consumer does between items is
        not charged to them.
        """
        tracer = self
        resolve = name if callable(name) else (lambda args, _n=name: _n)

        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                label = resolve(args)
                iterator = function(*args, **kwargs)
                while True:
                    index = tracer._begin(label, layer)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer._finish(index)
                    if index is not None and counter is not None:
                        counter(tracer, args, kwargs, item)
                    yield item
            return wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = tracer._begin(resolve(args), layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._finish(index)
            if index is not None and counter is not None:
                counter(tracer, args, kwargs, result)
            return result
        return wrapper

    def wrap(self, owner, attr: str, layer: str, name, counter=None) -> None:
        """Trace every call of the function or method ``owner.attr``."""
        function = inspect.getattr_static(owner, attr)
        self.replace(owner, attr, self.traced(function, layer, name, counter))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------- #

    def seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_seconds(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.layer] += span.self_s
        return totals
