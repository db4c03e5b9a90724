"""Thread-local span tracing: the program's one instrumentation stream.

Closing a span is the only way the program emits anything.  Every
closed span goes to the event buffer of the tracer that recorded it
and, under the same lock, to the metrics registry of the run context
(:meth:`repro.obs.metrics.MetricsRegistry.fold`), which turns span
attributes into counters and histograms.  Three tracers share one
surface:

* :class:`Tracer` — the recording tracer :func:`tracing` installs.
  ``span(name, **attrs)`` opens a nested span (monotonic
  ``perf_counter`` timing), ``annotate(**attrs)`` adds attributes to
  the innermost open span (how round finalizers attach ledger-derived
  facts without threading span objects through call stacks), and
  finished spans land in a bounded event buffer (overflow increments
  ``dropped`` instead of growing without limit).  A caller may
  install one tracer in several threads of its own, so the *open-span
  stack* is kept per thread while the event buffer is shared under a
  lock.
* :class:`FoldingTracer` — what ``collecting()`` installs when no
  recording tracer is: it keeps no events, so a long session never
  drops counts, and only feeds the registry.
* :class:`NullTracer` — the default.  It records nothing and times
  nothing; the only state it keeps is the per-thread stack of open
  span *names*, so failure paths (worker crash, job timeout) can
  always report *where* in the run they happened via
  :meth:`current_path`, tracing on or off.  Span entry is one list
  append, exit one pop.

Instrumented code never imports a concrete tracer; it asks
:func:`get_tracer` (the tracer of the current
:class:`~repro.context.RunContext`) and calls the surface.
``tracer.enabled`` gates any extra work — phase timers, ledger
queries — that only matters when spans are recorded.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.context import current, use

#: Default event-buffer bound; ~100 bytes/event keeps worst case ~10 MB.
DEFAULT_MAX_EVENTS = 100_000

#: Track label for events recorded on the installing (master) thread.
MAIN_TRACK = "main"


@dataclass
class SpanEvent:
    """One finished span: name, monotonic interval, attributes.

    ``track`` groups events into timeline rows (the main thread, or the
    recording thread's name); ``depth`` is the nesting depth at
    open time and ``index`` a per-tracer sequence number, so exports
    can reconstruct ordering without trusting float ties.
    """

    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)
    track: str = MAIN_TRACK
    depth: int = 0
    index: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Span:
    """An open span; use as a context manager (returned by ``span()``)."""

    __slots__ = ("_tracer", "name", "attrs", "category", "_start", "_depth")

    def __init__(
        self, tracer: "Tracer", name: str, category: str | None, attrs: dict
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs
        self._start = 0.0
        self._depth = 0

    def set(self, **attrs) -> None:
        """Attach attributes after the span opened (e.g. actual cost)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - unbalanced exit
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        attrs = self.attrs
        if self.category is not None:
            attrs = dict(attrs, category=self.category)
        self._tracer._record(
            SpanEvent(
                name=self.name,
                start=self._start,
                end=end,
                attrs=attrs,
                track=self._tracer._track(),
                depth=self._depth,
            )
        )
        return False


class _Stacks(threading.local):
    """``stack`` is this thread's own list (``__init__`` runs once per
    thread, on its first access)."""

    def __init__(self) -> None:
        self.stack: list = []


class _PerThreadStack:
    """The open-span stack each thread keeps on a tracer it shares."""

    def __init__(self) -> None:
        self._local = _Stacks()

    def _stack(self) -> list:
        return self._local.stack


class Tracer(_PerThreadStack):
    """The recording tracer: nested spans into a bounded event buffer."""

    enabled = True

    def __init__(self, *, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        super().__init__()
        self.max_events = max_events
        self.events: list[SpanEvent] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._counter = itertools.count()

    def _track(self) -> str:
        thread = threading.current_thread()
        if thread is threading.main_thread():
            return MAIN_TRACK
        return thread.name

    # ------------------------------------------------------------------ #
    # the tracing surface
    # ------------------------------------------------------------------ #

    def span(self, name: str, *, category: str | None = None, **attrs) -> Span:
        """Open a nested span; use as ``with tracer.span(...) as sp:``.

        ``category`` is the low-cardinality aggregation key for
        :func:`repro.obs.export.metrics` (span *names* carry instance
        labels like ``"round 7"``; categories group them as
        ``"round"``).
        """
        return Span(self, name, category, attrs)

    def annotate(self, **attrs) -> None:
        """Add attributes to this thread's innermost open span (if any)."""
        stack = self._stack()
        if stack:
            stack[-1].attrs.update(attrs)

    def current_path(self) -> tuple:
        """Names of this thread's open spans, outermost first."""
        return tuple(span.name for span in self._stack())

    def _record(self, event: SpanEvent) -> None:
        registry = current().registry
        with self._lock:
            if registry is not None:
                registry.fold(event)
            if len(self.events) >= self.max_events:
                self.dropped += 1
                return
            event.index = next(self._counter)
            self.events.append(event)


class FoldingTracer(Tracer):
    """A recording tracer that keeps no events: each closed span only
    feeds the run context's metrics registry."""

    def _record(self, event: SpanEvent) -> None:
        registry = current().registry
        if registry is not None:
            with self._lock:
                registry.fold(event)


class _NullSpan(tuple):
    """A span that keeps only its name on the tracer's path stack: the
    pair ``(stack, name)``, built without a Python ``__init__``."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        self[0].append(self[1])
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self[0]
        if stack:
            stack.pop()
        return False


class NullTracer(_PerThreadStack):
    """The default tracer: no events, no timing, just the name path.

    Keeping the open-span *names* costs one append/pop per span — spans
    open at round granularity, never per element — and is what lets
    a lost :class:`~repro.parallel.pool.WorkerPool` worker name the
    caller's open spans (``pool.scatter``) even when nobody asked for a
    trace.  The path is per thread, so every thread can share the
    default instance.
    """

    enabled = False
    events: tuple = ()
    dropped = 0

    def span(self, name: str, *, category: str | None = None, **attrs):
        return _NullSpan((self._local.stack, name))

    def annotate(self, **attrs) -> None:
        pass

    def current_path(self) -> tuple:
        return tuple(self._stack())


def mark(name: str, category: str, **facts) -> None:
    """Emit ``facts`` as one closed, zero-length span of the current
    tracer: for a fact that happens where no span of its own is open."""
    with current().tracer.span(name, category=category, **facts):
        pass


def get_tracer():
    """The tracer of this thread's run context (a :class:`NullTracer`
    by default)."""
    return current().tracer


@contextmanager
def tracing(*, max_events: int = DEFAULT_MAX_EVENTS) -> Iterator[Tracer]:
    """Record spans within the block; yields the :class:`Tracer`.

    The previous tracer (normally the no-op default) is restored on
    exit, so nesting and exceptions are safe.
    """
    tracer = Tracer(max_events=max_events)
    with use(tracer=tracer):
        yield tracer
