"""Per-stage query tracing for the unified pipeline.

A :class:`QueryTrace` records named spans — ``prepare → plan →
execute (per shard/segment) → merge → verify`` — each with a start
offset and duration taken from the monotonic clock. Traces are cheap by
construction: starting a span costs one ``perf_counter`` read, closing
it a second; untraced queries pay a single ``None`` check through
:data:`NULL_TRACE`.

The engine owns a :class:`Tracer`, which decides per query whether to
trace (deterministic interval sampling — every ``1/sample`` th query —
so tests and benchmarks are reproducible without a seeded RNG) and
keeps the last N completed traces in a bounded ring buffer.

Propagation uses a :mod:`contextvars` context variable: the engine
activates the trace around plan/execute, and downstream layers (the
planner's prepare stage, the part fan-out of the sharded and live
planes) pick it up with :func:`current_trace`. ``concurrent.futures``
worker threads do **not** inherit context variables, so the fan-out
captures the trace object in the closure it submits — see
:meth:`PartSet._run <repro.query.parts.PartSet>`. The member queries of
an engine ``batch`` run in the calling thread inside the batch's one
trace, so their per-part ``execute`` spans land in it.

Examples
--------
>>> tracer = Tracer(capacity=4, sample=1.0)
>>> trace = tracer.start("search", index="demo")
>>> with trace.span("plan"):
...     pass
>>> tracer.finish(trace)
>>> tracer.traces()[-1].spans[0].name
'plan'
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from typing import Any

from ..exceptions import InvalidParameterError

#: Default number of completed traces retained by a :class:`Tracer`.
DEFAULT_TRACE_CAPACITY = 64


class Span:
    """One named, timed stage inside a trace."""

    __slots__ = ("name", "start", "duration", "meta")

    def __init__(self, name: str, start: float, meta: dict | None = None) -> None:
        self.name = name
        self.start = start
        self.duration = 0.0
        self.meta = meta

    def as_dict(self) -> dict:
        data = {
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
        }
        if self.meta:
            data["meta"] = dict(self.meta)
        return data

    def __repr__(self) -> str:
        return f"Span({self.name!r}, duration_s={self.duration:.6f})"


class _SpanTimer:
    """Context manager closing a span on exit (class-based: cheaper
    than a generator-backed contextmanager)."""

    __slots__ = ("_trace", "_span")

    def __init__(self, trace: "QueryTrace", span: Span) -> None:
        self._trace = trace
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._trace._close(self._span)


class QueryTrace:
    """All spans recorded for one traced query.

    Span offsets are relative to the trace's own start, so
    :meth:`as_dict` output is stable across runs of equal shape.
    Thread-safe: fan-out workers append shard spans concurrently.
    """

    __slots__ = ("mode", "meta", "started", "duration", "_origin",
                 "spans", "_lock")

    def __init__(self, mode: str, **meta: Any) -> None:
        self.mode = mode
        self.meta = meta
        self.started = time.time()  # lint: disable=wall-clock epoch timestamp; spans use _origin below
        self.duration = 0.0
        self._origin = time.perf_counter()
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def span(self, name: str, **meta: Any) -> _SpanTimer:
        """Open a named span; close it by exiting the returned context
        manager."""
        span = Span(
            name, time.perf_counter() - self._origin, meta or None
        )
        return _SpanTimer(self, span)

    def _close(self, span: Span) -> None:
        span.duration = (
            time.perf_counter() - self._origin - span.start
        )
        with self._lock:
            self.spans.append(span)

    def finish(self) -> None:
        self.duration = time.perf_counter() - self._origin

    def as_dict(self) -> dict:
        """A JSON-ready snapshot (consumed by the CLI and tests)."""
        with self._lock:
            spans = [span.as_dict() for span in self.spans]
        data = {
            "mode": self.mode,
            "started_unix": self.started,
            "duration_s": self.duration,
            "spans": spans,
        }
        if self.meta:
            data["meta"] = dict(self.meta)
        return data

    def __repr__(self) -> str:
        return (
            f"QueryTrace(mode={self.mode!r}, spans={len(self.spans)}, "
            f"duration_s={self.duration:.6f})"
        )


class _NullSpanTimer:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN_TIMER = _NullSpanTimer()


class NullTrace:
    """The do-nothing trace handed out for unsampled queries: spans
    cost one call and no clock reads."""

    __slots__ = ()
    mode = None
    meta: dict = {}
    started = 0.0
    duration = 0.0
    spans: list = []

    def span(self, name: str, **meta: Any) -> _NullSpanTimer:
        return _NULL_SPAN_TIMER

    def finish(self) -> None:
        pass

    def as_dict(self) -> dict:
        return {"mode": None, "started_unix": 0.0, "duration_s": 0.0,
                "spans": []}

    def __bool__(self) -> bool:
        # Lets call sites guard optional work with ``if trace:``.
        return False

    def __repr__(self) -> str:
        return "NullTrace()"


#: The shared disabled trace.
NULL_TRACE = NullTrace()

# ----------------------------------------------------------------------
# Context propagation
# ----------------------------------------------------------------------
_current: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace", default=NULL_TRACE
)


def current_trace() -> Any:
    """The trace active in this execution context (:data:`NULL_TRACE`
    when none is). Worker threads of an executor pool do not inherit
    it — capture the trace in the submitted closure instead."""
    return _current.get()


def activate_trace(trace: Any) -> contextvars.Token:
    """Make ``trace`` the current trace; pass the returned token to
    :func:`deactivate_trace` to restore the previous one."""
    return _current.set(trace)


def deactivate_trace(token: contextvars.Token) -> None:
    """Restore the trace that was current before ``token``'s
    activation."""
    _current.reset(token)


class Tracer:
    """Sampling policy plus a bounded ring buffer of completed traces.

    ``sample`` is the fraction of queries traced: 1.0 traces every
    query, 0.0 disables tracing, 0.1 traces every 10th. Sampling is
    interval-based (a counter, not randomness) so behaviour is
    deterministic.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        sample: float = 1.0,
    ) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise InvalidParameterError(
                f"trace capacity must be >= 1, got {capacity}"
            )
        if not 0.0 <= sample <= 1.0:
            raise InvalidParameterError(
                f"trace sample rate must be in [0, 1], got {sample}"
            )
        self.capacity = capacity
        self.sample = float(sample)
        self._interval = int(round(1.0 / sample)) if sample > 0 else 0
        self._seen = 0
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def start(self, mode: str, **meta: Any) -> Any:
        """A new :class:`QueryTrace` when this query is sampled, else
        :data:`NULL_TRACE`."""
        if self._interval == 0:
            return NULL_TRACE
        with self._lock:
            self._seen += 1
            sampled = self._seen % self._interval == 0
        if not sampled:
            return NULL_TRACE
        return QueryTrace(mode, **meta)

    def finish(self, trace: Any) -> None:
        """Close ``trace`` and retain it (no-op for the null trace)."""
        if trace is NULL_TRACE or trace is None:
            return
        trace.finish()
        with self._lock:
            self._ring.append(trace)

    def traces(self) -> list:
        """The retained traces, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"Tracer(capacity={self.capacity}, sample={self.sample}, "
            f"retained={len(self)})"
        )
