"""Request tracing: trace/span ids, timed spans, bounded span buffers.

A *trace* is one request's journey through the serving stack; a *span*
is one timed segment of it (``request``, ``queue_wait``, ``solve``,
``rpc``, ``serialize``; worker processes add ``solver``).  Ids are
opaque hex strings minted from ``os.urandom`` -- no coordination, no
global counter, safe across processes.

The :class:`Tracer` keeps finished spans in a fixed-size ring buffer
(:class:`collections.deque` with ``maxlen``) plus a separate slow-span
ring for spans above a configurable threshold, so memory is bounded no
matter the traffic.  A tracer constructed with ``enabled=False`` (or the
shared :data:`NULL_TRACER`) makes every call a no-op that returns a
preallocated null span -- the zero-cost-when-disabled path the serve
benchmarks assert on.

Cross-thread propagation: ``asyncio``'s ``run_in_executor`` does not
carry contextvars into pool threads, and the ``ExecutionBackend``
interface should not grow a ``trace`` argument on every method.  So the
active trace rides in a module-level ``threading.local`` instead:
the step batcher's pool job calls :func:`activate` (with the trace of
the batch's first traced member) before touching the backend, a
backend that fans calls out to its own threads carries :func:`current`
along, the RPC clients read it when encoding a call, and the worker
process re-activates the propagated ids around execution.  Strictly
per-thread, explicitly scoped, nothing leaks between requests.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

__all__ = [
    "new_trace_id",
    "new_span_id",
    "Span",
    "Tracer",
    "NULL_TRACER",
    "activate",
    "deactivate",
    "current",
]


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span id."""
    return os.urandom(4).hex()


class Span:
    """One timed segment of a trace; finished via ``end()`` or ``with``."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "start_unix_s",
        "_start_perf",
        "duration_s",
        "_tracer",
    )

    def __init__(self, tracer, name, trace_id, parent_id, attrs):
        self.name = name
        self.trace_id = trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_unix_s = time.time()
        self._start_perf = time.perf_counter()
        self.duration_s = None
        self._tracer = tracer

    def end(self, duration_s: float | None = None) -> float:
        """Finish the span; returns its duration in seconds.

        ``duration_s`` overrides the measured wall time -- used when the
        segment was timed externally (queue wait measured between two
        perf-counter stamps, say) and the span merely records it.
        """
        if self.duration_s is not None:
            return self.duration_s
        if duration_s is None:
            duration_s = time.perf_counter() - self._start_perf
        self.duration_s = duration_s
        self._tracer._finish(self)
        return duration_s

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs = dict(self.attrs, error=exc_type.__name__)
        self.end()

    def as_dict(self) -> dict:
        """JSON-safe form, durations in milliseconds."""
        out = {
            "trace": self.trace_id,
            "span": self.span_id,
            "name": self.name,
            "start_unix_s": round(self.start_unix_s, 6),
            "ms": round((self.duration_s or 0.0) * 1e3, 4),
        }
        if self.parent_id:
            out["parent"] = self.parent_id
        if self.attrs:
            out.update(self.attrs)
        return out


class _NullSpan:
    """Inert span: every operation is a no-op; shared singleton."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = ""
    duration_s = 0.0

    def end(self, duration_s=None):
        return 0.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def as_dict(self):
        return {}


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded span collector; one per process role (server, worker).

    ``capacity`` bounds the recent-span ring, ``slow_capacity`` the
    slow-span ring (spans whose duration >= ``slow_threshold_s``).
    Disabled tracers (``enabled=False``) skip all bookkeeping and hand
    out a shared null span -- call sites need no branches.
    """

    def __init__(
        self,
        capacity: int = 512,
        slow_threshold_s: float = 1.0,
        slow_capacity: int = 64,
        enabled: bool = True,
    ):
        self.enabled = bool(enabled)
        self.slow_threshold_s = float(slow_threshold_s)
        self._spans: deque = deque(maxlen=int(capacity))
        self._slow: deque = deque(maxlen=int(slow_capacity))
        self._count = 0
        self._slow_count = 0
        self._lock = threading.Lock()

    def span(self, name: str, trace_id: str | None = None, parent_id: str = "", **attrs):
        """Start a span (mints a trace id when none is given)."""
        if not self.enabled:
            return _NULL_SPAN
        if trace_id is None:
            trace_id = new_trace_id()
        return Span(self, name, trace_id, parent_id, attrs)

    def record(
        self,
        name: str,
        trace_id: str,
        duration_s: float,
        parent_id: str = "",
        start_unix_s: float | None = None,
        **attrs,
    ) -> None:
        """Record an externally-timed segment as a finished span."""
        if not self.enabled:
            return
        span = Span(self, name, trace_id, parent_id, attrs)
        if start_unix_s is not None:
            span.start_unix_s = start_unix_s
        span.duration_s = float(duration_s)
        self._finish(span)

    def _finish(self, span: Span) -> None:
        entry = span.as_dict()
        with self._lock:
            self._count += 1
            self._spans.append(entry)
            if span.duration_s >= self.slow_threshold_s:
                self._slow_count += 1
                self._slow.append(entry)

    @property
    def count(self) -> int:
        """Total spans recorded since start (not bounded by the ring)."""
        with self._lock:
            return self._count

    @property
    def slow_count(self) -> int:
        """Total spans at or above the slow threshold since start."""
        with self._lock:
            return self._slow_count

    def recent(self, limit: int | None = None) -> list[dict]:
        """Newest-last recent spans (up to ``limit``)."""
        with self._lock:
            spans = list(self._spans)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return spans

    def slow(self, limit: int | None = None) -> list[dict]:
        """Newest-last slow spans (up to ``limit``)."""
        with self._lock:
            spans = list(self._slow)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
        return spans

    def trace(self, trace_id: str) -> list[dict]:
        """Every buffered span for one trace id, oldest first."""
        with self._lock:
            return [span for span in self._spans if span["trace"] == trace_id]

    def stats(self) -> dict:
        """Span-buffer summary for the ``stats`` op."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "count": self._count,
                "buffered": len(self._spans),
                "slow_count": self._slow_count,
                "slow_threshold_ms": round(self.slow_threshold_s * 1e3, 3),
            }

    def clear(self) -> None:
        """Drop buffered spans (totals keep counting)."""
        with self._lock:
            self._spans.clear()
            self._slow.clear()


#: Shared disabled tracer: hand this to components when tracing is off.
NULL_TRACER = Tracer(capacity=1, slow_capacity=1, enabled=False)


# -- cross-thread propagation ------------------------------------------
_ACTIVE = threading.local()


def activate(tracer: Tracer, trace_id: str, parent_id: str = "") -> tuple | None:
    """Install the active trace for this thread; returns the prior one.

    Pass the return value to :func:`deactivate` (try/finally) so nested
    activations restore correctly and nothing leaks across pool-thread
    reuse.
    """
    previous = getattr(_ACTIVE, "ctx", None)
    _ACTIVE.ctx = (tracer, trace_id, parent_id)
    return previous


def deactivate(previous: tuple | None) -> None:
    """Restore the prior active trace (or clear it)."""
    if previous is None:
        _ACTIVE.ctx = None
    else:
        _ACTIVE.ctx = previous


def current() -> tuple | None:
    """This thread's ``(tracer, trace_id, parent_id)``, or ``None``."""
    return getattr(_ACTIVE, "ctx", None)
