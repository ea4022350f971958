"""Deadline-aware load shedding for the release server.

Two triggers, both firing *before* execution so a shed request never
touches session state:

* **Deadline** -- a request may carry ``deadline_ms``, the client's
  total latency budget.  If the estimated queue delay already exceeds
  it at admission, or the measured wait exceeds it by the time the
  request reaches a worker thread, the request is shed: executing it
  would burn capacity on an answer the client has already given up on.
* **Sustained queue delay** -- a CoDel-style controller watches the
  measured executor queue wait (EWMA).  Transient bursts above the
  target are fine; once the delay has stayed above ``target_ms`` for
  ``interval_ms`` the server is genuinely overloaded and starts
  shedding in strict priority order: ``open`` first (new work admits
  more load), then ``step`` once the overload has persisted for a
  second interval.  ``finish`` and the control-plane ops are never shed
  by this trigger -- finishing sessions *reduces* load.

Either trigger raises :class:`~repro.errors.OverloadedError`, which the
wire layer renders as the retryable ``overloaded`` code with a
``retry_after_ms`` hint sized to the current drain time.

Brownout: while the queue-delay trigger is active the server also
sheds *overhead* before it sheds requests -- per-request tracing is
dropped (a bit-identical transformation, so accepted requests still
return byte-for-byte the same streams).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..errors import OverloadedError

__all__ = ["LoadShedder", "SHED_PRIORITY", "ShedConfig"]

#: Op -> shedding priority under the queue-delay trigger; *lower* sheds
#: earlier.  Ops absent from the map (``finish``, ``peek_budget``,
#: ``checkpoint``, the control plane) are never shed by sustained
#: queue delay -- only by their own blown deadline.
SHED_PRIORITY = {"open": 0, "step": 1}

#: Floor and ceiling for the ``retry_after_ms`` hint.
_RETRY_AFTER_MIN_MS = 50
_RETRY_AFTER_MAX_MS = 10_000

#: EWMA smoothing factor for observed queue waits.
DELAY_EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class ShedConfig:
    """Knobs for the queue-delay trigger.

    ``target_ms <= 0`` disables the sustained-delay trigger entirely
    (deadline shedding still applies to requests that carry one).
    """

    #: Acceptable standing queue delay; the CoDel target.
    target_ms: float = 100.0
    #: How long the delay must stay above target before shedding starts.
    interval_ms: float = 1000.0


class LoadShedder:
    """Admission control shared by the event loop and pool threads.

    ``queue_depth`` (a zero-argument callable, e.g. the executor's
    live queue size) lets the shedder notice the backlog has drained:
    the delay estimate only updates when work *dequeues*, so without
    it a server that sheds everything would never observe recovery and
    shed forever on a stale estimate.
    """

    def __init__(
        self, config: ShedConfig | None = None, metrics=None, queue_depth=None
    ):
        self._config = config if config is not None else ShedConfig()
        self._metrics = metrics
        self._queue_depth = queue_depth
        self._lock = threading.Lock()
        self._delay_ewma_s = 0.0
        self._last_observe = time.perf_counter()
        #: perf_counter timestamp since which the EWMA has been above
        #: target, or None while below it.
        self._above_since: float | None = None

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def observe(self, waited_s: float) -> None:
        """Fold one measured queue wait into the delay estimate.

        Called from pool threads at the moment a queued work item
        starts running -- the measured sojourn time, not a guess.
        """
        cfg = self._config
        now = time.perf_counter()
        with self._lock:
            self._last_observe = now
            self._delay_ewma_s = (
                (1.0 - DELAY_EWMA_ALPHA) * self._delay_ewma_s
                + DELAY_EWMA_ALPHA * waited_s
            )
            if cfg.target_ms <= 0:
                self._above_since = None
            elif self._delay_ewma_s * 1e3 > cfg.target_ms:
                if self._above_since is None:
                    self._above_since = now
            else:
                self._above_since = None

    def _refresh(self, now: float) -> None:
        """Drop stale overload state once the backlog is gone (under lock).

        The estimate only moves when work dequeues, so after a full
        shed (or the load simply stopping) it would describe a backlog
        that no longer exists.  An empty executor queue -- or a full
        interval with no dequeue at all -- means new arrivals would
        wait ~nothing: clear the state and re-admit immediately instead
        of shedding forever on the stale number.
        """
        if self._above_since is None and self._delay_ewma_s == 0.0:
            return
        drained = self._queue_depth is not None and self._queue_depth() == 0
        idle = (now - self._last_observe) * 1e3 > self._config.interval_ms
        if drained or idle:
            self._above_since = None
            self._delay_ewma_s = 0.0

    @property
    def delay_ms(self) -> float:
        """The current smoothed queue-delay estimate."""
        with self._lock:
            self._refresh(time.perf_counter())
            return self._delay_ewma_s * 1e3

    @property
    def level(self) -> int:
        """Overload level: 0 normal, 1 shed ``open``, 2 shed ``step`` too."""
        cfg = self._config
        if cfg.target_ms <= 0:
            return 0
        with self._lock:
            self._refresh(time.perf_counter())
            if self._above_since is None:
                return 0
            sustained_ms = (time.perf_counter() - self._above_since) * 1e3
        if sustained_ms < cfg.interval_ms:
            return 0
        if sustained_ms < 2.0 * cfg.interval_ms:
            return 1
        return 2

    @property
    def brownout(self) -> bool:
        """True while per-request tracing should be dropped."""
        return self.level >= 1

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, op: str, deadline_ms: int | None) -> None:
        """Gate one request at arrival; raises ``OverloadedError`` to shed.

        Runs on the event loop before any work is queued, so shedding
        costs one dict lookup and two float compares per request.
        """
        if deadline_ms is not None and self.delay_ms >= deadline_ms:
            self._shed(
                op,
                "deadline",
                f"estimated queue delay {self.delay_ms:.0f}ms exceeds the "
                f"request deadline of {deadline_ms}ms",
            )
        priority = SHED_PRIORITY.get(op)
        if priority is not None and priority < self.level:
            self._shed(
                op,
                "queue_delay",
                f"queue delay has exceeded {self._config.target_ms:.0f}ms "
                f"for over {self._config.interval_ms:.0f}ms; "
                f"shedding {op!r} requests",
            )

    def check_deadline(self, op: str, deadline_ms: int | None, waited_s: float) -> None:
        """Re-check a request's deadline with its *measured* queue wait.

        Runs on the pool thread immediately before execution: a request
        admitted under a healthy estimate can still blow its deadline
        waiting behind a slow burst, and executing it then is pure
        waste.  Session state is untouched -- nothing has run yet.
        """
        if deadline_ms is not None and waited_s * 1e3 > deadline_ms:
            self._shed(
                op,
                "deadline",
                f"request waited {waited_s * 1e3:.0f}ms in queue, past its "
                f"deadline of {deadline_ms}ms",
            )

    def _shed(self, op: str, reason: str, message: str) -> None:
        if self._metrics is not None:
            self._metrics.record_shed(op, reason)
        retry_after = int(
            min(
                _RETRY_AFTER_MAX_MS,
                max(
                    _RETRY_AFTER_MIN_MS,
                    self._config.interval_ms,
                    self.delay_ms,
                ),
            )
        )
        raise OverloadedError(message, retry_after_ms=retry_after)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe state for the ``stats`` op."""
        cfg = self._config
        with self._lock:
            self._refresh(time.perf_counter())
            above_since = self._above_since
            delay_ms = self._delay_ewma_s * 1e3
        return {
            "enabled": cfg.target_ms > 0,
            "target_ms": cfg.target_ms,
            "interval_ms": cfg.interval_ms,
            "queue_delay_ewma_ms": round(delay_ms, 3),
            "overload_level": self.level,
            "brownout": self.brownout,
            "above_target_for_s": (
                round(time.perf_counter() - above_since, 3)
                if above_since is not None
                else 0.0
            ),
        }
