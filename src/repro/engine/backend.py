"""Execution backends: where a fleet's engine work actually runs.

The serving layer drives sessions through a narrow, synchronous
:class:`ExecutionBackend` surface instead of touching a
:class:`~repro.engine.manager.SessionManager` directly.  Three
implementations exist:

* :class:`InProcessBackend` -- a thin adapter over one
  ``SessionManager`` in the calling process.  Steps run wherever the
  caller runs them (the service offloads onto its thread pool); this is
  the single-process path that existed before backends did.
* :class:`~repro.cluster.ClusterBackend` -- N ``repro worker``
  processes, each owning a full ``SessionManager``, reached over TCP
  with a typed RPC codec, placed by a consistent-hash ring, with live
  session migration between workers (see :mod:`repro.cluster`).  The
  workers run on this machine (``--shards N``, so engine CPU leaves the
  caller's process and a multi-core machine serves near-linearly in
  cores instead of contending on one GIL) or on any machines
  (``--backend``).
* :class:`~repro.cluster.ClusterSupervisor` -- wraps a cluster backend
  with checkpoint-replay recovery; ``repro serve`` always drives
  workers through it.

Every method is synchronous and thread-safe to call from worker
threads; async plumbing, per-session ordering locks and residency/LRU
bookkeeping stay in the serving layer.  Both backends produce
bit-identical release streams for the same session ids and seeds --
the backend decides *where* a step executes, never *what* it computes.
"""

from __future__ import annotations

import abc
from typing import Mapping

from ..errors import SessionError
from .cache import CacheStats
from .manager import SessionManager
from .records import ReleaseLog, ReleaseRecord
from .session import SessionState


def step_batch_on_manager(
    manager: SessionManager, cells: Mapping[str, int]
) -> tuple[dict[str, ReleaseRecord], dict[str, BaseException]]:
    """One batch of steps with per-member error isolation.

    Each member is validated individually, so one bad session id or
    out-of-range cell rejects that request alone.  Valid members are
    grouped by timestamp and each group steps through
    :meth:`SessionManager.step_many` (bit-identical to per-session
    stepping).  A group whose lockstep call fails has been rolled back
    whole, so its members re-run one at a time with solo
    :meth:`SessionManager.step` -- bit-identical again -- and only the
    member that raises fails.

    Returns ``(records, errors)`` keyed by session id; every input id
    appears in exactly one of the two.  Shared by
    :class:`InProcessBackend` and the cluster worker so both serving
    modes fail a batch identically.
    """
    errors: dict[str, BaseException] = {}
    valid: dict[str, int] = {}
    for sid, cell in cells.items():
        try:
            valid[sid] = manager.validate_step(sid, cell)
        except Exception as error:  # noqa: BLE001 - isolate per member
            errors[sid] = error
    groups: dict[int, dict[str, int]] = {}
    for sid, cell in valid.items():
        groups.setdefault(manager.session(sid).t, {})[sid] = cell
    records: dict[str, ReleaseRecord] = {}
    for t, group_cells in groups.items():
        try:
            records.update(manager.step_many(group_cells))
        except Exception as group_error:  # noqa: BLE001 - isolate per member
            for sid, cell in group_cells.items():
                if manager.session(sid).t != t:
                    # Committed before a commit-phase failure: stepping
                    # it again would release a second timestamp.
                    errors[sid] = group_error
                    continue
                try:
                    records[sid] = manager.step(sid, cell)
                except Exception as error:  # noqa: BLE001 - this member's
                    errors[sid] = error
    return records, errors


class ExecutionBackend(abc.ABC):
    """Synchronous fleet-execution surface the serving layer drives.

    Implementations own the engine state (sessions, models, verdict
    cache) and answer the full lifecycle: open, step (single and
    batched), peek, finish, and the checkpoint/suspend/resume loop that
    the service's store-backed eviction and graceful drain ride on.
    """

    #: Number of worker processes (0 = everything in-process).
    n_shards: int = 0
    #: True when operations cross a process boundary.  The server keeps
    #: even cheap lifecycle ops off the event loop for remote backends,
    #: since an RPC can block behind a worker's in-flight batch.
    remote: bool = False

    @property
    @abc.abstractmethod
    def horizon(self) -> int:
        """Release horizon ``T`` of the *default* engine configuration."""

    @property
    @abc.abstractmethod
    def n_states(self) -> int:
        """Number of map cells ``m`` of the *default* configuration."""

    @abc.abstractmethod
    def open(
        self, session_id: str, seed: int | None = None, scenario=None
    ) -> int:
        """Create a session (deterministic under a fixed seed).

        ``scenario`` is an optional :class:`~repro.scenario.ScenarioSpec`
        (or its JSON dict) selecting the session's release setting;
        ``None`` uses the default configuration.  Returns the session's
        horizon ``T`` (scenarios may differ from the default's).
        """

    @abc.abstractmethod
    def contains(self, session_id: str) -> bool:
        """Whether the session is resident in the backend."""

    def __contains__(self, session_id: str) -> bool:
        return self.contains(session_id)

    @abc.abstractmethod
    def resident_count(self) -> int:
        """Number of resident sessions (drives the eviction cap)."""

    @abc.abstractmethod
    def session_ids(self) -> list[str]:
        """Resident session ids."""

    @abc.abstractmethod
    def step(self, session_id: str, cell: int) -> ReleaseRecord:
        """Validate and release one location for one session."""

    @abc.abstractmethod
    def step_batch(
        self, cells: Mapping[str, int]
    ) -> tuple[dict[str, ReleaseRecord], dict[str, BaseException]]:
        """Step many sessions with per-member error isolation.

        Same contract as :func:`step_batch_on_manager`; worker
        backends additionally fan the batch out as one message per
        worker.
        """

    @abc.abstractmethod
    def peek_budget(self, session_id: str) -> float:
        """Budget the session's next step would start calibrating from."""

    @abc.abstractmethod
    def finish(self, session_id: str) -> ReleaseLog:
        """Seal a session and return its log."""

    @abc.abstractmethod
    def checkpoint(self, session_id: str) -> SessionState:
        """Snapshot a session without closing it."""

    @abc.abstractmethod
    def suspend(self, session_id: str) -> SessionState:
        """Snapshot a session and evict it from the backend."""

    @abc.abstractmethod
    def suspend_all(self) -> tuple[list[SessionState], list[str]]:
        """Suspend every resident session (graceful drain).

        Returns ``(states, lost)``: the checkpointed states plus the ids
        of sessions that could not be checkpointed because their worker
        died -- never silently dropped.
        """

    @abc.abstractmethod
    def resume(self, state: SessionState) -> str:
        """Re-open a suspended session from its state; returns its id."""

    def cache_stats(self) -> CacheStats | None:
        """Verdict-cache counters of an in-process engine (else ``None``).

        Only :class:`InProcessBackend` has a cache to read here; worker
        backends report each worker's counters in its
        :meth:`shard_stats` row instead.
        """
        return None

    def shard_stats(self) -> list[dict] | None:
        """Per-shard/worker observability rows (``None`` in-process)."""
        return None

    def worker_health(self) -> list[dict] | None:
        """Local-state health rows per shard/worker (``None`` in-process).

        Unlike :meth:`shard_stats` this must never issue an RPC -- it
        feeds readiness probes and metric scrapes, which a slow worker
        must not be able to stall.  Rows carry ``worker`` (a display
        name), ``alive``, ``inflight`` (RPCs on the wire right now),
        ``heartbeat_age_s`` (seconds since the last successful reply or
        ping) and ``rpc_latency`` (a mergeable
        :meth:`~repro.obs.registry.LatencyHistogram.state`).
        """
        return None

    def lost_session_ids(self) -> list[str]:
        """Sessions unreachable behind dead shards/workers.

        In-process backends cannot lose sessions this way; multi-process
        ones override
        (:meth:`~repro.cluster.ClusterBackend.lost_session_ids`).
        """
        return []

    def close(self) -> None:
        """Release backend resources (processes, channels, sockets)."""


class InProcessBackend(ExecutionBackend):
    """The pre-shard path: one :class:`SessionManager`, this process."""

    def __init__(self, manager: SessionManager):
        self._manager = manager

    @property
    def manager(self) -> SessionManager:
        """The wrapped manager (advanced use; prefer the backend API)."""
        return self._manager

    @property
    def horizon(self) -> int:
        return self._manager.config.horizon

    @property
    def n_states(self) -> int:
        return self._manager.n_states

    def open(
        self, session_id: str, seed: int | None = None, scenario=None
    ) -> int:
        self._manager.open(session_id, rng=seed, scenario=scenario)
        return self._manager.horizon_of(session_id)

    def contains(self, session_id: str) -> bool:
        return session_id in self._manager

    def resident_count(self) -> int:
        return len(self._manager)

    def session_ids(self) -> list[str]:
        return self._manager.session_ids

    def step(self, session_id: str, cell: int) -> ReleaseRecord:
        self._manager.validate_step(session_id, cell)
        return self._manager.step(session_id, cell)

    def step_batch(
        self, cells: Mapping[str, int]
    ) -> tuple[dict[str, ReleaseRecord], dict[str, BaseException]]:
        return step_batch_on_manager(self._manager, cells)

    def peek_budget(self, session_id: str) -> float:
        return self._manager.peek_budget(session_id)

    def finish(self, session_id: str) -> ReleaseLog:
        return self._manager.finish(session_id)

    def checkpoint(self, session_id: str) -> SessionState:
        return self._manager.checkpoint(session_id)

    def suspend(self, session_id: str) -> SessionState:
        return self._manager.suspend(session_id)

    def suspend_all(self) -> tuple[list[SessionState], list[str]]:
        states = [
            self._manager.suspend(sid) for sid in list(self._manager.session_ids)
        ]
        return states, []

    def resume(self, state: SessionState) -> str:
        return self._manager.resume(state)

    def cache_stats(self) -> CacheStats | None:
        return self._manager.cache_stats()


def as_backend(engine) -> ExecutionBackend:
    """Adapt a :class:`SessionManager` (or pass a backend through)."""
    if isinstance(engine, ExecutionBackend):
        return engine
    if isinstance(engine, SessionManager):
        return InProcessBackend(engine)
    raise SessionError(
        f"expected a SessionManager or ExecutionBackend, got {type(engine).__name__}"
    )
