"""The cluster control plane: retries, recovery, self-healing.

:class:`ClusterBackend` turns a dead worker into *typed* loss -- every
session assigned to it raises :class:`~repro.errors.WorkerDownError`
until an operator intervenes.  This module closes the loop.  Because
every session is deterministic given its seed and scenario, and engine
checkpoints are exact, a lost session can be *rebuilt*: restore its
last durable checkpoint onto a surviving worker and replay the steps
the client has already been acknowledged for.  The replayed stream is
bit-identical to the one the dead worker was producing, so worker death
degrades to a latency blip instead of data loss.

Three pieces:

* :class:`RetryPolicy` -- one jittered-exponential-backoff policy with
  a per-op deadline budget, shared by every retry loop in the cluster
  layer (migration races in
  :meth:`~repro.cluster.backend.ClusterBackend._call_session`, recovery
  races here).  Seedable, so tests get deterministic schedules.
* :class:`StepJournal` -- the supervisor's memory of acknowledged steps
  since each session's last durable checkpoint.  Replay needs exactly
  this: the checkpoint pins a position, the journal carries the cells
  observed past it.  ``checkpoint_every`` bounds its length (and thus
  worst-case replay work).
* :class:`ClusterSupervisor` -- an
  :class:`~repro.engine.backend.ExecutionBackend` wrapping a
  :class:`ClusterBackend` plus a durable
  :class:`~repro.service.store.SessionStore`.  It journals every
  acknowledged step, auto-checkpoints every N steps, and when a worker
  dies (heartbeat callback or an op raising ``WorkerDownError``) drains
  the dead worker's assignment map: each session restores from its
  stored checkpoint onto its ring successor and replays forward to the
  client-observed position.  Sessions with no (or torn) checkpoint
  degrade to today's typed loss, counted under
  ``repro_failures_total{kind="sessions_lost"}``; successful rescues
  count under the new ``repro_recoveries_total``.

Correctness notes
-----------------
*Exactly-once replay.*  Only *acknowledged* steps enter the journal: a
step the worker applied but never answered (it died mid-op) was never
journaled, and the caller's retry re-issues it against the recovered
session -- determinism makes the re-execution produce the original
record, so the at-least-once wire becomes exactly-once history.

*Serialization.*  The serving layer guarantees at most one in-flight op
per session; the supervisor adds a per-session lock so recovery's
restore+replay and a racing client op cannot interleave on the new
home.  A recovery pass is exclusive (one at a time) and rescans until
no dead worker holds assignments, so cascading failures (the recovery
target dies mid-restore) converge: the restore simply retries onto the
next ring successor under the same policy.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, Mapping

from ..engine.backend import ExecutionBackend
from ..engine.records import ReleaseLog, ReleaseRecord
from ..engine.session import SessionState
from ..errors import ReproError, WorkerDownError

__all__ = ["ClusterSupervisor", "RetryPolicy", "StepJournal"]

#: Seconds a call-path retry waits to join an in-progress recovery pass.
RECOVERY_WAIT_S = 120.0
#: Seconds recovery waits for a session's in-flight op before skipping
#: it (the next pass picks it up).
RECOVERY_SESSION_WAIT_S = 60.0
#: Seconds between standby-pool health probes.
STANDBY_CHECK_INTERVAL_S = 5.0
#: Seconds one standby TCP probe waits before declaring it unreachable.
STANDBY_PROBE_TIMEOUT_S = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff under a total deadline budget.

    One policy object describes every retry loop in the cluster layer:
    ``attempts`` tries overall, no delay before the first, then
    ``base_delay_s * 2^(k-1)`` capped at ``max_delay_s`` and inflated by
    up to ``jitter`` (a fraction), all bounded by ``deadline_s`` of
    wall-clock from the first attempt.  ``seed`` makes the jitter
    sequence reproducible (``None`` draws fresh randomness).
    """

    attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    deadline_s: float = 60.0
    jitter: float = 0.5
    seed: int | None = None

    def schedule(self) -> Iterator[float]:
        """Yield the pre-attempt sleep for each permitted attempt.

        The first yielded value is always ``0.0``; the generator stops
        early when the next backoff would overrun the deadline, so a
        loop ``for delay in policy.schedule(): sleep(delay); try(...)``
        respects both the attempt and the time budget.
        """
        rng = Random(self.seed)
        deadline = time.monotonic() + self.deadline_s
        for attempt in range(max(1, int(self.attempts))):
            if attempt == 0:
                yield 0.0
                continue
            delay = min(self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1)))
            delay *= 1.0 + self.jitter * rng.random()
            if time.monotonic() + delay >= deadline:
                return
            yield delay


class StepJournal:
    """Acknowledged cells for one session since its durable checkpoint.

    ``base_t`` is the timestamp of the checkpoint currently in the
    store; ``cells`` are the inputs of every step acknowledged after it,
    in order.  Restoring the checkpoint and replaying ``cells``
    reproduces the session at exactly the client-observed position --
    bit-identically, by engine determinism.
    """

    __slots__ = ("base_t", "cells")

    def __init__(self, base_t: int = 0):
        self.base_t = int(base_t)
        self.cells: list[int] = []

    def reset(self, base_t: int) -> None:
        """A new durable checkpoint landed at ``base_t``."""
        self.base_t = int(base_t)
        self.cells.clear()


class ClusterSupervisor(ExecutionBackend):
    """Self-healing wrapper: a cluster backend plus checkpoint-replay.

    Drop-in :class:`ExecutionBackend`: the serving layer drives it
    exactly like the bare :class:`~repro.cluster.ClusterBackend` it
    wraps.  Every acknowledged step is journaled; every ``N`` journaled
    steps (``checkpoint_every``; 0 disables auto-checkpointing) the
    session checkpoints into ``store``, bounding replay work.  When a
    worker dies, its sessions are restored from the store onto their
    ring successors and replayed to their journaled positions; sessions
    without a durable checkpoint become typed ``sessions_lost``.

    The wrapper registers itself as the backend's worker-down listener,
    so heartbeat-detected deaths trigger recovery without waiting for
    the next client op to trip over the corpse.
    """

    remote = True

    def __init__(
        self,
        backend,
        store,
        *,
        checkpoint_every: int = 0,
        retry: RetryPolicy | None = None,
        metrics=None,
        standbys: Iterable[str] | None = None,
        standby_check_interval_s: float = STANDBY_CHECK_INTERVAL_S,
    ):
        self._backend = backend
        self._store = store
        self._checkpoint_every = max(0, int(checkpoint_every))
        self._retry = retry if retry is not None else RetryPolicy(
            deadline_s=RECOVERY_WAIT_S
        )
        self._metrics = metrics
        self._lock = threading.Lock()
        self._journal: dict[str, StepJournal] = {}
        self._session_locks: dict[str, threading.Lock] = {}
        self._lost: dict[str, str] = {}  # sid -> human-readable reason
        self._recovery_lock = threading.Lock()
        self._workers_recovered = 0
        self._sessions_recovered = 0
        self._steps_replayed = 0
        self._sessions_lost = 0
        # Warm standby pool: addresses of idle workers the actuator
        # promotes (join + rebalance) when a member dies.  FIFO order;
        # a promoted standby leaves the pool for good.
        self._standbys: list[str] = []
        self._standby_health: dict[str, bool] = {}
        self._standby_promotions = 0
        self._stop_standby_checks = threading.Event()
        self._standby_thread: threading.Thread | None = None
        # Last good membership snapshot, served while recovery holds the
        # exclusive lock (see cluster_status).
        self._status_cache: dict | None = None
        if standbys:
            from .backend import parse_address

            for address in standbys:
                normalized = parse_address(address)[0]
                if normalized not in self._standbys:
                    self._standbys.append(normalized)
                    self._standby_health[normalized] = False
        if self._standbys and standby_check_interval_s > 0:
            self._standby_thread = threading.Thread(
                target=self._standby_check_loop,
                args=(float(standby_check_interval_s),),
                name="repro-standby-health",
                daemon=True,
            )
            self._standby_thread.start()
        register = getattr(backend, "add_worker_down_listener", None)
        if register is not None:
            register(self._on_worker_down)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_metrics(self, metrics) -> None:
        """Attach the serving layer's :class:`ServiceMetrics` so
        recoveries and losses land in the shared counter families."""
        self._metrics = metrics

    @property
    def backend(self):
        """The wrapped cluster backend (membership ops, ring, handles)."""
        return self._backend

    @property
    def checkpoint_every(self) -> int:
        """Journaled steps between automatic durable checkpoints."""
        return self._checkpoint_every

    # ------------------------------------------------------------------
    # per-session serialization
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _session_op(self, session_id: str):
        with self._lock:
            lock = self._session_locks.setdefault(session_id, threading.Lock())
        lock.acquire()
        try:
            yield
        finally:
            lock.release()

    def _lost_error(self, session_id: str) -> WorkerDownError | None:
        with self._lock:
            reason = self._lost.get(session_id)
        return WorkerDownError(reason) if reason is not None else None

    def _with_recovery(self, session_id: str, fn):
        """Run one session op, healing across worker death.

        On ``WorkerDownError`` the op joins (or runs) a recovery pass --
        which restores the session onto a live worker -- and retries
        under the shared policy.  Sessions recovery had to give up on
        raise their recorded loss reason instead of retrying forever.
        """
        last_error: BaseException | None = None
        for delay_s in self._retry.schedule():
            if delay_s:
                time.sleep(delay_s)
            lost = self._lost_error(session_id)
            if lost is not None:
                raise lost
            with self._session_op(session_id):
                try:
                    return fn()
                except WorkerDownError as error:
                    last_error = error
            # Outside the session lock (recovery needs it): heal, retry.
            self._run_recoveries(wait=True)
        lost = self._lost_error(session_id)
        if lost is not None:
            raise lost
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # journaling / checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_now(self, session_id: str) -> SessionState:
        """Checkpoint to the durable store; caller holds the session lock."""
        state = self._backend.checkpoint(session_id)
        self._store.put(state)
        with self._lock:
            journal = self._journal.setdefault(session_id, StepJournal())
            journal.reset(state.committed_t)
        return state

    def _note_step(self, session_id: str, cell: int) -> None:
        checkpoint_due = False
        with self._lock:
            journal = self._journal.get(session_id)
            if journal is not None:
                journal.cells.append(int(cell))
                checkpoint_due = (
                    self._checkpoint_every > 0
                    and len(journal.cells) >= self._checkpoint_every
                )
        if checkpoint_due:
            # A failed auto-checkpoint must not fail the already-acked
            # step: the journal still covers the gap, and the next op
            # (or heartbeat) triggers recovery if the worker is gone.
            with contextlib.suppress(ReproError):
                self._with_recovery(
                    session_id, lambda: self._checkpoint_now(session_id)
                )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _on_worker_down(self, address: str) -> None:
        """Heartbeat callback: heal in the background, never block it."""
        threading.Thread(
            target=self._run_recoveries,
            kwargs={"wait": False},
            name="repro-cluster-recovery",
            daemon=True,
        ).start()

    def _run_recoveries(self, wait: bool = True) -> None:
        """One exclusive pass: rescue every session on a dead worker.

        Rescans until no dead worker holds assignments, so a cascade
        (the recovery target dying mid-restore) is just another round.
        ``wait=False`` (the heartbeat path) skips instead of queueing
        when a pass is already running -- that pass will observe any
        newly dead worker in its rescan.
        """
        if wait:
            acquired = self._recovery_lock.acquire(timeout=RECOVERY_WAIT_S)
        else:
            acquired = self._recovery_lock.acquire(blocking=False)
        if not acquired:
            return
        try:
            while True:
                down = self._backend.down_assignments()
                targets = {
                    address: sids for address, sids in down.items() if sids
                }
                if not targets:
                    break
                for address, sids in targets.items():
                    self._recover_worker(address, sids)
            # Sessions are safe; now close the loop on membership: each
            # dead member is replaced by a warm standby, no operator step.
            self._actuate_standbys()
        finally:
            self._recovery_lock.release()

    # ------------------------------------------------------------------
    # standby pool (the membership actuator)
    # ------------------------------------------------------------------
    def _probe_standby(self, address: str) -> bool:
        """One TCP reachability probe (connect + close, no RPC)."""
        import socket

        from .backend import parse_address

        _, host, port = parse_address(address)
        try:
            sock = socket.create_connection(
                (host, port), timeout=STANDBY_PROBE_TIMEOUT_S
            )
        except OSError:
            return False
        sock.close()
        return True

    def _standby_check_loop(self, interval_s: float) -> None:
        while not self._stop_standby_checks.wait(interval_s):
            with self._lock:
                pool = list(self._standbys)
            for address in pool:
                healthy = self._probe_standby(address)
                with self._lock:
                    if address in self._standbys:
                        self._standby_health[address] = healthy

    def _actuate_standbys(self) -> None:
        """Replace each dead member with a warm standby.

        PR 8's operator runbook (``repro cluster … leave`` the corpse,
        ``join`` a replacement) as a closed loop: for every dead member
        still in the fleet, drop it and ``join`` the next standby --
        which dials, verifies the hello frame, and live-migrates exactly
        the arcs the newcomer now owns.  Runs inside the exclusive
        recovery pass, *after* session rescue, so the corpse holds no
        assignments by the time it leaves.  Without a standby left the
        corpse stays in membership (readiness keeps reporting the hole
        rather than silently shrinking the fleet).
        """
        while True:
            dead = sorted(self._backend.down_assignments())
            with self._lock:
                pool = list(self._standbys)
            if not dead or not pool:
                return
            address = dead[0]
            try:
                self._backend.leave_worker(address)
            except ReproError:
                pass  # a racing membership op already dropped it
            promoted = None
            while promoted is None:
                with self._lock:
                    if not self._standbys:
                        break
                    standby = self._standbys.pop(0)
                    self._standby_health.pop(standby, None)
                try:
                    self._backend.join_worker(standby)
                except ReproError:
                    continue  # this standby is gone too; try the next
                promoted = standby
            if promoted is None:
                return
            with self._lock:
                self._standby_promotions += 1
            metrics = self._metrics
            if metrics is not None:
                record = getattr(metrics, "record_standby_promotion", None)
                if record is not None:
                    record()

    def standby_status(self) -> list[dict]:
        """One row per pooled standby (address + last probe verdict)."""
        with self._lock:
            return [
                {
                    "worker": address,
                    "healthy": self._standby_health.get(address, False),
                }
                for address in self._standbys
            ]

    def _load_checkpoint(self, session_id: str) -> SessionState | None:
        """The session's durable checkpoint; ``None`` when absent *or*
        unreadable -- a torn/corrupt checkpoint degrades to typed loss
        rather than wedging the whole recovery pass."""
        try:
            return self._store.get(session_id)
        except (ReproError, ValueError, KeyError, TypeError):
            return None

    def _recover_worker(self, address: str, session_ids: list[str]) -> None:
        recovered = 0
        replayed = 0
        lost: list[str] = []
        for sid in sorted(session_ids):
            with self._lock:
                lock = self._session_locks.setdefault(sid, threading.Lock())
            if not lock.acquire(timeout=RECOVERY_SESSION_WAIT_S):
                continue  # an op holds it; rescans retry this session
            try:
                if self._backend.assignment_of(sid) != address:
                    continue  # already moved (racing pass or migration)
                state = self._load_checkpoint(sid)
                self._backend.forget_session(sid)
                if state is None:
                    reason = (
                        f"session {sid!r} was lost when worker {address} "
                        "died: no durable checkpoint to recover from"
                    )
                    with self._lock:
                        self._lost[sid] = reason
                        self._journal.pop(sid, None)
                    lost.append(sid)
                    continue
                try:
                    replayed += self._restore_and_replay(sid, state)
                except WorkerDownError:
                    # The whole fleet is unreachable for this session.
                    # Its checkpoint stays in the store; the serving
                    # layer's restore-on-touch resumes it once capacity
                    # returns, at the checkpointed position.
                    reason = (
                        f"session {sid!r} could not be recovered after "
                        f"worker {address} died: no live worker accepted "
                        "its restored checkpoint"
                    )
                    with self._lock:
                        self._lost[sid] = reason
                    lost.append(sid)
                    continue
                recovered += 1
            finally:
                lock.release()
        with self._lock:
            self._sessions_recovered += recovered
            self._steps_replayed += replayed
            self._sessions_lost += len(lost)
            if recovered or lost:
                self._workers_recovered += 1
        metrics = self._metrics
        if metrics is not None:
            if recovered:
                metrics.record_recovery("worker")
                metrics.record_recovery("session", recovered)
                metrics.record_recovery("replayed_step", replayed)
            if lost:
                metrics.record_failure("sessions_lost", len(lost))

    def _restore_and_replay(self, session_id: str, state: SessionState) -> int:
        """Resume ``state`` on a live worker and replay the journal.

        Returns the number of replayed steps.  A cascade (the restore
        target dying mid-replay) forgets the half-restored session and
        starts over on the next ring successor, under the retry policy.
        """
        with self._lock:
            journal = self._journal.get(session_id)
            base_t = journal.base_t if journal is not None else state.committed_t
            cells = list(journal.cells) if journal is not None else []
        # The store may be ahead of the journal base (a foreign writer
        # checkpointed); replay only the cells past the stored position.
        skip = min(max(state.committed_t - base_t, 0), len(cells))
        replay = cells[skip:]
        last_error: BaseException | None = None
        for delay_s in self._retry.schedule():
            if delay_s:
                time.sleep(delay_s)
            try:
                self._backend.resume(state)
                for cell in replay:
                    self._backend.step(session_id, cell)
                return len(replay)
            except WorkerDownError as error:
                last_error = error
                self._backend.forget_session(session_id)
        assert last_error is not None
        raise last_error

    def recovery_stats(self) -> dict:
        """Counters for the ``stats`` op and ``cluster_status``."""
        with self._lock:
            return {
                "checkpoint_every": self._checkpoint_every,
                "workers_recovered": self._workers_recovered,
                "sessions_recovered": self._sessions_recovered,
                "steps_replayed": self._steps_replayed,
                "sessions_lost": self._sessions_lost,
                "journaled_sessions": len(self._journal),
                "standby_promotions": self._standby_promotions,
                "standbys_pooled": len(self._standbys),
            }

    # ------------------------------------------------------------------
    # ExecutionBackend surface
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        return self._backend.horizon

    @property
    def n_states(self) -> int:
        return self._backend.n_states

    @property
    def n_shards(self) -> int:  # type: ignore[override]
        return self._backend.n_shards

    def open(self, session_id: str, seed: int | None = None, scenario=None) -> int:
        with self._session_op(session_id):
            horizon = self._backend.open(session_id, seed, scenario)
            with self._lock:
                self._lost.pop(session_id, None)
                self._journal[session_id] = StepJournal()
            if self._checkpoint_every > 0:
                # An immediate t=0 checkpoint makes the session
                # recoverable from its very first step.
                self._checkpoint_now(session_id)
        return horizon

    def contains(self, session_id: str) -> bool:
        return self._backend.contains(session_id)

    def resident_count(self) -> int:
        return self._backend.resident_count()

    def session_ids(self) -> list[str]:
        return self._backend.session_ids()

    def step(self, session_id: str, cell: int) -> ReleaseRecord:
        record = self._with_recovery(
            session_id, lambda: self._backend.step(session_id, cell)
        )
        self._note_step(session_id, cell)
        return record

    def step_batch(
        self, cells: Mapping[str, int]
    ) -> tuple[dict[str, ReleaseRecord], dict[str, BaseException]]:
        errors: dict[str, BaseException] = {}
        todo: dict[str, int] = {}
        for sid, cell in cells.items():
            lost = self._lost_error(sid)
            if lost is not None:
                errors[sid] = lost
            else:
                todo[sid] = cell
        # Every member's session lock, as a solo op holds its own, so a
        # recovery's restore+replay never interleaves with the batch.
        with contextlib.ExitStack() as stack:
            for sid in sorted(todo):
                stack.enter_context(self._session_op(sid))
            records, batch_errors = self._backend.step_batch(todo)
        errors.update(batch_errors)
        for sid in records:
            self._note_step(sid, cells[sid])
        down = [
            sid
            for sid, error in errors.items()
            if isinstance(error, WorkerDownError)
        ]
        if down:
            self._run_recoveries(wait=True)
            for sid in down:
                try:
                    record = self._with_recovery(
                        sid, lambda s=sid: self._backend.step(s, cells[s])
                    )
                except ReproError as retry_error:
                    errors[sid] = retry_error
                    continue
                records[sid] = record
                del errors[sid]
                self._note_step(sid, cells[sid])
        return records, errors

    def peek_budget(self, session_id: str) -> float:
        return self._with_recovery(
            session_id, lambda: self._backend.peek_budget(session_id)
        )

    def finish(self, session_id: str) -> ReleaseLog:
        log = self._with_recovery(
            session_id, lambda: self._backend.finish(session_id)
        )
        with self._lock:
            self._journal.pop(session_id, None)
            self._session_locks.pop(session_id, None)
        if self._checkpoint_every > 0:
            # Drop the auto-checkpoint: a finished session must not be
            # resurrected by a later restore-on-touch.
            self._store.delete(session_id)
        return log

    def checkpoint(self, session_id: str) -> SessionState:
        return self._with_recovery(
            session_id, lambda: self._checkpoint_now(session_id)
        )

    def suspend(self, session_id: str) -> SessionState:
        state = self._with_recovery(
            session_id, lambda: self._backend.suspend(session_id)
        )
        with self._lock:
            journal = self._journal.get(session_id)
            if journal is not None:
                journal.reset(state.committed_t)
        return state

    def suspend_all(self) -> tuple[list[SessionState], list[str]]:
        # Rescue what can be rescued first, so a graceful drain after a
        # worker death checkpoints recovered sessions instead of
        # reporting them lost.
        self._run_recoveries(wait=True)
        return self._backend.suspend_all()

    def resume(self, state: SessionState) -> str:
        with self._session_op(state.session_id):
            sid = self._backend.resume(state)
            with self._lock:
                self._lost.pop(sid, None)
                self._journal[sid] = StepJournal(state.committed_t)
        return sid

    def shard_stats(self) -> list[dict] | None:
        return self._backend.shard_stats()

    def worker_health(self) -> list[dict] | None:
        return self._backend.worker_health()

    def lost_session_ids(self) -> list[str]:
        with self._lock:
            permanently = set(self._lost)
        return sorted(permanently | set(self._backend.lost_session_ids()))

    def close(self) -> None:
        self._stop_standby_checks.set()
        if self._standby_thread is not None:
            self._standby_thread.join(1.0)
        self._backend.close()

    # ------------------------------------------------------------------
    # membership / migration pass-throughs (the server's cluster ops)
    # ------------------------------------------------------------------
    def drain_worker(self, address: str) -> dict:
        return self._backend.drain_worker(address)

    def join_worker(self, address: str) -> dict:
        return self._backend.join_worker(address)

    def leave_worker(self, address: str) -> dict:
        # Rescue a dead leaver's sessions before membership forgets
        # where they were assigned.
        self._run_recoveries(wait=True)
        try:
            return self._backend.leave_worker(address)
        except WorkerDownError:
            # The leaver died after the recovery pass but before (or
            # during) its drain: the failed RPC just marked it dead, so
            # heal from checkpoints and retake the dead-member path.
            self._run_recoveries(wait=True)
            return self._backend.leave_worker(address)

    def cluster_status(self) -> dict:
        """The membership snapshot, served from cache mid-recovery.

        The live path refreshes a cached copy on every success.  While a
        recovery pass holds the exclusive lock -- membership is actively
        being reshaped -- or when the backend path itself fails, the
        last-good snapshot is served with ``"cached": true`` instead of
        blocking or erroring, so operators can watch a recovery rather
        than being locked out of it.  Recovery counters and standby rows
        are always live (they are the supervisor's own state).
        """
        status: dict | None = None
        in_recovery = not self._recovery_lock.acquire(blocking=False)
        if not in_recovery:
            self._recovery_lock.release()
        if not in_recovery:
            try:
                status = self._backend.cluster_status()
            except ReproError:
                status = None
        if status is None:
            with self._lock:
                cached = self._status_cache
            if cached is None:
                # Nothing cached yet: the live path is the only option.
                status = self._backend.cluster_status()
                status["cached"] = False
            else:
                status = dict(cached)
                status["cached"] = True
        else:
            status["cached"] = False
            with self._lock:
                self._status_cache = dict(status)
        status["recovery"] = self.recovery_stats()
        status["standbys"] = self.standby_status()
        return status

    def worker_addresses(self) -> list[str]:
        return self._backend.worker_addresses()

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
