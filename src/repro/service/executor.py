"""Worker-pool offload with strict per-session ordering.

The calibrate-and-check step is CPU-bound (linear algebra + the QP
solver); run on the event loop it would serialize every client behind
the slowest step and starve the loop.  :class:`SessionExecutor` pushes
work onto a ``ThreadPoolExecutor`` -- numpy/scipy release the GIL in
their kernels, so different sessions genuinely overlap -- while a
per-session async lock guarantees that operations *on one session*
never run concurrently or out of order (the session owns a stateful RNG
and quantifier fronts; ordering is what makes server-mediated streams
bit-identical to direct ones).

The same per-session lock also serializes lifecycle operations (open,
finish, evict, restore) against in-flight steps of that session.

Every served step goes through :class:`StepBatcher`, a self-clocked
group-commit queue that flushes all pending steps as one batched
backend call whenever a pool slot is free.  A flush runs under the
trace of its first traced member, so a worker backend stamps one trace
id on each RPC, as for a solo step.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from ..obs.trace import NULL_TRACER, activate, deactivate

T = TypeVar("T")


def default_workers(shards: int = 0) -> int:
    """Worker count when unspecified, aware of the shard layout.

    In-process (``shards == 0``) the workers *are* the CPU concurrency:
    one thread per core, capped.  With a sharded backend the engine CPU
    moves into ``shards`` worker processes and the parent's threads
    only wait on RPC replies, so spawning cores' worth of threads per
    process would just oversubscribe the box with bookkeeping: the pool
    shrinks so ``workers x shards`` stays near the core count (never
    below 2 threads, so lifecycle ops don't serialize behind one slot).
    Both numbers are reported by the ``stats`` op (``server.workers``,
    ``server.shards``).
    """
    cores = os.cpu_count() or 4
    if shards <= 0:
        return min(32, cores)
    return min(32, max(2, cores // shards))


class _KeyedLocks:
    """Per-key asyncio locks that free themselves when unused."""

    def __init__(self):
        self._locks: dict[str, list] = {}  # key -> [lock, holders+waiters]

    @contextlib.asynccontextmanager
    async def hold(self, key: str):
        entry = self._locks.get(key)
        if entry is None:
            entry = self._locks[key] = [asyncio.Lock(), 0]
        entry[1] += 1
        try:
            async with entry[0]:
                yield
        finally:
            entry[1] -= 1
            if entry[1] == 0:
                self._locks.pop(key, None)

    def is_idle(self, key: str) -> bool:
        """True when no task holds or awaits the key's lock."""
        return key not in self._locks

    def __len__(self) -> int:
        return len(self._locks)


class SessionExecutor:
    """Run session-touching callables off the event loop, in order.

    Parameters
    ----------
    workers:
        Thread-pool size; ``0`` runs callables inline on the event loop
        (useful for debugging and for tests that want single-threaded
        determinism of *scheduling*, not just results).
    shards:
        Shard-process count of the backend this executor fronts; only
        shapes the *default* worker count (see :func:`default_workers`).
    """

    def __init__(self, workers: int | None = None, shards: int = 0):
        self._workers = default_workers(shards) if workers is None else int(workers)
        self._pool = (
            ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-step"
            )
            if self._workers > 0
            else None
        )
        self._locks = _KeyedLocks()

    @property
    def workers(self) -> int:
        """Configured worker count (0 = inline)."""
        return self._workers

    @property
    def active_sessions(self) -> int:
        """Sessions with a held or awaited lock right now (gauge)."""
        return len(self._locks)

    def queue_depth(self) -> int:
        """Jobs waiting in the pool's queue (0 when inline).

        Reads the executor's internal work queue -- guarded, so an
        interpreter without it simply reports 0 instead of breaking
        the scrape.
        """
        if self._pool is None:
            return 0
        queue = getattr(self._pool, "_work_queue", None)
        if queue is None:
            return 0
        try:
            return queue.qsize()
        except (NotImplementedError, OSError):
            return 0

    def session_idle(self, session_id: str) -> bool:
        """True when no request currently touches ``session_id``."""
        return self._locks.is_idle(session_id)

    async def run(self, session_id: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the session's lock, on the pool."""
        async with self._locks.hold(session_id):
            if self._pool is None:
                return fn()
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, fn
            )

    async def run_inline(self, session_id: str, fn: Callable[[], T]) -> T:
        """Run a cheap ``fn`` under the session's lock, on the loop.

        For operations that only touch dicts and small objects (open,
        peek, evict bookkeeping) the pool round-trip costs more than the
        work.
        """
        async with self._locks.hold(session_id):
            return fn()

    @contextlib.asynccontextmanager
    async def hold_many(self, session_ids):
        """Hold several sessions' locks at once (batched stepping).

        Locks are acquired in sorted order, so any two holders that
        overlap acquire their common sessions in the same global order
        -- no deadlock regardless of how batches interleave with
        single-session operations (which never acquire a second lock).
        """
        async with contextlib.AsyncExitStack() as stack:
            for session_id in sorted(session_ids):
                await stack.enter_async_context(self._locks.hold(session_id))
            yield

    async def run_batch(self, session_ids, fn: Callable[[], T]) -> T:
        """Run ``fn`` on the pool while holding every session's lock."""
        async with self.hold_many(session_ids):
            if self._pool is None:
                return fn()
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, fn
            )

    def shutdown(self) -> None:
        """Stop the pool (waits for running steps)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)


class StepBatcher:
    """The one step path: a self-clocked group-commit queue.

    Every served ``step`` enqueues here.  While fewer than
    ``executor.workers`` batches (at least one) are in flight, all
    queued steps flush on the next loop turn as one pool job that runs
    :meth:`~repro.engine.backend.ExecutionBackend.step_batch` under
    every member's session lock (:meth:`SessionExecutor.run_batch`).
    A lone step on an idle server runs at once; under load the steps
    that arrive while the pool is busy form the next batch.  ``manager``
    is a :class:`~repro.engine.SessionManager` or any execution backend.

    Ordering: a session is in at most one batch in flight (a pipelined
    second step waits for a flush after its first step's batch), so a
    session's steps apply in submission order and batches never wait on
    each other's locks; :meth:`barrier` lets non-step operations wait
    for a session's queued steps.  Since ``step_many`` is bit-identical
    to solo stepping, so is every served stream.

    Per member, the pool job measures the queue wait (submit to job
    start), feeds it to the shedder (``observe``), sheds a blown
    ``deadline_ms`` (``check_deadline``) before any session state is
    touched, restores a store-parked session, and records the
    ``queue_wait`` and ``solve`` spans of a traced request.  The
    backend call runs under the trace of the first traced member, so a
    worker backend stamps one trace id per RPC, as for a solo step.
    A failure -- bad id or cell, shed deadline, engine error (see
    :func:`~repro.engine.backend.step_batch_on_manager`) -- rejects
    that member's request alone.  With a worker backend a flush fans
    out as at most one RPC per worker
    (:meth:`repro.cluster.ClusterBackend.step_batch`).
    """

    def __init__(
        self,
        manager,
        executor: SessionExecutor,
        restore: Callable[[str], bool] | None = None,
        tracer=None,
        shedder=None,
    ):
        from ..engine.backend import as_backend

        self._backend = as_backend(manager)
        self._executor = executor
        self._restore = restore
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._shedder = shedder
        # sid -> that session's queued steps, oldest first; a step is
        # (cell, future, trace_id, deadline_ms, submitted_perf_s).
        self._pending: dict[str, list[tuple]] = {}
        self._n_pending = 0
        self._busy: set[str] = set()  # sessions in a flushed batch
        # Newest unresolved step future per session: a session's steps
        # resolve in order, so awaiting it waits out all of them.
        self._newest: dict[str, asyncio.Future] = {}
        self._flush_handle: asyncio.Handle | None = None
        self._running = 0
        self._flush_tasks: set[asyncio.Task] = set()
        self._batches = 0
        self._steps = 0
        self._max_batch = 0

    def stats(self) -> dict:
        """Counters for the ``stats`` op."""
        return {
            "batches": self._batches,
            "steps": self._steps,
            "max_batch": self._max_batch,
            "mean_batch": round(self._steps / self._batches, 3)
            if self._batches
            else None,
            "pending": self._n_pending,
            "inflight": self._running,
        }

    def window_occupancy(self) -> int:
        """Steps queued and not yet flushed (gauge)."""
        return self._n_pending

    def queue_depth(self) -> int:
        """Unanswered steps (queued or in a running batch) plus pool jobs.

        Under load the backlog waits here, not in the pool queue; and a
        flush empties the queue into a batch whose run delays the next
        arrivals, so the shedder must not read that moment as drained.
        """
        return self._n_pending + len(self._busy) + self._executor.queue_depth()

    async def submit(
        self,
        session_id: str,
        cell: int,
        trace_id: str | None = None,
        deadline_ms: int | None = None,
    ):
        """Queue one step; resolves to ``(restored, record)`` or raises."""
        future = asyncio.get_running_loop().create_future()
        self._pending.setdefault(session_id, []).append(
            (int(cell), future, trace_id, deadline_ms, time.perf_counter())
        )
        self._n_pending += 1
        self._newest[session_id] = future
        self._schedule()
        return await future

    async def barrier(self, session_id: str) -> None:
        """Wait out every queued or in-flight step for ``session_id``.

        Non-step operations call this before taking the session's lock,
        so they cannot overtake an earlier step of the session.  The
        step's outcome (or error) goes to its submitter, not here.
        """
        future = self._newest.get(session_id)
        if future is not None:
            await asyncio.wait((future,))

    def _schedule(self) -> None:
        """Arrange the next flush once a batch slot is free."""
        if (
            self._flush_handle is not None
            or not self._pending
            or self._running >= max(1, self._executor.workers)
        ):
            return
        # A zero-delay timer rather than call_soon: it fires after every
        # callback queued during this loop turn, so request tasks created
        # meanwhile (say, from another connection's read) join the flush.
        self._flush_handle = asyncio.get_running_loop().call_later(
            0.0, self._spawn_flush
        )

    def _spawn_flush(self) -> None:
        """Flush now: the oldest queued step of each session not in flight."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch: dict[str, tuple] = {}
        rest: dict[str, list[tuple]] = {}
        for sid, steps in self._pending.items():
            if sid in self._busy:
                rest[sid] = steps
                continue
            batch[sid] = steps[0]
            if len(steps) > 1:
                rest[sid] = steps[1:]
        self._pending = rest
        if not batch:
            return
        self._n_pending -= len(batch)
        self._busy.update(batch)
        self._running += 1
        task = asyncio.get_running_loop().create_task(self._flush(batch))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    async def _flush(self, batch: dict[str, tuple]) -> None:
        self._batches += 1
        self._steps += len(batch)
        self._max_batch = max(self._max_batch, len(batch))
        try:
            records, errors, restored = await self._executor.run_batch(
                batch.keys(), lambda: self._run(batch)
            )
        except BaseException as error:  # noqa: BLE001 - route to every waiter
            records, errors, restored = {}, dict.fromkeys(batch, error), {}
            if not isinstance(error, Exception):
                raise
        finally:
            self._running -= 1
            self._busy.difference_update(batch)
            self._schedule()
            for sid, (_, future, *_) in batch.items():
                if self._newest.get(sid) is future:
                    del self._newest[sid]
                if future.done():
                    continue
                if sid in errors:
                    future.set_exception(errors[sid])
                else:
                    future.set_result((restored[sid], records[sid]))

    def _run(self, batch: dict[str, tuple]):
        """The pool job: admit each member, then one backend call."""
        tracer, shedder = self._tracer, self._shedder
        started = time.perf_counter()
        todo: dict[str, int] = {}
        restored: dict[str, bool] = {}
        errors: dict[str, BaseException] = {}
        batch_trace = None  # the first traced member's
        for sid, (cell, _, trace_id, deadline_ms, submitted) in batch.items():
            waited = started - submitted
            if trace_id is not None:
                tracer.record("queue_wait", trace_id, waited, session=sid)
            try:
                if shedder is not None:
                    shedder.observe(waited)
                    shedder.check_deadline("step", deadline_ms, waited)
                restored[sid] = bool(self._restore and self._restore(sid))
            except Exception as error:  # noqa: BLE001 - isolate per member
                errors[sid] = error
                continue
            todo[sid] = cell
            batch_trace = batch_trace or trace_id
        solve_started = time.perf_counter()
        # Activate on this pool thread so a worker backend's RPC
        # clients stamp the wire frame with the trace id.
        token = activate(tracer, batch_trace) if batch_trace is not None else None
        try:
            records, step_errors = self._backend.step_batch(todo)
        finally:
            if batch_trace is not None:
                deactivate(token)
        solve_s = time.perf_counter() - solve_started
        for sid in todo:
            trace_id = batch[sid][2]
            if trace_id is not None:
                tracer.record(
                    "solve", trace_id, solve_s, session=sid, batch=len(todo)
                )
        errors.update(step_errors)
        return records, errors, restored
