"""Worker-pool offload with strict per-session ordering.

The calibrate-and-check step is CPU-bound (linear algebra + the QP
solver); run on the event loop it would serialize every client behind
the slowest step and starve the loop.  :class:`SessionExecutor` pushes
each step onto a ``ThreadPoolExecutor`` -- numpy/scipy release the GIL
in their kernels, so different sessions genuinely overlap -- while a
per-session async lock guarantees that operations *on one session*
never run concurrently or out of order (the session owns a stateful RNG
and quantifier fronts; ordering is what makes server-mediated streams
bit-identical to direct ones).

The same per-session lock also serializes lifecycle operations (open,
finish, evict, restore) against in-flight steps of that session.

:class:`StepBatcher` adds opt-in micro-batching on top: concurrent step
requests arriving within a small window coalesce into one
:meth:`~repro.engine.SessionManager.step_many` call, which batches the
linear algebra and solver work across sessions while the per-session
locks keep each stream ordered and bit-identical.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

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
    async def hold_many(self, session_ids, acquisition_gate: asyncio.Lock | None = None):
        """Hold several sessions' locks at once (batched stepping).

        Locks are acquired in sorted order, so any two holders that
        overlap acquire their common sessions in the same global order
        -- no deadlock regardless of how batches interleave with
        single-session operations (which never acquire a second lock).

        ``acquisition_gate`` serializes the *acquisition phase* across
        batches: a later batch cannot start queueing on any lock until
        the earlier batch holds all of its own, so two batches sharing
        a session always apply their steps in flush order even when the
        earlier batch is momentarily blocked on an unrelated contended
        lock.  The gate is released before the work runs, so disjoint
        batches still execute concurrently.
        """
        async with contextlib.AsyncExitStack() as stack:
            if acquisition_gate is not None:
                await acquisition_gate.acquire()
            try:
                for session_id in sorted(session_ids):
                    await stack.enter_async_context(self._locks.hold(session_id))
            finally:
                if acquisition_gate is not None:
                    acquisition_gate.release()
            yield

    async def run_batch(
        self,
        session_ids,
        fn: Callable[[], T],
        acquisition_gate: asyncio.Lock | None = None,
    ) -> T:
        """Run ``fn`` on the pool while holding every session's lock."""
        async with self.hold_many(session_ids, acquisition_gate):
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
    """Coalesce concurrent step requests onto one batched backend call.

    Opt-in (``--batch-window-ms``): the first step request of a batch
    opens a collection window; requests landing within it join; when the
    window closes, one worker-pool job steps the whole batch through the
    execution backend's batched pipeline
    (:meth:`~repro.engine.backend.ExecutionBackend.step_batch`) under
    every member session's lock.  Accepts a
    :class:`~repro.engine.SessionManager` (wrapped in-process) or any
    :class:`~repro.engine.backend.ExecutionBackend`.

    Ordering and stream identity are preserved:

    * a session appears at most once per batch -- a second request for a
      session already collected flushes the open batch immediately and
      seeds the next one;
    * batches acquire their session locks under one acquisition gate
      (see :meth:`SessionExecutor.hold_many`), so consecutive batches
      touching the same session apply its steps strictly in flush
      order, and :meth:`barrier` lets non-step operations on a session
      wait for its pending batched step first;
    * ``step_many`` itself is bit-identical to per-session stepping, so
      a served stream looks exactly as it would without batching --
      micro-batching only trades a bounded admission latency for
      cross-session throughput.

    Failures stay per-request: each member is validated (and restored
    from the store) individually, so one bad session id or cell rejects
    that request alone; only an engine-level error inside the shared
    batched call fails that member's timestamp group.

    With a worker backend (``--shards`` or ``--backend``) the flushed
    batch additionally fans out as at most one RPC per worker (see
    :meth:`repro.cluster.ClusterBackend.step_batch`), which is the
    multi-core scaling path: one collection window's worth of steps
    runs on every worker process in parallel.
    """

    def __init__(
        self,
        manager,
        executor: SessionExecutor,
        window_s: float,
        restore: Callable[[str], bool] | None = None,
        tracer=None,
    ):
        from ..engine.backend import as_backend
        from ..obs.trace import NULL_TRACER

        self._backend = as_backend(manager)
        self._executor = executor
        self._window_s = float(window_s)
        self._restore = restore
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # sid -> (cell, future, trace_id, enqueued_perf_s)
        self._pending: dict[str, tuple] = {}
        # Newest in-flight (flushed but unresolved) step future per
        # session; the acquisition gate orders batches, so awaiting the
        # newest also waits out any older one for the same session.
        self._inflight: dict[str, asyncio.Future] = {}
        self._window_task: asyncio.Task | None = None
        self._flush_tasks: set[asyncio.Task] = set()
        self._acquisition_gate = asyncio.Lock()
        self._batches = 0
        self._steps = 0
        self._max_batch = 0

    def stats(self) -> dict:
        """Counters for the ``stats`` op."""
        return {
            "window_ms": self._window_s * 1e3,
            "batches": self._batches,
            "steps": self._steps,
            "max_batch": self._max_batch,
            "mean_batch": round(self._steps / self._batches, 3)
            if self._batches
            else None,
            "pending": len(self._pending),
            "inflight": len(self._inflight),
        }

    def window_occupancy(self) -> int:
        """Steps collected in the currently open window (gauge)."""
        return len(self._pending)

    async def submit(self, session_id: str, cell: int, trace_id: str | None = None):
        """Queue one step; resolves to ``(restored, record)`` or raises."""
        loop = asyncio.get_running_loop()
        if session_id in self._pending:
            # Same session twice in one window: close the batch so the
            # two steps stay strictly ordered (the locks do the rest).
            self._spawn_flush()
        future: asyncio.Future = loop.create_future()
        self._pending[session_id] = (
            int(cell),
            future,
            trace_id,
            time.perf_counter() if self._tracer.enabled else 0.0,
        )
        if self._window_task is None:
            self._window_task = loop.create_task(self._window())
        return await future

    async def barrier(self, session_id: str) -> None:
        """Wait out a pending or in-flight batched step for ``session_id``.

        Non-step operations (finish, checkpoint, peek) call this before
        taking the session's lock, so a step still sitting in the open
        collection window -- or flushed but not yet holding its locks --
        cannot be overtaken by a later request for the same session.
        The step's own outcome (or error) is delivered to its
        submitter, not here.
        """
        entry = self._pending.get(session_id)
        if entry is not None:
            self._spawn_flush()
            future = entry[1]
        else:
            future = self._inflight.get(session_id)
            if future is None:
                return
        try:
            await asyncio.shield(future)
        except BaseException:  # noqa: BLE001 - outcome belongs to the submitter
            pass

    def _spawn_flush(self) -> None:
        batch = self._pending
        self._pending = {}
        if self._window_task is not None:
            self._window_task.cancel()
            self._window_task = None
        if not batch:
            return
        for sid, entry in batch.items():
            future = entry[1]
            self._inflight[sid] = future

            def _clear(done, sid=sid, future=future):
                if self._inflight.get(sid) is future:
                    del self._inflight[sid]

            future.add_done_callback(_clear)
        task = asyncio.get_running_loop().create_task(self._flush(batch))
        self._flush_tasks.add(task)
        task.add_done_callback(self._flush_tasks.discard)

    async def _window(self) -> None:
        try:
            await asyncio.sleep(self._window_s)
        except asyncio.CancelledError:
            return
        self._window_task = None
        self._spawn_flush()

    async def _flush(self, batch: dict[str, tuple]) -> None:
        self._batches += 1
        self._steps += len(batch)
        self._max_batch = max(self._max_batch, len(batch))
        backend = self._backend
        restore = self._restore
        tracer = self._tracer
        cells = {sid: entry[0] for sid, entry in batch.items()}
        if tracer.enabled:
            # Batch-wait: submit -> flush start, per member (its share
            # of the collection window plus any flush backlog).
            flushed_at = time.perf_counter()
            for sid, entry in batch.items():
                if entry[2] is not None:
                    tracer.record(
                        "batch_wait",
                        entry[2],
                        flushed_at - entry[3],
                        session=sid,
                        batch=len(batch),
                    )

        def _run():
            # Restore store-parked members individually, then hand the
            # batch to the backend, which validates each member, groups
            # by timestamp (and by shard when sharded) and isolates
            # errors per member / per lockstep group.
            errors: dict[str, BaseException] = {}
            restored: dict[str, bool] = {}
            todo: dict[str, int] = {}
            for sid, cell in cells.items():
                try:
                    restored[sid] = bool(restore(sid)) if restore else False
                    todo[sid] = cell
                except Exception as error:  # noqa: BLE001 - isolate per member
                    errors[sid] = error
            solve_started = time.perf_counter() if tracer.enabled else 0.0
            records, step_errors = backend.step_batch(todo)
            if tracer.enabled:
                # One batched backend call served every member: each
                # gets a solve span of the shared duration, tagged with
                # the batch size so dashboards can tell it apart from a
                # solo step.
                solve_s = time.perf_counter() - solve_started
                for sid in todo:
                    trace_id = batch[sid][2]
                    if trace_id is not None:
                        tracer.record(
                            "solve", trace_id, solve_s,
                            session=sid, batch=len(todo),
                        )
            errors.update(step_errors)
            return records, errors, restored

        try:
            records, errors, restored = await self._executor.run_batch(
                batch.keys(), _run, self._acquisition_gate
            )
        except BaseException as error:  # noqa: BLE001 - route to every waiter
            for entry in batch.values():
                future = entry[1]
                if not future.done():
                    future.set_exception(error)
            return
        for sid, entry in batch.items():
            future = entry[1]
            if future.done():
                continue
            if sid in errors:
                future.set_exception(errors[sid])
            else:
                future.set_result((restored.get(sid, False), records[sid]))
