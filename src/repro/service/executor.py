"""The per-session queue every served op goes through.

A session owns a stateful RNG and quantifier fronts, so a served stream
is bit-identical to driving the session directly only if the session's
ops apply in the order its client sent them.  :class:`StepBatcher` is
the server's one mechanism for that order: each session has a FIFO,
every op (open, step, budget peek, checkpoint, finish and an eviction's
suspend) enters it before its request handler first awaits, and a
session has at most one op in flight.

The work itself is CPU-bound (linear algebra and the QP solver) or a
blocking worker RPC, so it runs on a pool of ``repro-step`` threads --
numpy/scipy release the GIL in their kernels, so different sessions
genuinely overlap -- never on the event loop.  The queue clocks itself:
whenever a pool slot is free, the head op of every session not in
flight starts, the steps among them as one batched backend call (group
commit) and every other op as a job of its own.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from ..obs.trace import NULL_TRACER, activate, deactivate


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


@dataclass(eq=False)
class _Op:
    """One queued session op: a step (``cell``) or a pool job (``fn``)."""

    name: str  # the wire op, e.g. "step" or "peek_budget"
    future: asyncio.Future
    cell: int | None = None
    fn: Callable[[], object] | None = None
    restore: bool = True  # restore a store-parked session first
    trace_id: str | None = None
    deadline_ms: int | None = None
    submitted: float = field(default_factory=time.perf_counter)


class StepBatcher:
    """The per-session op queue, with group commit for steps.

    ``manager`` is a :class:`~repro.engine.SessionManager` or any
    execution backend.  ``workers`` sizes the ``repro-step`` pool
    (``None``: :func:`default_workers` for the backend's shard count;
    ``0`` runs every job inline on the event loop).  At most
    ``max(1, workers)`` jobs run at once.  A flush walks the sessions in
    turn (one that has just started an op goes to the back) and starts
    the head op of each one not in flight while slots last: all the
    head steps share one job and one
    :meth:`~repro.engine.backend.ExecutionBackend.step_batch` call, and
    every other op is a job of its own.  A lone step on an idle server
    runs at once; under load the steps that arrive while the pool is
    busy form the next batch.  Since a batch's lockstep groups are
    bit-identical to solo stepping, so is every served stream.

    Every job admits each of its members the same way before it touches
    any session state: it measures the member's queue wait (submit to
    job start), records it as the ``queue_wait`` span of a traced
    request, feeds it to the shedder (``observe``), sheds a blown
    ``deadline_ms`` (``check_deadline``) and restores a store-parked
    session (``restore``).  The backend call runs under the trace of the
    first traced member, so a worker backend stamps one trace id per
    RPC.  A failure -- bad id or cell, shed deadline, engine error (see
    :meth:`~repro.engine.SessionManager.step_batch`) -- rejects that
    member's request alone.  With a worker backend a batch fans out as
    at most one RPC per worker, all sent before any reply is awaited
    (:meth:`repro.cluster.ClusterBackend.step_batch`).
    """

    def __init__(
        self,
        manager,
        workers: int | None = None,
        restore: Callable[[str], bool] | None = None,
        tracer=None,
        shedder=None,
    ):
        from ..engine.backend import as_backend

        self._backend = as_backend(manager)
        self._workers = (
            default_workers(self._backend.n_shards) if workers is None else int(workers)
        )
        self._pool = (
            ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-step"
            )
            if self._workers > 0
            else None
        )
        self._restore = restore
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._shedder = shedder
        # sid -> that session's ops not yet started, oldest first.  The
        # sessions take turns: one that starts an op and still has more
        # queued moves to the back, so a session that keeps its pipeline
        # full cannot hold the pool from the others.
        self._queues: dict[str, deque[_Op]] = {}
        self._queued = 0
        self._busy: set[str] = set()  # sessions with an op in flight
        self._flush_handle: asyncio.Handle | None = None
        self._running = 0  # jobs in flight
        self._running_batches = 0
        self._jobs: set[asyncio.Task] = set()
        self._batches = 0
        self._steps = 0
        self._max_batch = 0

    @property
    def workers(self) -> int:
        """Configured pool size (0 = inline)."""
        return self._workers

    @property
    def active_sessions(self) -> int:
        """Sessions with an op queued or in flight (gauge)."""
        return len(self._busy.union(self._queues))

    def idle(self, session_id: str) -> bool:
        """True when ``session_id`` has nothing queued or in flight."""
        return session_id not in self._busy and session_id not in self._queues

    def queue_depth(self) -> int:
        """Unanswered ops: queued, or in a running job.

        The shedder's drained check reads this: a flush empties the
        queue into jobs whose run delays the next arrivals, so that
        moment must not read as drained.
        """
        return self._queued + len(self._busy)

    def stats(self) -> dict:
        """Step counters for the ``stats`` op (other ops are not counted)."""
        return {
            "batches": self._batches,
            "steps": self._steps,
            "max_batch": self._max_batch,
            "mean_batch": round(self._steps / self._batches, 3)
            if self._batches
            else None,
            "pending": sum(
                op.fn is None for ops in self._queues.values() for op in ops
            ),
            "inflight": self._running_batches,
        }

    def submit(
        self,
        session_id: str,
        cell: int,
        trace_id: str | None = None,
        deadline_ms: int | None = None,
    ) -> asyncio.Future:
        """Queue one step; the future resolves to ``(restored, record)``."""
        return self._enqueue(
            session_id, "step", cell=int(cell), trace_id=trace_id,
            deadline_ms=deadline_ms,
        )

    def run(
        self,
        session_id: str,
        op: str,
        fn: Callable[[], object],
        trace_id: str | None = None,
        deadline_ms: int | None = None,
        restore: bool = True,
    ) -> asyncio.Future:
        """Queue any other op; ``fn`` runs on the pool once the session's
        earlier ops are done, and the future resolves to ``(restored,
        fn())``.  ``restore=False`` skips restore-on-touch (an open, a
        suspend)."""
        return self._enqueue(
            session_id, op, fn=fn, restore=restore, trace_id=trace_id,
            deadline_ms=deadline_ms,
        )

    def _enqueue(self, session_id: str, name: str, **fields) -> asyncio.Future:
        op = _Op(name, asyncio.get_running_loop().create_future(), **fields)
        self._queues.setdefault(session_id, deque()).append(op)
        self._queued += 1
        self._schedule()
        return op.future

    def shutdown(self) -> None:
        """Stop the pool (waits for running jobs)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _schedule(self) -> None:
        """Arrange the next flush once a pool slot is free."""
        if (
            self._flush_handle is not None
            or not self._queues
            or self._running >= max(1, self._workers)
        ):
            return
        # A zero-delay timer rather than call_soon: it fires after every
        # callback queued during this loop turn, so request tasks created
        # meanwhile (say, from another connection's read) join the flush.
        self._flush_handle = asyncio.get_running_loop().call_later(
            0.0, self._flush
        )

    def _flush(self) -> None:
        """Start the head op of each session not in flight, while slots last."""
        self._flush_handle = None
        free = max(1, self._workers) - self._running
        batch: dict[str, _Op] = {}
        jobs: list[dict[str, _Op]] = []
        for sid, queue in self._queues.items():
            if sid in self._busy:
                continue
            head = queue[0]
            if head.fn is None and batch:
                batch[sid] = head  # joins the batch that holds a slot
            elif free > 0:
                free -= 1
                if head.fn is None:
                    batch[sid] = head
                    jobs.append(batch)
                else:
                    jobs.append({sid: head})
        loop = asyncio.get_running_loop()
        for job in jobs:
            for sid in job:
                queue = self._queues.pop(sid)
                queue.popleft()
                if queue:
                    self._queues[sid] = queue  # to the back: its turn is spent
            self._queued -= len(job)
            self._busy.update(job)
            self._running += 1
            task = loop.create_task(self._run_job(job))
            self._jobs.add(task)
            task.add_done_callback(self._jobs.discard)

    async def _run_job(self, job: dict[str, _Op]) -> None:
        steps = next(iter(job.values())).fn is None
        if steps:
            self._batches += 1
            self._steps += len(job)
            self._max_batch = max(self._max_batch, len(job))
            self._running_batches += 1
        try:
            if self._pool is None:
                outcomes = self._run(job)
            else:
                outcomes = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self._run, job
                )
        except BaseException as error:  # noqa: BLE001 - route to every waiter
            outcomes = dict.fromkeys(job, error)
            if not isinstance(error, Exception):
                raise
        finally:
            self._running -= 1
            if steps:
                self._running_batches -= 1
            self._busy.difference_update(job)
            self._schedule()
            for sid, op in job.items():
                outcome = outcomes[sid]
                if op.future.done():
                    continue
                if isinstance(outcome, BaseException):
                    op.future.set_exception(outcome)
                else:
                    op.future.set_result(outcome)

    def _run(self, job: dict[str, _Op]) -> dict[str, object]:
        """The pool job: admit each member, then one backend call.

        Returns each member's ``(restored, value)``, or its exception.
        """
        started = time.perf_counter()
        first = next(iter(job.values()))
        outcomes: dict[str, object] = {}
        restored: dict[str, bool] = {}
        trace_id = None  # the first traced member's
        for sid, op in job.items():
            try:
                restored[sid] = self._admit(sid, op, started - op.submitted)
            except Exception as error:  # noqa: BLE001 - isolate per member
                outcomes[sid] = error
                continue
            trace_id = trace_id or op.trace_id
        if not restored:
            return outcomes
        # Activate on this pool thread so a worker backend's RPC
        # clients stamp the wire frame with the trace id.
        token = activate(self._tracer, trace_id) if trace_id is not None else None
        try:
            if first.fn is not None:  # an op of its own, the only member
                (sid,) = restored
                try:
                    outcomes[sid] = (restored[sid], first.fn())
                except Exception as error:  # noqa: BLE001 - to its waiter
                    outcomes[sid] = error
                return outcomes
            solve_started = time.perf_counter()
            records, errors = self._backend.step_batch(
                {sid: job[sid].cell for sid in restored}
            )
        finally:
            if trace_id is not None:
                deactivate(token)
        solve_s = time.perf_counter() - solve_started
        for sid in restored:
            if job[sid].trace_id is not None:
                self._tracer.record(
                    "solve", job[sid].trace_id, solve_s, session=sid,
                    batch=len(restored),
                )
        outcomes.update(errors)
        for sid, record in records.items():
            outcomes[sid] = (restored[sid], record)
        return outcomes

    def _admit(self, sid: str, op: _Op, waited: float) -> bool:
        """The one admission path: queue wait, shedding, restore-on-touch.

        Runs on the pool thread before ``op`` touches any session state;
        returns whether it restored a store-parked session.  A step's
        ``queue_wait`` span carries only its session (the ledger counts
        untagged spans as steps); every other op's carries its ``op``.
        """
        if op.trace_id is not None:
            attrs = {"session": sid}
            if op.fn is not None:
                attrs["op"] = op.name
            self._tracer.record("queue_wait", op.trace_id, waited, **attrs)
        if self._shedder is not None:
            self._shedder.observe(waited)
            self._shedder.check_deadline(op.name, op.deadline_ms, waited)
        return bool(op.restore and self._restore is not None and self._restore(sid))
