"""The ``repro worker`` process: one engine node of a cluster.

A :class:`WorkerServer` owns a full
:class:`~repro.engine.SessionManager` (models, mechanism ladder,
verdict cache -- built once from the worker's engine configuration) and
answers the engine op set -- open, step, step_batch, peek_budget,
finish, checkpoint, suspend, resume, suspend_all, stats -- over asyncio
TCP using the typed cluster codec
(:mod:`repro.cluster.codec`) under bounded length-prefixed frames
(:mod:`repro.cluster.frames`).  Received bytes are never unpickled.

Concurrency model
-----------------
The event loop only reads frames and writes replies.  Engine ops run on
a *single* worker thread, which serializes them in arrival order --
per-worker ordering, as if the worker were single-threaded -- while
``ping`` and ``hello`` are answered
inline on the loop.  A worker grinding through a big ``step_batch``
therefore still answers heartbeats immediately: a *busy* worker and a
*hung* worker look different to the router.

On stop, the shared :class:`~repro._listener.Listener` stops reading,
lets every engine op already read write its reply, then closes the
router connections; it never waits for a router to hang up.

A worker is deliberately ignorant of the ring: placement and migration
live entirely in :class:`~repro.cluster.ClusterBackend`.  Any session
can be ``resume``\\ d here from a checkpoint taken anywhere, because
checkpoints embed their scenario binding (digest + spec) and the
manager re-materializes models on demand.  Sessions bound to a server's
*default* configuration assume every worker was started with the same
engine flags -- keep worker and router configurations identical (the
``repro worker`` CLI takes the same engine flags as ``repro serve``).

:func:`spawn_local_worker` starts one worker as a child process on a
loopback port; ``repro serve --shards N`` is N of them behind
:meth:`~repro.cluster.ClusterBackend.spawn_local`.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from .._listener import Listener
from ..core.qp import kernel_stats
from ..core.two_world import front_stats
from ..engine.manager import SessionManager
from ..errors import FrameTooLargeError, ProtocolError, ServiceError
from ..obs.trace import Tracer
from .chaos import FaultInjector, FaultPlan
from .codec import decode_message, encode_error, encode_ok
from .frames import FRAME_HEADER, pack_frame, payload_length

__all__ = [
    "WorkerServer",
    "run_worker",
    "spawn_local_worker",
    "spawn_local_workers",
    "stop_local_worker",
]

#: The interface spawned local workers listen on.
LOOPBACK = "127.0.0.1"
#: Seconds a spawned local worker gets to report its bound port.
LOCAL_SPAWN_TIMEOUT_S = 120.0
#: Seconds between a local worker's checks that its parent is alive.
PARENT_CHECK_INTERVAL_S = 1.0
#: Seconds a terminated local worker gets to exit before it is left.
LOCAL_STOP_TIMEOUT_S = 5.0


def default_context() -> multiprocessing.context.BaseContext:
    """``fork`` where supported (closures allowed), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_execute(manager: SessionManager, metrics, op: str, args, tracer=None):
    """Dispatch one RPC op against the worker's private manager.

    ``tracer`` (the worker process's :class:`~repro.obs.trace.Tracer`)
    only feeds the ``stats`` payload here -- :meth:`WorkerServer._run_op`
    records the actual ``solver`` spans, since only it sees the
    propagated trace id.
    """
    if op == "step":
        sid, cell = args
        metrics.record_request("step")
        manager.validate_step(sid, cell)
        record = manager.step(sid, cell)
        metrics.record_step(record.elapsed_s, record)
        return record
    if op == "step_batch":
        records, errors = manager.step_batch(args)
        for record in records.values():
            metrics.record_request("step")
            metrics.record_step(record.elapsed_s, record)
        for error in errors.values():
            metrics.record_error(type(error).__name__)
        return records, errors
    if op == "open":
        sid, seed, scenario = args
        metrics.record_request("open")
        manager.open(sid, rng=seed, scenario=scenario)
        metrics.record_session_event("opened")
        return manager.horizon_of(sid)
    if op == "peek_budget":
        metrics.record_request("peek_budget")
        return manager.peek_budget(args)
    if op == "finish":
        metrics.record_request("finish")
        log = manager.finish(args)
        metrics.record_session_event("finished")
        return log
    if op == "checkpoint":
        metrics.record_request("checkpoint")
        return manager.checkpoint(args)
    if op == "suspend":
        state = manager.suspend(args)
        metrics.record_session_event("evicted")
        return state
    if op == "resume":
        sid = manager.resume(args)
        metrics.record_session_event("restored")
        return sid
    if op == "suspend_all":
        states = [manager.suspend(sid) for sid in list(manager.session_ids)]
        metrics.record_session_event("evicted", len(states))
        return states
    if op == "stats":
        cache = manager.cache_stats()
        return {
            "pid": os.getpid(),
            "sessions": len(manager),
            "scenarios": manager.scenario_digests(),
            "metrics": metrics.dump(),
            "tracing": None if tracer is None else tracer.stats(),
            "spans": [] if tracer is None else tracer.recent(32),
            "verdict_cache": None
            if cache is None
            else {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hit_rate, 6),
                "size": cache.size,
                "evictions": cache.evictions,
            },
            "solver": {"kernel": kernel_stats(), "front": front_stats()},
        }
    raise ServiceError(f"unknown worker op {op!r}")


class WorkerServer:
    """One cluster worker: a session manager behind an asyncio TCP port."""

    def __init__(
        self,
        factory: Callable[[], SessionManager],
        host: str = "127.0.0.1",
        port: int = 0,
        fault_plan: FaultPlan | None = None,
        capacity: float | None = None,
    ):
        self._factory = factory
        self._host = host
        if capacity is not None and not capacity > 0:
            raise ServiceError(f"worker capacity must be > 0, got {capacity}")
        #: Relative placement weight reported in ``hello``; the router
        #: sizes this worker's ring arcs proportionally.
        self.capacity = float(capacity) if capacity else float(os.cpu_count() or 1)
        # EWMA of engine-op service time (per step), reported in ping
        # replies so the router sees live load without extra RPCs.
        self._ewma_step_s = 0.0
        self._manager: SessionManager | None = None
        self._metrics = None
        # Records only when a router frame carries a trace id, so an
        # untraced deployment pays nothing here.
        self._tracer = Tracer(capacity=256)
        self._faults = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._listener = Listener(self._serve_connection, host, int(port))
        self._stop_event: asyncio.Event | None = None
        # One thread: engine ops execute serially, in submission order.
        self._engine = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-worker-engine"
        )
        self.port: int | None = None
        self.draining = False

    @property
    def address(self) -> str:
        """The worker's ``tcp://host:port`` address (after :meth:`start`)."""
        if self.port is None:
            raise ServiceError("worker is not started")
        return f"tcp://{self._host}:{self.port}"

    @property
    def manager(self) -> SessionManager:
        if self._manager is None:
            raise ServiceError("worker is not started")
        return self._manager

    async def start(self) -> None:
        """Build the manager and bind the listening socket."""
        from ..service.metrics import ServiceMetrics

        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        # The factory may be expensive (model building); keep the loop
        # responsive while it runs.
        self._manager = await loop.run_in_executor(self._engine, self._factory)
        self._metrics = ServiceMetrics()
        await self._listener.start()
        self.port = self._listener.port

    def _hello(self) -> dict:
        manager = self.manager
        return {
            "pid": os.getpid(),
            "host": self._host,
            "port": self.port,
            "horizon": manager.config.horizon,
            "n_states": manager.n_states,
            "sessions": len(manager),
            "capacity": self.capacity,
        }

    def _load(self) -> dict:
        """The live-load heartbeat payload (answers ``ping``).

        Extra keys ride the existing ping exchange the way ``trace``
        rides call envelopes: receivers read only the keys they know,
        so an older router that expects the bare ``"pong"`` string
        keeps working against the ``pong: true`` marker check.
        """
        manager = self._manager
        return {
            "pong": True,
            "capacity": self.capacity,
            "sessions": len(manager) if manager is not None else 0,
            "queue_depth": self._listener.in_flight,
            "ewma_step_latency_s": self._ewma_step_s,
        }

    def request_stop(self) -> None:
        """Ask :meth:`wait_stopped` to return (idempotent, thread-safe
        only from the loop)."""
        if self._stop_event is not None:
            self._stop_event.set()

    def request_drain(self) -> None:
        """A graceful stop: finish in-flight ops, then announce ``leave``.

        The SIGTERM path.  Marks the worker draining (so the exit
        announcement tells operators -- and the scripts parsing announce
        lines -- that this was an orderly departure, not a crash) and
        triggers the same teardown as :meth:`request_stop`, which flushes
        replies for every accepted engine op before the process exits.
        """
        self.draining = True
        self.request_stop()

    async def wait_stopped(self) -> None:
        """Block until :meth:`request_stop`, then tear the server down."""
        assert self._stop_event is not None
        await self._stop_event.wait()
        # Every engine op already read runs and flushes its reply before
        # the engine thread stops.
        await self._listener.close()
        self._engine.shutdown(wait=True)

    async def _reply(self, send, payload: bytes) -> None:
        await send(pack_frame(payload))

    async def _run_op(self, send, request_id, op, args, trace=None):
        loop = asyncio.get_running_loop()
        started = time.perf_counter() if trace else 0.0
        if self._faults is not None:
            delay_s = self._faults.delay_s()
            if delay_s:
                await asyncio.sleep(delay_s)
        queued = time.perf_counter()
        try:
            result = await loop.run_in_executor(
                self._engine,
                _worker_execute,
                self._manager,
                self._metrics,
                op,
                args,
                self._tracer,
            )
            if op in ("step", "step_batch"):
                # Per-step service time including engine-queue wait --
                # the queueing signal the router's shedder cares about.
                n = len(args) if op == "step_batch" and args else 1
                per_step = (time.perf_counter() - queued) / max(1, n)
                self._ewma_step_s = (
                    per_step
                    if self._ewma_step_s == 0.0
                    else 0.8 * self._ewma_step_s + 0.2 * per_step
                )
            payload = encode_ok(result, request_id)
        except Exception as error:  # noqa: BLE001 - errors travel the channel
            payload = encode_error(error, request_id)
        if trace:
            self._tracer.record(
                "solver",
                trace,
                time.perf_counter() - started,
                op=op,
                worker=self.port,
            )
        try:
            await self._reply(send, payload)
        except FrameTooLargeError:
            await self._reply(
                send,
                encode_error(
                    ServiceError(f"worker op {op!r} produced an oversized reply"),
                    request_id,
                ),
            )

    async def _serve_connection(self, reader, send, spawn) -> None:
        """One router connection: read calls, answer out-of-order.

        ``ping``/``hello`` are answered inline (heartbeats stay live
        while the engine thread is busy); engine ops are spawned as
        tasks that funnel through the single engine thread in arrival
        order.  Correlation ids let the router match the interleaved
        replies.
        """
        while True:
            try:
                header = await reader.readexactly(FRAME_HEADER.size)
                length = payload_length(header)
                payload = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return
            except FrameTooLargeError as error:
                # The unread payload makes the stream unrecoverable:
                # answer once, then hang up.
                await self._reply(send, encode_error(error, None))
                return
            try:
                message = decode_message(payload)
                if message["kind"] != "call":
                    raise ProtocolError(
                        f"worker expected a call frame, got {message['kind']!r}"
                    )
            except Exception as error:  # noqa: BLE001 - malformed frame
                await self._reply(send, encode_error(error, None))
                continue
            request_id, op, args = message["id"], message["op"], message["args"]
            if op == "ping":
                if self._faults is not None and self._faults.blackholed():
                    continue  # scripted partition: the ping vanishes
                await self._reply(send, encode_ok(self._load(), request_id))
            elif op == "hello":
                await self._reply(send, encode_ok(self._hello(), request_id))
            elif op == "shutdown":
                await self._reply(send, encode_ok(None, request_id))
                self.request_stop()
                return
            else:
                if self._faults is not None:
                    action = self._faults.on_engine_op(op, args)
                    if action == "kill":
                        # A real crash: no reply, no flush, no
                        # cleanup -- the op is never acknowledged.
                        os._exit(137)
                    if action == "hang":
                        continue  # accepted, never answered
                spawn(self._run_op(send, request_id, op, args, message.get("trace")))


async def _serve_until_signalled(server: WorkerServer, announce) -> int:
    loop = asyncio.get_running_loop()
    await server.start()
    # SIGINT stops hard; SIGTERM drains: in-flight ops flush their
    # replies and the exit announces an orderly `leave`.
    try:
        loop.add_signal_handler(signal.SIGINT, server.request_stop)
        loop.add_signal_handler(signal.SIGTERM, server.request_drain)
    except (NotImplementedError, RuntimeError):  # non-unix / nested loop
        pass
    if announce is not None:
        announce(
            json.dumps(
                {
                    "op": "worker",
                    "host": server._host,
                    "port": server.port,
                    "pid": os.getpid(),
                }
            )
        )
    await server.wait_stopped()
    if announce is not None:
        if server.draining:
            announce(
                json.dumps(
                    {
                        "op": "leave",
                        "host": server._host,
                        "port": server.port,
                        "sessions": len(server.manager),
                    }
                )
            )
        announce(
            json.dumps(
                {"op": "worker-stopped", "sessions": len(server.manager)}
            )
        )
    return 0


def run_worker(
    factory: Callable[[], SessionManager],
    host: str,
    port: int,
    announce=None,
    fault_plan: FaultPlan | None = None,
    capacity: float | None = None,
) -> int:
    """Run one worker until SIGINT/SIGTERM (the ``repro worker`` body).

    ``announce`` (e.g. ``print``) receives JSON lines: ``worker`` with
    the bound port once serving, ``leave`` when a SIGTERM drain exits
    cleanly, ``worker-stopped`` on every exit -- machine-readable for
    scripts that wait for readiness.  ``fault_plan`` arms deterministic
    fault injection (see :mod:`repro.cluster.chaos`); ``capacity`` sets
    the placement weight reported to routers (default: CPU count).
    """
    server = WorkerServer(factory, host, port, fault_plan, capacity)
    return asyncio.run(_serve_until_signalled(server, announce))


# ----------------------------------------------------------------------
# local spawning (`repro serve --shards N`, tests, benchmarks)
# ----------------------------------------------------------------------
def _local_worker_main(conn, factory, fault_plan, capacity) -> None:
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    parent = os.getppid()

    async def exit_with_parent(server: WorkerServer) -> None:
        # A local worker never outlives the process that spawned it: a
        # SIGKILLed `repro serve --shards N` must not leave N orphans.
        while os.getppid() == parent:
            await asyncio.sleep(PARENT_CHECK_INTERVAL_S)
        server.request_stop()

    async def main() -> None:
        server = WorkerServer(factory, LOOPBACK, 0, fault_plan, capacity)
        try:
            await server.start()
        except BaseException as error:  # noqa: BLE001 - report, then die
            try:
                conn.send_bytes(
                    json.dumps(
                        {"error": f"{type(error).__name__}: {error}"}
                    ).encode()
                )
            finally:
                conn.close()
            return
        conn.send_bytes(
            json.dumps({"port": server.port, "pid": os.getpid()}).encode()
        )
        conn.close()
        watchdog = asyncio.get_running_loop().create_task(exit_with_parent(server))
        await server.wait_stopped()
        watchdog.cancel()

    asyncio.run(main())


def _await_report(conn) -> str:
    """A started worker's address, from the port it reports on ``conn``."""
    try:
        if not conn.poll(LOCAL_SPAWN_TIMEOUT_S):
            raise ServiceError(
                f"cluster worker did not come up within {LOCAL_SPAWN_TIMEOUT_S:.0f}s"
            )
        report = json.loads(conn.recv_bytes(1 << 16).decode())
    except (EOFError, OSError) as error:
        raise ServiceError(
            "cluster worker exited before reporting its port"
        ) from error
    finally:
        conn.close()
    if "error" in report:
        raise ServiceError(f"cluster worker failed to start: {report['error']}")
    return f"tcp://{LOOPBACK}:{report['port']}"


def stop_local_worker(process, grace_s: float = 0.0) -> None:
    """Reap a spawned worker: wait ``grace_s``, then terminate and join
    for up to :data:`LOCAL_STOP_TIMEOUT_S`."""
    process.join(grace_s)
    if process.is_alive():
        process.terminate()
        process.join(LOCAL_STOP_TIMEOUT_S)


def spawn_local_workers(
    factory: Callable[[], SessionManager],
    n_workers: int,
    fault_plan: FaultPlan | None = None,
    capacity: float | None = None,
) -> list[tuple]:
    """Start ``n_workers`` workers in child processes on OS-assigned ports.

    The children build their managers concurrently.  Returns
    ``[(process, address), ...]`` with addresses like
    ``tcp://127.0.0.1:43127``; the caller owns the processes (stop them
    via a ``shutdown`` RPC, a signal, or :func:`stop_local_worker`).
    When any worker fails to come up, every child already started is
    stopped and :class:`ServiceError` is raised with the factory's
    message.  ``fault_plan`` and ``capacity`` are as in
    :func:`spawn_local_worker`.
    """
    ctx = default_context()
    started = []
    try:
        for _ in range(n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_local_worker_main,
                args=(child_conn, factory, fault_plan, capacity),
                name="repro-cluster-worker",
                daemon=True,
            )
            process.start()
            child_conn.close()
            started.append((process, parent_conn))
        return [
            (process, _await_report(conn)) for process, conn in started
        ]
    except BaseException:
        for process, conn in started:
            conn.close()
            stop_local_worker(process)
        raise


def spawn_local_worker(
    factory: Callable[[], SessionManager],
    fault_plan: FaultPlan | None = None,
    capacity: float | None = None,
):
    """Start a worker in a child process on an OS-assigned port.

    Returns ``(process, address)``; see :func:`spawn_local_workers`.
    ``fault_plan`` arms the child's deterministic fault injection -- the
    test-side counterpart of ``repro worker --fault-plan``; ``capacity``
    sets its placement weight (``repro worker --capacity``).
    """
    return spawn_local_workers(factory, 1, fault_plan, capacity)[0]
