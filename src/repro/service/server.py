"""The asyncio TCP server multiplexing clients onto one execution backend.

The backend is either the in-process :class:`SessionManager` adapter
(single process, worker-thread offload) or a
:class:`~repro.cluster.ClusterSupervisor` over worker processes
(``repro serve --shards N`` or ``--backend``), selected by the CLI; the
server's admission, ordering, eviction and drain logic is identical for
both.

Concurrency model
-----------------
* One reader coroutine per connection; each request frame becomes its
  own task, so slow steps never block other requests (replies carry the
  request's ``id`` and may return out of order -- clients match on it).
* A per-connection pending-request semaphore: past
  ``max_pending_per_connection`` in-flight requests the reader simply
  stops reading, which surfaces to the client as TCP backpressure.
* A global open-session cap (``max_sessions``): ``open`` beyond it gets
  a typed ``busy`` error instead of a hang.
* CPU-bound work (step, restore, suspend) runs on the
  :class:`~repro.service.executor.SessionExecutor` worker pool under a
  per-session lock; all fleet bookkeeping (the LRU table, admission,
  eviction choice) happens on the event-loop thread only.
* Every ``step`` takes one path: the
  :class:`~repro.service.executor.StepBatcher` group-commit queue,
  which flushes all pending steps as one batched backend call whenever
  a pool slot is free -- at once when the server is idle, in batches
  that grow with the load otherwise.  The flush's pool job measures
  each member's queue wait, feeds the load shedder, sheds blown
  deadlines, restores suspended sessions and records the member's
  spans; tracing off (``trace=False``, or brownout) only drops the
  spans.  Non-step operations keep :meth:`SessionExecutor.run`.
* Past ``max_resident`` resident sessions, least-recently-used idle
  sessions are suspended through the engine's JSON checkpoint into the
  :class:`~repro.service.store.SessionStore` and restored transparently
  on their next request -- open-session count is decoupled from memory.

Graceful drain: on ``request_drain()`` (wired to SIGINT/SIGTERM by the
CLI) the server stops accepting and reading, lets requests already read
finish and flush their replies (for up to
:data:`~repro._listener.CLOSE_GRACE_S`), closes every connection without
waiting for a client to hang up or to read, checkpoints every resident
session into the store and resolves :meth:`wait_drained` with a summary.
"""

from __future__ import annotations

import asyncio
import signal
import time
import uuid
from dataclasses import dataclass

from .._listener import Listener
from ..core.qp import kernel_stats as _solver_kernel_stats
from ..core.two_world import front_stats as _front_stats
from ..engine.backend import as_backend
from ..errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
    ServiceError,
    SessionError,
    ShardDownError,
    ValidationError,
)
from ..obs.http import ObsHttpServer
from ..obs.probe import EventLoopLagProbe
from ..obs.registry import LatencyHistogram
from ..obs.trace import NULL_TRACER, Tracer, new_trace_id
from ..scenario import ScenarioRegistry
from .executor import SessionExecutor, StepBatcher
from .metrics import ServiceMetrics
from .shedding import LoadShedder, ShedConfig
from .protocol import (
    MAX_FRAME_BYTES,
    Request,
    error_code_for,
    error_frame,
    ok_frame,
    parse_request,
)
from .store import MemorySessionStore, SessionStore


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs, orthogonal to the engine configuration.

    Out-of-range values raise :class:`~repro.errors.ValidationError` at
    construction.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off `server.port`
    max_sessions: int = 10_000
    max_resident: int = 1_024
    max_pending_per_connection: int = 32
    workers: int | None = None  # None = cores (capped); 0 = inline
    #: Per-request tracing (trace/span ids, timed spans).  On by
    #: default: the buffers are bounded and the per-request cost is a
    #: few perf-counter reads; ``False`` swaps in the null tracer so
    #: every span call short-circuits.
    trace: bool = True
    #: Requests slower than this land in the slow-request ring too.
    slow_request_ms: float = 1000.0
    #: TCP port for the Prometheus/health sidecar listener (``None``
    #: disables it entirely; 0 binds an ephemeral port, read it off
    #: ``server.metrics_port``).
    metrics_port: int | None = None
    #: Host for the sidecar listener (``None`` = the serving host).
    metrics_host: str | None = None
    #: Load shedding: acceptable standing executor queue delay (the
    #: CoDel target).  Once the measured delay stays above this for
    #: ``shed_interval_ms`` the server sheds ``open`` (then ``step``)
    #: requests with the retryable ``overloaded`` code instead of
    #: letting every queue grow without bound.  ``0`` disables the
    #: queue-delay trigger; requests carrying ``deadline_ms`` are
    #: still shed when their deadline is blown.
    shed_target_ms: float = 100.0
    #: How long the queue delay must stay above target before the
    #: queue-delay trigger starts shedding.
    shed_interval_ms: float = 1000.0

    def __post_init__(self) -> None:
        # A zero pending limit would never read a request, and negative
        # workers would run steps inline past the sharded-backend guard.
        for name in ("max_sessions", "max_resident", "max_pending_per_connection"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        if self.workers is not None and self.workers < 0:
            raise ValidationError(f"workers must be >= 0, got {self.workers!r}")
        if self.slow_request_ms <= 0:
            raise ValidationError(
                f"slow_request_ms must be > 0, got {self.slow_request_ms!r}"
            )
        for name in ("port", "metrics_port"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < 65536:
                raise ValidationError(f"{name} must be in [0, 65535], got {value!r}")
        if self.shed_target_ms < 0:
            raise ValidationError(
                f"shed_target_ms must be >= 0, got {self.shed_target_ms!r}"
            )
        if self.shed_interval_ms <= 0:
            raise ValidationError(
                f"shed_interval_ms must be > 0, got {self.shed_interval_ms!r}"
            )


def _merge_cache_rows(rows: list[dict]) -> dict | None:
    """Fleet-wide verdict-cache counters from per-shard stats rows."""
    merged = {"hits": 0, "misses": 0, "size": 0, "evictions": 0}
    seen = False
    for row in rows:
        cache = row.get("verdict_cache")
        if cache is None:
            continue
        seen = True
        for key in merged:
            merged[key] += cache[key]
    if not seen:
        return None
    total = merged["hits"] + merged["misses"]
    merged["hit_rate"] = round(merged["hits"] / total, 6) if total else 0.0
    return merged


class ReleaseServer:
    """Serve one shared execution backend over JSONL/TCP.

    ``engine`` may be a :class:`~repro.engine.SessionManager` (wrapped
    into the in-process backend, the historical single-process path) or
    any :class:`~repro.engine.backend.ExecutionBackend` -- notably a
    :class:`~repro.cluster.ClusterSupervisor` over N worker processes,
    which spreads the fleet for near-linear core scaling.

    Multi-tenancy: ``open`` accepts an inline
    :class:`~repro.scenario.ScenarioSpec` JSON object, gated by a
    digest allowlist (``scenarios=`` preloads it; ``allow_any_scenario``
    bypasses it) with a validated-spec LRU in front.  The engine interns
    per-scenario models by digest, and the ``stats`` op reports
    per-scenario open/step/finish counters (sessions of the flag-built
    default configuration count under ``"default"``, as do sessions
    adopted from a durable store before their first scenario-tagged
    request of this incarnation).
    """

    def __init__(
        self,
        engine,
        store: SessionStore | None = None,
        config: ServerConfig | None = None,
        metrics: ServiceMetrics | None = None,
        scenarios=None,
        allow_any_scenario: bool = False,
    ):
        self._backend = as_backend(engine)
        self._store = store if store is not None else MemorySessionStore()
        self._config = config if config is not None else ServerConfig()
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        # A supervising backend (ClusterSupervisor) counts recoveries
        # and losses itself; hand it the server's sink so they land in
        # the same families the stats op and /metrics render.
        bind = getattr(self._backend, "bind_metrics", None)
        if bind is not None:
            bind(self._metrics)
        # Inline-scenario admission: preloaded specs form the digest
        # allowlist unless allow_any_scenario opens the gate entirely.
        self._scenarios = ScenarioRegistry(
            scenarios if scenarios is not None else (),
            allow_any=allow_any_scenario,
        )
        # Per-scenario observability: sid -> digest ("default" for the
        # flag-built configuration) and digest -> lifecycle counters.
        self._session_scenario: dict[str, str] = {}
        self._scenario_counters: dict[str, dict[str, int]] = {}
        if self._backend.remote and self._config.workers == 0:
            # Inline execution would run blocking worker RPCs on the
            # event loop; one RPC queued behind a worker's in-flight
            # batch would stall every connection.
            raise ServiceError(
                "workers=0 (inline) is incompatible with a sharded backend; "
                "use workers >= 1 or shards=0"
            )
        self._tracer = (
            Tracer(slow_threshold_s=self._config.slow_request_ms / 1e3)
            if self._config.trace
            else NULL_TRACER
        )
        self._executor = SessionExecutor(
            self._config.workers, shards=self._backend.n_shards
        )
        self._shedder = LoadShedder(
            ShedConfig(
                target_ms=self._config.shed_target_ms,
                interval_ms=self._config.shed_interval_ms,
            ),
            metrics=self._metrics,
            queue_depth=lambda: self._batcher.queue_depth(),
        )
        self._batcher = StepBatcher(
            self._backend,
            self._executor,
            restore=self._restore_if_suspended,
            tracer=self._tracer,
            shedder=self._shedder,
        )
        # Admission registry: every open session id, resident or
        # suspended (order irrelevant).
        self._open: dict[str, None] = {}
        # Resident sessions only, in LRU order (insertion + touch moves):
        # eviction scans this, so its cost tracks max_resident, not the
        # total open-session count.
        self._resident_lru: dict[str, None] = {}
        self._listener = Listener(
            self._serve_connection, self._config.host, self._config.port,
            MAX_FRAME_BYTES,
        )
        self._draining = asyncio.Event()
        self._drained = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self._drain_summary: dict = {}
        self.port: int | None = None
        self._loop_probe = EventLoopLagProbe()
        self._obs_http: ObsHttpServer | None = None
        #: Bound port of the metrics listener (``None`` until started).
        self.metrics_port: int | None = None
        self._mount_gauges()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ServiceMetrics:
        """The server's metrics sink."""
        return self._metrics

    @property
    def store(self) -> SessionStore:
        """The suspended-session store."""
        return self._store

    @property
    def tracer(self) -> Tracer:
        """The server's span collector (the null tracer when disabled)."""
        return self._tracer

    def _mount_gauges(self) -> None:
        """Register live-state callback gauges on the metrics registry.

        Callback gauges sample at read time, so queue depth and
        residency are exact at every scrape with zero steady-state
        cost.  When the caller shares one :class:`ServiceMetrics`
        across servers (tests do), only the first server mounts them --
        the registry's duplicate check is the tripwire we key off.
        """
        registry = self._metrics.registry
        if registry.get("repro_sessions_open") is not None:
            return
        registry.gauge(
            "repro_sessions_open",
            "Open sessions (resident + suspended)",
            fn=lambda: len(self._open),
        )
        registry.gauge(
            "repro_sessions_resident",
            "Sessions resident in the execution backend",
            fn=self._backend.resident_count,
        )
        registry.gauge(
            "repro_sessions_stored",
            "Suspended sessions parked in the store",
            fn=lambda: len(self._store),
        )
        registry.gauge(
            "repro_connections",
            "Open client connections",
            fn=lambda: self._listener.connections,
        )
        registry.gauge(
            "repro_executor_queue_depth",
            "Steps queued or in a running batch, plus jobs queued on the pool",
            fn=self._batcher.queue_depth,
        )
        registry.gauge(
            "repro_executor_active_sessions",
            "Sessions holding an executor ordering lock",
            fn=lambda: self._executor.active_sessions,
        )
        registry.gauge(
            "repro_batch_window_occupancy",
            "Step requests queued for the next batch",
            fn=self._batcher.window_occupancy,
        )
        registry.gauge(
            "repro_event_loop_lag_seconds",
            "Most recent event-loop lag probe sample",
            fn=lambda: self._loop_probe.current_s,
        )
        registry.gauge(
            "repro_event_loop_lag_max_seconds",
            "Worst event-loop lag sample since start",
            fn=lambda: self._loop_probe.max_s,
        )
        registry.gauge(
            "repro_spans_total",
            "Spans recorded by the server tracer since start",
            fn=lambda: self._tracer.count,
        )
        registry.gauge(
            "repro_slow_spans_total",
            "Spans at or above the slow-request threshold since start",
            fn=lambda: self._tracer.slow_count,
        )
        registry.gauge(
            "repro_draining",
            "1 while a graceful drain is in progress",
            fn=lambda: float(self._draining.is_set()),
        )
        registry.gauge(
            "repro_overload_level",
            "Load-shedding level: 0 normal, 1 shedding open, 2 shedding step",
            fn=lambda: self._shedder.level,
        )
        registry.gauge(
            "repro_queue_delay_ewma_seconds",
            "Smoothed executor queue-wait estimate driving load shedding",
            fn=lambda: self._shedder.delay_ms / 1e3,
        )
        # Solver-kernel identity as an info-style gauge: the value is a
        # constant 1, the interesting bits ride in the labels.  Kernel
        # selection is process-level (env + compiler availability), so
        # setting it once at mount time is exact.
        solver = _solver_kernel_stats()
        registry.gauge(
            "repro_solver_kernel_info",
            "Resolved rank-one solver kernel (identity in the labels)",
            labelnames=("kernel", "native_state"),
        ).set(1.0, kernel=solver["kernel"], native_state=solver["native_state"])
        registry.gauge(
            "repro_solver_native_conditions_total",
            "Rank-one conditions solved by the compiled native kernel",
            fn=lambda: _solver_kernel_stats()["native_conditions"],
        )
        registry.gauge(
            "repro_solver_numpy_conditions_total",
            "Rank-one conditions solved by the NumPy fallback kernel",
            fn=lambda: _solver_kernel_stats()["numpy_conditions"],
        )
        registry.gauge(
            "repro_front_sparse_matmuls_total",
            "Lifted-front half products (two per propagation) run as CSR matmuls",
            fn=lambda: _front_stats()["sparse_matmuls"],
        )
        registry.gauge(
            "repro_front_dense_matmuls_total",
            "Lifted-front half products (two per propagation) run as dense GEMMs",
            fn=lambda: _front_stats()["dense_matmuls"],
        )
        registry.gauge(
            "repro_front_csr_cache_hits_total",
            "Per-chain-matrix CSR cache hits in sparse propagation",
            fn=lambda: _front_stats()["csr_hits"],
        )

    async def start(self) -> None:
        """Bind and start accepting connections."""
        # Adopt sessions a previous incarnation parked in a durable
        # store: they count as open (admission) and restore on demand.
        for sid in self._store.ids():
            self._open.setdefault(sid, None)
        await self._listener.start()
        self.port = self._listener.port
        self._loop_probe.start()
        if self._config.metrics_port is not None:
            self._obs_http = ObsHttpServer(
                self._config.metrics_host or self._config.host,
                self._config.metrics_port,
                render_metrics=self._render_metrics,
                readiness=self._readiness,
            )
            await self._obs_http.start()
            self.metrics_port = self._obs_http.port

    def install_signal_handlers(self) -> None:
        """Drain on SIGINT/SIGTERM (call from within the event loop)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, self.request_drain)

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent, callable from handlers)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())

    async def wait_drained(self) -> dict:
        """Block until the drain completes; returns its summary."""
        await self._drained.wait()
        return self._drain_summary

    async def drain(self) -> dict:
        """Stop accepting, finish in-flight work, checkpoint sessions."""
        if self._drained.is_set():
            return self._drain_summary
        self._draining.set()
        # Returns once every request already read has finished, so no
        # step races the checkpoint below.
        await self._listener.close()
        # Round-trip every resident session's state out of its owning
        # backend (worker processes included) into the store.  Sessions
        # on a dead worker cannot be checkpointed; they are counted,
        # never silently dropped.
        states, lost = self._backend.suspend_all()
        if lost:
            self._metrics.record_failure("sessions_lost", len(lost))
        for state in states:
            self._store.put(state)
        self._executor.shutdown()
        self._backend.close()
        if self._obs_http is not None:
            await self._obs_http.stop()
            self._obs_http = None
        await self._loop_probe.stop()
        self._drain_summary = {
            "sessions_checkpointed": len(states),
            "sessions_open": len(self._open),
            "sessions_lost": len(lost),
        }
        self._drained.set()
        return self._drain_summary

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, send, spawn) -> None:
        pending_slots = asyncio.Semaphore(self._config.max_pending_per_connection)
        while True:
            await pending_slots.acquire()
            try:
                line = await reader.readline()
            except ValueError:
                # Over-long frame: the stream cannot be re-synced.
                error = ProtocolError(
                    f"frame exceeds the {MAX_FRAME_BYTES}-byte limit"
                )
                self._metrics.record_error("protocol")
                await send(error_frame(None, error))
                return
            if not line:
                return
            if not line.strip():
                pending_slots.release()
                continue
            spawn(self._handle_line(line, send, pending_slots))

    async def _handle_line(
        self, line: bytes, send, pending_slots: asyncio.Semaphore
    ) -> None:
        try:
            try:
                request = parse_request(line)
            except ProtocolError as error:
                self._metrics.record_error("protocol")
                reply = error_frame(getattr(error, "request_id", None), error)
                await send(reply)
                return
            self._metrics.record_request(request.op)
            # Brownout: while the shedder reports sustained overload,
            # per-request tracing is the first thing to go -- overhead
            # shed before any request is.
            traced = self._tracer.enabled and not self._shedder.brownout
            trace_id = new_trace_id() if traced else None
            started = time.perf_counter() if traced else 0.0
            try:
                payload = await self._dispatch(request, trace_id)
                reply = ok_frame(request.request_id, request.op, payload)
            except ReproError as error:
                self._metrics.record_error(error_code_for(error))
                reply = error_frame(request.request_id, error)
            except Exception as error:  # noqa: BLE001 - last-resort boundary
                self._metrics.record_error("internal")
                reply = error_frame(request.request_id, error)
            if traced:
                serialized = time.perf_counter()
                await send(reply)
                done = time.perf_counter()
                attrs = {"op": request.op}
                if request.session is not None:
                    attrs["session"] = request.session
                self._tracer.record(
                    "serialize", trace_id, done - serialized, **attrs
                )
                self._tracer.record("request", trace_id, done - started, **attrs)
            else:
                await send(reply)
        finally:
            pending_slots.release()

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request, trace_id: str | None = None) -> dict:
        # Admission control: shed before any work is queued.  Raises
        # the retryable ``overloaded`` error when the request's own
        # deadline is already blown by the estimated queue delay, or
        # when sustained overload sheds this op's priority class.
        self._shedder.admit(request.op, request.deadline_ms)
        if request.op == "open":
            return await self._op_open(request)
        if request.op == "step":
            return await self._op_step(request, trace_id)
        if request.op == "peek_budget":
            return await self._op_peek(request)
        if request.op == "finish":
            return await self._op_finish(request)
        if request.op == "checkpoint":
            return await self._op_checkpoint(request)
        if request.op == "migrate":
            return await self._op_migrate(request)
        if request.op == "join":
            return await self._op_join(request)
        if request.op == "leave":
            return await self._op_leave(request)
        if request.op == "cluster_status":
            return await self._op_cluster_status(request)
        return await self._op_stats(request)

    def _measured(self, op: str, deadline_ms: int | None, fn):
        """Wrap a non-step pool closure to feed the shedder its queue wait.

        The wait runs from submission to the moment the closure starts
        on a worker thread; a deadline blown by that wait sheds here,
        strictly before ``fn`` touches any session state.
        """
        shedder = self._shedder
        submitted = time.perf_counter()

        def wrapped():
            waited = time.perf_counter() - submitted
            shedder.observe(waited)
            shedder.check_deadline(op, deadline_ms, waited)
            return fn()

        return wrapped

    async def _op_open(self, request: Request) -> dict:
        if self._draining.is_set():
            raise ServiceBusyError("server is draining; not accepting sessions")
        sid = request.session or uuid.uuid4().hex
        if sid in self._open:
            raise SessionError(f"session {sid!r} already open")
        if len(self._open) >= self._config.max_sessions:
            raise ServiceBusyError(
                f"open-session cap reached ({self._config.max_sessions}); "
                "finish sessions or retry later"
            )
        seed = request.seed
        spec = None
        if request.scenario is not None:
            # Validate + allowlist-check on the loop (cheap, typed
            # errors); model compilation happens inside the backend's
            # manager, interned by digest, off the loop.
            spec = self._scenarios.admit(request.scenario)
        if self._backend.remote or spec is not None:
            # Off the event loop: a worker RPC can block behind the
            # worker's in-flight batch, and compiling a first-seen
            # scenario builds O(m^2) models.
            horizon = await self._executor.run(
                sid,
                self._measured(
                    "open",
                    request.deadline_ms,
                    lambda: self._backend.open(sid, seed, spec),
                ),
            )
        else:
            horizon = await self._executor.run_inline(
                sid, lambda: self._backend.open(sid, seed, spec)
            )
        digest = spec.digest() if spec is not None else "default"
        self._session_scenario[sid] = digest
        self._count_scenario(digest, "opened")
        self._touch(sid)
        self._metrics.record_session_event("opened")
        await self._maybe_evict()
        payload = {"session": sid, "horizon": horizon}
        if spec is not None:
            payload["scenario"] = digest
        return payload

    def _count_scenario(self, digest: str, event: str, n: int = 1) -> None:
        """Bump one per-scenario lifecycle counter (loop thread only)."""
        counters = self._scenario_counters.setdefault(
            digest, {"opened": 0, "steps": 0, "finished": 0}
        )
        counters[event] += n

    async def _op_step(self, request: Request, trace_id: str | None = None) -> dict:
        sid, cell = request.session, request.cell
        assert sid is not None and cell is not None
        restored, record = await self._batcher.submit(
            sid, cell, trace_id, request.deadline_ms
        )
        if restored:
            self._metrics.record_session_event("restored")
        self._metrics.record_step(record.elapsed_s, record)
        self._count_scenario(self._session_scenario.get(sid, "default"), "steps")
        self._touch(sid)
        await self._maybe_evict()
        return record.to_json()

    async def _op_peek(self, request: Request) -> dict:
        sid = request.session
        assert sid is not None
        await self._batcher.barrier(sid)

        def _peek():
            restored = self._restore_if_suspended(sid)
            return restored, self._backend.peek_budget(sid)

        restored, budget = await self._executor.run(
            sid, self._measured("peek_budget", request.deadline_ms, _peek)
        )
        if restored:
            self._metrics.record_session_event("restored")
        self._touch(sid)
        await self._maybe_evict()
        return {"session": sid, "budget": budget}

    async def _op_finish(self, request: Request) -> dict:
        sid = request.session
        assert sid is not None
        await self._batcher.barrier(sid)

        def _finish():
            restored = self._restore_if_suspended(sid)
            log = self._backend.finish(sid)
            self._store.delete(sid)
            return restored, log

        restored, log = await self._executor.run(
            sid, self._measured("finish", request.deadline_ms, _finish)
        )
        if restored:
            self._metrics.record_session_event("restored")
        self._open.pop(sid, None)
        self._resident_lru.pop(sid, None)
        self._metrics.record_session_event("finished")
        self._count_scenario(
            self._session_scenario.pop(sid, "default"), "finished"
        )
        return {
            "session": sid,
            "n_released": len(log),
            "average_budget": log.average_budget if len(log) else None,
            "n_conservative": log.n_conservative,
        }

    async def _op_checkpoint(self, request: Request) -> dict:
        sid = request.session
        assert sid is not None
        await self._batcher.barrier(sid)

        def _checkpoint():
            restored = self._restore_if_suspended(sid)
            state = self._backend.checkpoint(sid)
            self._store.put(state)
            return restored, state

        restored, state = await self._executor.run(
            sid, self._measured("checkpoint", request.deadline_ms, _checkpoint)
        )
        if restored:
            self._metrics.record_session_event("restored")
        self._touch(sid)
        return {
            "session": sid,
            "t": state.committed_t,
            "state": state.to_json(),
        }

    async def _op_migrate(self, request: Request) -> dict:
        """Drain one cluster worker's sessions onto the remaining ring.

        Only meaningful for worker backends (``--shards`` or
        ``--backend``).  The drain runs off the event loop -- it is
        one ``suspend_all`` RPC plus a ``resume`` per session -- while
        racing step requests retry transparently onto each session's
        new home inside the backend.
        """
        if self._draining.is_set():
            raise ServiceBusyError("server is draining; try again later")
        drain = getattr(self._backend, "drain_worker", None)
        if drain is None:
            raise ServiceError(
                "this server's backend has no migratable workers; "
                "'migrate' requires --shards or --backend"
            )
        summary = await asyncio.get_running_loop().run_in_executor(
            None, drain, request.worker
        )
        self._metrics.record_session_event("migrated", summary["migrated"])
        return summary

    async def _op_join(self, request: Request) -> dict:
        """Admit one worker into the cluster's ring at runtime.

        The backend re-forms the ring and live-migrates exactly the
        arcs the newcomer now owns; untouched sessions never move.
        """
        if self._draining.is_set():
            raise ServiceBusyError("server is draining; try again later")
        join = getattr(self._backend, "join_worker", None)
        if join is None:
            raise ServiceError(
                "this server's backend has fixed membership; "
                "'join' requires --shards or --backend"
            )
        summary = await asyncio.get_running_loop().run_in_executor(
            None, join, request.worker
        )
        self._metrics.record_session_event(
            "migrated", summary.get("migrated", 0)
        )
        return summary

    async def _op_leave(self, request: Request) -> dict:
        """Remove one worker from the cluster (draining it first when live)."""
        if self._draining.is_set():
            raise ServiceBusyError("server is draining; try again later")
        leave = getattr(self._backend, "leave_worker", None)
        if leave is None:
            raise ServiceError(
                "this server's backend has fixed membership; "
                "'leave' requires --shards or --backend"
            )
        summary = await asyncio.get_running_loop().run_in_executor(
            None, leave, request.worker
        )
        self._metrics.record_session_event(
            "migrated", summary.get("migrated", 0)
        )
        lost = summary.get("lost", ())
        if lost:
            self._metrics.record_failure("sessions_lost", len(lost))
        return summary

    async def _op_cluster_status(self, request: Request) -> dict:
        """The cluster membership snapshot (no worker RPCs)."""
        status = getattr(self._backend, "cluster_status", None)
        if status is None:
            raise ServiceError(
                "this server's backend is not a cluster; "
                "'cluster_status' requires --shards or --backend"
            )
        return await asyncio.get_running_loop().run_in_executor(None, status)

    async def _op_stats(self, request: Request | None = None) -> dict:
        spans = 0
        if request is not None:
            spans = int(request.extra.get("spans", 0))
        if self._backend.remote:
            # Worker RPCs can wait behind an in-flight batch; gather the
            # backend's numbers off the event loop.
            return await asyncio.get_running_loop().run_in_executor(
                None, self._collect_stats, spans
            )
        return self._collect_stats(spans)

    def _collect_stats(self, spans: int = 0) -> dict:
        snapshot = self._metrics.snapshot()
        # One RPC round per worker: the per-worker rows already carry each
        # worker's verdict-cache counters, so the aggregate is derived
        # from them instead of a second cache_stats round trip.
        shard_rows = self._backend.shard_stats()
        snapshot["sessions"].update(
            open=len(self._open),
            resident=self._backend.resident_count(),
            stored=len(self._store),
        )
        if shard_rows is None:
            cache = self._backend.cache_stats()
            snapshot["verdict_cache"] = (
                None
                if cache is None
                else {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "hit_rate": round(cache.hit_rate, 6),
                    "size": cache.size,
                    "evictions": cache.evictions,
                }
            )
        else:
            snapshot["verdict_cache"] = _merge_cache_rows(shard_rows)
        snapshot["server"] = {
            "draining": self._draining.is_set(),
            "connections": self._listener.connections,
            "workers": self._executor.workers,
            "shards": self._backend.n_shards,
            "max_sessions": self._config.max_sessions,
            "max_resident": self._config.max_resident,
            "queue_depth": self._batcher.queue_depth(),
            "active_sessions": self._executor.active_sessions,
            "metrics_port": self.metrics_port,
        }
        snapshot["batching"] = self._batcher.stats()
        snapshot["shedding"] = self._shedder.stats()
        snapshot["solver"] = {
            "kernel": _solver_kernel_stats(),
            "front": _front_stats(),
        }
        snapshot["tracing"] = self._tracer.stats()
        snapshot["event_loop"] = self._loop_probe.snapshot()
        if spans > 0:
            snapshot["spans"] = {
                "recent": self._tracer.recent(spans),
                "slow": self._tracer.slow(spans),
            }
        snapshot["shards"] = self._shard_section(shard_rows)
        recovery = getattr(self._backend, "recovery_stats", None)
        if recovery is not None:
            snapshot["recovery"] = recovery()
        snapshot["scenarios"] = {
            "allow_any": self._scenarios.allow_any,
            "allowlist": self._scenarios.allowlisted(),
            "cached": self._scenarios.cached_count(),
            "counters": {
                digest: dict(counters)
                for digest, counters in self._scenario_counters.items()
            },
        }
        return snapshot

    def _shard_section(self, rows: list[dict] | None) -> dict | None:
        """Per-worker counters + their aggregate (``None`` in-process).

        Keeps the historical ``shards`` wire shape
        (``count``/``alive``/``per_shard``/``aggregate``).
        """
        if rows is None:
            return None
        dumps = [row["metrics"] for row in rows if row.get("alive")]
        aggregate = ServiceMetrics.aggregate(dumps).snapshot() if dumps else None
        return {
            "count": self._backend.n_shards,
            "alive": sum(1 for row in rows if row.get("alive")),
            "per_shard": rows,
            "aggregate": aggregate,
        }

    # ------------------------------------------------------------------
    # probes and exposition
    # ------------------------------------------------------------------
    #: Heartbeat age (seconds) past which a worker counts as stale for
    #: readiness.  Six of the cluster backend's 5 s heartbeat periods:
    #: headroom for a long engine batch.
    STALE_HEARTBEAT_S = 30.0

    def _readiness(self) -> tuple[bool, str]:
        """Local-state readiness: backend up, every worker heartbeating.

        Consults only handle flags and heartbeat ages
        (:meth:`~repro.engine.backend.ExecutionBackend.worker_health`
        never issues RPCs), so the probe stays honest when a worker
        hangs -- and cheap enough for aggressive probe intervals.
        """
        if self._draining.is_set():
            return False, "draining"
        rows = self._backend.worker_health()
        if rows is None:
            return True, "ok"
        down = [row["worker"] for row in rows if not row["alive"]]
        if down:
            return False, f"workers down: {', '.join(down)}"
        stale = [
            row["worker"]
            for row in rows
            if row["heartbeat_age_s"] > self.STALE_HEARTBEAT_S
        ]
        if stale:
            return False, f"workers stale: {', '.join(stale)}"
        return True, f"ok ({len(rows)} workers)"

    async def _render_metrics(self) -> str:
        """The ``/metrics`` body; runs the render off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: self._metrics.registry.render(
                extra=self._worker_exposition()
            ),
        )

    def _worker_exposition(self) -> str:
        """Per-worker families derived from local handle state at scrape.

        These are rendered as ``extra`` text rather than registered
        families because the worker set is dynamic and the underlying
        state (handle histograms) already lives outside the registry --
        folding them in would double-count on every scrape.
        """
        rows = self._backend.worker_health()
        if not rows:
            return ""
        up: list[str] = []
        age: list[str] = []
        inflight: list[str] = []
        latency: list[str] = []
        for row in rows:
            label = f'worker="{row["worker"]}"'
            up.append(f'repro_worker_up{{{label}}} {int(bool(row["alive"]))}')
            age.append(
                f'repro_worker_heartbeat_age_seconds{{{label}}} '
                f'{row["heartbeat_age_s"]}'
            )
            inflight.append(
                f'repro_worker_inflight{{{label}}} {int(row["inflight"])}'
            )
            histogram = LatencyHistogram()
            histogram.merge_state(row["rpc_latency"])
            latency.extend(
                histogram.exposition_lines(
                    "repro_worker_rpc_latency_seconds", label
                )
            )
        lines = (
            ["# TYPE repro_worker_up gauge", *up]
            + ["# TYPE repro_worker_heartbeat_age_seconds gauge", *age]
            + ["# TYPE repro_worker_inflight gauge", *inflight]
            + ["# TYPE repro_worker_rpc_latency_seconds histogram", *latency]
        )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # residency management
    # ------------------------------------------------------------------
    def _restore_if_suspended(self, sid: str) -> bool:
        """Bring a suspended session back under its executor lock.

        Runs on a worker thread; only touches the (thread-safe) store
        and the backend entry for ``sid``, which the per-session lock
        protects.  With a worker backend the state round-trips into the
        worker the ring places it on -- checkpoints carry everything, so
        one taken under any worker count restores correctly.
        """
        if self._backend.contains(sid):
            return False
        state = self._store.get(sid)
        if state is None:
            raise SessionError(f"no open session {sid!r}")
        self._backend.resume(state)
        self._store.delete(sid)
        return True

    def _touch(self, sid: str) -> None:
        """Mark a session resident and most-recently-used (loop thread)."""
        self._open.setdefault(sid, None)
        self._resident_lru.pop(sid, None)
        self._resident_lru[sid] = None

    async def _maybe_evict(self) -> None:
        """Suspend LRU idle sessions past the residency cap."""
        while self._backend.resident_count() > self._config.max_resident:
            victim = None
            for sid in self._resident_lru:
                if self._backend.contains(sid) and self._executor.session_idle(sid):
                    victim = sid
                    break
            if victim is None:
                return  # everything resident is busy; try after next op

            def _suspend(sid=victim):
                if not self._backend.contains(sid):
                    return False  # raced with finish/evict; nothing to do
                try:
                    self._store.put(self._backend.suspend(sid))
                except ShardDownError:
                    # The victim's worker died: it cannot be evicted (or
                    # served), but that is the *victim's* loss -- never
                    # an error for the unrelated request that happened
                    # to trigger eviction.  Dropping it from the LRU
                    # below keeps the scan from re-picking it.
                    return False
                return True

            evicted = await self._executor.run(victim, _suspend)
            self._resident_lru.pop(victim, None)
            if evicted:
                self._metrics.record_session_event("evicted")
