"""The cluster router: consistent-hash placement and live migration.

:class:`ClusterBackend` implements the
:class:`~repro.engine.backend.ExecutionBackend` surface over a fleet of
``repro worker`` processes reached by TCP (:class:`WorkerHandle`, one
pipelined connection per worker).  Three responsibilities live here and
only here -- workers are deliberately placement-ignorant:

* **Placement** -- new sessions land on the live, non-draining worker
  chosen by a consistent-hash ring (:mod:`repro.cluster.ring`).  The
  router keeps an explicit session->worker assignment map, because a
  session's home can legitimately *change* (migration); the ring only
  decides initial placement and migration targets, so membership
  changes move ~1/N of the keyspace instead of reshuffling everything.
* **Containment** -- each RPC carries a deadline and each worker a
  heartbeat, so a dead or hung worker turns into typed
  :class:`~repro.errors.WorkerDownError` for exactly its assigned
  sessions (reported via :meth:`lost_session_ids`), while other
  workers -- and new opens, which re-route around the hole -- keep
  serving.
* **Migration** -- :meth:`drain_worker` marks a worker draining
  (no new placements), checkpoints its residency in one
  ``suspend_all`` RPC, and restores every state onto the ring
  successors.  In-flight requests that race the drain retry onto the
  session's new home, so a served stream never drops: the engine's
  checkpoints are exact (see :class:`~repro.engine.SessionState`), and
  a migrated stream is bit-identical to an unmigrated one.

Per-worker **in-flight windows** (a bounded semaphore per handle) keep
one slow worker from absorbing every router thread: callers queue at
the window instead of stacking RPCs onto a wedged socket.

The fleet is either dialled (``ClusterBackend(addresses)``, workers
started elsewhere) or spawned: :meth:`ClusterBackend.spawn_local` starts
N local ``repro worker`` processes and owns them -- the ``repro serve
--shards N`` topology.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Mapping

from ..engine.backend import ExecutionBackend
from ..engine.cache import CacheStats
from ..engine.records import ReleaseLog, ReleaseRecord
from ..engine.session import SessionState
from ..errors import (
    FrameTooLargeError,
    ServiceError,
    SessionError,
    WorkerDownError,
)
from ..obs.registry import LatencyHistogram
from ..obs.trace import activate, deactivate
from ..obs.trace import current as current_trace
from .codec import decode_message, encode_call
from .control import RetryPolicy
from .frames import MAX_RPC_FRAME_BYTES
from .ring import DEFAULT_REPLICAS, HashRing
from .transport import SocketChannel
from .worker import spawn_local_workers, stop_local_worker

__all__ = ["ClusterBackend", "WorkerHandle", "parse_address"]

#: Default per-RPC deadline.  Finite on purpose: a cluster hop that can
#: block forever turns one hung worker into a wedged router.
DEFAULT_RPC_TIMEOUT_S = 120.0
#: Seconds allowed for the TCP connect + hello of one worker.
CONNECT_TIMEOUT_S = 30.0
#: In-flight RPCs allowed per worker before callers queue locally.
DEFAULT_WINDOW = 32
#: Seconds between heartbeat pings per worker (0 disables).
HEARTBEAT_INTERVAL_S = 5.0
#: Seconds a heartbeat waits before declaring the worker unreachable.
HEARTBEAT_TIMEOUT_S = 5.0
#: Seconds a racing request waits for its session's migration to land.
MIGRATION_WAIT_S = 60.0
#: Seconds a spawned worker gets to exit after a shutdown RPC before
#: it is terminated.
SHUTDOWN_TIMEOUT_S = 10.0

_UNSET = object()


def parse_address(
    address: str, *, allow_ephemeral: bool = False
) -> tuple[str, str, int]:
    """Normalize ``tcp://host:port`` (or bare ``host:port``).

    Returns ``(normalized, host, port)``.  ``allow_ephemeral`` admits
    port 0 (an OS-assigned *listen* port -- never valid to dial).
    """
    raw = str(address).strip()
    rest = raw[len("tcp://") :] if raw.startswith("tcp://") else raw
    host, sep, port_text = rest.rpartition(":")
    if not sep or not host:
        raise ServiceError(
            f"worker address must look like tcp://host:port, got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(
            f"worker address has a non-numeric port: {address!r}"
        ) from None
    if not (0 if allow_ephemeral else 1) <= port < 65536:
        raise ServiceError(f"worker port out of range in {address!r}")
    return f"tcp://{host}:{port}", host, port


def _call_in_trace(ctx, handle: "WorkerHandle", op: str, args):
    """``handle.call`` on a dispatch thread, under the caller's trace.

    ``ctx`` is the submitting thread's :func:`~repro.obs.trace.current`
    (or ``None``): the active trace is thread-local, so without it a
    fanned-out RPC would neither stamp the trace id nor record its span.
    """
    if ctx is None:
        return handle.call(op, args)
    token = activate(*ctx)
    try:
        return handle.call(op, args)
    finally:
        deactivate(token)


class _Waiter:
    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class WorkerHandle:
    """Router-side endpoint of one worker: a pipelined RPC channel.

    One socket, many concurrent calls: a writer lock serializes frame
    sends, a dedicated reader thread matches replies to waiters by
    correlation id, and a bounded window caps in-flight RPCs.  Any
    channel failure -- hangup, undecodable reply, or a call missing its
    deadline -- fails the handle *and every pending call* with typed
    :class:`WorkerDownError`; the error persists for later calls, so a
    lost worker is loud, not silent.
    """

    def __init__(
        self,
        address: str,
        max_frame_bytes: int = MAX_RPC_FRAME_BYTES,
        window: int = DEFAULT_WINDOW,
        rpc_timeout_s: float | None = DEFAULT_RPC_TIMEOUT_S,
        connect_timeout_s: float = CONNECT_TIMEOUT_S,
    ):
        import socket as socket_module

        self.address, host, port = parse_address(address)
        self.pid: int | None = None
        #: Relative placement weight from the worker's hello frame.
        self.capacity: float = 1.0
        #: Latest live-load heartbeat payload (sessions, queue depth,
        #: EWMA step latency); empty until the first ping answers.
        self.load: dict = {}
        self.alive = True
        self._down_reason = "closed"
        self._rpc_timeout_s = rpc_timeout_s
        try:
            sock = socket_module.create_connection(
                (host, port), timeout=connect_timeout_s
            )
        except OSError as error:
            raise WorkerDownError(
                f"cannot connect to worker {self.address}: {error}"
            ) from error
        sock.settimeout(None)
        self._channel = SocketChannel(sock, max_frame_bytes)
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: dict[int, _Waiter] = {}
        self.rpc_latency = LatencyHistogram()
        self.last_heartbeat = time.monotonic()
        self._ids = itertools.count(1)
        self._window = threading.BoundedSemaphore(int(window))
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-cluster-read-{port}",
            daemon=True,
        )
        self._reader.start()

    # -- failure path --------------------------------------------------
    def _down_error(self, prefix: str = "") -> WorkerDownError:
        return WorkerDownError(
            f"{prefix}worker {self.address} is down: {self._down_reason}"
        )

    def _fail(self, reason: str) -> None:
        with self._state_lock:
            if not self.alive:
                return
            self.alive = False
            self._down_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
        self._channel.close()  # wakes the reader thread
        for waiter in pending:
            waiter.error = self._down_error()
            waiter.event.set()

    def _read_loop(self) -> None:
        while True:
            try:
                payload = self._channel.recv(None)
            except Exception as error:  # noqa: BLE001 - hangup/oversize/reset
                if self.alive:
                    self._fail(f"connection lost ({type(error).__name__})")
                return
            try:
                message = decode_message(payload)
            except Exception as error:  # noqa: BLE001 - garbage on the wire
                self._fail(f"undecodable reply ({error})")
                return
            with self._state_lock:
                waiter = self._pending.pop(message.get("id"), None)
            if waiter is None:
                continue  # unsolicited (e.g. a protocol error with id None)
            if message["kind"] == "ok":
                waiter.result = message["result"]
            elif message["kind"] == "err":
                waiter.error = message["error"]
            else:
                waiter.error = ServiceError(
                    f"worker {self.address} sent a {message['kind']!r} frame"
                )
            waiter.event.set()

    # -- observability -------------------------------------------------
    @property
    def inflight(self) -> int:
        """RPCs currently awaiting a reply (pipelined, so can exceed 1)."""
        with self._state_lock:
            return len(self._pending)

    def health(self, raw: bool = False) -> dict:
        """Local-state health row (no RPC; safe for probes/scrapes).

        ``raw`` swaps the human-readable latency snapshot for the
        mergeable :meth:`~repro.obs.registry.LatencyHistogram.state`.
        """
        with self._state_lock:
            load = {k: v for k, v in self.load.items() if k != "pong"}
        return {
            "alive": self.alive,
            "inflight": self.inflight,
            "heartbeat_age_s": round(time.monotonic() - self.last_heartbeat, 3),
            "capacity": self.capacity,
            "load": load,
            "rpc_latency": (
                self.rpc_latency.state() if raw else self.rpc_latency.snapshot()
            ),
        }

    # -- calls ---------------------------------------------------------
    def call(self, op: str, args=None, timeout_s=_UNSET, windowed: bool = True):
        """One pipelined RPC; raises the worker's typed error or
        :class:`WorkerDownError` on channel failure / missed deadline."""
        timeout = self._rpc_timeout_s if timeout_s is _UNSET else timeout_s
        request_id = next(self._ids)
        ctx = current_trace()
        trace_id = ctx[1] if ctx is not None and ctx[0].enabled else None
        payload = encode_call(op, args, request_id, trace=trace_id)
        waiter = _Waiter()
        started = time.perf_counter()
        if windowed:
            self._window.acquire()
        try:
            with self._state_lock:
                if not self.alive:
                    raise self._down_error()
                self._pending[request_id] = waiter
            try:
                with self._send_lock:
                    self._channel.send(payload)
            except FrameTooLargeError:
                # Nothing hit the wire; the channel stays healthy.
                with self._state_lock:
                    self._pending.pop(request_id, None)
                raise
            except OSError as error:
                self._fail(f"send failed ({type(error).__name__})")
                raise self._down_error() from error
            if not waiter.event.wait(timeout):
                self._fail(
                    f"no reply to {op!r} within {timeout:.1f}s (hung worker)"
                )
                raise self._down_error()
        finally:
            if windowed:
                self._window.release()
        # The worker answered (typed errors included): record the round
        # trip and refresh the liveness stamp.  Histogram writes are
        # serialized under the state lock because calls are pipelined
        # across router threads.
        elapsed = time.perf_counter() - started
        with self._state_lock:
            self.rpc_latency.record(elapsed)
            self.last_heartbeat = time.monotonic()
        if trace_id is not None:
            ctx[0].record(
                "rpc", trace_id, elapsed, op=op, worker=self.address
            )
        if waiter.error is not None:
            raise waiter.error
        return waiter.result

    def ping(self, timeout_s: float = HEARTBEAT_TIMEOUT_S) -> bool:
        """One heartbeat; False (and a dead handle) on silence.

        Unwindowed: heartbeats must get through even when real traffic
        has the window saturated, and workers answer pings on the event
        loop even mid-``step_batch``, so a busy worker is never
        mistaken for a hung one.
        """
        try:
            reply = self.call("ping", None, timeout_s=timeout_s, windowed=False)
        except Exception:  # noqa: BLE001 - any failure means unhealthy
            return False
        if reply == "pong":  # pre-load-reporting worker build
            return True
        if isinstance(reply, dict) and reply.get("pong"):
            with self._state_lock:
                self.load = reply
            return True
        return False

    def hello(self, timeout_s: float = CONNECT_TIMEOUT_S) -> dict:
        """The worker's identity/config frame; records its pid/capacity."""
        info = self.call("hello", None, timeout_s=timeout_s, windowed=False)
        self.pid = int(info["pid"])
        capacity = info.get("capacity")
        if isinstance(capacity, (int, float)) and capacity > 0:
            self.capacity = float(capacity)
        return info

    def close(self) -> None:
        self._fail("closed by router")


class ClusterBackend(ExecutionBackend):
    """A fleet of TCP workers behind the :class:`ExecutionBackend` surface.

    Parameters
    ----------
    addresses:
        Worker addresses (``tcp://host:port``); all must be reachable at
        construction and share the router's engine configuration
        (verified via each worker's hello frame).
    rpc_timeout_s:
        Per-RPC deadline (``None`` waits forever -- discouraged).
    window:
        Max in-flight RPCs per worker before callers queue.
    heartbeat_interval_s:
        Idle heartbeat period (0 disables the thread).
    replicas:
        Virtual ring points per worker (see :mod:`repro.cluster.ring`).
    """

    remote = True

    def __init__(
        self,
        addresses: Iterable[str],
        *,
        rpc_timeout_s: float | None = DEFAULT_RPC_TIMEOUT_S,
        connect_timeout_s: float = CONNECT_TIMEOUT_S,
        window: int = DEFAULT_WINDOW,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        max_frame_bytes: int = MAX_RPC_FRAME_BYTES,
        replicas: int = DEFAULT_REPLICAS,
        retry: RetryPolicy | None = None,
    ):
        normalized = [parse_address(a)[0] for a in addresses]
        if not normalized:
            raise ServiceError("a cluster backend needs at least one worker")
        if len(set(normalized)) != len(normalized):
            raise ServiceError(f"duplicate worker addresses in {normalized}")
        self._addresses = normalized
        self.n_shards = len(normalized)
        self._replicas = int(replicas)
        self._heartbeat_timeout_s = float(heartbeat_timeout_s)
        # Remembered so `join_worker` dials newcomers identically.
        self._rpc_timeout_s = rpc_timeout_s
        self._connect_timeout_s = float(connect_timeout_s)
        self._window = int(window)
        self._max_frame_bytes = int(max_frame_bytes)
        self._retry = retry if retry is not None else RetryPolicy(
            deadline_s=MIGRATION_WAIT_S
        )
        self._handles: dict[str, WorkerHandle] = {}
        #: Worker processes this backend spawned and must stop on close.
        self._processes: dict = {}
        self._sessions: dict[str, str] = {}  # sid -> worker address
        self._draining: set[str] = set()
        self._migrating: dict[str, threading.Event] = {}
        self._worker_down_listeners: list = []
        self._lock = threading.Lock()
        self._closed = False
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        try:
            for address in normalized:
                self._handles[address] = WorkerHandle(
                    address,
                    max_frame_bytes=max_frame_bytes,
                    window=window,
                    rpc_timeout_s=rpc_timeout_s,
                    connect_timeout_s=connect_timeout_s,
                )
            hellos = {
                address: handle.hello(connect_timeout_s)
                for address, handle in self._handles.items()
            }
        except BaseException:
            self.close()
            raise
        first = hellos[normalized[0]]
        for address, info in hellos.items():
            if (info["horizon"], info["n_states"]) != (
                first["horizon"],
                first["n_states"],
            ):
                self.close()
                raise ServiceError(
                    f"worker {address} runs a different engine configuration "
                    f"(horizon={info['horizon']}, n_states={info['n_states']}) "
                    f"than {normalized[0]} (horizon={first['horizon']}, "
                    f"n_states={first['n_states']}); start every worker with "
                    "the same engine flags as the router"
                )
        self._horizon = int(first["horizon"])
        self._n_states = int(first["n_states"])
        self._ring: HashRing | None = None
        self._rebuild_ring()
        # Sized generously past the initial fleet: threads spawn lazily,
        # and `join_worker` can grow membership at runtime (fleets past
        # this cap still work; their batch waves just queue).
        self._dispatch = ThreadPoolExecutor(
            max_workers=max(32, self.n_shards),
            thread_name_prefix="repro-cluster-rpc",
        )
        if heartbeat_interval_s and heartbeat_interval_s > 0:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(float(heartbeat_interval_s),),
                name="repro-cluster-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    @classmethod
    def spawn_local(cls, factory, n_workers: int, **options) -> "ClusterBackend":
        """A router over ``n_workers`` freshly spawned local workers.

        Each worker is a child process on a loopback port (see
        :func:`~repro.cluster.worker.spawn_local_workers`) building its
        own :class:`~repro.engine.SessionManager` from ``factory``; under
        the ``spawn`` start method the factory must be picklable.
        ``options`` are the constructor's keywords.  The backend owns
        the processes: :meth:`close` stops them.  A factory that fails
        in any worker stops the workers already started and raises
        :class:`ServiceError` carrying the factory's message.
        """
        if n_workers < 1:
            raise ServiceError(f"need at least one local worker, got {n_workers}")
        spawned = spawn_local_workers(factory, n_workers)
        try:
            backend = cls([address for _, address in spawned], **options)
        except BaseException:
            for process, _ in spawned:
                stop_local_worker(process)
            raise
        backend._processes = {address: process for process, address in spawned}
        return backend

    # ------------------------------------------------------------------
    # membership / placement
    # ------------------------------------------------------------------
    def _rebuild_ring(self) -> None:
        """Recompute the placement ring from live, non-draining workers.

        Capacity-weighted: each member's virtual-point count scales with
        the capacity it reported in hello, so a 16-core worker owns ~4x
        the arcs of a 4-core one and ``join_worker`` places a newcomer's
        arcs proportionally.
        """
        members = [
            address
            for address in self._addresses
            if self._handles[address].alive and address not in self._draining
        ]
        weights = {
            address: self._handles[address].capacity for address in members
        }
        self._ring = (
            HashRing(members, self._replicas, weights) if members else None
        )

    def _heartbeat_loop(self, interval_s: float) -> None:
        # Jittered period: a large fleet of routers (or one router over
        # many workers) must not ping in lockstep and synchronize its
        # load spikes.
        rng = random.Random(os.getpid())
        while not self._stop_heartbeat.wait(
            interval_s * rng.uniform(0.8, 1.2)
        ):
            died = []
            for address, handle in list(self._handles.items()):
                if handle.alive and not handle.ping(self._heartbeat_timeout_s):
                    died.append(address)
            for address in died:
                self._after_worker_down(address)

    def _placement_ring(self) -> HashRing:
        with self._lock:
            ring = self._ring
        if ring is None:
            raise WorkerDownError(
                "no live cluster worker accepts placements "
                f"(workers: {self._addresses}, draining: {sorted(self._draining)})"
            )
        return ring

    def _assigned(self, session_id: str) -> str:
        with self._lock:
            address = self._sessions.get(session_id)
        if address is None:
            raise SessionError(f"no open session {session_id!r}")
        return address

    def _after_worker_down(self, address: str) -> None:
        with self._lock:
            self._rebuild_ring()
        for listener in list(self._worker_down_listeners):
            try:
                listener(address)
            except Exception:  # noqa: BLE001 - listeners must not wedge ops
                pass

    def add_worker_down_listener(self, listener) -> None:
        """Register ``listener(address)`` for worker-death notifications.

        Fired from heartbeat sweeps *and* from the op path that first
        trips over a dead worker; listeners must be fast and non-raising
        (a :class:`~repro.cluster.control.ClusterSupervisor` hands the
        actual recovery to a background thread).
        """
        self._worker_down_listeners.append(listener)

    def worker_addresses(self) -> list[str]:
        """The configured worker fleet, in construction order."""
        with self._lock:
            return list(self._addresses)

    def assignment_of(self, session_id: str) -> str | None:
        """The session's current home address (``None`` when absent)."""
        with self._lock:
            return self._sessions.get(session_id)

    def forget_session(self, session_id: str) -> None:
        """Drop a session's assignment without touching any worker.

        The recovery path's primitive: the old home is dead (nothing to
        suspend), and the supervisor re-places the session via
        :meth:`resume`.
        """
        with self._lock:
            self._sessions.pop(session_id, None)

    def down_assignments(self) -> dict[str, list[str]]:
        """``address -> [session ids]`` for every *dead* worker.

        The supervisor's work list: these sessions answer every op with
        :class:`WorkerDownError` until they are recovered or forgotten.
        """
        with self._lock:
            dead = {
                address
                for address, handle in self._handles.items()
                if not handle.alive
            }
            out: dict[str, list[str]] = {address: [] for address in dead}
            for sid, address in self._sessions.items():
                if address in dead:
                    out[address].append(sid)
        return out

    # ------------------------------------------------------------------
    # session ops (assignment-routed, migration-aware)
    # ------------------------------------------------------------------
    def _await_migration(self, session_id: str) -> bool:
        """Wait out an in-progress migration of ``session_id`` (if any)."""
        with self._lock:
            event = self._migrating.get(session_id)
        if event is None:
            return False
        event.wait(MIGRATION_WAIT_S)
        return True

    def _call_session(self, session_id: str, op: str, args):
        """Route an op to the session's worker, retrying across a drain.

        A request can race a migration: it resolves the old assignment,
        the drain suspends the session, and the old worker answers
        ``SessionError``.  The retry waits for the migration to land
        (bounded), re-resolves the assignment and tries the new home --
        so a served stream crosses a drain without dropping.  Attempts
        and backoff come from the shared :class:`RetryPolicy` (the same
        budget recovery races use); a genuine engine-side
        ``SessionError`` -- no migration in flight, assignment unmoved
        -- propagates immediately.
        """
        last_error: BaseException | None = None
        for delay_s in self._retry.schedule():
            if delay_s:
                time.sleep(delay_s)
            address = self._assigned(session_id)
            with self._lock:
                handle = self._handles.get(address)
            if handle is None:
                # Membership changed between resolve and dispatch
                # (`leave_worker` raced us); re-resolve on the next try.
                last_error = SessionError(f"no open session {session_id!r}")
                continue
            try:
                return handle.call(op, args)
            except WorkerDownError:
                self._after_worker_down(address)
                raise
            except SessionError as error:
                migrated = self._await_migration(session_id)
                with self._lock:
                    moved = self._sessions.get(session_id)
                if not migrated and (moved is None or moved == address):
                    raise  # a genuine engine-side session error
                last_error = error
        assert last_error is not None
        raise last_error

    def open(self, session_id: str, seed: int | None = None, scenario=None) -> int:
        ring = self._placement_ring()
        last_error: BaseException | None = None
        for address in ring.successors(session_id):
            handle = self._handles[address]
            if not handle.alive:
                continue
            try:
                horizon = handle.call("open", (session_id, seed, scenario))
            except WorkerDownError as error:
                # Worker died under us: re-route the open to the next
                # ring member instead of failing a fresh session.
                self._after_worker_down(address)
                last_error = error
                continue
            with self._lock:
                self._sessions[session_id] = address
            return horizon
        raise last_error if last_error is not None else WorkerDownError(
            "no live cluster worker accepts placements"
        )

    def contains(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def resident_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def session_ids(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def step(self, session_id: str, cell: int) -> ReleaseRecord:
        return self._call_session(session_id, "step", (session_id, cell))

    def step_batch(
        self, cells: Mapping[str, int]
    ) -> tuple[dict[str, ReleaseRecord], dict[str, BaseException]]:
        """One wave: at most one RPC per worker, racing drains retried."""
        with self._lock:
            assignment = {
                sid: self._sessions.get(sid) for sid in cells
            }
            handles = dict(self._handles)
        by_worker: dict[str, dict[str, int]] = {}
        records: dict[str, ReleaseRecord] = {}
        errors: dict[str, BaseException] = {}
        for sid, cell in cells.items():
            address = assignment[sid]
            if address is None or address not in handles:
                errors[sid] = SessionError(f"no open session {sid!r}")
            else:
                by_worker.setdefault(address, {})[sid] = cell
        ctx = current_trace()
        futures = {
            address: self._dispatch.submit(
                _call_in_trace, ctx, handles[address], "step_batch", worker_cells
            )
            for address, worker_cells in by_worker.items()
        }
        for address, future in futures.items():
            try:
                worker_records, worker_errors = future.result()
            except WorkerDownError as error:
                self._after_worker_down(address)
                for sid in by_worker[address]:
                    errors[sid] = error
                continue
            except Exception as error:  # noqa: BLE001 - transport-level
                for sid in by_worker[address]:
                    errors[sid] = error
                continue
            records.update(worker_records)
            errors.update(worker_errors)
        # Members that lost a race with a migration answered
        # SessionError from their *old* worker; retry them on the new
        # assignment (rare: only while a drain is in flight).
        for sid in list(errors):
            error = errors[sid]
            if not isinstance(error, SessionError):
                continue
            old = assignment.get(sid)
            if old is None:
                continue
            migrated = self._await_migration(sid)
            with self._lock:
                moved = self._sessions.get(sid)
            if not migrated and (moved is None or moved == old):
                continue
            try:
                records[sid] = self._call_session(sid, "step", (sid, cells[sid]))
                del errors[sid]
            except Exception as retry_error:  # noqa: BLE001 - keep typed
                errors[sid] = retry_error
        return records, errors

    def peek_budget(self, session_id: str) -> float:
        return self._call_session(session_id, "peek_budget", session_id)

    def finish(self, session_id: str) -> ReleaseLog:
        log = self._call_session(session_id, "finish", session_id)
        with self._lock:
            self._sessions.pop(session_id, None)
        return log

    def checkpoint(self, session_id: str) -> SessionState:
        return self._call_session(session_id, "checkpoint", session_id)

    def suspend(self, session_id: str) -> SessionState:
        state = self._call_session(session_id, "suspend", session_id)
        with self._lock:
            self._sessions.pop(session_id, None)
        return state

    def suspend_all(self) -> tuple[list[SessionState], list[str]]:
        """Drain the whole fleet; dead workers report their losses."""
        futures = [
            (address, self._dispatch.submit(handle.call, "suspend_all"))
            for address, handle in list(self._handles.items())
            if handle.alive
        ]
        states: list[SessionState] = []
        failed: set[str] = set()
        for address, future in futures:
            try:
                states.extend(future.result())
            except Exception:  # noqa: BLE001 - worker down mid-drain
                failed.add(address)
        with self._lock:
            dead = failed | {
                address
                for address, handle in self._handles.items()
                if not handle.alive
            }
            lost = [
                sid
                for sid, address in self._sessions.items()
                if address in dead
            ]
            self._sessions.clear()
            self._rebuild_ring()
        return states, lost

    def resume(self, state: SessionState) -> str:
        ring = self._placement_ring()
        session_id = state.session_id
        last_error: BaseException | None = None
        for address in ring.successors(session_id):
            handle = self._handles[address]
            if not handle.alive:
                continue
            try:
                sid = handle.call("resume", state)
            except WorkerDownError as error:
                self._after_worker_down(address)
                last_error = error
                continue
            with self._lock:
                self._sessions[sid] = address
            return sid
        raise last_error if last_error is not None else WorkerDownError(
            "no live cluster worker accepts placements"
        )

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def drain_worker(self, address: str) -> dict:
        """Live-migrate every session off ``address``; it gets no more.

        Marks the worker draining (the ring immediately stops placing
        new sessions there), checkpoints its full residency via one
        ``suspend_all`` RPC, and restores each state onto its ring
        successor.  Requests racing the drain retry onto the new home
        (see :meth:`_call_session`), so no served stream drops.  The
        worker stays connected afterwards -- stats still show it, it
        just owns nothing -- and is typically stopped by its operator.

        Returns a summary: ``{"worker", "migrated", "targets",
        "remaining"}``.  Raises :class:`ServiceError` when the address
        is unknown or no other live worker could take the sessions, and
        :class:`WorkerDownError` when the drained worker dies mid-drain
        (its unmigrated sessions are then reported by
        :meth:`lost_session_ids`).
        """
        normalized, _, _ = parse_address(address)
        handle = self._handles.get(normalized)
        if handle is None:
            raise ServiceError(
                f"unknown worker {address!r}; this cluster serves "
                f"{self._addresses}"
            )
        with self._lock:
            self._draining.add(normalized)
            self._rebuild_ring()
            ring = self._ring
            moving = [
                sid
                for sid, assigned in self._sessions.items()
                if assigned == normalized
            ]
            for sid in moving:
                self._migrating.setdefault(sid, threading.Event())
        try:
            if ring is None:
                raise ServiceError(
                    f"cannot drain {normalized}: no other live worker to "
                    "migrate its sessions onto"
                )
            states = handle.call("suspend_all")
            targets: Counter[str] = Counter()
            for state in states:
                sid = state.session_id
                placed = False
                for target in ring.successors(sid):
                    target_handle = self._handles[target]
                    if not target_handle.alive or target == normalized:
                        continue
                    try:
                        target_handle.call("resume", state)
                    except WorkerDownError:
                        self._after_worker_down(target)
                        continue
                    with self._lock:
                        self._sessions[sid] = target
                        event = self._migrating.pop(sid, None)
                    if event is not None:
                        event.set()
                    targets[target] += 1
                    placed = True
                    break
                if not placed:
                    raise WorkerDownError(
                        f"no live worker left to restore session {sid!r} "
                        f"during the drain of {normalized}"
                    )
            return {
                "worker": normalized,
                "migrated": len(states),
                "targets": dict(targets),
                "remaining": [
                    a
                    for a in self._addresses
                    if self._handles[a].alive and a not in self._draining
                ],
            }
        finally:
            with self._lock:
                for sid in moving:
                    event = self._migrating.pop(sid, None)
                    if event is not None:
                        event.set()

    # ------------------------------------------------------------------
    # dynamic membership
    # ------------------------------------------------------------------
    def join_worker(self, address: str) -> dict:
        """Admit a worker at runtime and rebalance onto it.

        Dials the newcomer with the same parameters as the construction
        fleet, verifies its hello frame against the router's engine
        configuration, adds it to the ring, and live-migrates exactly
        the sessions whose arcs the new member now owns -- consistent
        hashing means ~1/N of the keyspace moves and every other session
        stays put.  A dead member at the same address is replaced (the
        worker-restarted-on-its-port case); a live one makes the join a
        :class:`ServiceError`.

        Returns ``{"worker", "migrated", "targets", "workers"}``.
        """
        normalized, _, _ = parse_address(address)
        with self._lock:
            existing = self._handles.get(normalized)
            if existing is not None and existing.alive:
                raise ServiceError(
                    f"worker {normalized} is already a cluster member"
                )
        handle = WorkerHandle(
            normalized,
            max_frame_bytes=self._max_frame_bytes,
            window=self._window,
            rpc_timeout_s=self._rpc_timeout_s,
            connect_timeout_s=self._connect_timeout_s,
        )
        try:
            info = handle.hello(self._connect_timeout_s)
            if (int(info["horizon"]), int(info["n_states"])) != (
                self._horizon,
                self._n_states,
            ):
                raise ServiceError(
                    f"worker {normalized} runs a different engine "
                    f"configuration (horizon={info['horizon']}, "
                    f"n_states={info['n_states']}) than this cluster "
                    f"(horizon={self._horizon}, n_states={self._n_states}); "
                    "start it with the same engine flags"
                )
        except BaseException:
            handle.close()
            raise
        with self._lock:
            old = self._handles.get(normalized)
            if old is not None and old.alive:
                handle.close()
                raise ServiceError(
                    f"worker {normalized} is already a cluster member"
                )
            if old is not None:
                old.close()
            if normalized not in self._addresses:
                self._addresses.append(normalized)
            self._handles[normalized] = handle
            self._draining.discard(normalized)
            self.n_shards = len(self._addresses)
            self._rebuild_ring()
            ring = self._ring
            # Only the arcs the newcomer now owns move -- and only off
            # *live* homes (dead workers' sessions are the recovery
            # path's job, not migration's).
            moving: list[tuple[str, str]] = []
            if ring is not None:
                for sid, home in self._sessions.items():
                    if home == normalized:
                        continue
                    source = self._handles.get(home)
                    if source is None or not source.alive:
                        continue
                    if ring.owner(sid) == normalized:
                        moving.append((sid, home))
            for sid, _ in moving:
                self._migrating.setdefault(sid, threading.Event())
        targets: Counter[str] = Counter()
        try:
            for sid, home in moving:
                source = self._handles.get(home)
                if source is None:
                    continue
                try:
                    state = source.call("suspend", sid)
                except SessionError:
                    continue  # finished/moved while we were migrating
                except WorkerDownError:
                    self._after_worker_down(home)
                    continue  # recovery's problem now, not the join's
                try:
                    handle.call("resume", state)
                    placed = normalized
                except WorkerDownError:
                    # The newcomer died mid-join: put the suspended
                    # session back on any surviving member rather than
                    # losing it.
                    self._after_worker_down(normalized)
                    self.resume(state)  # raises when nobody can take it
                    with self._lock:
                        placed = self._sessions[sid]
                with self._lock:
                    self._sessions[sid] = placed
                    event = self._migrating.pop(sid, None)
                if event is not None:
                    event.set()
                targets[placed] += 1
        finally:
            with self._lock:
                for sid, _ in moving:
                    event = self._migrating.pop(sid, None)
                    if event is not None:
                        event.set()
        return {
            "worker": normalized,
            "joined": True,
            "migrated": sum(targets.values()),
            "targets": dict(targets),
            "workers": self.worker_addresses(),
        }

    def leave_worker(self, address: str) -> dict:
        """Remove a worker from membership at runtime.

        A *live* member is drained first (:meth:`drain_worker` -- its
        sessions live-migrate to the ring successors), then dropped from
        the fleet and disconnected.  A *dead* member is simply dropped;
        any sessions still assigned to it are reported in the summary's
        ``"lost"`` list (with a supervisor in front, recovery has
        already rescued the recoverable ones).  Removing the last live
        worker is refused.

        Returns ``{"worker", "migrated", "lost", "workers"}``.
        """
        normalized, _, _ = parse_address(address)
        with self._lock:
            handle = self._handles.get(normalized)
            if handle is None:
                raise ServiceError(
                    f"unknown worker {address!r}; this cluster serves "
                    f"{self._addresses}"
                )
            live_others = [
                a
                for a in self._addresses
                if a != normalized and self._handles[a].alive
            ]
        migrated = 0
        if handle.alive:
            if not live_others:
                raise ServiceError(
                    f"cannot remove {normalized}: it is the last live worker"
                )
            migrated = self.drain_worker(normalized)["migrated"]
        with self._lock:
            stranded = sorted(
                sid
                for sid, assigned in self._sessions.items()
                if assigned == normalized
            )
            for sid in stranded:
                self._sessions.pop(sid, None)
            self._draining.discard(normalized)
            if normalized in self._addresses:
                self._addresses.remove(normalized)
            self._handles.pop(normalized, None)
            self.n_shards = len(self._addresses)
            self._rebuild_ring()
        handle.close()
        return {
            "worker": normalized,
            "migrated": migrated,
            "lost": stranded,
            "workers": self.worker_addresses(),
        }

    def cluster_status(self) -> dict:
        """A no-RPC membership snapshot (probe-safe, like health rows)."""
        with self._lock:
            counts = Counter(self._sessions.values())
            ring = self._ring
            workers = [
                {
                    "worker": address,
                    "alive": self._handles[address].alive,
                    "draining": address in self._draining,
                    "pid": self._handles[address].pid,
                    "sessions": counts.get(address, 0),
                    "heartbeat_age_s": round(
                        time.monotonic() - self._handles[address].last_heartbeat,
                        3,
                    ),
                    "capacity": self._handles[address].capacity,
                    "ring_points": (
                        ring.points_of(address) if ring is not None else 0
                    ),
                    "load": {
                        k: v
                        for k, v in self._handles[address].load.items()
                        if k != "pong"
                    },
                }
                for address in self._addresses
            ]
            ring_members = list(ring.members) if ring is not None else []
            total = len(self._sessions)
        return {
            "workers": workers,
            "sessions": total,
            "ring": {"members": ring_members, "replicas": self._replicas},
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def n_states(self) -> int:
        return self._n_states

    def cache_stats(self) -> CacheStats | None:
        totals: CacheStats | None = None
        for handle in list(self._handles.values()):
            if not handle.alive:
                continue
            try:
                stats = handle.call("cache_stats")
            except Exception:  # noqa: BLE001 - died just now
                continue
            if stats is None:
                continue
            if totals is None:
                totals = stats
            else:
                totals = CacheStats(
                    hits=totals.hits + stats.hits,
                    misses=totals.misses + stats.misses,
                    evictions=totals.evictions + stats.evictions,
                    size=totals.size + stats.size,
                    maxsize=totals.maxsize + stats.maxsize,
                )
        return totals

    def shard_stats(self) -> list[dict]:
        """One observability row per worker (address included)."""
        rows = []
        with self._lock:
            addresses = list(self._addresses)
            handles = dict(self._handles)
        for index, address in enumerate(addresses):
            handle = handles[address]
            draining = address in self._draining
            if handle.alive:
                try:
                    rows.append(
                        {
                            "shard": index,
                            "worker": address,
                            "alive": True,
                            "draining": draining,
                            "health": handle.health(),
                            **handle.call("stats"),
                        }
                    )
                    continue
                except Exception:  # noqa: BLE001 - died just now
                    pass
            with self._lock:
                routed = sum(
                    1 for a in self._sessions.values() if a == address
                )
            rows.append(
                {
                    "shard": index,
                    "worker": address,
                    "pid": handle.pid,
                    "alive": False,
                    "draining": draining,
                    "sessions": routed,
                    "lost_sessions": routed,
                }
            )
        return rows

    def worker_health(self) -> list[dict]:
        """One local-state health row per worker (no RPCs; probe-safe)."""
        with self._lock:
            rows = [
                (address, address in self._draining, self._handles[address])
                for address in self._addresses
            ]
        return [
            {
                "worker": address,
                "draining": draining,
                **handle.health(raw=True),
            }
            for address, draining, handle in rows
        ]

    def lost_session_ids(self) -> list[str]:
        """Sessions assigned to workers that are down (unreachable)."""
        with self._lock:
            dead = {
                address
                for address, handle in self._handles.items()
                if not handle.alive
            }
            return [
                sid for sid, address in self._sessions.items() if address in dead
            ]

    def close(self) -> None:
        """Disconnect from the fleet (idempotent).

        Dialled workers keep running.  Spawned ones (:meth:`spawn_local`)
        are stopped: a live worker gets a ``shutdown`` RPC and
        :data:`SHUTDOWN_TIMEOUT_S` to exit, then is terminated; a dead or
        departed one is terminated at once.
        """
        if self._closed:
            return
        self._closed = True
        self._stop_heartbeat.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(1.0)
        asked = set()
        for address in self._processes:
            handle = self._handles.get(address)
            if handle is None or not handle.alive:
                continue
            try:
                handle.call(
                    "shutdown", timeout_s=SHUTDOWN_TIMEOUT_S, windowed=False
                )
            except Exception:  # noqa: BLE001 - terminated below instead
                continue
            asked.add(address)
        for handle in self._handles.values():
            handle.close()
        for address, process in self._processes.items():
            stop_local_worker(
                process, SHUTDOWN_TIMEOUT_S if address in asked else 0.0
            )
        dispatch = getattr(self, "_dispatch", None)
        if dispatch is not None:
            dispatch.shutdown(wait=False)

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter shutdown
            pass
