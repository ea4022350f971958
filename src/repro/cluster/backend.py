"""The cluster router: placement, live migration and self-healing.

:class:`ClusterBackend` implements the
:class:`~repro.engine.backend.ExecutionBackend` surface over a fleet of
``repro worker`` processes reached by TCP (:class:`WorkerHandle`, one
pipelined connection per worker).  Four responsibilities live here and
only here -- workers are deliberately placement-ignorant:

* **Placement** -- new sessions land on the live, non-draining worker
  chosen by a consistent-hash ring (:mod:`repro.cluster.ring`).  The
  router keeps an explicit session->worker assignment map, because a
  session's home can legitimately *change* (migration, recovery); the
  ring only decides initial placement and migration targets, so
  membership changes move ~1/N of the keyspace instead of reshuffling
  everything.  Opens, restores, drains, joins and recoveries all land
  sessions through one loop (:meth:`ClusterBackend._place`), which
  walks the ring successors past dead or departed members, so a
  membership change racing a placement lands the session on the next
  live worker instead of failing it.
* **Containment** -- each RPC carries a deadline and each worker a
  heartbeat, so a dead or hung worker turns into typed
  :class:`~repro.errors.WorkerDownError` for exactly its assigned
  sessions (reported via :meth:`lost_session_ids`), while other
  workers -- and new opens, which re-route around the hole -- keep
  serving.
* **Migration** -- :meth:`drain_worker` marks a worker draining
  (no new placements), checkpoints its residency in one
  ``suspend_all`` RPC, and restores every state onto the ring
  successors.  The engine's checkpoints are exact (see
  :class:`~repro.engine.SessionState`), so a migrated stream is
  bit-identical to an unmigrated one.
* **Recovery** -- with a durable ``store``, every acknowledged step is
  journaled (:class:`~repro.cluster.control.StepJournal`) and every
  ``checkpoint_every`` steps the session checkpoints into the store.
  When a worker dies, a recovery pass restores each of its sessions
  from the stored checkpoint onto a ring successor and replays the
  journal, so the stream continues bit-identically; a session without
  a usable checkpoint becomes a typed, recorded loss.  The pass then
  replaces each dead member with a pooled ``standbys`` worker.  Without
  a store there is no recovery: a dead worker's sessions stay typed
  losses.

Exactly-once replay: only *acknowledged* steps enter the journal.  A
step the worker applied but never answered (it died mid-op) was never
journaled, and the caller's retry re-issues it against the recovered
session -- determinism makes the re-execution produce the original
record, so the at-least-once wire becomes exactly-once history.

Locks, in the order they are taken (never the reverse):

1. ``_recovery_lock`` -- one recovery pass at a time.  It covers session
   rescue and standby actuation, which reshape membership.  Nothing
   waits for it while holding a session's exclusion.
2. The per-session exclusion (:meth:`_session_op`): ops, batched waves,
   drains, joins and recovery all hold it while they touch a session,
   so a recovery's restore-and-replay, a migration and a client op
   never interleave on one session.  Holders of several take them in
   sorted session order.
3. ``_lock`` -- one mutex over the bookkeeping: membership, the ring,
   assignments, journals, recorded losses, counters and the standby
   pool.  It is held only for reads and writes of that state, never
   across an RPC or while waiting for another lock.
4. Each :class:`WorkerHandle`'s own send, state and window locks.

Per-worker **in-flight windows** (a bounded semaphore per handle) keep
one slow worker from absorbing every router thread: callers queue at
the window instead of stacking RPCs onto a wedged socket.  An op that
needs several workers (a wave, ``suspend_all``, ``shard_stats``, a
heartbeat sweep) starts no thread: it sends to each in sorted address
order, so two never wait on each other's slots, before it waits for
any reply, and lasts as long as its slowest worker.  The only threads
are a reader per handle, the heartbeat, standby probes and recovery.

The fleet is either dialled (``ClusterBackend(addresses)``, workers
started elsewhere) or spawned: :meth:`ClusterBackend.spawn_local` starts
N local ``repro worker`` processes and owns them -- the ``repro serve
--shards N`` topology.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import socket
import threading
import time
from collections import Counter
from typing import Iterable, Mapping

from ..engine.backend import ExecutionBackend
from ..engine.records import ReleaseLog, ReleaseRecord
from ..engine.session import SessionState
from ..errors import (
    ReproError,
    ServiceError,
    SessionError,
    ValidationError,
    WorkerDownError,
)
from ..obs.registry import LatencyHistogram
from ..obs.trace import current as current_trace
from .codec import decode_message, encode_call
from .control import RetryPolicy, StepJournal
from .frames import MAX_RPC_FRAME_BYTES, check_frame_size
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
#: Seconds a spawned worker gets to exit after a shutdown RPC before
#: it is terminated.
SHUTDOWN_TIMEOUT_S = 10.0
#: Seconds a call-path retry waits to join an in-progress recovery pass.
RECOVERY_WAIT_S = 120.0
#: Seconds recovery waits for a session's in-flight op before skipping
#: it (the pass rescans and retries it).
RECOVERY_SESSION_WAIT_S = 60.0
#: Seconds between standby-pool health probes.
STANDBY_CHECK_INTERVAL_S = 5.0
#: Seconds one standby TCP probe waits before declaring it unreachable.
STANDBY_PROBE_TIMEOUT_S = 2.0

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


class _Pending:
    """One call on the wire: the reply slot :meth:`WorkerHandle.wait` takes."""

    def __init__(self, op: str, trace, windowed: bool, timeout):
        self.op = op
        self.trace = trace  # (tracer, trace id) of a traced caller, or None
        self.windowed = windowed
        self.timeout = timeout
        self.started = time.perf_counter()
        self.deadline: float | None = None  # monotonic, from the send
        self.result = None
        self.error: BaseException | None = None
        self.event = threading.Event()


def _fan_out(op: str, calls: Mapping["WorkerHandle", object], **options) -> dict:
    """Send ``op`` to each handle in ``calls`` (handle -> args) before any
    wait; returns each handle's result, or the exception it raised."""
    replies: dict = {}
    sent = {}
    for handle in sorted(calls, key=lambda handle: handle.address):
        try:
            sent[handle] = handle.send(op, calls[handle], **options)
        except Exception as error:  # noqa: BLE001 - kept per worker
            replies[handle] = error
    for handle, call in sent.items():
        try:
            replies[handle] = handle.wait(call)
        except Exception as error:  # noqa: BLE001 - kept per worker
            replies[handle] = error
    return replies


class WorkerHandle:
    """Router-side endpoint of one worker: a pipelined RPC channel.

    One socket, many concurrent calls: a writer lock serializes frame
    sends, a dedicated reader thread matches replies to pending calls
    by correlation id, and a bounded window caps in-flight RPCs.
    :meth:`call` is :meth:`send` then :meth:`wait`, so one thread can
    send to several workers before it waits for any.  Any channel
    failure -- hangup, undecodable reply, or a call missing its
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
        self._pending: dict[int, _Pending] = {}
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
        for call in pending:
            call.error = self._down_error()
            self._resolve(call)

    def _resolve(self, call: _Pending) -> None:
        """Free ``call``'s slot and wake its waiter; whoever popped it calls this."""
        if call.windowed:
            self._window.release()
        call.event.set()

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
                call = self._pending.pop(message.get("id"), None)
                if call is not None:
                    # The worker answered (typed errors included): record
                    # the round trip and refresh the liveness stamp.
                    elapsed = time.perf_counter() - call.started
                    self.rpc_latency.record(elapsed)
                    self.last_heartbeat = time.monotonic()
            if call is None:
                continue  # unsolicited (e.g. a protocol error with id None)
            if call.trace is not None:
                tracer, trace_id = call.trace
                tracer.record("rpc", trace_id, elapsed, op=call.op, worker=self.address)
            if message["kind"] == "ok":
                call.result = message["result"]
            elif message["kind"] == "err":
                call.error = message["error"]
            else:
                call.error = ServiceError(
                    f"worker {self.address} sent a {message['kind']!r} frame"
                )
            self._resolve(call)

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
        return self.wait(self.send(op, args, timeout_s, windowed))

    def send(
        self, op: str, args=None, timeout_s=_UNSET, windowed: bool = True
    ) -> _Pending:
        """Put one call on the wire for :meth:`wait`; its deadline starts
        now, and its window slot is held until the reply or a failure."""
        timeout = self._rpc_timeout_s if timeout_s is _UNSET else timeout_s
        request_id = next(self._ids)
        ctx = current_trace()
        trace_id = ctx[1] if ctx is not None and ctx[0].enabled else None
        payload = encode_call(op, args, request_id, trace=trace_id)
        # An oversized call raises here, before it is sent or takes a
        # slot: the channel stays healthy.
        check_frame_size(len(payload), self._channel.max_frame_bytes)
        call = _Pending(op, ctx[:2] if trace_id else None, windowed, timeout)
        if windowed:
            self._window.acquire()
        with self._state_lock:
            if not self.alive:
                if windowed:
                    self._window.release()
                raise self._down_error()
            self._pending[request_id] = call
        try:
            with self._send_lock:
                self._channel.send(payload)
        except OSError as error:
            self._fail(f"send failed ({type(error).__name__})")
            raise self._down_error() from error
        if timeout is not None:
            call.deadline = time.monotonic() + timeout
        return call

    def wait(self, call: _Pending):
        """A :meth:`send`'s result; raises as :meth:`call` does."""
        remaining = None
        if call.deadline is not None:
            remaining = max(0.0, call.deadline - time.monotonic())
        if not call.event.wait(remaining):
            self._fail(
                f"no reply to {call.op!r} within {call.timeout:.1f}s (hung worker)"
            )
            raise self._down_error()
        if call.error is not None:
            raise call.error
        return call.result

    def ping(self, timeout_s: float = HEARTBEAT_TIMEOUT_S) -> bool:
        """One heartbeat; False (and a dead handle) on silence.

        Unwindowed: heartbeats must get through even when real traffic
        has the window saturated, and workers answer pings on the event
        loop even mid-``step_batch``, so a busy worker is never
        mistaken for a hung one.
        """
        pongs = _fan_out("ping", {self: None}, timeout_s=timeout_s, windowed=False)
        return self.took_pong(pongs[self])

    def took_pong(self, reply) -> bool:
        """Whether a ping's result (or error) is a pong; keeps its load."""
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
    retry:
        The :class:`~repro.cluster.control.RetryPolicy` of every retry
        loop: an op healing across a worker death, and a recovery's
        restore walking past a dying target.
    store:
        The durable :class:`~repro.service.store.SessionStore` that
        recovery restores from.  ``None`` turns recovery off: a dead
        worker's sessions stay typed losses.
    checkpoint_every:
        Journaled steps between automatic checkpoints into ``store``
        (0 disables them; sessions then recover only from explicit
        :meth:`checkpoint` calls).
    standbys:
        Idle worker addresses that a recovery pass promotes, in order,
        into the place of a dead member.
    standby_check_interval_s:
        Period of the standby pool's TCP probes (0 disables them).
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
        replicas: int = DEFAULT_REPLICAS,
        retry: RetryPolicy | None = None,
        store=None,
        checkpoint_every: int = 0,
        standbys: Iterable[str] = (),
        standby_check_interval_s: float = STANDBY_CHECK_INTERVAL_S,
    ):
        self._checkpoint_every = int(checkpoint_every)
        if self._checkpoint_every < 0:
            raise ValidationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        # Warm standby pool, address -> last probe verdict, in promotion
        # (FIFO) order; a promoted standby leaves the pool for good.
        self._standbys: dict[str, bool] = dict.fromkeys(
            (parse_address(a)[0] for a in standbys or ()), False
        )
        if store is None and (self._checkpoint_every or self._standbys):
            raise ValidationError(
                "checkpoint_every and standbys need a store to recover from"
            )
        normalized = [parse_address(a)[0] for a in addresses]
        if not normalized:
            raise ServiceError("a cluster backend needs at least one worker")
        if len(set(normalized)) != len(normalized):
            raise ServiceError(f"duplicate worker addresses in {normalized}")
        self._addresses = normalized
        self.n_shards = len(normalized)
        self._replicas = int(replicas)
        self._heartbeat_timeout_s = float(heartbeat_timeout_s)
        # Read by `_dial`, so runtime joins dial like the first fleet.
        self._rpc_timeout_s = rpc_timeout_s
        self._connect_timeout_s = float(connect_timeout_s)
        self._window = int(window)
        self._retry = retry if retry is not None else RetryPolicy()
        self._store = store
        self._metrics = None
        self._handles: dict[str, WorkerHandle] = {}
        #: Worker processes this backend spawned and must stop on close.
        self._processes: dict = {}
        self._sessions: dict[str, str] = {}  # sid -> worker address
        self._draining: set[str] = set()
        self._lock = threading.Lock()
        self._session_locks: dict[str, threading.Lock] = {}
        self._recovery_lock = threading.Lock()
        self._journal: dict[str, StepJournal] = {}
        self._lost: dict[str, str] = {}  # sid -> human-readable reason
        self._workers_recovered = 0
        self._sessions_recovered = 0
        self._steps_replayed = 0
        self._sessions_lost = 0
        self._standby_promotions = 0
        self._closed = False
        # Stops the heartbeat and standby-probe threads.
        self._closing = threading.Event()
        self._threads: list[threading.Thread] = []
        # The engine configuration every worker must run; the first
        # worker dialled sets it (see `_dial`).
        self._horizon: int | None = None
        self._n_states: int | None = None
        try:
            for address in normalized:
                self._handles[address] = self._dial(address)
        except BaseException:
            self.close()
            raise
        self._ring: HashRing | None = None
        self._rebuild_ring()
        if heartbeat_interval_s and heartbeat_interval_s > 0:
            self._start(self._heartbeat_loop, heartbeat_interval_s, "heartbeat")
        if self._standbys and standby_check_interval_s > 0:
            self._start(
                self._standby_check_loop, standby_check_interval_s, "standby-health"
            )

    def _start(self, loop, interval_s: float, name: str) -> None:
        thread = threading.Thread(
            target=loop,
            args=(float(interval_s),),
            name=f"repro-cluster-{name}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

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

    def bind_metrics(self, metrics) -> None:
        """Attach the serving layer's :class:`ServiceMetrics` so
        recoveries, losses and standby promotions land in the shared
        counter families."""
        self._metrics = metrics

    # ------------------------------------------------------------------
    # membership / placement
    # ------------------------------------------------------------------
    def _dial(self, address: str) -> WorkerHandle:
        """Connect to a worker and check its hello frame.

        The worker must run the cluster's engine configuration (horizon
        and map size); the first worker dialled sets it.  A mismatch
        closes the handle and raises :class:`ServiceError`.
        """
        handle = WorkerHandle(
            address,
            window=self._window,
            rpc_timeout_s=self._rpc_timeout_s,
            connect_timeout_s=self._connect_timeout_s,
        )
        try:
            info = handle.hello(self._connect_timeout_s)
            config = (int(info["horizon"]), int(info["n_states"]))
            if self._horizon is None:
                self._horizon, self._n_states = config
            elif config != (self._horizon, self._n_states):
                raise ServiceError(
                    f"worker {handle.address} runs a different engine "
                    f"configuration (horizon={config[0]}, n_states={config[1]}) "
                    f"than this cluster (horizon={self._horizon}, "
                    f"n_states={self._n_states}); start every worker with "
                    "the same engine flags as the router"
                )
        except BaseException:
            handle.close()
            raise
        return handle

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

    def _dead(self) -> set[str]:
        """Members whose worker is down; the caller holds ``_lock``."""
        return {a for a, handle in self._handles.items() if not handle.alive}

    def _heartbeat_loop(self, interval_s: float) -> None:
        # Jittered period: a large fleet of routers (or one router over
        # many workers) must not ping in lockstep and synchronize its
        # load spikes.  Every live worker is pinged before any pong is
        # awaited, so a sweep lasts one heartbeat timeout however many
        # workers are silent.
        rng = random.Random(os.getpid())
        while not self._closing.wait(interval_s * rng.uniform(0.8, 1.2)):
            with self._lock:
                live = [h for h in self._handles.values() if h.alive]
            pongs = _fan_out(
                "ping",
                dict.fromkeys(live),
                timeout_s=self._heartbeat_timeout_s,
                windowed=False,
            )
            # A list, not a generator: every pong's load is kept.
            if not all([h.took_pong(reply) for h, reply in pongs.items()]):
                self._after_worker_down()

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
        """The session's home: its recorded loss, or ``SessionError``,
        when it has none."""
        with self._lock:
            address = self._sessions.get(session_id)
            reason = self._lost.get(session_id)
        if reason is not None:
            raise WorkerDownError(reason)
        if address is None:
            raise SessionError(f"no open session {session_id!r}")
        return address

    def _after_worker_down(self) -> None:
        """A worker died: drop it from the ring and heal in the background.

        Called from heartbeat sweeps and from the op path that first
        trips over the dead worker; never blocks on the recovery pass.
        """
        with self._lock:
            self._rebuild_ring()
        threading.Thread(
            target=self._run_recoveries,
            kwargs={"wait": False},
            name="repro-cluster-recovery",
            daemon=True,
        ).start()

    def worker_addresses(self) -> list[str]:
        """The configured worker fleet, in construction order."""
        with self._lock:
            return list(self._addresses)

    def assignment_of(self, session_id: str) -> str | None:
        """The session's current home address (``None`` when absent)."""
        with self._lock:
            return self._sessions.get(session_id)

    # ------------------------------------------------------------------
    # session ops (assignment-routed, exclusive per session, healing)
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _session_op(self, *session_ids: str):
        """Hold the exclusion of ``session_ids``, taken in sorted order so
        that two holders of several sessions never deadlock."""
        with self._lock:
            locks = [
                self._session_locks.setdefault(sid, threading.Lock())
                for sid in sorted(set(session_ids))
            ]
        with contextlib.ExitStack() as stack:
            for lock in locks:
                stack.enter_context(lock)
            yield

    def _place(self, session_id: str, op: str, args) -> tuple[WorkerHandle, object]:
        """Land a session on its first live ring successor via ``op``.

        The one placement loop: ``open``, ``resume``, the restores of
        drains and joins, and recovery all go through it.  Members that
        are dead or no longer in the fleet (a ``leave_worker`` that
        raced this call) are skipped, and a worker that dies under the
        call is marked down and the next one tried.  On success the
        assignment is recorded.  Returns ``(handle, result)``; raises
        :class:`WorkerDownError` when no member takes the session.
        """
        ring = self._placement_ring()
        last_error: BaseException | None = None
        for address in ring.successors(session_id):
            with self._lock:
                handle = self._handles.get(address)
            if handle is None or not handle.alive:
                continue
            try:
                result = handle.call(op, args)
            except WorkerDownError as error:
                self._after_worker_down()
                last_error = error
                continue
            with self._lock:
                self._sessions[session_id] = address
            return handle, result
        raise last_error if last_error is not None else WorkerDownError(
            "no live cluster worker accepts placements"
        )

    def _route(self, session_id: str) -> WorkerHandle:
        """The session's worker: its recorded loss, or ``SessionError``,
        when it has none."""
        handle = self._handles.get(self._assigned(session_id))
        if handle is None:  # a leave dropped the session with its dead home
            raise SessionError(f"no open session {session_id!r}")
        return handle

    def _call(self, session_id: str, op: str, args):
        """One RPC to the session's worker; the caller holds its exclusion."""
        handle = self._route(session_id)
        try:
            return handle.call(op, args)
        except WorkerDownError:
            self._after_worker_down()
            raise

    def _call_session(self, session_id: str, op: str, args, then=None):
        """Route one op to the session's worker, healing a worker death.

        The op holds the session's exclusion, so it never interleaves
        with a migration or a recovery of the same session; ``then``
        (given the op's result) runs under it too.  When the worker is
        down, the op runs (or joins) a recovery pass -- which restores
        the session onto a live worker -- and retries under the shared
        :class:`RetryPolicy`.  A session recovery gave up on raises its
        recorded loss at once; without a store, so does the worker's
        death.
        """
        last_error: BaseException | None = None
        for delay_s in self._retry.schedule():
            if delay_s:
                time.sleep(delay_s)
            with self._session_op(session_id):
                try:
                    result = self._call(session_id, op, args)
                except WorkerDownError as error:
                    if self._store is None or session_id in self._lost:
                        raise
                    last_error = error
                else:
                    if then is not None:
                        then(result)
                    return result
            # Outside the exclusion (recovery needs it): heal, retry.
            self._run_recoveries(wait=True)
        assert last_error is not None
        raise last_error

    def open(self, session_id: str, seed: int | None = None, scenario=None) -> int:
        return self._admit(session_id, "open", (session_id, seed, scenario), None)

    def resume(self, state: SessionState) -> str:
        return self._admit(state.session_id, "resume", state, state)

    def _admit(self, session_id: str, op: str, args, state: SessionState | None):
        """Place an opened (``state`` None) or resumed session and start
        its journal.

        With auto-checkpoints on, the session's position goes into the
        store at once, so it is recoverable from its very first step.
        """
        with self._session_op(session_id):
            handle, result = self._place(session_id, op, args)
            with self._lock:
                self._lost.pop(session_id, None)
                self._journal[session_id] = StepJournal(
                    state.committed_t if state is not None else 0
                )
            if self._checkpoint_every > 0:
                if state is None:
                    state = handle.call("checkpoint", session_id)
                self._stored(state)
        return result

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
        return self._call_session(
            session_id,
            "step",
            (session_id, cell),
            lambda _: self._note_step(session_id, cell),
        )

    def step_batch(
        self, cells: Mapping[str, int]
    ) -> tuple[dict[str, ReleaseRecord], dict[str, BaseException]]:
        """One wave: at most one RPC per worker, all sent before any
        reply is awaited, under every member's exclusion; members whose
        worker died heal and retry solo."""
        records: dict[str, ReleaseRecord] = {}
        errors: dict[str, BaseException] = {}
        with self._session_op(*cells):
            by_worker: dict[WorkerHandle, dict[str, int]] = {}
            for sid, cell in cells.items():
                try:
                    handle = self._route(sid)
                except ReproError as error:
                    errors[sid] = error
                    continue
                by_worker.setdefault(handle, {})[sid] = cell
            for handle, reply in _fan_out("step_batch", by_worker).items():
                if isinstance(reply, Exception):
                    if isinstance(reply, WorkerDownError):
                        self._after_worker_down()
                    errors.update(dict.fromkeys(by_worker[handle], reply))
                    continue
                worker_records, worker_errors = reply
                records.update(worker_records)
                errors.update(worker_errors)
            for sid in records:
                self._note_step(sid, cells[sid])
        # Members whose worker died join the recovery pass (as a solo
        # step's retry does), then retry one at a time.
        if any(isinstance(error, WorkerDownError) for error in errors.values()):
            self._run_recoveries(wait=True)
        for sid, error in list(errors.items()):
            if isinstance(error, WorkerDownError):
                try:
                    records[sid] = self.step(sid, cells[sid])
                    del errors[sid]
                except ReproError as retry_error:
                    errors[sid] = retry_error
        return records, errors

    def peek_budget(self, session_id: str) -> float:
        return self._call_session(session_id, "peek_budget", session_id)

    def finish(self, session_id: str) -> ReleaseLog:
        return self._call_session(
            session_id,
            "finish",
            session_id,
            lambda _: self._forget(session_id, finished=True),
        )

    def checkpoint(self, session_id: str) -> SessionState:
        return self._call_session(session_id, "checkpoint", session_id, self._stored)

    def suspend(self, session_id: str) -> SessionState:
        return self._call_session(
            session_id, "suspend", session_id, lambda _: self._forget(session_id)
        )

    def suspend_all(self) -> tuple[list[SessionState], list[str]]:
        """Drain the whole fleet; dead workers report their losses.

        Recovery runs first, so a graceful drain after a worker death
        checkpoints the recovered sessions instead of reporting them
        lost.
        """
        self._run_recoveries(wait=True)
        with self._lock:
            live = [h for h in self._handles.values() if h.alive]
        states: list[SessionState] = []
        failed: set[str] = set()
        for handle, reply in _fan_out("suspend_all", dict.fromkeys(live)).items():
            if isinstance(reply, Exception):  # worker down mid-drain
                failed.add(handle.address)
            else:
                states.extend(reply)
        with self._lock:
            dead = failed | self._dead()
            lost = [
                sid
                for sid, address in self._sessions.items()
                if address in dead
            ]
            self._sessions.clear()
            self._journal.clear()
            self._rebuild_ring()
        return states, lost

    # ------------------------------------------------------------------
    # journaling / checkpointing
    # ------------------------------------------------------------------
    def _note_step(self, session_id: str, cell: int) -> None:
        """Journal one acknowledged step; checkpoint when one is due.

        The caller holds the session's exclusion, so a recovery never
        replays a journal that lacks an acknowledged step.
        """
        with self._lock:
            journal = self._journal.get(session_id)
            if journal is None:
                return
            journal.cells.append(int(cell))
            due = 0 < self._checkpoint_every <= len(journal.cells)
        if due:
            # A failed auto-checkpoint must not fail the acknowledged
            # step: the journal still covers the gap, and the next op
            # (or heartbeat) triggers recovery if the worker is gone.
            with contextlib.suppress(ReproError):
                self._stored(self._call(session_id, "checkpoint", session_id))

    def _stored(self, state: SessionState) -> None:
        """Make ``state`` the session's durable checkpoint and restart
        its journal there; the caller holds the session's exclusion."""
        if self._store is not None:
            self._store.put(state)
        with self._lock:
            self._journal[state.session_id] = StepJournal(state.committed_t)

    def _forget(self, session_id: str, finished: bool = False) -> None:
        """Drop a session that left the fleet; the caller holds its
        exclusion."""
        with self._lock:
            self._sessions.pop(session_id, None)
            self._journal.pop(session_id, None)
            if finished:
                self._session_locks.pop(session_id, None)
        if finished and self._checkpoint_every > 0:
            # Drop the auto-checkpoint: a finished session must not be
            # resurrected by a later restore-on-touch.
            self._store.delete(session_id)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _run_recoveries(self, wait: bool = True) -> None:
        """One exclusive pass: rescue every session on a dead worker.

        Rescans until no dead worker holds assignments, so a cascade
        (the recovery target dying mid-restore) is just another round,
        then replaces dead members with standbys.  ``wait=False`` (the
        background path) skips instead of queueing when a pass is
        already running -- that pass sees any newly dead worker in its
        rescan.  Without a store there is nothing to recover from, and a
        closed backend recovers nothing.
        """
        if self._store is None:
            return
        if wait:
            acquired = self._recovery_lock.acquire(timeout=RECOVERY_WAIT_S)
        else:
            acquired = self._recovery_lock.acquire(blocking=False)
        if not acquired:
            return
        try:
            if self._closed:
                return  # close() waits out a pass only if it started first
            while True:
                stranded: dict[str, list[str]] = {}
                with self._lock:
                    dead = self._dead()
                    for sid, address in self._sessions.items():
                        if address in dead:
                            stranded.setdefault(address, []).append(sid)
                if not stranded:
                    break
                for address, sids in stranded.items():
                    self._recover_worker(address, sids)
            # Sessions are safe; now close the loop on membership: each
            # dead member is replaced by a warm standby, no operator step.
            self._actuate_standbys()
        finally:
            self._recovery_lock.release()

    def _recover_worker(self, address: str, session_ids: list[str]) -> None:
        recovered = replayed = 0
        lost = 0
        for sid in sorted(session_ids):
            with self._lock:
                lock = self._session_locks.setdefault(sid, threading.Lock())
            if not lock.acquire(timeout=RECOVERY_SESSION_WAIT_S):
                continue  # an op holds it; the rescan retries this session
            try:
                with self._lock:
                    if self._sessions.get(sid) != address:
                        continue  # already moved (a migration, say)
                    del self._sessions[sid]
                try:
                    replayed += self._restore_and_replay(sid, address)
                    recovered += 1
                except WorkerDownError as error:
                    with self._lock:
                        self._lost[sid] = str(error)
                        self._journal.pop(sid, None)
                    lost += 1
            finally:
                lock.release()
        with self._lock:
            self._sessions_recovered += recovered
            self._steps_replayed += replayed
            self._sessions_lost += lost
            if recovered or lost:
                self._workers_recovered += 1
        metrics = self._metrics
        if metrics is not None:
            if recovered:
                metrics.record_recovery("worker")
                metrics.record_recovery("session", recovered)
                metrics.record_recovery("replayed_step", replayed)
            if lost:
                metrics.record_failure("sessions_lost", lost)

    def _restore_and_replay(self, session_id: str, address: str) -> int:
        """Restore the stored checkpoint on a live worker, replay the journal.

        Returns the number of replayed steps.  A cascade (the restore
        target dying mid-replay) starts over on the next ring successor,
        under the retry policy.  Raises :class:`WorkerDownError` with the
        loss's reason when the session cannot be rebuilt: no readable
        checkpoint (a torn one must not wedge the pass), a checkpoint
        the journal does not reach, or no live worker.  A checkpoint of
        a session lost for want of workers stays in the store, so the
        serving layer's restore-on-touch resumes it once capacity
        returns.
        """
        try:
            state = self._store.get(session_id)
        except (ReproError, ValueError, KeyError, TypeError):
            state = None
        if state is None:
            raise WorkerDownError(
                f"session {session_id!r} was lost when worker {address} "
                "died: no durable checkpoint to recover from"
            )
        with self._lock:
            journal = self._journal.get(session_id) or StepJournal(
                state.committed_t
            )
            cells = list(journal.cells)
        # The store may be ahead of the journal base (a checkpoint taken
        # outside it): replay only the cells past the stored position.
        skip = state.committed_t - journal.base_t
        if not 0 <= skip <= len(cells):
            raise WorkerDownError(
                f"session {session_id!r} was lost when worker {address} "
                f"died: its durable checkpoint (t={state.committed_t}) does "
                f"not meet its journal (t={journal.base_t}..{journal.base_t + len(cells)})"
            )
        last_error: BaseException | None = None
        for delay_s in self._retry.schedule():
            if delay_s:
                time.sleep(delay_s)
            try:
                handle, _ = self._place(session_id, "resume", state)
                for cell in cells[skip:]:
                    handle.call("step", (session_id, cell))
                return len(cells) - skip
            except WorkerDownError as error:
                last_error = error
                with self._lock:
                    self._sessions.pop(session_id, None)
        raise WorkerDownError(
            f"session {session_id!r} could not be recovered after worker "
            f"{address} died: no live worker accepted its restored "
            f"checkpoint ({last_error})"
        )

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
    # standby pool (the membership actuator)
    # ------------------------------------------------------------------
    def _standby_check_loop(self, interval_s: float) -> None:
        while not self._closing.wait(interval_s):
            with self._lock:
                pool = list(self._standbys)
            for address in pool:
                _, host, port = parse_address(address)
                try:
                    socket.create_connection(
                        (host, port), timeout=STANDBY_PROBE_TIMEOUT_S
                    ).close()
                    healthy = True
                except OSError:
                    healthy = False
                with self._lock:
                    if address in self._standbys:
                        self._standbys[address] = healthy

    def _actuate_standbys(self) -> None:
        """Replace each dead member with a warm standby.

        The operator runbook (``repro cluster … leave`` the corpse,
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
            with self._lock:
                dead = sorted(self._dead())
                if not dead or not self._standbys:
                    return
            try:
                self._remove(dead[0])
            except ReproError:
                pass  # a racing membership op already dropped it
            while True:
                with self._lock:
                    if not self._standbys:
                        return
                    standby = next(iter(self._standbys))
                    del self._standbys[standby]
                try:
                    self.join_worker(standby)
                    break
                except ReproError:
                    continue  # this standby is gone too; try the next
            with self._lock:
                self._standby_promotions += 1
            if self._metrics is not None:
                self._metrics.record_standby_promotion()

    def standby_status(self) -> list[dict]:
        """One row per pooled standby (address + last probe verdict)."""
        with self._lock:
            return [
                {"worker": address, "healthy": healthy}
                for address, healthy in self._standbys.items()
            ]

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def drain_worker(self, address: str) -> dict:
        """Live-migrate every session off ``address``; it gets no more.

        Marks the worker draining (the ring immediately stops placing
        new sessions there), checkpoints its full residency via one
        ``suspend_all`` RPC, and restores each state onto its ring
        successor, holding the exclusion of every moving session, so
        requests racing the drain wait for it and then run on the new
        home -- no served stream drops.  The worker stays connected
        afterwards -- stats still show it, it just owns nothing -- and
        is typically stopped by its operator.

        Returns a summary: ``{"worker", "migrated", "targets",
        "remaining"}``.  Raises :class:`ServiceError` when the address
        is unknown or no other live worker could take the sessions, and
        :class:`WorkerDownError` when the drained worker dies mid-drain
        (its unmigrated sessions are then reported by
        :meth:`lost_session_ids`) or no live worker is left to restore
        a state onto.
        """
        normalized, _, _ = parse_address(address)
        with self._lock:
            handle = self._handles.get(normalized)
            if handle is None:
                raise ServiceError(
                    f"unknown worker {address!r}; this cluster serves "
                    f"{self._addresses}"
                )
            self._draining.add(normalized)
            self._rebuild_ring()
            ring = self._ring
            moving = [
                sid
                for sid, assigned in self._sessions.items()
                if assigned == normalized
            ]
        if ring is None:
            raise ServiceError(
                f"cannot drain {normalized}: no other live worker to "
                "migrate its sessions onto"
            )
        with self._session_op(*moving):
            # The ring no longer holds the draining worker, so every
            # state lands on another member.
            states = handle.call("suspend_all")
            targets = Counter(
                self._place(state.session_id, "resume", state)[0].address
                for state in states
            )
        with self._lock:
            remaining = [
                a
                for a in self._addresses
                if self._handles[a].alive and a not in self._draining
            ]
        return {
            "worker": normalized,
            "migrated": len(states),
            "targets": dict(targets),
            "remaining": remaining,
        }

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
        handle = self._dial(normalized)
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
            moving: dict[str, WorkerHandle] = {}
            for sid, home in self._sessions.items():
                source = self._handles.get(home)
                if (
                    ring is not None
                    and home != normalized
                    and source is not None
                    and source.alive
                    and ring.owner(sid) == normalized
                ):
                    moving[sid] = source
        targets: Counter[str] = Counter()
        with self._session_op(*moving):
            for sid, source in moving.items():
                try:
                    state = source.call("suspend", sid)
                except SessionError:
                    continue  # finished/moved while we were migrating
                except WorkerDownError:
                    self._after_worker_down()
                    continue  # recovery's problem now, not the join's
                # The newcomer owns the arc, so it is tried first; if it
                # died mid-join the session lands on the next survivor.
                targets[self._place(sid, "resume", state)[0].address] += 1
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
        the fleet and disconnected.  A *dead* member's sessions are
        recovered first; any still assigned to it are dropped and
        reported in the summary's ``"lost"`` list.  Removing the last
        live worker is refused.

        Returns ``{"worker", "migrated", "lost", "workers"}``.
        """
        self._run_recoveries(wait=True)
        try:
            return self._remove(address)
        except WorkerDownError:
            # The leaver died after the recovery pass but before (or
            # during) its drain: the failed RPC just marked it dead, so
            # heal from checkpoints and retake the dead-member path.
            self._run_recoveries(wait=True)
            return self._remove(address)

    def _remove(self, address: str) -> dict:
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
        """A no-RPC membership snapshot (probe-safe, like health rows).

        It takes only the bookkeeping lock, so it answers at once even
        while a recovery pass reshapes membership, and always from live
        state: a worker that died is listed ``alive: false`` at once.
        """
        with self._lock:
            counts = Counter(self._sessions.values())
            ring = self._ring
            status = {
                "workers": [
                    {
                        "worker": address,
                        "alive": self._handles[address].alive,
                        "draining": address in self._draining,
                        "pid": self._handles[address].pid,
                        "sessions": counts.get(address, 0),
                        "heartbeat_age_s": round(
                            time.monotonic()
                            - self._handles[address].last_heartbeat,
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
                ],
                "sessions": len(self._sessions),
                "ring": {
                    "members": list(ring.members) if ring is not None else [],
                    "replicas": self._replicas,
                },
            }
        status["recovery"] = self.recovery_stats()
        status["standbys"] = self.standby_status()
        return status

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        return self._horizon

    @property
    def n_states(self) -> int:
        return self._n_states

    def shard_stats(self) -> list[dict]:
        """One observability row per worker (address included); every
        live worker is asked before any reply is awaited."""
        rows = []
        with self._lock:
            addresses = list(self._addresses)
            handles = dict(self._handles)
        replies = _fan_out(
            "stats", dict.fromkeys(h for h in handles.values() if h.alive)
        )
        for index, address in enumerate(addresses):
            handle = handles[address]
            draining = address in self._draining
            reply = replies.get(handle)  # absent for a dead worker
            if isinstance(reply, dict):
                rows.append(
                    {
                        "shard": index,
                        "worker": address,
                        "alive": True,
                        "draining": draining,
                        "health": handle.health(),
                        **reply,
                    }
                )
                continue
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
        """Sessions recovery gave up on, and those on workers that are
        down and not (yet) recovered."""
        with self._lock:
            dead = self._dead()
            return sorted(
                set(self._lost).union(
                    sid for sid, address in self._sessions.items() if address in dead
                )
            )

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
        self._closing.set()
        for thread in self._threads:
            thread.join(1.0)
        # No pass starts once closed; one already running may still be
        # joining a standby, so let it finish before closing handles.
        if self._recovery_lock.acquire(timeout=RECOVERY_WAIT_S):
            self._recovery_lock.release()
        with self._lock:
            handles = dict(self._handles)
        asked = set()
        for address in self._processes:
            handle = handles.get(address)
            if handle is None or not handle.alive:
                continue
            try:
                handle.call(
                    "shutdown", timeout_s=SHUTDOWN_TIMEOUT_S, windowed=False
                )
            except Exception:  # noqa: BLE001 - terminated below instead
                continue
            asked.add(address)
        for handle in handles.values():
            handle.close()
        for address, process in self._processes.items():
            stop_local_worker(
                process, SHUTDOWN_TIMEOUT_S if address in asked else 0.0
            )

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter shutdown
            pass
