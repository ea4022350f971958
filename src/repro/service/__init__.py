"""Concurrent network serving layer over the streaming session engine.

The paper's release loop is an online, per-user service; this package is
the layer that exposes it to many concurrent clients.  The stack, top to
bottom::

    CLI (`repro serve`)            -- flags -> engine config + server knobs
      -> repro.service             -- this package: the network layer
           protocol.py            -- versioned JSONL frames + typed errors
           server.py              -- asyncio TCP server: admission control,
                                     per-connection backpressure, graceful
                                     drain on SIGINT/SIGTERM
           executor.py            -- the per-session op queue: every
                                     session op runs on a worker pool in
                                     the order its client sent it; queued
                                     steps group-commit onto the backend's
                                     batched step pipeline
           store.py               -- pluggable SessionStore (memory / JSON
                                     directory / SQLite): idle sessions are
                                     evicted via the engine's JSON
                                     checkpoint and restored on demand, so
                                     open-session count is decoupled from
                                     resident memory
           metrics.py             -- counters + latency histograms behind
                                     the `stats` op; mergeable dumps so
                                     per-worker metrics aggregate
           client.py              -- async + sync clients
      -> repro.engine.backend      -- ExecutionBackend: where fleet work
                                     runs.  InProcessBackend (one
                                     SessionManager, this process) or a
                                     ClusterBackend (repro.cluster):
                                     `repro worker` processes, each
                                     owning a full manager -- N local
                                     ones with `--shards N`, or any
                                     machines' with `--backend
                                     tcp://w1:9001,...` -- with
                                     consistent-hash placement, batched
                                     one-message-per-worker dispatch,
                                     typed `worker_down` crash
                                     containment, checkpoint-replay
                                     recovery and live migration
      -> repro.engine              -- SessionManager fan-out, ReleaseSession,
                                     shared VerdictCache + mechanism ladder
      -> repro.core                -- two-world models, Theorem IV.1, QP

    (stdlib only: asyncio, sqlite3, threading, multiprocessing -- no new
    dependencies.)

Many connections multiplex onto one shared execution backend; different
sessions step in parallel (worker threads in-process, worker processes
with ``--shards`` or ``--backend``) while each individual session's
steps stay strictly ordered, so a server-mediated release stream is
bit-identical to driving the manager directly under the same seeds --
at any worker count.  Threads scale until one process saturates a
couple of cores on the GIL's bookkeeping; workers scale with the
machine because every worker owns its engine outright and the serving
layer only routes, and ``--backend`` takes the same contract past the
machine (sessions survive worker drains via live migration).
"""

from ..engine.backend import ExecutionBackend, InProcessBackend, as_backend
from .client import AsyncServiceClient, RetryPolicy, ServiceClient
from .executor import StepBatcher, default_workers
from .metrics import LatencyHistogram, ServiceMetrics
from .shedding import LoadShedder, ShedConfig
from .protocol import (
    PROTOCOL_VERSION,
    Request,
    decode_frame,
    encode_frame,
    error_code_for,
    error_frame,
    exception_for,
    ok_frame,
    parse_reply,
    parse_request,
)
from .server import ReleaseServer, ServerConfig
from .store import (
    DirectorySessionStore,
    MemorySessionStore,
    SessionStore,
    SQLiteSessionStore,
    resolve_store,
)

__all__ = [
    "AsyncServiceClient",
    "DirectorySessionStore",
    "ExecutionBackend",
    "InProcessBackend",
    "LatencyHistogram",
    "LoadShedder",
    "MemorySessionStore",
    "PROTOCOL_VERSION",
    "ReleaseServer",
    "Request",
    "RetryPolicy",
    "SQLiteSessionStore",
    "ServerConfig",
    "ServiceClient",
    "ServiceMetrics",
    "SessionStore",
    "ShedConfig",
    "StepBatcher",
    "as_backend",
    "decode_frame",
    "default_workers",
    "encode_frame",
    "error_code_for",
    "error_frame",
    "exception_for",
    "ok_frame",
    "parse_reply",
    "parse_request",
    "resolve_store",
]
