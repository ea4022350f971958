"""Worker-process execution: from one box to a fleet.

This package is the multi-process
:class:`~repro.engine.backend.ExecutionBackend`.  The serving layer
drives one :class:`ClusterBackend` whose workers are ``repro worker``
processes reached over TCP -- N local ones spawned by ``repro serve
--shards N`` (:meth:`ClusterBackend.spawn_local`) or remote ones named
by ``repro serve --backend tcp://...``.  Either way the placement,
deadlines, recovery and migration below are the same code.

Architecture -- three layers, bottom up
---------------------------------------
:mod:`~repro.cluster.frames` + :mod:`~repro.cluster.transport` + :mod:`~repro.cluster.codec`
    The wire.  Every RPC payload is a typed, versioned JSON message
    (``call``/``ok``/``err`` envelopes; engine types like
    :class:`~repro.engine.SessionState` travel via their exact
    ``to_json`` forms) inside a bounded length-prefixed frame over a
    TCP socket (:class:`~repro.cluster.transport.SocketChannel`), so
    there is no pickle deserialization of received bytes on any RPC
    path -- a remote worker can safely listen on a network port.

:mod:`~repro.cluster.worker`
    The node.  ``repro worker --listen HOST:PORT`` owns one full
    :class:`~repro.engine.SessionManager` and serves the engine op set
    (open/step/step_batch/peek_budget/finish/checkpoint/suspend/resume/
    suspend_all/stats) plus ``hello`` and ``ping``.  Engine ops run
    serially on one thread (per-worker ordering); heartbeats answer
    from the event loop, so busy != hung.

:mod:`~repro.cluster.backend` + :mod:`~repro.cluster.ring` + :mod:`~repro.cluster.control`
    The router.  :class:`ClusterBackend` places new sessions with a
    consistent-hash ring (stable blake2b -- identical placement in
    every process; removing one of N workers moves ~1/N of the
    keyspace), tracks an explicit session->worker assignment map,
    pipelines RPCs per worker under an in-flight window with deadlines
    and heartbeats (dead/hung workers become typed
    :class:`~repro.errors.WorkerDownError` for exactly their sessions),
    performs **live migration**: :meth:`ClusterBackend.drain_worker`
    checkpoints a worker's residency through the engine's exact
    ``suspend_all`` path and restores it onto the ring successors while
    racing requests wait and then run on each session's new home -- no
    served stream drops, and migrated streams stay bit-identical -- and,
    given a durable store, **recovers** a dead worker's sessions by
    checkpoint replay (:mod:`~repro.cluster.control` holds its retry
    policy and step journal) and promotes pooled standbys into the
    fleet.

Wired end to end::

    repro serve --shards 2                # two local workers

    repro worker --listen 0.0.0.0:9001   # on host w1
    repro worker --listen 0.0.0.0:9002   # on host w2
    repro serve --backend tcp://w1:9001,tcp://w2:9002

Exports resolve lazily (PEP 562), so importing one submodule (the
codec, say) does not pull in the router or the worker's asyncio server.
"""

from __future__ import annotations

__all__ = [
    "ClusterBackend",
    "FaultPlan",
    "HashRing",
    "RetryPolicy",
    "WorkerHandle",
    "WorkerServer",
    "parse_address",
    "ring_hash",
    "run_worker",
    "spawn_local_worker",
]

_EXPORTS = {
    "ClusterBackend": ("backend", "ClusterBackend"),
    "WorkerHandle": ("backend", "WorkerHandle"),
    "parse_address": ("backend", "parse_address"),
    "RetryPolicy": ("control", "RetryPolicy"),
    "FaultPlan": ("chaos", "FaultPlan"),
    "HashRing": ("ring", "HashRing"),
    "ring_hash": ("ring", "ring_hash"),
    "WorkerServer": ("worker", "WorkerServer"),
    "run_worker": ("worker", "run_worker"),
    "spawn_local_worker": ("worker", "spawn_local_worker"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, attr)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
