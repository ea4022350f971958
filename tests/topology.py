"""Shared helpers for the topology suite: one engine, three placements.

Where a session runs must never change what it releases, so
``test_engine_shard.py`` (backend surface) and
``test_service_sharded.py`` (served path) drive the same sessions
``inprocess``, ``local`` (:meth:`ClusterBackend.spawn_local`, what
``repro serve --shards N`` builds) and over ``tcp`` (workers dialled by
address, as ``--backend`` does).  The cluster suites share the engine
setting and in-process reference from here too, and the served suites
share :func:`held_step_batch` and :func:`serve_round`, which form
batches by holding the step pool instead of waiting on a timer.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time

import numpy as np

from repro.cluster.backend import ClusterBackend
from repro.cluster.worker import spawn_local_workers, stop_local_worker
from repro.engine import InProcessBackend, SessionBuilder, SessionManager
from repro.events.events import PresenceEvent
from repro.geo.grid import GridMap
from repro.geo.regions import Region
from repro.lppm.planar_laplace import PlanarLaplaceMechanism
from repro.markov.simulate import sample_trajectory
from repro.markov.synthetic import gaussian_kernel_transitions
from repro.scenario import (
    ChainSpec,
    EventSpec,
    GridSpec,
    MechanismSpec,
    ScenarioSpec,
)

HORIZON = 6
N_CELLS = 16
TOPOLOGIES = ("inprocess", "local", "tcp")


def make_builder() -> SessionBuilder:
    grid = GridMap(4, 4, cell_size_km=1.0)
    chain = gaussian_kernel_transitions(grid, sigma=1.0)
    initial = np.full(N_CELLS, 1.0 / N_CELLS)
    return (
        SessionBuilder()
        .with_grid(grid)
        .with_chain(chain)
        .protecting(PresenceEvent(Region.from_range(N_CELLS, 0, 5), start=2, end=4))
        .with_mechanism(PlanarLaplaceMechanism(grid, 0.5))
        .with_epsilon(0.5)
        .with_fixed_prior(initial)
        .with_horizon(HORIZON)
    )


def make_manager() -> SessionManager:
    return SessionManager(make_builder())


#: A tenant no step of which can be released: its fixed prior sits on
#: cell 15, where the event (cells 0..3 at t=1) cannot hold, so every
#: step raises ``QuantificationError: Pr(EVENT) = 0``.  It compiles and
#: opens like any scenario.
UNQUANTIFIABLE_SPEC = ScenarioSpec(
    grid=GridSpec(rows=4, cols=4),
    chain=ChainSpec.gaussian(sigma=1.0),
    events=(EventSpec.presence_range(0, 3, start=1, end=1),),
    mechanism=MechanismSpec("planar_laplace", {"alpha": 0.5}),
    epsilon=0.5,
    horizon=HORIZON,
    prior_mode="fixed",
    prior=(0.0,) * (N_CELLS - 1) + (1.0,),
)


def make_trajectories(n_sessions: int, seed: int = 7) -> dict[str, list[int]]:
    chain = make_builder().build_config().chain
    initial = np.full(N_CELLS, 1.0 / N_CELLS)
    rng = np.random.default_rng(seed)
    return {
        f"u{i}": [
            int(c)
            for c in sample_trajectory(chain, HORIZON, initial=initial, rng=rng)
        ]
        for i in range(n_sessions)
    }


def strip(record) -> tuple:
    """A release record minus wall-clock (identical math, not time)."""
    return (
        record.t,
        record.true_cell,
        record.released_cell,
        record.budget,
        record.n_attempts,
        record.conservative,
        record.forced_uniform,
    )


def strip_elapsed(record: dict) -> dict:
    """A served (JSON) release record minus wall-clock."""
    return {k: v for k, v in record.items() if k != "elapsed_s"}


def reference_records(trajectories: dict[str, list[int]], convert=strip) -> dict:
    """The same streams driven on one in-process manager, session ``i``
    seeded ``1000 + i``; each record goes through ``convert``."""
    manager = make_manager()
    for i, name in enumerate(trajectories):
        manager.open(name, rng=1000 + i)
    out = {
        name: [convert(manager.step(name, cell)) for cell in trajectory]
        for name, trajectory in trajectories.items()
    }
    manager.finish_all()
    return out


def direct_records(trajectories: dict[str, list[int]]) -> dict[str, list[dict]]:
    """:func:`reference_records` in the served JSON form."""
    return reference_records(trajectories, lambda r: strip_elapsed(r.to_json()))


@contextlib.contextmanager
def open_backend(topology: str, n_workers: int = 2, factory=make_manager, **options):
    """A backend of the given topology, torn down (workers reaped) on exit.

    ``n_workers`` is ignored in-process; ``options`` go to the
    :class:`ClusterBackend` constructor.
    """
    if topology == "inprocess":
        yield InProcessBackend(factory())
    elif topology == "local":
        with ClusterBackend.spawn_local(factory, n_workers, **options) as backend:
            yield backend
    elif topology == "tcp":
        spawned = spawn_local_workers(factory, n_workers)
        try:
            with ClusterBackend([a for _, a in spawned], **options) as backend:
                yield backend
        finally:
            for process, _ in spawned:
                stop_local_worker(process)
    else:
        raise ValueError(f"unknown topology {topology!r}")


def sessions_by_worker(backend: ClusterBackend, n_per_worker: int = 1) -> list[list[str]]:
    """``n_per_worker`` unopened session ids that a fresh ``open`` places
    on each worker, in :meth:`~ClusterBackend.worker_addresses` order."""
    ring = backend._placement_ring()
    picked: dict[str, list[str]] = {a: [] for a in backend.worker_addresses()}
    i = 0
    while any(len(sids) < n_per_worker for sids in picked.values()):
        owner = picked[ring.owner(f"s{i}")]
        if len(owner) < n_per_worker:
            owner.append(f"s{i}")
        i += 1
    return list(picked.values())


def kill_worker(backend, address: str, timeout_s: float = 10.0) -> None:
    """SIGKILL the worker at ``address`` and wait for its handle to notice.

    The pid comes from ``cluster_status`` -- the same source an operator
    (or the CLI regression test) uses.
    """
    pid = next(
        row["pid"]
        for row in backend.cluster_status()["workers"]
        if row["worker"] == address
    )
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        rows = {row["worker"]: row for row in backend.worker_health()}
        if not rows.get(address, {"alive": False})["alive"]:
            return  # dead, or already replaced by a recovery pass
        time.sleep(0.02)
    raise AssertionError(f"worker {address} still looks alive after SIGKILL")


async def until(predicate, timeout_s: float = 10.0) -> None:
    """Poll ``predicate`` on the event loop until it holds."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.005)


@contextlib.asynccontextmanager
async def held_step_batch(server):
    """Hold every backend ``step_batch`` call of ``server`` until exit.

    With ``workers=1`` the first held batch fills the server's only
    batch slot, so the steps submitted meanwhile queue behind it; on
    exit it completes and the queued steps flush as exactly one batch.
    Yields the list of threads the held calls ran on.
    """
    release = threading.Event()
    threads: list[threading.Thread] = []
    step_batch = server._backend.step_batch

    def held(cells):
        threads.append(threading.current_thread())
        release.wait(10)
        return step_batch(cells)

    server._backend.step_batch = held
    try:
        yield threads
    finally:
        release.set()
        server._backend.step_batch = step_batch


async def serve_round(server, requests: list) -> list:
    """Serve step ``requests`` (coroutines) as exactly two batches.

    The first request runs alone and is held inside ``step_batch``
    until all the others have queued behind it, so they flush together
    as one batch.  ``server`` must run ``workers=1``.  Returns the
    replies in order, exceptions included.
    """
    assert server._batcher.workers == 1, "serve_round needs workers=1"
    async with held_step_batch(server):
        tasks = [asyncio.ensure_future(requests[0])]
        await until(lambda: server._batcher.stats()["inflight"] == 1)
        tasks += [asyncio.ensure_future(request) for request in requests[1:]]
        await until(lambda: server._batcher.stats()["pending"] == len(tasks) - 1)
    return await asyncio.gather(*tasks, return_exceptions=True)
