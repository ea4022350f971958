"""The topology suite, served half: ``repro serve`` over every topology.

``repro serve --shards N`` runs N local ``repro worker`` processes behind
one recovering :class:`~repro.cluster.ClusterBackend` -- the same
backend ``--backend`` builds over remote workers.  Everything a client can
observe must stay invariant across the in-process, ``local`` and
``tcp`` topologies (see :mod:`topology`):

* served release streams are bit-identical to driving a
  ``SessionManager`` directly -- concurrent, in coalesced batches of a
  known size, and across eviction/restore churn;
* a graceful drain checkpoints every session *through its owning
  worker* into the store, and a restarted server with a different worker
  count (or none) adopts and continues the streams exactly;
* the ``stats`` op reports per-worker counters plus their aggregate and
  the thread/worker split, in the wire shape (``shards.per_shard``)
  clients already parse;
* a dead worker answers with the typed ``worker_down`` error code (a
  ``shard_down`` subclass) for its sessions only.
"""

import asyncio
import contextlib
import os

import pytest

from repro.errors import ServiceError, ShardDownError
from repro.service import (
    AsyncServiceClient,
    DirectorySessionStore,
    MemorySessionStore,
    ReleaseServer,
    ServerConfig,
    default_workers,
)

from topology import (
    HORIZON,
    N_CELLS,
    TOPOLOGIES,
    direct_records,
    kill_worker,
    make_manager,
    make_trajectories,
    open_backend,
    serve_round,
    sessions_by_worker,
    strip_elapsed,
)


@contextlib.contextmanager
def serving_engine(shards: int, store, topology: str = "local"):
    """The engine ``repro serve`` builds: in-process at 0 workers, else a
    cluster backend over ``shards`` workers recovering from the server's
    store."""
    if shards == 0:
        yield make_manager()
        return
    with open_backend(topology, shards, store=store) as backend:
        yield backend


async def serve_trajectories(
    trajectories,
    topology: str = "local",
    store=None,
    finish: bool = True,
    steps: range = range(HORIZON),
    n_workers: int = 2,
    coalesce: bool = False,
    **overrides,
):
    """Drive ``steps`` of every trajectory through a fresh server.

    Sessions are opened when ``steps`` starts at 0 (otherwise they are
    adopted from ``store``).  ``coalesce`` serves each timestamp through
    :func:`~topology.serve_round` (needs ``workers=1``).  Returns
    ``(streams, stats, drain summary)``.
    """
    store = store if store is not None else MemorySessionStore()
    shards = 0 if topology == "inprocess" else n_workers
    with serving_engine(shards, store, topology) as engine:
        server = ReleaseServer(
            engine, store=store, config=ServerConfig(**overrides)
        )
        await server.start()
        streams = {name: [] for name in trajectories}
        client = await AsyncServiceClient.connect("127.0.0.1", server.port)
        if steps.start == 0:
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)
        for t in steps:
            requests = [
                client.step(name, trajectory[t])
                for name, trajectory in trajectories.items()
            ]
            if coalesce:
                records = await serve_round(server, requests)
            else:
                records = await asyncio.gather(*requests)
            for name, record in zip(trajectories, records):
                streams[name].append(strip_elapsed(record))
        stats = await client.stats()
        if finish:
            for name in trajectories:
                await client.finish(name)
        await client.close()
        summary = await server.drain()
    return streams, stats, summary


class TestShardedStreamsBitIdentical:
    def test_sharded_serve_matches_in_process_and_direct(self):
        trajectories = make_trajectories(8)
        reference = direct_records(trajectories)
        for topology in TOPOLOGIES:
            served, _, _ = asyncio.run(serve_trajectories(trajectories, topology))
            assert served == reference, topology

    def test_sharded_batched_serve_matches_direct(self):
        trajectories = make_trajectories(8)
        reference = direct_records(trajectories)
        for topology in ("local", "tcp"):
            batched, stats, _ = asyncio.run(
                serve_trajectories(trajectories, topology, coalesce=True, workers=1)
            )
            assert batched == reference, topology
            assert stats["batching"]["steps"] == 8 * HORIZON
            assert stats["batching"]["batches"] == 2 * HORIZON
            assert stats["batching"]["max_batch"] == 7

    def test_sharded_serve_with_eviction_churn_matches_direct(self):
        trajectories = make_trajectories(6)
        reference = direct_records(trajectories)
        churned, stats, _ = asyncio.run(
            serve_trajectories(trajectories, "local", max_resident=2)
        )
        assert churned == reference
        assert stats["sessions"]["evicted"] > 0
        assert stats["sessions"]["restored"] > 0


class TestShardedStats:
    def test_stats_report_per_shard_counters_and_worker_split(self):
        trajectories = make_trajectories(6)
        _, stats, _ = asyncio.run(serve_trajectories(trajectories))

        assert stats["server"]["shards"] == 2
        assert stats["server"]["workers"] == default_workers(shards=2)
        shards = stats["shards"]
        assert shards["count"] == 2 and shards["alive"] == 2
        assert len(shards["per_shard"]) == 2
        assert sum(row["sessions"] for row in shards["per_shard"]) == len(
            trajectories
        )
        for row in shards["per_shard"]:
            assert row["alive"] is True
            assert row["worker"].startswith("tcp://127.0.0.1:")
            steps = row["metrics"]["requests"].get("step", 0)
            assert steps == row["sessions"] * HORIZON
            assert row["verdict_cache"] is not None
        aggregate = shards["aggregate"]
        assert aggregate["requests"]["step"] == len(trajectories) * HORIZON
        assert aggregate["step_latency"]["count"] == len(trajectories) * HORIZON

    def test_stored_counts_parked_sessions_not_durable_checkpoints(self, tmp_path):
        """A recovering cluster keeps a durable checkpoint of every
        resident session in the store; none of them is parked."""
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        trajectories = make_trajectories(4)

        async def run():
            with open_backend("local", store=store, checkpoint_every=2) as engine:
                server = ReleaseServer(engine, store=store)
                await server.start()
                client = await AsyncServiceClient.connect("127.0.0.1", server.port)
                for i, name in enumerate(trajectories):
                    await client.open(name, seed=1000 + i)
                for t in range(2):
                    for name, trajectory in trajectories.items():
                        await client.step(name, trajectory[t])
                stats = await client.stats()
                rows = len(store)
                gauge = server.metrics.registry.get("repro_sessions_stored").value()
                await client.close()
                await server.drain()
            return stats["sessions"], rows, gauge

        sessions, rows, gauge = asyncio.run(run())
        assert (sessions["open"], sessions["resident"]) == (4, 4)
        assert rows == 4
        assert sessions["stored"] == gauge == 0

    def test_in_process_stats_have_no_shard_section(self):
        trajectories = make_trajectories(2)
        _, stats, _ = asyncio.run(serve_trajectories(trajectories, "inprocess"))
        assert stats["shards"] is None
        assert stats["server"]["shards"] == 0

    def test_default_workers_accounts_for_shards(self):
        cores = os.cpu_count() or 4
        assert default_workers() == min(32, cores)
        for shards in (2, 4, 8):
            workers = default_workers(shards=shards)
            # the parent pool shrinks with the worker count instead of
            # multiplying it, and never collapses below two slots
            assert workers == min(32, max(2, cores // shards))
            assert workers <= max(2, default_workers())


class TestShardedDrainRestart:
    @pytest.mark.parametrize("restart_shards", [0, 3])
    def test_drain_then_restart_under_other_shard_count(self, restart_shards):
        """2-worker drain -> store -> restart with N != 2, bit-identical."""
        trajectories = make_trajectories(5)
        split = HORIZON // 2
        store = MemorySessionStore()
        first, _, summary = asyncio.run(
            serve_trajectories(
                trajectories, store=store, finish=False, steps=range(split)
            )
        )
        assert summary["sessions_checkpointed"] == len(trajectories)
        assert summary["sessions_lost"] == 0
        second, _, _ = asyncio.run(
            serve_trajectories(
                trajectories,
                "local" if restart_shards else "inprocess",
                store=store,
                finish=False,
                steps=range(split, HORIZON),
                n_workers=restart_shards,
            )
        )
        streams = {name: first[name] + second[name] for name in trajectories}
        assert streams == direct_records(trajectories)


class TestShardedGuards:
    def test_inline_workers_rejected_with_sharded_backend(self):
        store = MemorySessionStore()
        with serving_engine(1, store) as engine:
            with pytest.raises(ServiceError, match="workers=0"):
                ReleaseServer(engine, store=store, config=ServerConfig(workers=0))

    def test_eviction_skips_dead_shard_sessions(self):
        """A dead worker's resident sessions must not poison eviction.

        With ``max_resident=1`` every request triggers eviction; if the
        LRU victim lives on the dead worker, the suspend fails -- that
        failure belongs to the lost session, never to the healthy
        client whose request triggered the scan.
        """

        async def run():
            store = MemorySessionStore()
            with serving_engine(2, store) as engine:
                server = ReleaseServer(
                    engine, store=store, config=ServerConfig(max_resident=1)
                )
                await server.start()
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", server.port
                )
                (on_zero,), (on_one,) = sessions_by_worker(engine)
                await client.open(on_zero, seed=1)
                await client.open(on_one, seed=2)

                kill_worker(engine, engine.worker_addresses()[1])

                # the healthy session keeps serving through repeated
                # eviction scans that may pick the dead worker's session
                for t in range(3):
                    record = await client.step(on_zero, t % N_CELLS)
                    assert record["t"] == t + 1
                stats = await client.stats()
                assert stats["errors"].get("shard_down") is None
                assert stats["errors"].get("worker_down") is None
                await client.close()
                await server.drain()

        asyncio.run(run())


class TestShardDownOverWire:
    def test_dead_shard_answers_shard_down_for_its_sessions_only(self):
        async def run():
            store = MemorySessionStore()
            with serving_engine(2, store) as engine:
                server = ReleaseServer(engine, store=store, config=ServerConfig())
                await server.start()
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", server.port
                )
                (on_zero,), (on_one,) = sessions_by_worker(engine)
                await client.open(on_zero, seed=1)
                await client.open(on_one, seed=2)

                dead = engine.worker_addresses()[1]
                kill_worker(engine, dead)

                # no durable checkpoint: the loss is typed, never silent
                with pytest.raises(ShardDownError):
                    await client.step(on_one, 3)
                record = await client.step(on_zero, 3)
                assert record["t"] == 1

                stats = await client.stats()
                assert stats["shards"]["alive"] == 1
                rows = {row["worker"]: row for row in stats["shards"]["per_shard"]}
                assert rows[dead]["alive"] is False
                assert stats["errors"].get("worker_down") == 1
                assert stats["recovery"]["sessions_lost"] == 1
                assert stats["failures"]["sessions_lost"] == 1

                await client.close()
                summary = await server.drain()
            assert summary["sessions_checkpointed"] == 1

        asyncio.run(run())
