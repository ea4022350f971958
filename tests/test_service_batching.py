"""Batched serving: identity, ordering and the group-commit queue.

Every served step goes through the group-commit queue onto
``SessionManager.step_many``; streams served in coalesced batches must
stay bit-identical to one-step-at-a-time serving and to driving the
manager directly, per-session ordering must survive same-session
bursts, and a bad request or a faulting session must fail alone without
poisoning its batch.  Tests that need steps to share a batch hold the
step pool (:func:`topology.held_step_batch`) instead of waiting on a
timer, so their batch sizes are exact.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.engine import SessionBuilder, SessionManager, StaticMechanismProvider
from repro.errors import QuantificationError, SessionError
from repro.geo.grid import GridMap
from repro.lppm.planar_laplace import PlanarLaplaceMechanism
from repro.markov.simulate import sample_trajectory
from repro.service import AsyncServiceClient, ReleaseServer, ServerConfig

from topology import (
    HORIZON,
    direct_records,
    held_step_batch,
    make_builder,
    make_manager,
    make_trajectories,
    serve_round,
    strip_elapsed,
    until,
)


def strip_json(record):
    return tuple(
        record[key]
        for key in (
            "t",
            "true_cell",
            "released_cell",
            "budget",
            "n_attempts",
            "conservative",
            "forced_uniform",
        )
    )


@pytest.fixture(scope="module")
def setting():
    from repro.experiments.scenarios import synthetic_scenario

    scenario = synthetic_scenario(n_rows=5, n_cols=5, sigma=1.0, horizon=8)
    event = scenario.presence_event(0, 4, 3, 5)
    builder = (
        SessionBuilder()
        .with_grid(scenario.grid)
        .with_chain(scenario.chain)
        .protecting(event)
        .with_mechanism(PlanarLaplaceMechanism(scenario.grid, 0.5))
        .with_epsilon(0.4)
        .with_horizon(8)
    )
    return scenario, builder


async def _serve_fleet(builder, scenario, n_sessions, n_steps, coalesce):
    """Serve every session ``n_steps`` times, one round per timestamp.

    ``coalesce`` serves each round through :func:`serve_round` (u0
    alone, then the rest as one batch); otherwise steps go one at a
    time, so every batch holds one step.
    """
    rng = np.random.default_rng(0)
    trajectories = [
        sample_trajectory(scenario.chain, n_steps, initial=scenario.initial, rng=rng)
        for _ in range(n_sessions)
    ]
    server = ReleaseServer(SessionManager(builder), config=ServerConfig(workers=1))
    await server.start()
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", server.port) for _ in range(4)
    ]
    by_session = [clients[i % len(clients)] for i in range(n_sessions)]
    for i in range(n_sessions):
        await by_session[i].open(f"u{i}", seed=1000 + i)
    streams = {f"u{i}": [] for i in range(n_sessions)}
    for t in range(n_steps):
        requests = [
            by_session[i].step(f"u{i}", int(trajectories[i][t]))
            for i in range(n_sessions)
        ]
        if coalesce:
            records = await serve_round(server, requests)
        else:
            records = [await request for request in requests]
        for i, record in enumerate(records):
            streams[f"u{i}"].append(strip_json(record))
    stats = await clients[0].stats()
    for client in clients:
        await client.close()
    await server.drain()
    return streams, stats


class TestBatchedServing:
    def test_streams_bit_identical_to_unbatched(self, setting):
        scenario, builder = setting
        batched, stats = asyncio.run(_serve_fleet(builder, scenario, 8, 6, True))
        unbatched, solo = asyncio.run(_serve_fleet(builder, scenario, 8, 6, False))
        assert batched == unbatched
        # Each round: u0 alone, then the other seven as one batch.
        assert stats["batching"]["steps"] == 8 * 6
        assert stats["batching"]["batches"] == 2 * 6
        assert stats["batching"]["max_batch"] == 7
        assert solo["batching"]["batches"] == solo["batching"]["steps"] == 8 * 6

    def test_matches_direct_manager(self, setting):
        scenario, builder = setting
        served, _ = asyncio.run(_serve_fleet(builder, scenario, 6, 6, True))
        rng = np.random.default_rng(0)
        trajectories = [
            sample_trajectory(scenario.chain, 6, initial=scenario.initial, rng=rng)
            for _ in range(6)
        ]
        manager = SessionManager(builder)
        for i in range(6):
            manager.open(f"u{i}", rng=1000 + i)
        direct = {f"u{i}": [] for i in range(6)}
        for t in range(6):
            for i in range(6):
                record = manager.step(f"u{i}", int(trajectories[i][t]))
                direct[f"u{i}"].append(strip_json(record.to_json()))
        assert served == direct

    def test_same_session_burst_stays_ordered(self, setting):
        scenario, builder = setting

        async def run():
            server = ReleaseServer(
                SessionManager(builder), config=ServerConfig(workers=2)
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=5)
            # Fire a burst of steps for one session without awaiting in
            # between: each must land in its own batch, in order.
            records = await asyncio.gather(
                *[client.step("u0", cell) for cell in (3, 7, 1, 4)]
            )
            await client.close()
            await server.drain()
            return records

        records = asyncio.run(run())
        assert [record["t"] for record in records] == [1, 2, 3, 4]
        assert [record["true_cell"] for record in records] == [3, 7, 1, 4]

    def test_bad_request_fails_alone(self, setting):
        scenario, builder = setting

        async def run():
            server = ReleaseServer(
                SessionManager(builder), config=ServerConfig(workers=1)
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("first", seed=0)
            await client.open("good", seed=1)
            results = await serve_round(
                server,
                [
                    client.step("first", 2),
                    client.step("good", 3),
                    client.step("ghost", 4),
                ],
            )
            stats = await client.stats()
            await client.close()
            await server.drain()
            return results, stats["batching"]

        (first, good, ghost), batching = asyncio.run(run())
        assert first["t"] == good["t"] == 1
        assert isinstance(ghost, SessionError)
        assert batching["max_batch"] == 2  # good and ghost shared a batch

    def test_batched_step_restores_suspended_sessions(self, setting):
        scenario, builder = setting

        async def run():
            server = ReleaseServer(
                SessionManager(builder),
                config=ServerConfig(workers=1, max_resident=2),
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i in range(5):
                await client.open(f"u{i}", seed=i)
            # With max_resident=2, most sessions are evicted between
            # rounds; batched steps must restore them transparently.
            for t in range(3):
                records = await serve_round(
                    server, [client.step(f"u{i}", (t + i) % 25) for i in range(5)]
                )
                assert [record["t"] for record in records] == [t + 1] * 5
            stats = await client.stats()
            await client.close()
            await server.drain()
            return stats

        stats = asyncio.run(run())
        assert stats["sessions"]["restored"] > 0
        assert stats["batching"]["batches"] == 2 * 3
        assert stats["batching"]["max_batch"] == 4


class TestBatchOrderingUnderContention:
    def test_same_session_batches_apply_in_flush_order(self, setting):
        # Regression: batch 1 = {a, b} is held inside step_many on one of
        # two pool threads; b's second step must NOT take the free
        # thread and leapfrog it -- a session has at most one op in
        # flight, so the step stays queued until batch 1 has run.
        scenario, builder = setting
        from repro.service import StepBatcher

        async def run():
            manager = SessionManager(builder)
            manager.open("a", rng=1)
            manager.open("b", rng=2)
            calls = []
            release = threading.Event()
            original = manager.step_many

            def spy(cells):
                calls.append(dict(cells))
                if len(calls) == 1:
                    release.wait(10)
                return original(cells)

            manager.step_many = spy
            batcher = StepBatcher(manager, workers=2)
            try:
                step_a = batcher.submit("a", 1)
                step_b1 = batcher.submit("b", 1)
                await until(lambda: calls)  # batch 1 holds one thread
                step_b2 = batcher.submit("b", 2)
                await asyncio.sleep(0.05)  # time to misuse the free thread
                assert batcher.stats()["pending"] == 1
                assert batcher.stats()["inflight"] == 1
            finally:
                release.set()
            try:
                (_, rec_a), (_, rec_b1), (_, rec_b2) = await asyncio.gather(
                    step_a, step_b1, step_b2
                )
            finally:
                batcher.shutdown()
            return calls, rec_a, rec_b1, rec_b2

        calls, rec_a, rec_b1, rec_b2 = asyncio.run(run())
        assert rec_a.t == 1 and rec_a.true_cell == 1
        assert (rec_b1.t, rec_b1.true_cell) == (1, 1)
        assert (rec_b2.t, rec_b2.true_cell) == (2, 2)
        assert calls[0] == {"a": 1, "b": 1}
        assert calls[1] == {"b": 2}

    def test_finish_waits_for_pending_batched_step(self, setting):
        # A pipelined step + finish on one session: the finish queues
        # behind the step in the session's FIFO, so the step completes
        # first.
        scenario, builder = setting

        async def run():
            server = ReleaseServer(
                SessionManager(builder), config=ServerConfig(workers=1)
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=3)
            await client.open("plug", seed=4)
            async with held_step_batch(server):
                plug = asyncio.ensure_future(client.step("plug", 1))
                await until(lambda: server._batcher.stats()["inflight"] == 1)
                step_task = asyncio.ensure_future(client.step("u0", 4))
                await until(lambda: server._batcher.stats()["pending"] == 1)
                finish_task = asyncio.ensure_future(client.finish("u0"))
                # Counted on arrival, when it also enters u0's queue,
                # before the held batch can complete.
                await until(
                    lambda: server.metrics.snapshot()["requests"].get("finish") == 1
                )
            summary = await finish_task
            record = await step_task
            await plug
            await client.close()
            await server.drain()
            return record, summary

        record, summary = asyncio.run(run())
        assert record["t"] == 1
        assert summary["n_released"] == 1

    def test_barrier_covers_flushed_but_unexecuted_batches(self, setting):
        # Regression: a flushed step leaves its queue before its job has
        # run; an op queued in that gap must still wait for the step
        # instead of letting a finish/checkpoint overtake it.
        scenario, builder = setting
        from repro.service import StepBatcher

        async def run():
            manager = SessionManager(builder)
            manager.open("a", rng=1)
            batcher = StepBatcher(manager, workers=0)
            step = batcher.submit("a", 3)
            batcher._flush()  # flush now; the step's job has not run
            assert "a" not in batcher._queues
            _, t_seen = await batcher.run(
                "a", "peek_budget", lambda: manager.session("a").t
            )
            _, record = await step
            return t_seen, record

        t_seen, record = asyncio.run(run())
        assert t_seen == 2, "an op queued behind a flushed step ran first"
        assert record.t == 1


class TestGroupCommitQueue:
    """Every served step goes through the group-commit queue."""

    def test_sequential_steps_on_an_idle_server_never_wait_for_company(self):
        async def run():
            server = ReleaseServer(make_manager(), config=ServerConfig(workers=2))
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=1)
            for cell in range(HORIZON):
                await client.step("u0", cell)
            stats = await client.stats()
            await client.close()
            await server.drain()
            return stats["batching"]

        batching = asyncio.run(run())
        assert batching["steps"] == HORIZON
        assert batching["batches"] == batching["steps"]

    def test_queued_steps_count_as_queue_depth_and_hold_the_overload(self):
        """workers=1 with the pool thread held inside a batch: the steps
        queued behind it show in ``repro_executor_queue_depth``, and the
        shedder's drained check sees them, so an overload stands.  The
        held batch runs on a ``repro-step`` pool thread, never on the
        event loop, so a slow step cannot starve other connections."""

        async def run():
            server = ReleaseServer(make_manager(), config=ServerConfig(workers=1))
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i in range(4):
                await client.open(f"u{i}", seed=i)
            async with held_step_batch(server) as threads:
                steps = [asyncio.ensure_future(client.step("u0", 1))]
                await until(lambda: server._batcher.stats()["inflight"] == 1)
                steps += [
                    asyncio.ensure_future(client.step(f"u{i}", 1)) for i in (1, 2, 3)
                ]
                await until(lambda: server._batcher.stats()["pending"] == 3)
                exposition = server.metrics.registry.render()
                shedder = server._shedder
                now = time.perf_counter()
                with shedder._lock:
                    shedder._delay_ewma_s = 0.5
                    shedder._last_observe = now
                    shedder._above_since = now - 3.0
                level = shedder.level
            records = await asyncio.gather(*steps)
            await client.close()
            await server.drain()
            return exposition, level, records, threads

        loop_thread = threading.current_thread()
        exposition, level, records, threads = asyncio.run(run())
        depth = next(
            float(line.split()[-1])
            for line in exposition.splitlines()
            if line.startswith("repro_executor_queue_depth ")
        )
        assert depth >= 3
        assert level == 2
        assert [record["t"] for record in records] == [1, 1, 1, 1]
        assert threads[0] is not loop_thread
        assert threads[0].name.startswith("repro-step"), threads[0].name

    def test_a_pipelining_session_cannot_starve_another_sessions_op(self):
        """workers=1: ``a`` keeps three steps outstanding, sending the
        next on every reply, so its queue never empties.  The sessions
        take turns at the pool, so ``b``'s ``peek_budget``, queued behind
        ``a``'s first step, answers after ``a``'s second step rather
        than after ``a``'s whole stream."""
        cells = iter(make_trajectories(1)["u0"])

        async def run():
            server = ReleaseServer(make_manager(), config=ServerConfig(workers=1))
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=0)
            await client.open("b", seed=1)
            replies, steps = [], []

            def step_a():
                cell = next(cells, None)
                if cell is not None:
                    steps.append(asyncio.ensure_future(client.step("a", cell)))
                    steps[-1].add_done_callback(refill)

            def refill(reply):
                replies.append(("a", reply.result()["t"]))
                step_a()

            async with held_step_batch(server):
                step_a()
                await until(lambda: server._batcher.stats()["inflight"] == 1)
                step_a()
                step_a()
                peek = asyncio.ensure_future(client.peek_budget("b"))
                peek.add_done_callback(lambda _: replies.append(("b", None)))
                await until(lambda: server._batcher.queue_depth() == 4)
            await peek
            await until(lambda: len(replies) == HORIZON + 1)
            await client.close()
            await server.drain()
            return replies

        replies = asyncio.run(run())
        assert replies.index(("b", None)) <= 2, replies
        assert [t for name, t in replies if name == "a"] == list(range(1, HORIZON + 1))

    def test_eviction_skips_a_session_with_a_queued_step(self):
        """Past ``max_resident`` the eviction victim is the least
        recently used session with nothing queued or in flight: a session
        whose step waits behind a held batch stays resident, rather than
        being suspended and then restored at once by its own step."""

        async def run():
            server = ReleaseServer(
                make_manager(), config=ServerConfig(workers=1, max_resident=2)
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate("abc"):
                await client.open(name, seed=i)  # opening c evicts a
            async with held_step_batch(server):
                held = asyncio.ensure_future(client.step("c", 1))
                await until(lambda: server._batcher.stats()["inflight"] == 1)
                queued = asyncio.ensure_future(client.step("b", 1))
                await until(lambda: server._batcher.stats()["pending"] == 1)
                opened = asyncio.ensure_future(client.open("d", seed=3))
                await until(
                    lambda: server.metrics.snapshot()["requests"]["open"] == 4
                )
            records = await asyncio.gather(held, queued)
            await opened
            stats = await client.stats()
            await client.close()
            await server.drain()
            return records, stats["sessions"]

        records, sessions = asyncio.run(run())
        assert [record["t"] for record in records] == [1, 1]
        assert sessions["restored"] == 0
        assert sessions["evicted"] == 2  # a, then one idle session

    def test_eviction_skips_a_session_with_an_op_in_flight(self):
        """An open that completes on the second pool slot while ``b``'s
        step is held on the first evicts ``c``, the least recently used
        session with nothing queued or in flight, not ``b``."""

        async def run():
            server = ReleaseServer(
                make_manager(), config=ServerConfig(workers=2, max_resident=2)
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate("abc"):
                await client.open(name, seed=i)  # opening c evicts a
            async with held_step_batch(server):
                held = asyncio.ensure_future(client.step("b", 1))
                await until(lambda: server._batcher.stats()["inflight"] == 1)
                opened = asyncio.ensure_future(client.open("d", seed=3))
                await until(
                    lambda: server.metrics.snapshot()["sessions"].get("evicted") == 2
                )
            await asyncio.gather(held, opened)
            resident = sorted(server._backend.session_ids())
            await client.close()
            await server.drain()
            return resident

        assert asyncio.run(run()) == ["b", "d"]

    def test_concurrent_evictions_stop_at_the_cap(self):
        """Eight step replies each run an eviction pass at once; the
        suspends they queue count against the cap, so together they
        evict down to ``max_resident`` and no further: each round
        restores the five sessions it finds suspended, and evicts five."""
        trajectories = make_trajectories(8)

        async def run():
            server = ReleaseServer(
                make_manager(), config=ServerConfig(workers=2, max_resident=3)
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)  # evicts u0..u4
            rounds = []
            for t in range(2):
                await asyncio.gather(
                    *(client.step(n, cells[t]) for n, cells in trajectories.items())
                )
                sessions = (await client.stats())["sessions"]
                rounds.append(
                    (sessions["evicted"], sessions["restored"], sessions["resident"])
                )
            await client.close()
            await server.drain()
            return rounds

        assert asyncio.run(run()) == [(5 + 5, 5, 3), (5 + 10, 10, 3)]

    def test_a_faulting_member_fails_alone(self):
        """One session's engine error inside a shared ``step_many``
        fails that request only; its batch-mates release exactly the
        direct streams."""
        trajectories = make_trajectories(4)
        reference = direct_records(trajectories)
        lppm = PlanarLaplaceMechanism(GridMap(4, 4, cell_size_km=1.0), 0.5)

        class FaultAtThree(StaticMechanismProvider):
            def base_mechanism(self, t):
                if t == 3:
                    raise QuantificationError("injected provider fault")
                return super().base_mechanism(t)

        providers = iter(
            [StaticMechanismProvider(lppm), FaultAtThree(lppm)]
            + [StaticMechanismProvider(lppm)] * 2
        )
        builder = make_builder().with_provider_factory(lambda: next(providers))

        async def run():
            server = ReleaseServer(
                SessionManager(builder), config=ServerConfig(workers=1)
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)
            served = {name: [] for name in trajectories}
            for t in range(HORIZON):
                names = [n for n in trajectories if not (n == "u1" and t > 2)]
                results = await serve_round(
                    server, [client.step(n, trajectories[n][t]) for n in names]
                )
                for name, result in zip(names, results):
                    served[name].append(result)
            stats = await client.stats()
            await client.close()
            await server.drain()
            return served, stats

        served, stats = asyncio.run(run())
        # u0 alone, then u1..u3 in one batch: the fault at t=3 hits u1
        # inside a shared step_many.
        assert stats["batching"]["max_batch"] == 3
        fault = served["u1"][2]
        assert isinstance(fault, QuantificationError), fault
        assert [strip_elapsed(r) for r in served["u1"][:2]] == reference["u1"][:2]
        for name in ("u0", "u2", "u3"):
            assert [strip_elapsed(r) for r in served[name]] == reference[name]
