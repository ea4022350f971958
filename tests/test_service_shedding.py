"""Deadline-aware load shedding: the overload-resilience guarantees.

The load-bearing claims of :mod:`repro.service.shedding`:

* both triggers (blown deadline, sustained queue delay) fire strictly
  *before* execution, so a shed never touches session state and a
  retried request observes the exact stream it would have seen without
  the shed -- bit-identical;
* the queue-delay trigger sheds in priority order (``open`` before
  ``step``), never sheds ``finish``, and clears itself once the
  backlog drains instead of shedding forever on a stale estimate;
* a shed arrives at the client as the typed retryable ``overloaded``
  code with a ``retry_after_ms`` hint, and a client-side
  :class:`~repro.service.RetryPolicy` waits the hint out and re-sends.
"""

import asyncio
import time

import pytest

from repro.errors import OverloadedError
from repro.service import (
    AsyncServiceClient,
    LoadShedder,
    ReleaseServer,
    RetryPolicy,
    ServerConfig,
    ServiceClient,
    ShedConfig,
)
from repro.service.metrics import ServiceMetrics
from repro.service.shedding import SHED_PRIORITY

from test_service_observability import _get
from test_service_server import (
    HORIZON,
    direct_records,
    make_builder,
    make_trajectories,
    start_server,
    strip_elapsed,
)
from topology import held_step_batch, until


def overloaded_shedder(
    target_ms: float = 1.0, interval_ms: float = 50.0, **kwargs
) -> LoadShedder:
    """A shedder pushed past level 2 by synthetic observations."""
    shedder = LoadShedder(
        ShedConfig(target_ms=target_ms, interval_ms=interval_ms), **kwargs
    )
    now = time.perf_counter()
    with shedder._lock:
        shedder._delay_ewma_s = 0.5
        shedder._last_observe = now
        shedder._above_since = now - 3.0 * interval_ms / 1e3
    return shedder


class TestLoadShedder:
    def test_fresh_shedder_admits_everything(self):
        shedder = LoadShedder()
        for op in ("open", "step", "finish", "peek_budget"):
            shedder.admit(op, deadline_ms=None)
            shedder.admit(op, deadline_ms=1)
        assert shedder.level == 0 and not shedder.brownout

    def test_admission_deadline_shed_uses_the_estimate(self):
        shedder = overloaded_shedder()
        with pytest.raises(OverloadedError) as info:
            shedder.admit("step", deadline_ms=100)  # estimate is 500ms
        assert info.value.retry_after_ms >= 50
        # a roomier budget than the estimate passes the deadline check
        # (queue-delay still applies separately)
        shedder = overloaded_shedder(target_ms=0.0)
        shedder.admit("step", deadline_ms=10_000)

    def test_check_deadline_boundaries(self):
        shedder = LoadShedder()
        with pytest.raises(OverloadedError):
            shedder.check_deadline("step", deadline_ms=50, waited_s=0.2)
        shedder.check_deadline("step", deadline_ms=50, waited_s=0.01)
        shedder.check_deadline("step", deadline_ms=None, waited_s=9.9)

    def test_queue_delay_sheds_by_priority(self):
        """Level 2: ``open`` and ``step`` shed, ``finish`` never does."""
        shedder = overloaded_shedder()
        assert shedder.level == 2
        with pytest.raises(OverloadedError):
            shedder.admit("open", deadline_ms=None)
        with pytest.raises(OverloadedError):
            shedder.admit("step", deadline_ms=None)
        shedder.admit("finish", deadline_ms=None)
        shedder.admit("peek_budget", deadline_ms=None)
        shedder.admit("checkpoint", deadline_ms=None)

    def test_level_one_sheds_open_but_not_step(self):
        shedder = overloaded_shedder()
        with shedder._lock:  # sustained for 1.5 intervals: level 1
            shedder._above_since = time.perf_counter() - 0.075
        assert shedder.level == 1
        assert shedder.brownout
        with pytest.raises(OverloadedError):
            shedder.admit("open", deadline_ms=None)
        shedder.admit("step", deadline_ms=None)

    def test_priority_map_orders_open_before_step(self):
        assert SHED_PRIORITY["open"] < SHED_PRIORITY["step"]
        assert "finish" not in SHED_PRIORITY

    def test_drained_queue_clears_the_overload(self):
        """The stale-estimate guard: an empty executor queue resets the
        trigger, so a server that shed everything re-admits instead of
        shedding forever on the old number."""
        shedder = overloaded_shedder(queue_depth=lambda: 0)
        assert shedder.level == 0
        assert shedder.delay_ms == 0.0
        shedder.admit("step", deadline_ms=100)

    def test_idle_interval_clears_the_overload(self):
        shedder = overloaded_shedder(interval_ms=50.0)
        with shedder._lock:
            shedder._last_observe = time.perf_counter() - 0.2
        assert shedder.level == 0
        shedder.admit("open", deadline_ms=None)

    def test_observations_drive_the_trigger_end_to_end(self):
        shedder = LoadShedder(ShedConfig(target_ms=1.0, interval_ms=20.0))
        # a sustained stream of 100ms waits: the EWMA breaches the 1ms
        # target at once and stays there past two 20ms intervals
        deadline = time.perf_counter() + 2.0
        while shedder.level < 2 and time.perf_counter() < deadline:
            shedder.observe(0.1)
            time.sleep(0.005)
        assert shedder.delay_ms > 1.0
        assert shedder.level == 2
        for _ in range(64):
            shedder.observe(0.0)  # the backlog clears through the EWMA
        assert shedder.level == 0

    def test_disabled_target_never_trips_queue_delay(self):
        shedder = overloaded_shedder(target_ms=0.0)
        assert shedder.level == 0 and not shedder.brownout
        shedder.admit("open", deadline_ms=None)
        # deadline shedding still applies to requests that carry one
        with pytest.raises(OverloadedError):
            shedder.admit("step", deadline_ms=100)

    def test_retry_after_is_clamped_and_sized_to_drain(self):
        shedder = overloaded_shedder(interval_ms=50.0)
        with pytest.raises(OverloadedError) as info:
            shedder.admit("step", deadline_ms=None)
        # 500ms estimated drain > the 50ms interval floor
        assert info.value.retry_after_ms == 500
        with shedder._lock:
            shedder._delay_ewma_s = 100.0
        with pytest.raises(OverloadedError) as info:
            shedder.admit("step", deadline_ms=None)
        assert info.value.retry_after_ms == 10_000  # ceiling

    def test_sheds_are_counted_by_op_and_reason(self):
        metrics = ServiceMetrics()
        shedder = overloaded_shedder(metrics=metrics)
        for _ in range(2):
            with pytest.raises(OverloadedError):
                shedder.admit("step", deadline_ms=None)
        with pytest.raises(OverloadedError):
            shedder.admit("step", deadline_ms=10)
        shed = metrics.snapshot()["shed"]
        assert shed["step|queue_delay"] == 2
        assert shed["step|deadline"] == 1

    def test_stats_shape(self):
        stats = LoadShedder().stats()
        assert stats["enabled"] is True
        assert stats["overload_level"] == 0
        assert stats["brownout"] is False
        assert stats["queue_delay_ewma_ms"] == 0.0


class TestRetryPolicy:
    def test_server_hint_is_authoritative(self):
        policy = RetryPolicy(base_wait_s=0.05)
        assert policy.wait_s(0, retry_after_ms=200) == 0.2
        assert policy.wait_s(3, retry_after_ms=200) == 0.2

    def test_backoff_grows_without_a_hint(self):
        policy = RetryPolicy(base_wait_s=0.05, backoff=2.0)
        waits = [policy.wait_s(a, None) for a in range(3)]
        assert waits == [0.05, 0.1, 0.2]

    def test_caps_apply_to_both_paths(self):
        policy = RetryPolicy(base_wait_s=1.0, backoff=10.0, max_wait_s=2.0)
        assert policy.wait_s(5, None) == 2.0
        assert policy.wait_s(0, retry_after_ms=60_000) == 2.0


def force_overload(server: ReleaseServer, interval_ms: float = 60.0) -> None:
    """Push the server's shedder to level 2 without a queue_depth probe,
    so the state stands until the idle-interval guard clears it --
    exactly one retry interval later."""
    shedder = LoadShedder(
        ShedConfig(target_ms=1.0, interval_ms=interval_ms),
        metrics=server._metrics,
    )
    now = time.perf_counter()
    with shedder._lock:
        shedder._delay_ewma_s = 0.2
        shedder._last_observe = now
        shedder._above_since = now - 3.0 * interval_ms / 1e3
    server._shedder = shedder


class TestServedShedding:
    def test_shed_step_is_typed_and_retryable_on_the_wire(self):
        async def run():
            server = await start_server(metrics_port=0)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=1)
            force_overload(server)
            with pytest.raises(OverloadedError) as info:
                await client.step("u0", 3)
            # shedding keeps the server ready, and the shed is exported
            ready, _ = await _get(server.metrics_port, "/readyz")
            _, text = await _get(server.metrics_port, "/metrics")
            await client.close()
            await server.drain()
            return info.value, ready, text

        error, ready, text = asyncio.run(run())
        assert error.retry_after_ms is not None
        assert 50 <= error.retry_after_ms <= 10_000
        assert ready == 200
        sheds = [
            float(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("repro_shed_total{")
        ]
        assert sum(sheds) >= 1
        assert "repro_overload_level" in text

    def test_retried_shed_stream_stays_bit_identical(self):
        """A shed mid-stream, healed by the client's RetryPolicy, leaves
        the stream byte-for-byte what an unshed run produces: sheds
        happen strictly before execution, so the retry is the first
        time the step runs."""
        trajectories = make_trajectories(2)
        reference = direct_records(trajectories)

        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(max_retries=4, base_wait_s=0.02),
            )
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)
            served = {name: [] for name in trajectories}
            for t in range(HORIZON):
                if t == 2:  # overload lands mid-stream
                    force_overload(server, interval_ms=60.0)
                for name, trajectory in trajectories.items():
                    served[name].append(await client.step(name, trajectory[t]))
            stats = await client.stats()
            await client.close()
            await server.drain()
            return served, stats

        served, stats = asyncio.run(run())
        for name, expected in reference.items():
            actual = [strip_elapsed(r) for r in served[name]]
            assert actual == [strip_elapsed(r) for r in expected]
        # the drill really shed (then healed): typed, counted sheds
        assert stats["shed"].get("step|queue_delay", 0) > 0

    def test_sync_client_retries_too(self):
        trajectories = make_trajectories(1)
        reference = direct_records(trajectories)
        name = next(iter(trajectories))

        async def run():
            server = await start_server()
            loop = asyncio.get_running_loop()

            def drive():
                client = ServiceClient(
                    "127.0.0.1",
                    server.port,
                    retry=RetryPolicy(max_retries=4, base_wait_s=0.02),
                )
                client.open(name, seed=1000)
                records = []
                for t, cell in enumerate(trajectories[name]):
                    if t == 1:
                        force_overload(server, interval_ms=60.0)
                    records.append(client.step(name, cell))
                client.close()
                return records

            records = await loop.run_in_executor(None, drive)
            shed = server._metrics.snapshot()["shed"]
            await server.drain()
            return records, shed

        records, shed = asyncio.run(run())
        assert [strip_elapsed(r) for r in records] == [
            strip_elapsed(r) for r in reference[name]
        ]
        assert shed.get("step|queue_delay", 0) > 0

    def test_without_retry_policy_the_error_propagates(self):
        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=1)
            force_overload(server)
            try:
                with pytest.raises(OverloadedError):
                    await client.step("u0", 3)
            finally:
                await client.close()
                await server.drain()

        asyncio.run(run())

    def test_deadline_ms_rides_the_wire_and_sheds(self):
        """A request deadline below the (forced) delay estimate sheds
        with reason ``deadline``; a roomy one passes."""

        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=1)
            # healthy server: a tight deadline is still served
            record = await client.step("u0", 3, deadline_ms=30_000)
            force_overload(server)
            with pytest.raises(OverloadedError):
                await client.step("u0", 5, deadline_ms=10)
            shed = server._metrics.snapshot()["shed"]
            await client.close()
            await server.drain()
            return record, shed

        record, shed = asyncio.run(run())
        assert record["t"] == 1
        assert shed.get("step|deadline", 0) == 1

    def test_batch_member_past_its_deadline_is_shed_alone(self):
        """A step held in the queue past its 10 ms deadline is shed in
        the flush, before it runs; its batch-mate releases, and the shed
        step's retry keeps the stream exact."""
        trajectories = make_trajectories(3)
        reference = direct_records(trajectories)

        async def run():
            server = await start_server(workers=1)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)
            served = {name: [] for name in trajectories}
            shed_error = None
            for t in range(HORIZON):
                cells = {name: trajectory[t] for name, trajectory in trajectories.items()}
                if t == 2:
                    # u2's step holds the only batch slot while u0 (10 ms
                    # deadline) and u1 queue behind it as one batch.
                    async with held_step_batch(server):
                        held = asyncio.ensure_future(client.step("u2", cells["u2"]))
                        await until(lambda: server._batcher.stats()["inflight"] == 1)
                        tight = asyncio.ensure_future(
                            client.step("u0", cells["u0"], deadline_ms=10)
                        )
                        other = asyncio.ensure_future(client.step("u1", cells["u1"]))
                        await until(lambda: server._batcher.stats()["pending"] == 2)
                        await asyncio.sleep(0.05)  # u0 waits past its deadline
                    with pytest.raises(OverloadedError) as info:
                        await tight
                    shed_error = info.value
                    served["u2"].append(await held)
                    served["u1"].append(await other)
                    served["u0"].append(await client.step("u0", cells["u0"]))
                    continue
                for name, cell in cells.items():
                    served[name].append(await client.step(name, cell))
            shed = server._metrics.snapshot()["shed"]
            batching = (await client.stats())["batching"]
            await client.close()
            await server.drain()
            return served, shed, shed_error, batching

        served, shed, shed_error, batching = asyncio.run(run())
        assert "waited" in str(shed_error), shed_error
        assert shed == {"step|deadline": 1}
        assert batching["max_batch"] == 2
        for name, expected in reference.items():
            assert [strip_elapsed(r) for r in served[name]] == [
                strip_elapsed(r) for r in expected
            ]

    def test_finish_survives_overload(self):
        """`finish` is never shed by queue delay: completing sessions
        reduces load, so it must stay possible under brownout."""

        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=1)
            await client.step("u0", 3)
            force_overload(server)
            summary = await client.finish("u0")
            stats = await client.stats()
            await client.close()
            await server.drain()
            return summary, stats

        summary, stats = asyncio.run(run())
        assert summary["n_released"] == 1
        assert stats["shedding"]["overload_level"] >= 1

    def test_brownout_reports_in_stats(self):
        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            force_overload(server)
            stats = await client.stats()
            await client.close()
            await server.drain()
            return stats

        stats = asyncio.run(run())
        shedding = stats["shedding"]
        assert shedding["overload_level"] == 2
        assert shedding["brownout"] is True
        assert shedding["above_target_for_s"] > 0
