"""End-to-end observability: traces via ``stats``, ``/metrics``, probes.

One server process wearing its full observability rig:

* every request mints a trace id; a step's spans (``queue_wait`` ->
  ``solve`` -> ``serialize`` -> ``request``, plus ``rpc`` when sharded)
  come back through the ``stats`` op sharing that one trace id;
* ``/metrics`` exposes the Prometheus families for the server, the
  per-worker split, and the latency histograms;
* ``/healthz`` answers while serving and ``/readyz`` flips to 503 the
  moment a worker process dies -- from local state only, no RPCs;
* a server built with ``trace=False`` records nothing.

All HTTP fetches run in the default executor: a blocking ``urlopen`` on
the event-loop thread would deadlock against the in-loop listener.
"""

import asyncio
import re
import urllib.error
import urllib.request

from repro.cluster import ClusterBackend
from repro.core.two_world import front_stats
from repro.engine import SessionManager
from repro.service import (
    AsyncServiceClient,
    MemorySessionStore,
    ReleaseServer,
    ServerConfig,
)

from topology import kill_worker, make_builder, make_manager

#: Families every served ``/metrics`` exposition must carry.
REQUIRED_FAMILIES = (
    "repro_requests_total",
    "repro_errors_total",
    "repro_failures_total",
    "repro_step_latency_seconds_bucket",
    "repro_sessions_open",
    "repro_executor_queue_depth",
    "repro_event_loop_lag_seconds",
    "repro_spans_total",
    "repro_solver_kernel_info",
    "repro_solver_native_conditions_total",
    "repro_solver_numpy_conditions_total",
    "repro_front_sparse_matmuls_total",
    "repro_front_dense_matmuls_total",
)


def sharded_server(**config) -> ReleaseServer:
    """A ``repro serve --shards 2`` server: two local workers, recovering
    from the server's store."""
    store = MemorySessionStore()
    engine = ClusterBackend.spawn_local(make_manager, 2, store=store)
    return ReleaseServer(engine, store=store, config=ServerConfig(**config))


def _fetch(port, path):
    """Blocking fetch -> (status, body); call only via run_in_executor."""
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        ) as response:
            return response.status, response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode()


async def _get(port, path):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, _fetch, port, path)


def _spans_by_trace(spans):
    grouped: dict[str, list[dict]] = {}
    for span in spans:
        grouped.setdefault(span["trace"], []).append(span)
    return grouped


async def _drive(server, n_steps=3):
    """Open one session, run a few steps, return the stats payload."""
    client = await AsyncServiceClient.connect("127.0.0.1", server.port)
    try:
        await client.open("alice", seed=11)
        for cell in range(n_steps):
            await client.step("alice", cell)
        return await client.stats(spans=200)
    finally:
        await client.close()


class TestTracedSpansViaStats:
    def test_in_process_step_trace_chain(self):
        async def main():
            server = ReleaseServer(
                make_manager(), config=ServerConfig(metrics_port=0)
            )
            await server.start()
            try:
                stats = await _drive(server)
                tracing = stats["tracing"]
                assert tracing["enabled"] is True
                assert tracing["count"] > 0
                step_traces = [
                    spans
                    for spans in _spans_by_trace(stats["spans"]["recent"]).values()
                    if any(
                        s["name"] == "request" and s.get("op") == "step"
                        for s in spans
                    )
                ]
                assert step_traces, "no traced step found in recent spans"
                names = {span["name"] for span in step_traces[-1]}
                assert {"queue_wait", "solve", "serialize", "request"} <= names
                for span in step_traces[-1]:
                    assert span["ms"] >= 0.0
                    assert len(span["span"]) == 8
            finally:
                await server.drain()

        asyncio.run(main())

    def test_sharded_step_trace_includes_rpc_and_worker_solve(self):
        async def main():
            server = sharded_server(metrics_port=0)
            await server.start()
            try:
                stats = await _drive(server)
                step_traces = [
                    spans
                    for spans in _spans_by_trace(stats["spans"]["recent"]).values()
                    if any(
                        s["name"] == "request" and s.get("op") == "step"
                        for s in spans
                    )
                ]
                assert step_traces
                chain = step_traces[-1]
                names = {span["name"] for span in chain}
                assert {"queue_wait", "rpc", "serialize", "request"} <= names
                # the rpc span names the worker that solved the step
                rpc = next(s for s in chain if s["name"] == "rpc")
                assert rpc["worker"] in server._backend.worker_addresses()
            finally:
                await server.drain()

        asyncio.run(main())

    def test_stats_without_spans_key_omits_buffers(self):
        async def main():
            server = ReleaseServer(make_manager(), config=ServerConfig())
            await server.start()
            try:
                client = await AsyncServiceClient.connect(
                    "127.0.0.1", server.port
                )
                try:
                    stats = await client.stats()
                finally:
                    await client.close()
                assert "spans" not in stats
                assert stats["tracing"]["enabled"] is True
            finally:
                await server.drain()

        asyncio.run(main())

    def test_tracing_disabled_records_nothing(self):
        async def main():
            server = ReleaseServer(
                make_manager(), config=ServerConfig(trace=False)
            )
            await server.start()
            try:
                stats = await _drive(server)
                assert stats["tracing"]["enabled"] is False
                assert stats["tracing"]["count"] == 0
                assert stats["spans"] == {"recent": [], "slow": []}
            finally:
                await server.drain()

        asyncio.run(main())

    def test_slow_request_log_catches_threshold_crossers(self):
        async def main():
            # Every span is "slow" at a 0-ish threshold.
            server = ReleaseServer(
                make_manager(),
                config=ServerConfig(slow_request_ms=1e-6),
            )
            await server.start()
            try:
                stats = await _drive(server, n_steps=1)
                assert stats["tracing"]["slow_count"] > 0
                assert stats["spans"]["slow"]
            finally:
                await server.drain()

        asyncio.run(main())


class TestExpositionAndProbes:
    def test_metrics_families_and_probes(self):
        async def main():
            server = sharded_server(metrics_port=0)
            await server.start()
            try:
                assert server.metrics_port not in (None, 0)
                await _drive(server)
                status, body = await _get(server.metrics_port, "/healthz")
                assert status == 200
                status, body = await _get(server.metrics_port, "/readyz")
                assert status == 200
                assert "2 workers" in body
                status, text = await _get(server.metrics_port, "/metrics")
                assert status == 200
                for family in REQUIRED_FAMILIES:
                    assert family in text, f"missing family {family}"
                # per-worker split rendered from handle-local state,
                # labelled by worker address
                for address in server._backend.worker_addresses():
                    assert f'repro_worker_up{{worker="{address}"}} 1' in text
                    assert (
                        f'repro_worker_heartbeat_age_seconds{{worker="{address}"}}'
                        in text
                    )
                # the per-worker extras never repeat a family
                types = [
                    line.split()[2]
                    for line in text.splitlines()
                    if line.startswith("# TYPE ")
                ]
                assert len(types) == len(set(types)), types
                assert "repro_worker_rpc_latency_seconds_bucket" in text
                assert 'repro_requests_total{op="step"} 3' in text
                # loss counters present at zero before anything dies
                assert 'repro_failures_total{kind="sessions_lost"} 0' in text
            finally:
                await server.drain()

        asyncio.run(main())

    def test_stats_solver_section_and_kernel_info_gauge(self):
        async def main():
            # Worst-case prior routes checks through the rank-one QP
            # solver, so the kernel-usage counters must move.
            manager = SessionManager(make_builder().with_worst_case_prior())
            server = ReleaseServer(
                manager, config=ServerConfig(metrics_port=0)
            )
            await server.start()
            try:
                stats = await _drive(server, n_steps=2)
                solver = stats["solver"]
                kernel = solver["kernel"]
                assert kernel["kernel"] in ("auto", "native", "numpy")
                assert kernel["native_state"] in (
                    "unloaded",
                    "disabled",
                    "native",
                    "unavailable",
                )
                # steps solved conditions through exactly one backend
                solved = kernel["native_conditions"] + kernel["numpy_conditions"]
                assert solved > 0
                front = solver["front"]
                assert front["mode"] in ("auto", "always", "never")
                assert front["sparse_models"] + front["dense_models"] >= 1
                status, text = await _get(server.metrics_port, "/metrics")
                assert status == 200
                # an identity gauge: value 1, the kernel in its labels
                assert re.search(
                    r'^repro_solver_kernel_info\{kernel="(native|numpy)",'
                    r'native_state="[a-z-]+"\} 1(\.0)?$',
                    text,
                    re.MULTILINE,
                ), text
            finally:
                await server.drain()

        asyncio.run(main())

    def test_sharded_solver_section_counts_the_workers_work(self):
        """On a worker backend the engine runs in the workers, so the
        ``solver`` section must add up theirs, not the router's idle
        counters."""

        def products(front):
            return front["sparse_matmuls"] + front["dense_matmuls"]

        async def main():
            server = sharded_server()
            await server.start()
            try:
                client = await AsyncServiceClient.connect("127.0.0.1", server.port)
                try:
                    await client.open("alice", seed=11)
                    await client.step("alice", 0)
                    before = (await client.stats())["solver"]
                    router_before = products(front_stats())
                    for cell in range(1, 4):
                        await client.step("alice", cell)
                    after = (await client.stats())["solver"]
                finally:
                    await client.close()
            finally:
                await server.drain()
            # t=2..4 each propagate a front: two products apiece
            assert products(after["front"]) - products(before["front"]) == 6
            assert products(front_stats()) == router_before
            assert after["front"]["mode"] in ("auto", "always", "never")
            assert after["kernel"]["native_state"] in (
                "unloaded",
                "disabled",
                "native",
                "unavailable",
            )

        asyncio.run(main())

    def test_readyz_flips_when_a_shard_dies(self):
        async def main():
            server = sharded_server(metrics_port=0)
            await server.start()
            try:
                await _drive(server, n_steps=1)
                status, _ = await _get(server.metrics_port, "/readyz")
                assert status == 200
                dead, alive = server._backend.worker_addresses()
                kill_worker(server._backend, dead)
                status, body = await _get(server.metrics_port, "/readyz")
                assert status == 503
                assert dead in body
                status, text = await _get(server.metrics_port, "/metrics")
                assert status == 200
                assert f'repro_worker_up{{worker="{dead}"}} 0' in text
                assert f'repro_worker_up{{worker="{alive}"}} 1' in text
            finally:
                await server.drain()

        asyncio.run(main())

    def test_no_metrics_port_means_no_listener(self):
        async def main():
            server = ReleaseServer(make_manager(), config=ServerConfig())
            await server.start()
            try:
                assert server.metrics_port is None
            finally:
                await server.drain()

        asyncio.run(main())

    def test_readyz_reports_draining(self):
        async def main():
            server = ReleaseServer(
                make_manager(), config=ServerConfig(metrics_port=0)
            )
            await server.start()
            port = server.metrics_port
            server._draining.set()
            try:
                status, body = await _get(port, "/readyz")
                assert status == 503
                assert "draining" in body
            finally:
                await server.drain()

        asyncio.run(main())
