"""`repro serve` under load: sustained steps/sec and latency percentiles.

Not a paper figure: tracks the serving layer added over the session
engine.  A load generator opens 10 / 100 / 1000 / 5000 concurrent
sessions against an in-process :class:`~repro.service.ReleaseServer`
(real localhost TCP, worker pool on), drives every session with
chain-sampled fixes, and reports

* sustained steps/sec across the whole fleet,
* client-observed per-step latency p50/p99,
* the event loop's worst scheduling lag during the run (a direct
  starvation probe: offloaded steps should leave the loop responsive),
* the shared verdict-cache hit rate.

A second test sweeps the serving topology at the 1000-session point
with micro-batching on: in-process batched against ``--shards N`` (N
local ``repro worker`` processes under the cluster supervisor),
recording how served throughput scales with worker processes over the
single-process path.

Results go to ``results/bench_service_load{,_topology}.txt`` (human
tables) and ``results/bench_service_load{,_topology}.json`` (the shared
machine-readable schema, uploaded as CI artifacts).
"""

import asyncio
import functools
import os
import time
import urllib.request

import numpy as np
import pytest

from repro.cluster import ClusterBackend, ClusterSupervisor
from repro.engine import SessionBuilder, SessionManager
from repro.errors import OverloadedError
from repro.experiments.report import format_table
from repro.experiments.scenarios import synthetic_scenario
from repro.lppm.planar_laplace import PlanarLaplaceMechanism
from repro.markov.simulate import sample_trajectory
from repro.scenario import (
    ChainSpec,
    EventSpec,
    GridSpec,
    MechanismSpec,
    ScenarioSpec,
)
from repro.service import (
    AsyncServiceClient,
    MemorySessionStore,
    ReleaseServer,
    ServerConfig,
)

HORIZON = 12
#: (concurrent sessions, steps per session) -- quick mode
LOADS = ((10, 12), (100, 12), (1000, 4), (5000, 2))
#: full-size steps at paper scale
LOADS_PAPER = ((10, 12), (100, 12), (1000, 12), (5000, 6))
#: load points re-run with the micro-batching window enabled
BATCHED_LOADS = ((100, 12), (1000, 4))
BATCH_WINDOW_MS = 2.0
MAX_CONNECTIONS = 32
#: the topology sweep: 1000 concurrent sessions served in-process
#: (0 = the batched single-process path, the baseline) and by 2/4/8
#: local workers (`repro serve --shards N`).  Worker counts beyond the
#: machine's cores are skipped -- they can only measure oversubscription.
TOPOLOGY_SWEEP = (0, 2, 4, 8)
TOPOLOGY_SESSIONS, TOPOLOGY_STEPS = 1000, 4
#: the mixed-tenant point: 1000 sessions spread over K distinct specs
#: (--mixed-scenarios K) vs the same fleet on one spec.
MIXED_SESSIONS, MIXED_STEPS = 1000, 4
#: the tracing A/B point: the 100-session load served with tracing +
#: /metrics exposition on (scraped mid-run) vs tracing compiled out.
TRACED_SESSIONS, TRACED_STEPS = 100, 12
#: span-derived latency breakdown reads this many recent spans.
SPAN_SAMPLE = 2000
#: families the mid-run scrape must find (the CI smoke greps the same).
SCRAPE_FAMILIES = (
    "repro_requests_total",
    "repro_step_latency_seconds_bucket",
    "repro_sessions_open",
    "repro_spans_total",
    "repro_event_loop_lag_seconds",
)
#: open-loop arrival mode: sessions the Poisson arrivals round-robin
#: over, seconds per offered-rate point, and the rate sweep as
#: multiples of the measured closed-loop capacity.
OPEN_LOOP_SESSIONS = 64
OPEN_LOOP_DURATION_S = 4.0
OPEN_LOOP_MULTIPLIERS = (0.5, 1.0, 2.0)
#: horizon for the open-loop setting: arrivals keep stepping the same
#: sessions, so each needs room for its share of the offered load.
OPEN_LOOP_HORIZON = 2048
#: per-request latency budget carried as ``deadline_ms`` (exercises
#: deadline shedding alongside the queue-delay trigger).
OPEN_LOOP_DEADLINE_MS = 500
#: aggressive shedder for the bench: overload must trigger within a
#: few hundred milliseconds of a sustained 2x offered rate.  The
#: target is sized so the standing queue never fully drains between
#: shed cycles (an empty queue is idle workers, i.e. lost goodput).
OPEN_LOOP_SHED_TARGET_MS = 50.0
OPEN_LOOP_SHED_INTERVAL_MS = 100.0


def _skip_unless_closed_loop(request) -> None:
    """``--open-loop`` narrows this module to the open-loop benchmark."""
    if request.config.getoption("--open-loop"):
        pytest.skip("--open-loop runs only the open-loop arrival benchmark")


@pytest.fixture(scope="module")
def service_setting():
    scenario = synthetic_scenario(n_rows=6, n_cols=6, sigma=1.0, horizon=HORIZON)
    event = scenario.presence_event(0, 9, 4, 8)
    builder = (
        SessionBuilder()
        .with_grid(scenario.grid)
        .with_chain(scenario.chain)
        .protecting(event)
        .with_mechanism(PlanarLaplaceMechanism(scenario.grid, 0.5))
        .with_epsilon(0.4)
        .with_fixed_prior(scenario.initial)
        .with_horizon(HORIZON)
    )
    return scenario, builder


async def _loop_lag_probe(interval: float, out: dict):
    """Measure worst event-loop scheduling lag until cancelled."""
    loop = asyncio.get_running_loop()
    while True:
        before = loop.time()
        await asyncio.sleep(interval)
        lag = loop.time() - before - interval
        if lag > out["max_lag_s"]:
            out["max_lag_s"] = lag


def _scrape_metrics(port: int) -> str:
    """Blocking /metrics fetch; call via ``run_in_executor`` only."""
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=30
    ) as response:
        return response.read().decode()


def _span_breakdown(spans: list[dict]) -> dict:
    """Mean/total milliseconds per span name (queue_wait vs solve vs rpc)."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        sums[span["name"]] = sums.get(span["name"], 0.0) + span["ms"]
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    return {
        name: {
            "count": counts[name],
            "mean_ms": round(sums[name] / counts[name], 4),
            "total_ms": round(sums[name], 3),
        }
        for name in sorted(sums)
    }


async def _drive_load(
    scenario,
    builder,
    n_sessions: int,
    n_steps: int,
    seed: int,
    batch_window_ms: float = 0.0,
    shards: int = 0,
    trace: bool = True,
    scrape: bool = False,
):
    """One load point: open, step concurrently, finish, drain.

    ``scrape=True`` additionally binds the observability listener on an
    ephemeral port, scrapes ``/metrics`` halfway through the run (off
    the loop thread, like a real Prometheus would), and attaches a
    span-derived latency breakdown (queue-wait vs solve vs rpc) read
    back through the ``stats`` op.
    """
    rng = np.random.default_rng(seed)
    trajectories = [
        sample_trajectory(
            scenario.chain, n_steps, initial=scenario.initial, rng=rng
        )
        for _ in range(n_sessions)
    ]
    store = MemorySessionStore()
    if shards > 0:
        # What `repro serve --shards N` builds: N local workers under
        # the recovery supervisor.
        backend = ClusterBackend.spawn_local(
            functools.partial(SessionManager, builder), shards
        )
        engine = ClusterSupervisor(backend, store)
    else:
        engine = SessionManager(builder)
    server = ReleaseServer(
        engine,
        store=store,
        config=ServerConfig(
            max_sessions=n_sessions + 8,
            max_resident=n_sessions + 8,
            batch_window_ms=batch_window_ms,
            trace=trace,
            metrics_port=0 if scrape else None,
        ),
    )
    await server.start()
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", server.port)
        for _ in range(min(n_sessions, MAX_CONNECTIONS))
    ]
    by_session = [clients[i % len(clients)] for i in range(n_sessions)]

    lag = {"max_lag_s": 0.0}
    probe = asyncio.get_running_loop().create_task(_loop_lag_probe(0.02, lag))
    latencies: list[float] = []

    async def open_one(i: int):
        await by_session[i].open(f"u{i}", seed=seed + i)

    async def step_one(i: int, t: int):
        start = time.perf_counter()
        await by_session[i].step(f"u{i}", int(trajectories[i][t]))
        latencies.append(time.perf_counter() - start)

    await asyncio.gather(*[open_one(i) for i in range(n_sessions)])
    scraped = None
    wall_start = time.perf_counter()
    for t in range(n_steps):
        await asyncio.gather(*[step_one(i, t) for i in range(n_sessions)])
        if scrape and scraped is None and t >= n_steps // 2:
            # Scrape mid-run, while steps are still flowing, so the
            # exposition is exercised under load rather than at rest.
            scraped = await asyncio.get_running_loop().run_in_executor(
                None, _scrape_metrics, server.metrics_port
            )
    wall = time.perf_counter() - wall_start
    probe.cancel()

    stats = await clients[0].stats(spans=SPAN_SAMPLE if scrape else 0)
    await asyncio.gather(*[c.finish(f"u{i}") for i, c in enumerate(by_session)])
    for client in clients:
        await client.close()
    await server.drain()

    assert stats["sessions"]["open"] == n_sessions
    assert len(latencies) == n_sessions * n_steps
    samples = np.asarray(latencies)
    cache = stats["verdict_cache"]
    batching = stats.get("batching")
    mode = "batched" if batch_window_ms > 0 else "direct"
    if shards > 0:
        mode = f"local-{shards}"
    extra = {}
    if scrape:
        for family in SCRAPE_FAMILIES:
            assert family in scraped, f"mid-run scrape missing {family}"
        extra["scraped_families"] = len(SCRAPE_FAMILIES)
        extra["span_breakdown"] = _span_breakdown(stats["spans"]["recent"])
        extra["spans_recorded"] = stats["tracing"]["count"]
    if not trace:
        assert stats["tracing"]["enabled"] is False
    return {
        **extra,
        "mode": mode,
        "shards": shards,
        "sessions": n_sessions,
        "steps": int(samples.size),
        "wall_s": round(wall, 4),
        "steps_per_s": round(samples.size / wall, 1),
        "p50_ms": round(float(np.percentile(samples, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(samples, 99)) * 1e3, 3),
        "max_loop_lag_ms": round(lag["max_lag_s"] * 1e3, 3),
        "cache_hit_rate": cache["hit_rate"] if cache else None,
        "mean_batch": batching["mean_batch"] if batching else None,
    }


def test_bench_service_load(service_setting, save_result, save_json, request):
    _skip_unless_closed_loop(request)
    scenario, builder = service_setting
    loads = (
        LOADS_PAPER if request.config.getoption("--paper-scale") else LOADS
    )
    rows = []
    for n_sessions, n_steps in loads:
        rows.append(
            asyncio.run(
                _drive_load(scenario, builder, n_sessions, n_steps, seed=0)
            )
        )
    for n_sessions, n_steps in BATCHED_LOADS:
        rows.append(
            asyncio.run(
                _drive_load(
                    scenario,
                    builder,
                    n_sessions,
                    n_steps,
                    seed=0,
                    batch_window_ms=BATCH_WINDOW_MS,
                )
            )
        )

    # the acceptance bar: 1000+ concurrent sessions, loop never starved
    big = [row for row in rows if row["sessions"] >= 1000]
    assert big, "load points must include >= 1000 concurrent sessions"
    for row in big:
        assert row["steps_per_s"] > 0
        # "no starvation": the loop was schedulable well under a step's
        # p99 while thousands of sessions were in flight
        assert row["max_loop_lag_ms"] < 1000.0

    columns = [
        "mode", "shards", "sessions", "steps", "wall_s", "steps_per_s",
        "p50_ms", "p99_ms", "max_loop_lag_ms", "cache_hit_rate", "mean_batch",
    ]
    table = format_table(
        columns,
        [[row[c] for c in columns] for row in rows],
        title=(
            f"repro serve load (6x6 map, T={HORIZON}, 0.5-PLM, eps=0.4 "
            "fixed prior, worker pool, localhost TCP; batched = "
            f"--batch-window-ms {BATCH_WINDOW_MS})"
        ),
    )
    save_result("bench_service_load", table)
    save_json(
        "bench_service_load",
        params={
            "rows_cols": [6, 6],
            "horizon": HORIZON,
            "epsilon": 0.4,
            "alpha": 0.5,
            "prior_mode": "fixed",
            "connections_max": MAX_CONNECTIONS,
            "loads": [list(load) for load in loads],
            "batched_loads": [list(load) for load in BATCHED_LOADS],
            "batch_window_ms": BATCH_WINDOW_MS,
        },
        rows=rows,
    )


def test_bench_service_load_traced(service_setting, save_result, save_json, request):
    """The tracing A/B: full observability rig on vs tracing disabled.

    The traced point serves with span recording *and* the ``/metrics``
    listener bound, scrapes the exposition mid-run, and reads the
    span-derived breakdown (queue-wait vs solve vs serialize) back
    through the ``stats`` op -- observability measured under the same
    load it observes.  The untraced point (``--no-trace``, no listener)
    is the zero-cost claim: span recording guards every perf-counter
    read behind ``tracer.enabled``, so disabling it must cost nothing.
    The committed JSON records the real traced/untraced ratio (the ~2%
    band on a quiet machine); the assertion bound stays looser for
    noisy CI runners.
    """
    _skip_unless_closed_loop(request)
    scenario, builder = service_setting
    traced = asyncio.run(
        _drive_load(
            scenario, builder, TRACED_SESSIONS, TRACED_STEPS, seed=0,
            trace=True, scrape=True,
        )
    )
    untraced = asyncio.run(
        _drive_load(
            scenario, builder, TRACED_SESSIONS, TRACED_STEPS, seed=0,
            trace=False,
        )
    )
    traced["mode"], untraced["mode"] = "traced+scraped", "untraced"
    rows = [traced, untraced]

    breakdown = traced["span_breakdown"]
    for name in ("queue_wait", "solve", "serialize", "request"):
        assert name in breakdown, f"span breakdown missing {name!r}"
        assert breakdown[name]["count"] > 0
    assert traced["spans_recorded"] > 0

    ratio = round(traced["steps_per_s"] / untraced["steps_per_s"], 3)
    assert ratio >= 0.8, (
        f"tracing + exposition cost {(1 - ratio) * 100:.1f}% throughput "
        f"({traced['steps_per_s']} vs {untraced['steps_per_s']} steps/s)"
    )

    columns = [
        "mode", "sessions", "steps", "wall_s", "steps_per_s",
        "p50_ms", "p99_ms", "max_loop_lag_ms",
    ]
    breakdown_lines = "\n".join(
        f"  {name:<12} n={row['count']:<6} mean={row['mean_ms']:>8.3f}ms"
        for name, row in breakdown.items()
    )
    comparison = (
        f"{TRACED_SESSIONS}-session throughput: traced+scraped "
        f"{traced['steps_per_s']} steps/s vs untraced "
        f"{untraced['steps_per_s']} steps/s ({ratio}x; target ~1.0 -- "
        "span recording is a few perf_counter reads per request)\n\n"
        f"span-derived latency breakdown (last {SPAN_SAMPLE} spans):\n"
        f"{breakdown_lines}"
    )
    table = format_table(
        columns,
        [[row[c] for c in columns] for row in rows],
        title=(
            f"repro serve tracing A/B (6x6 map, T={HORIZON}, "
            f"{TRACED_SESSIONS} sessions x {TRACED_STEPS} steps; traced = "
            "spans on + /metrics scraped mid-run, untraced = --no-trace)"
        ),
    )
    save_result("bench_service_load_traced", table + "\n\n" + comparison)
    save_json(
        "bench_service_load_traced",
        params={
            "rows_cols": [6, 6],
            "horizon": HORIZON,
            "epsilon": 0.4,
            "alpha": 0.5,
            "prior_mode": "fixed",
            "connections_max": MAX_CONNECTIONS,
            "sessions": TRACED_SESSIONS,
            "steps_per_session": TRACED_STEPS,
            "span_sample": SPAN_SAMPLE,
            "throughput_ratio_traced_vs_untraced": ratio,
            "span_breakdown": breakdown,
            "comparison": comparison,
        },
        rows=rows,
    )


def _tenant_spec(k: int) -> ScenarioSpec:
    """Tenant ``k``'s spec: the bench setting at a distinct epsilon.

    Epsilon steps of 0.01 keep solver work statistically identical
    across tenants while guaranteeing distinct digests, so the mixed
    point isolates the *interning* overhead (separate cores, ladders,
    caches) rather than workload differences.
    """
    return ScenarioSpec(
        grid=GridSpec(rows=6, cols=6),
        chain=ChainSpec.gaussian(sigma=1.0),
        events=(EventSpec.presence_range(0, 9, start=4, end=8),),
        mechanism=MechanismSpec("planar_laplace", {"alpha": 0.5}),
        epsilon=0.4 + 0.01 * k,
        horizon=HORIZON,
        prior_mode="fixed",
    )


async def _drive_mixed(n_sessions: int, n_steps: int, n_specs: int, seed: int):
    """One mixed-tenant load point: sessions round-robin over K specs."""
    specs = [_tenant_spec(k) for k in range(n_specs)]
    compiled = specs[0].compile()
    rng = np.random.default_rng(seed)
    trajectories = [
        sample_trajectory(
            compiled.chain, n_steps, initial=compiled.initial, rng=rng
        )
        for _ in range(n_sessions)
    ]
    server = ReleaseServer(
        SessionManager(specs[0]),
        config=ServerConfig(
            max_sessions=n_sessions + 8, max_resident=n_sessions + 8
        ),
        scenarios=specs,
    )
    await server.start()
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", server.port)
        for _ in range(min(n_sessions, MAX_CONNECTIONS))
    ]
    by_session = [clients[i % len(clients)] for i in range(n_sessions)]
    spec_json = [spec.to_json() for spec in specs]
    latencies: list[float] = []

    async def open_one(i: int):
        await by_session[i].open(
            f"u{i}", seed=seed + i, scenario=spec_json[i % n_specs]
        )

    async def step_one(i: int, t: int):
        start = time.perf_counter()
        await by_session[i].step(f"u{i}", int(trajectories[i][t]))
        latencies.append(time.perf_counter() - start)

    await asyncio.gather(*[open_one(i) for i in range(n_sessions)])
    wall_start = time.perf_counter()
    for t in range(n_steps):
        await asyncio.gather(*[step_one(i, t) for i in range(n_sessions)])
    wall = time.perf_counter() - wall_start

    stats = await clients[0].stats()
    await asyncio.gather(*[c.finish(f"u{i}") for i, c in enumerate(by_session)])
    for client in clients:
        await client.close()
    await server.drain()

    counters = stats["scenarios"]["counters"]
    for k, spec in enumerate(specs):
        row = counters[spec.digest()]
        expected = len(range(k, n_sessions, n_specs))
        assert row["opened"] == expected, (k, row)
        assert row["steps"] == expected * n_steps, (k, row)
    samples = np.asarray(latencies)
    cache = stats["verdict_cache"]
    return {
        "mode": f"mixed-{n_specs}",
        "n_scenarios": n_specs,
        "sessions": n_sessions,
        "steps": int(samples.size),
        "wall_s": round(wall, 4),
        "steps_per_s": round(samples.size / wall, 1),
        "p50_ms": round(float(np.percentile(samples, 50)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(samples, 99)) * 1e3, 3),
        "cache_hit_rate": cache["hit_rate"] if cache else None,
    }


def test_bench_service_load_mixed(save_result, save_json, request):
    """Mixed-tenant serving: K distinct specs across one 1000-session fleet.

    The baseline is the *same* fleet with every session on one spec
    (opened through the same inline-scenario path, so the comparison
    isolates multi-core interning, not protocol differences).  Interning
    shares models per digest, so K tenants should cost roughly K model
    builds and K separate verdict caches -- the committed JSON shows the
    throughput ratio staying near 1 (the ~10% band on a quiet machine);
    the assertion bound is looser to keep noisy CI runners green.
    """
    _skip_unless_closed_loop(request)
    n_specs = int(request.config.getoption("--mixed-scenarios"))
    single = asyncio.run(_drive_mixed(MIXED_SESSIONS, MIXED_STEPS, 1, seed=0))
    mixed = asyncio.run(_drive_mixed(MIXED_SESSIONS, MIXED_STEPS, n_specs, seed=0))
    rows = [single, mixed]
    ratio = round(mixed["steps_per_s"] / single["steps_per_s"], 3)
    assert mixed["steps_per_s"] > 0
    assert ratio >= 0.5, (
        f"mixed-{n_specs} throughput collapsed to {ratio}x of single-scenario "
        f"({mixed['steps_per_s']} vs {single['steps_per_s']} steps/s)"
    )

    columns = [
        "mode", "n_scenarios", "sessions", "steps", "wall_s", "steps_per_s",
        "p50_ms", "p99_ms", "cache_hit_rate",
    ]
    comparison = (
        f"{MIXED_SESSIONS}-session throughput: single-scenario "
        f"{single['steps_per_s']} steps/s -> {n_specs} mixed scenarios "
        f"{mixed['steps_per_s']} steps/s ({ratio}x; interning shares models "
        "per digest, so the gap is per-scenario cache warm-up, not per-session cost)"
    )
    table = format_table(
        columns,
        [[row[c] for c in columns] for row in rows],
        title=(
            f"repro serve mixed scenarios (6x6 map, T={HORIZON}, 0.5-PLM, "
            f"eps=0.4+0.01k fixed prior, {MIXED_SESSIONS} sessions x "
            f"{MIXED_STEPS} steps, inline-scenario opens)"
        ),
    )
    save_result("bench_service_load_mixed", table + "\n\n" + comparison)
    save_json(
        "bench_service_load_mixed",
        params={
            "rows_cols": [6, 6],
            "horizon": HORIZON,
            "alpha": 0.5,
            "prior_mode": "fixed",
            "connections_max": MAX_CONNECTIONS,
            "sessions": MIXED_SESSIONS,
            "steps_per_session": MIXED_STEPS,
            "mixed_scenarios": n_specs,
            "throughput_ratio": ratio,
            "comparison": comparison,
        },
        rows=rows,
    )


def test_bench_service_load_topology(service_setting, save_result, save_json, request):
    """The topology sweep: 1000 sessions in-process vs N local workers.

    Every point keeps the micro-batching window on (the production
    configuration: one collection window's steps fan out as one RPC per
    worker and run on every worker in parallel), so the sweep isolates
    exactly what worker processes add over the single-process batched
    path.  On a >= 4-core runner the 4-worker point must sustain >= 2x
    the in-process batched throughput; worker counts beyond the core
    count are skipped, not asserted.
    """
    _skip_unless_closed_loop(request)
    scenario, builder = service_setting
    cores = os.cpu_count() or 1
    # Always run the 2-worker point (it exercises the RPC path even on a
    # small box); larger counts only where the cores exist to feed them.
    sweep = [n for n in TOPOLOGY_SWEEP if n <= max(cores, 2)]
    rows = [
        asyncio.run(
            _drive_load(
                scenario,
                builder,
                TOPOLOGY_SESSIONS,
                TOPOLOGY_STEPS,
                seed=0,
                batch_window_ms=BATCH_WINDOW_MS,
                shards=shards,
            )
        )
        for shards in sweep
    ]
    skipped = [n for n in TOPOLOGY_SWEEP if n not in sweep]
    if skipped:
        print(f"[skipped worker counts {skipped}: only {cores} cores]")

    by_workers = {row["shards"]: row["steps_per_s"] for row in rows}
    baseline = by_workers[0]
    local_points = {n: v for n, v in by_workers.items() if n > 0}
    best = max(local_points, key=local_points.get)
    comparison = (
        f"1000-session throughput: in-process batched {baseline} steps/s"
        f" -> local-{best} {by_workers[best]} steps/s"
        f" ({by_workers[best] / baseline:.2f}x) on {cores} cores"
    )
    assert all(v > 0 for v in by_workers.values())
    if cores >= 4 and 4 in by_workers:
        assert by_workers[4] >= 2.0 * baseline, (
            f"4 local workers must sustain >= 2x the in-process batched "
            f"path on a >= 4-core machine: {by_workers[4]} vs {baseline} "
            "steps/s"
        )

    columns = [
        "mode", "shards", "sessions", "steps", "wall_s", "steps_per_s",
        "p50_ms", "p99_ms", "max_loop_lag_ms", "cache_hit_rate", "mean_batch",
    ]
    table = format_table(
        columns,
        [[row[c] for c in columns] for row in rows],
        title=(
            f"repro serve topology sweep ({TOPOLOGY_SESSIONS} sessions, "
            f"--batch-window-ms {BATCH_WINDOW_MS}, {cores} cores; "
            "local-N = --shards N local workers under the supervisor)"
        ),
    )
    save_result("bench_service_load_topology", table + "\n\n" + comparison)
    save_json(
        "bench_service_load_topology",
        params={
            "rows_cols": [6, 6],
            "horizon": HORIZON,
            "epsilon": 0.4,
            "alpha": 0.5,
            "prior_mode": "fixed",
            "connections_max": MAX_CONNECTIONS,
            "sessions": TOPOLOGY_SESSIONS,
            "steps_per_session": TOPOLOGY_STEPS,
            "batch_window_ms": BATCH_WINDOW_MS,
            "topology_sweep": list(sweep),
            "cpu_count": cores,
            "comparison": comparison,
        },
        rows=rows,
    )


async def _measure_capacity(builder, workers: int, seed: int) -> float:
    """Closed-loop steps/s of the open-loop server configuration.

    Eight concurrent steppers per session lock would serialize, so the
    probe hammers every session round-robin from a handful of
    connections -- the executor stays saturated, which is exactly the
    capacity the open-loop sweep offers multiples of.
    """
    server = ReleaseServer(
        SessionManager(builder, cache_size=0),
        config=ServerConfig(
            max_sessions=OPEN_LOOP_SESSIONS + 8,
            max_resident=OPEN_LOOP_SESSIONS + 8,
            workers=workers,
            trace=False,
            shed_target_ms=0.0,  # capacity probe: never shed
        ),
    )
    await server.start()
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", server.port)
        for _ in range(8)
    ]
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 36, size=OPEN_LOOP_SESSIONS * 64)
    await asyncio.gather(
        *[
            clients[i % len(clients)].open(f"c{i}", seed=seed + i)
            for i in range(OPEN_LOOP_SESSIONS)
        ]
    )
    done = 0
    wall_start = time.perf_counter()

    async def hammer(worker_index: int):
        nonlocal done
        t = worker_index
        while time.perf_counter() - wall_start < 1.5:
            i = t % OPEN_LOOP_SESSIONS
            await clients[i % len(clients)].step(
                f"c{i}", int(cells[t % cells.size])
            )
            done += 1
            t += 16
    await asyncio.gather(*[hammer(k) for k in range(16)])
    wall = time.perf_counter() - wall_start
    for client in clients:
        await client.close()
    await server.drain()
    return done / wall


async def _drive_open_loop(
    builder, rate_hz: float, duration_s: float, workers: int, seed: int
):
    """One open-loop point: Poisson arrivals at ``rate_hz`` steps/s.

    Unlike the closed-loop driver, arrivals do not wait for replies:
    each fires as its exponential gap elapses, so offered load is
    independent of service time and a saturated server faces a growing
    queue -- the regime load shedding exists for.  Every request
    carries ``deadline_ms``; sheds (typed ``overloaded`` errors) are
    counted, never retried, so goodput is accepted work only.
    """
    server = ReleaseServer(
        SessionManager(builder, cache_size=0),
        config=ServerConfig(
            max_sessions=OPEN_LOOP_SESSIONS + 8,
            max_resident=OPEN_LOOP_SESSIONS + 8,
            max_pending_per_connection=512,
            workers=workers,
            trace=False,
            shed_target_ms=OPEN_LOOP_SHED_TARGET_MS,
            shed_interval_ms=OPEN_LOOP_SHED_INTERVAL_MS,
        ),
    )
    await server.start()
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", server.port)
        for _ in range(16)
    ]
    await asyncio.gather(
        *[
            clients[i % len(clients)].open(f"u{i}", seed=seed + i)
            for i in range(OPEN_LOOP_SESSIONS)
        ]
    )
    rng = np.random.default_rng(seed)
    n_offered = int(rate_hz * duration_s)
    gaps = rng.exponential(1.0 / rate_hz, size=n_offered)
    cells = rng.integers(0, 36, size=n_offered)
    accepted_lat: list[float] = []
    shed = 0
    other_errors = 0
    tasks = []

    async def arrival(k: int):
        nonlocal shed, other_errors
        i = k % OPEN_LOOP_SESSIONS
        start = time.perf_counter()
        try:
            await clients[i % len(clients)].step(
                f"u{i}", int(cells[k]), deadline_ms=OPEN_LOOP_DEADLINE_MS
            )
        except OverloadedError:
            shed += 1
            return
        except Exception:
            other_errors += 1
            return
        accepted_lat.append(time.perf_counter() - start)

    wall_start = time.perf_counter()
    next_at = wall_start
    for k in range(n_offered):
        next_at += gaps[k]
        delay = next_at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.get_running_loop().create_task(arrival(k)))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - wall_start

    stats = await clients[0].stats()
    for client in clients:
        await client.close()
    await server.drain()

    samples = np.asarray(accepted_lat) if accepted_lat else np.zeros(1)
    accepted = len(accepted_lat)
    return {
        "offered_per_s": round(n_offered / wall, 1),
        "offered": n_offered,
        "accepted": accepted,
        "shed": shed,
        "errors": other_errors,
        "shed_rate": round(shed / n_offered, 4) if n_offered else 0.0,
        "goodput_per_s": round(accepted / wall, 1),
        "p50_ms": round(float(np.percentile(samples, 50)) * 1e3, 3),
        "p95_ms": round(float(np.percentile(samples, 95)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(samples, 99)) * 1e3, 3),
        "shed_by_trigger": dict(stats.get("shed", {})),
        "overload_level_final": stats["shedding"]["overload_level"],
    }


def test_bench_service_load_open_loop(save_result, save_json, request):
    """Open-loop overload: offered load vs goodput under load shedding.

    Closed-loop drivers (everything above) can never overload a server:
    each in-flight request gates the next, so offered load self-limits
    at capacity.  This point generates *Poisson arrivals* at fixed
    offered rates -- 0.5x / 1x / 2x the measured closed-loop capacity
    (or exactly ``--rate R``) -- against a deliberately small server
    (2 worker threads, aggressive shedder) and records the graceful
    degradation story: past capacity the server sheds with the typed
    retryable ``overloaded`` code instead of queueing without bound,
    goodput holds near capacity, and the latency percentiles of
    *accepted* requests stay bounded by the shedder's delay target
    rather than growing with the backlog.
    """
    # A 14x14 map with the verdict cache *disabled*: every step pays a
    # real calibration solve (milliseconds), so capacity is bound by
    # the worker pool -- the resource the shedder governs -- and the 2x
    # offered rate stays low enough that protocol handling on the
    # shared event loop is nowhere near its own limit.  (On a small
    # map the pool is so fast that 2x capacity saturates the *loop*,
    # whose congestion admission control cannot relieve.)
    scenario = synthetic_scenario(
        n_rows=14, n_cols=14, sigma=1.0, horizon=OPEN_LOOP_HORIZON
    )
    builder = (
        SessionBuilder()
        .with_grid(scenario.grid)
        .with_chain(scenario.chain)
        .protecting(scenario.presence_event(0, 13, 4, 8))
        .with_mechanism(PlanarLaplaceMechanism(scenario.grid, 0.5))
        .with_epsilon(0.4)
        .with_fixed_prior(scenario.initial)
        .with_horizon(OPEN_LOOP_HORIZON)
    )
    workers = 2
    capacity = asyncio.run(_measure_capacity(builder, workers, seed=0))
    rate_option = request.config.getoption("--rate")
    if rate_option is not None:
        points = [("fixed", float(rate_option))]
    else:
        points = [
            (f"{m}x", m * capacity) for m in OPEN_LOOP_MULTIPLIERS
        ]
    rows = []
    for label, rate_hz in points:
        row = asyncio.run(
            _drive_open_loop(
                builder, rate_hz, OPEN_LOOP_DURATION_S, workers, seed=1
            )
        )
        rows.append({"offered_x": label, **row})

    by_label = {row["offered_x"]: row for row in rows}
    if rate_option is None:
        under, over = by_label["0.5x"], by_label["2.0x"]
        # Under capacity nothing sheds and latency sits at service time.
        assert under["shed_rate"] < 0.01, under
        # Past capacity the server must shed (typed, counted) ...
        assert over["shed"] > 0, over
        assert sum(over["shed_by_trigger"].values()) >= over["shed"]
        # ... while goodput holds near capacity (the graceful part; the
        # committed JSON records the real ratio, the bound absorbs CI
        # noise) and accepted-request p99 stays bounded by the shedder,
        # far below the seconds a 2x backlog would otherwise grow to.
        assert over["goodput_per_s"] >= 0.6 * capacity, (
            over["goodput_per_s"],
            capacity,
        )
        assert over["p99_ms"] < 20 * OPEN_LOOP_DEADLINE_MS, over["p99_ms"]

    columns = [
        "offered_x", "offered_per_s", "goodput_per_s", "shed_rate",
        "accepted", "shed", "errors", "p50_ms", "p95_ms", "p99_ms",
    ]
    table = format_table(
        columns,
        [[row[c] for c in columns] for row in rows],
        title=(
            f"repro serve open-loop arrivals (14x14 map, {OPEN_LOOP_SESSIONS} "
            f"sessions, {workers} worker threads, capacity "
            f"{capacity:.0f} steps/s; shed target "
            f"{OPEN_LOOP_SHED_TARGET_MS}ms over "
            f"{OPEN_LOOP_SHED_INTERVAL_MS}ms, deadline "
            f"{OPEN_LOOP_DEADLINE_MS}ms)"
        ),
    )
    save_result("bench_service_load_open_loop", table)
    save_json(
        "bench_service_load_open_loop",
        params={
            "rows_cols": [14, 14],
            "horizon": OPEN_LOOP_HORIZON,
            "epsilon": 0.4,
            "alpha": 0.5,
            "prior_mode": "fixed",
            "sessions": OPEN_LOOP_SESSIONS,
            "workers": workers,
            "duration_s": OPEN_LOOP_DURATION_S,
            "capacity_steps_per_s": round(capacity, 1),
            "multipliers": list(OPEN_LOOP_MULTIPLIERS),
            "deadline_ms": OPEN_LOOP_DEADLINE_MS,
            "shed_target_ms": OPEN_LOOP_SHED_TARGET_MS,
            "shed_interval_ms": OPEN_LOOP_SHED_INTERVAL_MS,
            "rate_override": rate_option,
        },
        rows=rows,
    )
