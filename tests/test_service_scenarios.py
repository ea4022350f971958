"""Multi-tenant serving: many ScenarioSpecs in one server.

The acceptance bar of the scenario layer: a single ``repro serve``
process concurrently drives sessions from distinct ScenarioSpecs --
different grids and mechanisms -- with release streams bit-identical to
dedicated single-scenario servers, in-process and over 2 local workers
(``--shards 2``); checkpoints carry the spec, so mixed fleets survive
eviction churn and a drain → restart under a *different* worker count; the ``stats`` op reports
per-scenario counters; the allowlist rejects unlisted specs with the
typed ``scenario`` wire code.
"""

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterBackend
from repro.engine import SessionManager
from repro.errors import QuantificationError, ScenarioError
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
from repro.service.protocol import Request

from topology import UNQUANTIFIABLE_SPEC, serve_round

HORIZON = 6

#: The server's flag-built default setting (5x5 map).
DEFAULT_SPEC = ScenarioSpec(
    grid=GridSpec(rows=5, cols=5),
    chain=ChainSpec.gaussian(sigma=1.0),
    events=(EventSpec.presence_range(0, 7, start=2, end=4),),
    mechanism=MechanismSpec("planar_laplace", {"alpha": 0.5}),
    epsilon=0.5,
    horizon=HORIZON,
    prior_mode="fixed",
)

#: Tenant A: 4x4 map, planar Laplace.
SPEC_A = ScenarioSpec(
    grid=GridSpec(rows=4, cols=4),
    chain=ChainSpec.gaussian(sigma=1.0),
    events=(EventSpec.presence_range(0, 5, start=2, end=4),),
    mechanism=MechanismSpec("planar_laplace", {"alpha": 0.5}),
    epsilon=0.5,
    horizon=HORIZON,
    prior_mode="fixed",
)

#: Tenant B: 3x3 map, randomized response, different epsilon.
SPEC_B = ScenarioSpec(
    grid=GridSpec(rows=3, cols=3),
    chain=ChainSpec.lazy_walk(stay_probability=0.3),
    events=(EventSpec.presence_range(0, 3, start=2, end=3),),
    mechanism=MechanismSpec("randomized_response", {"budget": 2.0}),
    epsilon=0.8,
    horizon=HORIZON,
    prior_mode="fixed",
)


def strip_elapsed(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "elapsed_s"}


def seed_for(name: str) -> int:
    return 1000 + int(name.split("-")[1])


def make_trajectories(spec: ScenarioSpec, prefix: str, n: int) -> dict[str, list[int]]:
    compiled = spec.compile()
    rng = np.random.default_rng(11)
    return {
        f"{prefix}-{i}": [
            int(c)
            for c in sample_trajectory(
                compiled.chain, HORIZON, initial=compiled.initial, rng=rng
            )
        ]
        for i in range(n)
    }


def direct_records(spec: ScenarioSpec, trajectories) -> dict[str, list[dict]]:
    """Reference streams: a dedicated single-scenario manager."""
    manager = SessionManager(spec)
    for name in trajectories:
        manager.open(name, rng=seed_for(name))
    return {
        name: [
            strip_elapsed(manager.step(name, cell).to_json()) for cell in trajectory
        ]
        for name, trajectory in trajectories.items()
    }


def make_engine(shards: int, store):
    """What ``repro serve --shards N`` builds (in-process at 0)."""
    if shards == 0:
        return SessionManager(DEFAULT_SPEC)
    return ClusterBackend.spawn_local(
        lambda: SessionManager(DEFAULT_SPEC), shards, store=store
    )


async def serve_dedicated(spec: ScenarioSpec, trajectories) -> dict[str, list[dict]]:
    """A dedicated single-scenario server: ``spec`` is its default engine."""
    server = ReleaseServer(SessionManager(spec))
    await server.start()
    client = await AsyncServiceClient.connect("127.0.0.1", server.port)
    for name in trajectories:
        await client.open(name, seed=seed_for(name))
    streams = {
        name: [
            strip_elapsed(await client.step(name, cell)) for cell in trajectory
        ]
        for name, trajectory in trajectories.items()
    }
    await client.close()
    await server.drain()
    return streams


async def serve_mixed(
    sessions: dict[str, tuple[ScenarioSpec | None, list[int]]],
    shards: int,
    steps: range | None = None,
    store=None,
    server_out: list | None = None,
    coalesce: bool = False,
    **overrides,
):
    """Drive a mixed-tenant fleet through one server; return the streams.

    ``coalesce`` serves each timestamp through
    :func:`~topology.serve_round` (needs ``workers=1``).
    """
    store = store if store is not None else MemorySessionStore()
    engine = make_engine(shards, store)
    server = ReleaseServer(
        engine,
        store=store,
        config=ServerConfig(**overrides),
        scenarios=[SPEC_A, SPEC_B],
    )
    await server.start()
    if server_out is not None:
        server_out.append(server)
    streams = {name: [] for name in sessions}
    client = await AsyncServiceClient.connect("127.0.0.1", server.port)
    if steps is None or steps.start == 0:
        for name, (spec, _) in sessions.items():
            await client.open(name, seed=seed_for(name), scenario=spec)
    for t in steps if steps is not None else range(HORIZON):
        requests = [
            client.step(name, trajectory[t])
            for name, (_, trajectory) in sessions.items()
        ]
        if coalesce:
            records = await serve_round(server, requests)
        else:
            records = await asyncio.gather(*requests)
        for name, record in zip(sessions, records):
            streams[name].append(strip_elapsed(record))
    stats = await client.stats()
    await client.close()
    await server.drain()
    return streams, stats


def mixed_sessions(n_per_tenant: int = 3):
    trajectories_a = make_trajectories(SPEC_A, "a", n_per_tenant)
    trajectories_b = make_trajectories(SPEC_B, "b", n_per_tenant)
    sessions: dict = {}
    for name, trajectory in trajectories_a.items():
        sessions[name] = (SPEC_A, trajectory)
    for name, trajectory in trajectories_b.items():
        sessions[name] = (SPEC_B, trajectory)
    return sessions, trajectories_a, trajectories_b


class TestMixedScenarioServe:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_one_server_matches_dedicated_single_scenario_servers(self, shards):
        sessions, trajectories_a, trajectories_b = mixed_sessions()
        reference = {
            **direct_records(SPEC_A, trajectories_a),
            **direct_records(SPEC_B, trajectories_b),
        }

        async def dedicated():
            return {
                **(await serve_dedicated(SPEC_A, trajectories_a)),
                **(await serve_dedicated(SPEC_B, trajectories_b)),
            }

        # Two dedicated servers, each with one scenario as its default
        # engine, agree with the direct manager streams ...
        assert asyncio.run(dedicated()) == reference
        # ... and the single mixed-tenant server reproduces them all.
        mixed, stats = asyncio.run(serve_mixed(sessions, shards=shards))
        assert mixed == reference
        counters = stats["scenarios"]["counters"]
        assert counters[SPEC_A.digest()]["opened"] == len(trajectories_a)
        assert counters[SPEC_B.digest()]["opened"] == len(trajectories_b)
        assert counters[SPEC_A.digest()]["steps"] == len(trajectories_a) * HORIZON
        assert counters[SPEC_B.digest()]["steps"] == len(trajectories_b) * HORIZON

    def test_mixed_serve_with_batching_and_eviction_churn(self):
        sessions, trajectories_a, trajectories_b = mixed_sessions()
        reference = {
            **direct_records(SPEC_A, trajectories_a),
            **direct_records(SPEC_B, trajectories_b),
        }
        churned, stats = asyncio.run(
            serve_mixed(
                sessions,
                shards=0,
                store=MemorySessionStore(),
                coalesce=True,
                workers=1,
                max_resident=2,
            )
        )
        assert churned == reference
        assert stats["sessions"]["evicted"] > 0
        assert stats["sessions"]["restored"] > 0
        assert stats["batching"]["max_batch"] == len(sessions) - 1

    def test_a_failing_tenant_in_a_shared_batch_fails_alone(self):
        """Tenant ``b`` can release nothing: every step raises
        ``QuantificationError``.  Its steps share a batch with ``a``'s,
        queued after them; ``b`` gets its own error and stays at t=1,
        and ``a``'s replies equal an in-process replay."""
        cells = [3, 8, 12]
        replay = SessionManager(DEFAULT_SPEC)
        replay.open("a", rng=1000)
        expected = [strip_elapsed(replay.step("a", c).to_json()) for c in cells]

        async def run():
            server = ReleaseServer(
                SessionManager(DEFAULT_SPEC),
                config=ServerConfig(workers=1),
                allow_any_scenario=True,
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("lead", seed=1)
            await client.open("a", seed=1000)
            await client.open("b", seed=1001, scenario=UNQUANTIFIABLE_SPEC)
            replies = []
            for cell in cells:
                # "lead" runs alone, then a's and b's steps flush together.
                replies.append(
                    await serve_round(
                        server,
                        [
                            client.step("lead", cell),
                            client.step("a", cell),
                            client.step("b", 7),
                        ],
                    )
                )
            parked_b = await client.checkpoint("b")
            stats = await client.stats()
            await client.close()
            await server.drain()
            return replies, parked_b, stats

        replies, parked_b, stats = asyncio.run(run())
        assert stats["batching"]["max_batch"] == 2
        assert [strip_elapsed(reply_a) for _, reply_a, _ in replies] == expected
        for _, _, reply_b in replies:
            assert isinstance(reply_b, QuantificationError), reply_b
        assert parked_b["t"] == 0

    @pytest.mark.parametrize("shards_before,shards_after", [(2, 3), (2, 0), (0, 2)])
    def test_drain_and_restart_under_different_shard_count(
        self, shards_before, shards_after
    ):
        sessions, trajectories_a, trajectories_b = mixed_sessions(2)
        reference = {
            **direct_records(SPEC_A, trajectories_a),
            **direct_records(SPEC_B, trajectories_b),
        }
        store = MemorySessionStore()
        half = HORIZON // 2

        async def run_split():
            first, _ = await serve_mixed(
                sessions, shards=shards_before, steps=range(0, half), store=store
            )
            second, _ = await serve_mixed(
                sessions, shards=shards_after, steps=range(half, HORIZON), store=store
            )
            return {
                name: first[name] + second[name] for name in sessions
            }

        assert asyncio.run(run_split()) == reference

    def test_scenario_sessions_survive_drain_with_spec_in_state(self):
        store = MemorySessionStore()
        sessions = {"b-0": (SPEC_B, make_trajectories(SPEC_B, "b", 1)["b-0"])}
        asyncio.run(
            serve_mixed(sessions, shards=0, steps=range(0, 2), store=store)
        )
        state = store.get("b-0")
        assert state is not None
        assert state.scenario["digest"] == SPEC_B.digest()


class TestScenarioAdmission:
    def test_unlisted_scenario_is_rejected_with_typed_error(self):
        async def run():
            engine = SessionManager(DEFAULT_SPEC)
            server = ReleaseServer(engine, scenarios=[SPEC_A])
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            try:
                with pytest.raises(ScenarioError, match="allowlist"):
                    await client.open("u", seed=1, scenario=SPEC_B)
                # the allowlisted tenant still opens fine
                assert await client.open("v", seed=2, scenario=SPEC_A) == "v"
            finally:
                await client.close()
                await server.drain()

        asyncio.run(run())

    def test_allow_any_scenario_admits_arbitrary_specs(self):
        async def run():
            engine = SessionManager(DEFAULT_SPEC)
            server = ReleaseServer(engine, allow_any_scenario=True)
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            try:
                assert await client.open("u", seed=1, scenario=SPEC_B) == "u"
                record = await client.step("u", 1)
                assert record["t"] == 1
            finally:
                await client.close()
                await server.drain()

        asyncio.run(run())

    def test_malformed_inline_scenario_is_a_scenario_error(self):
        async def run():
            engine = SessionManager(DEFAULT_SPEC)
            server = ReleaseServer(engine, allow_any_scenario=True)
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            try:
                with pytest.raises(ScenarioError):
                    await client.open("u", scenario={"grid": {"rows": 0, "cols": 1}})
            finally:
                await client.close()
                await server.drain()

        asyncio.run(run())

    def test_open_reply_reports_horizon_and_digest_of_the_scenario(self):
        longer = ScenarioSpec.from_json(
            {**SPEC_B.to_json(), "horizon": HORIZON + 4}
        )

        async def run():
            engine = SessionManager(DEFAULT_SPEC)
            server = ReleaseServer(engine, allow_any_scenario=True)
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            try:
                reply = await client.request(
                    Request(
                        op="open", session="u", seed=1, scenario=longer.to_json()
                    )
                )
                assert reply["horizon"] == HORIZON + 4
                assert reply["scenario"] == longer.digest()
            finally:
                await client.close()
                await server.drain()

        asyncio.run(run())
