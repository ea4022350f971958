"""End-to-end tests of the serving layer over localhost TCP.

The load-bearing guarantees:

* server-mediated release streams are **bit-identical** to driving the
  ``SessionManager`` directly under the same seeds -- including when the
  residency cap forces eviction/restore round-trips through each
  ``SessionStore`` backend and steps run on the worker pool;
* admission control answers with a typed ``busy`` error, never a hang,
  and an out-of-range serving knob is a typed error before anything
  serves;
* a graceful drain checkpoints every open session into the store, from
  which a fresh engine can continue the streams exactly.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro import _listener
from repro.cli import main as cli_main
from repro.engine import SessionManager
from repro.errors import (
    ServiceBusyError,
    ServiceError,
    SessionError,
    ValidationError,
    WorkerDownError,
)
from repro.service import (
    AsyncServiceClient,
    DirectorySessionStore,
    MemorySessionStore,
    ReleaseServer,
    ServerConfig,
    ServiceClient,
    SQLiteSessionStore,
)

from topology import (  # noqa: F401 - test_service_shedding imports these
    HORIZON,
    direct_records,
    held_step_batch,
    make_builder,
    make_trajectories,
    strip_elapsed,
    until,
)


def make_store(kind: str, tmp_path):
    if kind == "memory":
        return MemorySessionStore()
    if kind == "dir":
        return DirectorySessionStore(str(tmp_path / "sessions"))
    return SQLiteSessionStore(str(tmp_path / "sessions.db"))


async def start_server(store=None, **overrides) -> ReleaseServer:
    config = ServerConfig(**overrides)
    server = ReleaseServer(SessionManager(make_builder()), store=store, config=config)
    await server.start()
    return server


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("kind", ["memory", "dir", "sqlite"])
    def test_served_releases_bit_identical_with_eviction(self, kind, tmp_path):
        """8 sessions through a 3-resident server == direct runs.

        ``max_resident=3`` forces constant evict/restore churn through
        the store backend; the worker pool runs steps concurrently.
        """
        trajectories = make_trajectories(8)
        reference = direct_records(trajectories)

        async def run():
            store = make_store(kind, tmp_path)
            server = await start_server(store=store, max_resident=3, workers=4)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(trajectories):
                assert await client.open(name, seed=1000 + i) == name
            served = {name: [] for name in trajectories}
            for t in range(HORIZON):
                records = await asyncio.gather(
                    *[
                        client.step(name, trajectory[t])
                        for name, trajectory in trajectories.items()
                    ]
                )
                for name, record in zip(trajectories, records):
                    served[name].append(record)
            stats = await client.stats()
            # the eviction LRU tracks residents only: suspended sessions
            # must not be rescanned on every eviction pass
            assert set(server._resident_lru) <= set(server._backend.session_ids())
            assert len(server._open) == len(trajectories)
            await client.close()
            await server.drain()
            store.close()
            return served, stats

        served, stats = asyncio.run(run())
        for name, expected in reference.items():
            actual = [strip_elapsed(record) for record in served[name]]
            assert actual == [strip_elapsed(record) for record in expected]
        # the residency cap was really under pressure
        assert stats["sessions"]["evicted"] > 0
        assert stats["sessions"]["restored"] > 0
        assert stats["sessions"]["resident"] <= 3

    def test_a_failed_restore_keeps_the_parked_session(self, monkeypatch):
        """Restore-on-touch takes the evicted session's store entry
        before it resumes it, so a resume that fails must put the entry
        back: the step gets the typed error, and the next one restores
        the session where it was parked."""
        trajectory = make_trajectories(1)["u0"]
        reference = direct_records({"u0": trajectory})["u0"]

        async def run():
            server = await start_server(max_resident=1, workers=1)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("u0", seed=1000)
            got = [await client.step("u0", cell) for cell in trajectory[:2]]
            await client.open("other", seed=1)  # evicts u0 at t=2
            parked = server.store.get("u0")
            assert parked is not None

            def resume(state):
                raise WorkerDownError("injected: the resume target died")

            monkeypatch.setattr(server._backend, "resume", resume)
            with pytest.raises(WorkerDownError):
                await client.step("u0", trajectory[2])
            kept = server.store.get("u0")
            monkeypatch.undo()
            got += [await client.step("u0", cell) for cell in trajectory[2:]]
            stats = await client.stats()
            await client.close()
            await server.drain()
            return parked, kept, got, stats["sessions"]

        parked, kept, got, sessions = asyncio.run(run())
        assert kept is not None and kept.to_json() == parked.to_json()
        assert [strip_elapsed(r) for r in got] == [
            strip_elapsed(r) for r in reference
        ]
        assert sessions["restored"] == 1

    def test_finish_summary_matches_direct_log(self):
        trajectories = make_trajectories(2)

        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)
            for t in range(HORIZON):
                for name, trajectory in trajectories.items():
                    await client.step(name, trajectory[t])
            summaries = {
                name: await client.finish(name) for name in trajectories
            }
            await client.close()
            await server.drain()
            return summaries

        summaries = asyncio.run(run())
        manager = SessionManager(make_builder())
        for i, (name, trajectory) in enumerate(trajectories.items()):
            manager.open(name, rng=1000 + i)
            for cell in trajectory:
                manager.step(name, cell)
            log = manager.finish(name)
            assert summaries[name]["n_released"] == len(log)
            assert summaries[name]["average_budget"] == pytest.approx(
                log.average_budget
            )
            assert summaries[name]["n_conservative"] == log.n_conservative


class TestAdmissionAndErrors:
    def test_opens_beyond_cap_get_typed_busy_error_not_a_hang(self):
        async def run():
            server = await start_server(max_sessions=2)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=1)
            await client.open("b", seed=2)
            with pytest.raises(ServiceBusyError, match="cap"):
                await asyncio.wait_for(client.open("c", seed=3), timeout=5.0)
            # existing sessions still serve
            record = await client.step("a", 0)
            assert record["t"] == 1
            # finishing frees a slot
            await client.finish("b")
            assert await client.open("c", seed=3) == "c"
            await client.close()
            await server.drain()

        asyncio.run(run())

    def test_concurrent_opens_respect_the_cap(self):
        """Opens run on the pool, so several wait there at once; each
        counts against the cap from its arrival, and a duplicate of one
        still waiting is refused."""

        async def run():
            server = await start_server(max_sessions=2)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            results = await asyncio.gather(
                *(client.open(name, seed=1) for name in "aabc"),
                return_exceptions=True,
            )
            await client.close()
            await server.drain()
            return results

        a, duplicate, b, c = asyncio.run(run())
        assert (a, b) == ("a", "b")
        assert isinstance(duplicate, SessionError)
        assert isinstance(c, ServiceBusyError)

    def test_unknown_session_and_double_open_are_session_errors(self):
        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            with pytest.raises(SessionError, match="no open session"):
                await client.step("ghost", 0)
            await client.open("a", seed=1)
            with pytest.raises(SessionError, match="already open"):
                await client.open("a", seed=1)
            await client.close()
            await server.drain()

        asyncio.run(run())

    def test_step_past_horizon_is_a_session_error(self):
        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=1)
            for t in range(HORIZON):
                await client.step("a", 0)
            with pytest.raises(SessionError, match="horizon"):
                await client.step("a", 0)
            await client.close()
            await server.drain()

        asyncio.run(run())

    def test_cluster_ops_need_cluster_workers(self):
        """The four cluster-only ops answer an in-process server with a
        typed ``service`` error, and the server keeps serving."""

        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=1)
            worker = "tcp://127.0.0.1:1"
            for op, call in (
                ("migrate", lambda: client.migrate(worker)),
                ("join", lambda: client.join(worker)),
                ("leave", lambda: client.leave(worker)),
                ("cluster_status", client.cluster_status),
            ):
                with pytest.raises(ServiceError, match=f"'{op}' requires") as caught:
                    await call()
                assert caught.type is ServiceError  # not busy, not shard_down
            record = await client.step("a", 0)
            assert record["t"] == 1
            await client.close()
            await server.drain()

        asyncio.run(run())

    def test_malformed_frames_get_error_replies_and_connection_survives(self):
        async def run():
            server = await start_server()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"not json at all\n")
            writer.write(b'{"v": 99, "id": 5, "op": "stats"}\n')
            writer.write(b'{"v": 1, "id": 6, "op": "stats"}\n')
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            await server.drain()
            return replies

        replies = asyncio.run(run())
        by_id = {reply.get("id"): reply for reply in replies}
        assert by_id[None]["error"]["code"] == "protocol"
        assert by_id[5]["error"]["code"] == "protocol"
        assert by_id[6]["ok"] is True

    @pytest.mark.parametrize(
        "field,value,flag",
        [
            ("max_sessions", 0, "--max-sessions"),
            ("max_resident", 0, "--max-resident"),
            # A zero pending limit never reads a request: a hang.
            ("max_pending_per_connection", 0, "--pending-per-connection"),
            # Negative workers would step inline, past the sharded guard.
            ("workers", -1, "--workers"),
            ("slow_request_ms", 0.0, "--slow-request-ms"),
            ("port", 65536, "--port"),
            ("metrics_port", 65536, "--metrics-port"),
            ("shed_target_ms", -1.0, "--shed-target-ms"),
            ("shed_interval_ms", 0.0, "--shed-interval-ms"),
        ],
    )
    def test_out_of_range_knob_is_a_typed_error(self, field, value, flag, capsys):
        with pytest.raises(ValidationError, match=field):
            ServerConfig(**{field: value})
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", flag, str(value)])
        assert exit_info.value.code == 2
        assert field in capsys.readouterr().err


class TestDrainAndRestart:
    def test_drain_checkpoints_sessions_and_a_new_engine_continues(self, tmp_path):
        trajectories = make_trajectories(3)
        reference = direct_records(trajectories)
        split = 3  # steps before the drain

        async def serve_first_half(store):
            server = await start_server(store=store, workers=2)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)
            served = {name: [] for name in trajectories}
            for t in range(split):
                for name, trajectory in trajectories.items():
                    served[name].append(await client.step(name, trajectory[t]))
            await client.close()
            summary = await server.drain()
            return served, summary

        store = DirectorySessionStore(str(tmp_path / "drain"))
        served, summary = asyncio.run(serve_first_half(store))
        assert summary["sessions_checkpointed"] == 3
        assert sorted(store.ids()) == sorted(trajectories)

        # a brand-new manager picks the streams up from the store
        manager = SessionManager(make_builder())
        for name, trajectory in trajectories.items():
            manager.resume(store.get(name))
            for t in range(split, HORIZON):
                served[name].append(manager.step(name, trajectory[t]).to_json())
        for name, expected in reference.items():
            assert [strip_elapsed(r) for r in served[name]] == [
                strip_elapsed(r) for r in expected
            ]

    def test_open_while_draining_is_busy(self):
        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=1)
            server._draining.set()  # drain decided, sockets still up
            with pytest.raises(ServiceBusyError, match="draining"):
                await client.open("b", seed=2)
            server._draining.clear()
            await client.close()
            await server.drain()

        asyncio.run(run())

    def test_durable_store_sessions_are_adopted_on_restart(self, tmp_path):
        store_path = str(tmp_path / "fleet.db")
        trajectories = make_trajectories(2)

        async def first():
            store = SQLiteSessionStore(store_path)
            server = await start_server(store=store)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(trajectories):
                await client.open(name, seed=1000 + i)
                await client.step(name, trajectories[name][0])
            await client.close()
            await server.drain()
            store.close()

        async def second():
            store = SQLiteSessionStore(store_path)
            server = await start_server(store=store)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            # no open needed: the store's sessions were adopted
            records = {
                name: await client.step(name, trajectories[name][1])
                for name in trajectories
            }
            with pytest.raises(SessionError, match="already open"):
                await client.open(next(iter(trajectories)), seed=0)
            await client.close()
            await server.drain()
            store.close()
            return records

        asyncio.run(first())
        records = asyncio.run(second())
        reference = direct_records(trajectories)
        for name in trajectories:
            assert strip_elapsed(records[name]) == strip_elapsed(reference[name][1])


class TestDrainWithClientsConnected:
    """A drain never waits for a client to hang up or to read.

    ``py3121_wait_closed`` gives ``Server.wait_closed`` the body it has
    from Python 3.12.1 on, where it waits for every connection to drop.
    """

    def test_drain_flushes_held_steps_then_closes_the_client(
        self, py3121_wait_closed
    ):
        names = ["a", "b", "c"]

        async def run():
            server = await start_server(workers=1)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(names):
                await client.open(name, seed=1000 + i)
            async with held_step_batch(server):
                # One step held in the engine, two queued behind it.
                steps = [asyncio.ensure_future(client.step(names[0], 0))]
                await until(lambda: server._batcher.stats()["inflight"] == 1)
                steps += [
                    asyncio.ensure_future(client.step(name, 0)) for name in names[1:]
                ]
                await until(lambda: server._batcher.stats()["pending"] == 2)
                drain = asyncio.ensure_future(server.drain())
                await until(server._draining.is_set)
            replies = await asyncio.wait_for(asyncio.gather(*steps), 10)
            summary = await asyncio.wait_for(drain, 10)
            await client.close()
            return replies, summary

        replies, summary = asyncio.run(run())
        assert [reply["t"] for reply in replies] == [1, 1, 1]
        assert summary["sessions_checkpointed"] == 3

    def test_drain_waits_for_a_half_closed_clients_held_step(
        self, py3121_wait_closed
    ):
        async def run():
            server = await start_server(workers=1)
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b'{"v": 1, "id": 1, "op": "open", "session": "a", "seed": 5}\n')
            assert json.loads(await reader.readline())["ok"] is True
            async with held_step_batch(server):
                writer.write(
                    b'{"v": 1, "id": 2, "op": "step", "session": "a", "cell": 0}\n'
                )
                writer.write_eof()
                await until(lambda: server._batcher.stats()["inflight"] == 1)
                # Let the server read the EOF: the drain then finds the
                # connection past its read loop, waiting on the step.
                await asyncio.sleep(0.1)
                drain = asyncio.ensure_future(server.drain())
                await until(server._draining.is_set)
            reply = json.loads(await asyncio.wait_for(reader.readline(), 10))
            summary = await asyncio.wait_for(drain, 10)
            writer.close()
            return reply, summary, server.store.get("a")

        reply, summary, stored = asyncio.run(run())
        assert reply["ok"] is True and reply["t"] == 1
        assert summary["sessions_checkpointed"] == 1
        assert stored.committed_t == 1

    def test_drain_is_bounded_when_a_client_stops_reading(self, monkeypatch):
        """A client that pipelines requests and never reads a reply
        fills the socket buffers; each request task then blocks writing
        its reply.  The drain aborts that connection after the grace."""
        monkeypatch.setattr(_listener, "CLOSE_GRACE_S", 0.5)

        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            for i, name in enumerate(["a", "b"]):
                await client.open(name, seed=i)
            await client.close()
            raw = socket.socket()
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.connect(("127.0.0.1", server.port))
            raw.setblocking(False)
            _, writer = await asyncio.open_connection(sock=raw)
            # Replies carry up to 512 spans, so the socket buffers fill
            # long before the requests run out.  No drain: once the
            # server stops reading, the rest waits in this transport.
            for i in range(2000):
                writer.write(b'{"v": 1, "id": %d, "op": "stats", "spans": 512}\n' % i)

            def replies_blocked():
                # Past the high-water mark every reply blocks until the
                # client reads, which it never does.
                return any(
                    w.transport.get_write_buffer_size()
                    > w.transport.get_write_buffer_limits()[1]
                    for w in server._listener._connections.values()
                )

            await until(replies_blocked)
            started = time.monotonic()
            summary = await asyncio.wait_for(server.drain(), 10)
            elapsed = time.monotonic() - started
            writer.close()
            return summary, elapsed

        summary, elapsed = asyncio.run(run())
        assert 0.5 <= elapsed < 5.0
        assert summary["sessions_checkpointed"] == 2
        assert summary["sessions_open"] == 2


class TestCheckpointOpAndStats:
    def test_checkpoint_returns_state_and_persists(self):
        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=5)
            await client.step("a", 1)
            reply = await client.checkpoint("a")
            stored = server.store.get("a")
            await client.close()
            await server.drain()
            return reply, stored

        reply, stored = asyncio.run(run())
        assert reply["t"] == 1
        assert reply["state"]["session_id"] == "a"
        assert stored is not None
        assert stored.to_json() == reply["state"]

    def test_a_checkpoint_holds_the_residency_cap(self):
        """Checkpointing a parked session restores it, so it evicts
        another, like every op that touches a session; ``stored`` then
        counts the one parked session, not the store's two rows (the
        parked state and the checkpoint)."""

        async def run():
            server = await start_server(max_resident=1, workers=2)
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=1)
            await client.open("b", seed=2)  # parks a
            await client.checkpoint("a")  # restores a, parks b
            stats = await client.stats()
            rows = len(server.store)
            gauge = server.metrics.registry.get("repro_sessions_stored").value()
            await client.close()
            await server.drain()
            return stats["sessions"], rows, gauge

        sessions, rows, gauge = asyncio.run(run())
        assert (sessions["open"], sessions["resident"]) == (2, 1)
        assert rows == 2
        assert sessions["stored"] == gauge == 1

    def test_stats_shape(self):
        async def run():
            server = await start_server()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            await client.open("a", seed=5)
            await client.step("a", 1)
            stats = await client.stats()
            await client.close()
            await server.drain()
            return stats

        stats = asyncio.run(run())
        assert stats["sessions"]["open"] == 1
        assert stats["sessions"]["resident"] == 1
        assert stats["requests"]["step"] == 1
        assert stats["step_latency"]["count"] == 1
        assert stats["step_latency"]["p99_ms"] > 0
        # Served steps run through step_many, which bypasses the verdict
        # cache; the section keeps its keys.
        assert stats["verdict_cache"]["hits"] + stats["verdict_cache"]["misses"] == 0
        assert stats["batching"]["steps"] == 1
        assert stats["server"]["draining"] is False


class TestSyncClient:
    def test_sync_client_round_trip_against_threaded_server(self):
        started = threading.Event()
        box: dict = {}

        def run_server():
            async def go():
                server = await start_server()
                box["server"] = server
                box["loop"] = asyncio.get_running_loop()
                started.set()
                await server.wait_drained()

            asyncio.run(go())

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        server = box["server"]

        with ServiceClient("127.0.0.1", server.port) as client:
            assert client.open("sync-u", seed=9) == "sync-u"
            record = client.step("sync-u", 2)
            assert record["t"] == 1
            assert client.peek_budget("sync-u") > 0
            stats = client.stats()
            assert stats["sessions"]["open"] == 1
            summary = client.finish("sync-u")
            assert summary["n_released"] == 1
            with pytest.raises(SessionError):
                client.step("sync-u", 0)

        box["loop"].call_soon_threadsafe(server.request_drain)
        thread.join(timeout=10)
        assert not thread.is_alive()
