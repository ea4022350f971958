"""The cluster backend: placement, identity, migration, containment.

The load-bearing guarantees of :mod:`repro.cluster`'s router layer:

* a :class:`ClusterBackend` over TCP workers produces release streams
  bit-identical to one in-process :class:`SessionManager` under the
  same seeds -- solo steps and batched waves alike;
* a live migration drill (100+ sessions, :meth:`drain_worker`
  mid-stream) drops zero streams and changes zero bits;
* one worker's death surfaces as typed ``WorkerDownError`` for exactly
  its sessions (``lost_session_ids``) while the rest keep serving, and
  a *hung* worker is indistinguishable from a dead one at the deadline;
* checkpoints -- current and previous schema -- restore through the
  cluster onto a different placement and continue bit-identically.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.cluster.backend import ClusterBackend, WorkerHandle, parse_address
from repro.cluster.frames import FRAME_HEADER
from repro.cluster.worker import (
    spawn_local_worker,
    spawn_local_workers,
    stop_local_worker,
)
from repro.engine import SessionManager
from repro.engine.session import SessionState
from repro.errors import (
    FrameTooLargeError,
    ServiceError,
    SessionError,
    ShardDownError,
    WorkerDownError,
)

from topology import (
    HORIZON,
    N_CELLS,
    kill_worker,
    make_builder,
    make_manager,
    make_trajectories,
    open_backend,
    reference_records,
    strip,
)


def spawn_fleet(n_workers: int = 2):
    spawned = spawn_local_workers(make_manager, n_workers)
    return [p for p, _ in spawned], [a for _, a in spawned]


def stop_fleet(procs):
    for process in procs:
        stop_local_worker(process)


def make_longer_manager() -> SessionManager:
    """The shared engine setting with a longer horizon."""
    return SessionManager(make_builder().with_horizon(HORIZON + 2))


def leave_on_first_placement(cluster, session_id: str) -> list[str]:
    """Make the next placement race a ``leave_worker``.

    The first ring lookup returns the ring it read, then the member
    owning ``session_id`` leaves before the placement dials anyone.
    Returns a list that receives the departed address.
    """
    lookup = cluster._placement_ring
    departed: list[str] = []

    def racing_lookup():
        ring = lookup()
        if not departed:
            departed.append(ring.owner(session_id))
            cluster.leave_worker(departed[0])
        return ring

    cluster._placement_ring = racing_lookup
    return departed


@pytest.fixture(scope="module")
def fleet():
    """A long-lived two-worker fleet for non-destructive tests."""
    procs, addresses = spawn_fleet(2)
    yield addresses
    stop_fleet(procs)


@pytest.fixture
def cluster(fleet):
    with ClusterBackend(fleet, heartbeat_interval_s=0) as backend:
        yield backend
        # leave the shared fleet clean for the next test
        for sid in list(backend.session_ids()):
            try:
                backend.finish(sid)
            except Exception:
                pass


class TestConstruction:
    def test_parse_address_normalizes(self):
        assert parse_address("tcp://h:9001") == ("tcp://h:9001", "h", 9001)
        assert parse_address("h:9001") == ("tcp://h:9001", "h", 9001)
        for bad in ("nope", "h:", "h:abc", "h:0", "h:70000"):
            with pytest.raises(ServiceError):
                parse_address(bad)

    def test_worker_down_is_a_shard_down(self):
        # The service protocol's crash-containment contract: cluster
        # failures satisfy existing `except ShardDownError` handlers.
        assert issubclass(WorkerDownError, ShardDownError)

    def test_unreachable_worker_fails_construction(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        with pytest.raises(WorkerDownError):
            ClusterBackend([f"tcp://127.0.0.1:{port}"], connect_timeout_s=2.0)

    def test_duplicate_and_empty_fleets_are_rejected(self):
        with pytest.raises(ServiceError):
            ClusterBackend([])
        with pytest.raises(ServiceError):
            ClusterBackend(["tcp://h:1", "h:1"])

    def test_a_worker_on_another_engine_configuration_is_refused(self):
        (proc_a, a), (proc_b, b) = (
            spawn_local_worker(make_manager),
            spawn_local_worker(make_longer_manager),
        )
        try:
            with pytest.raises(
                ServiceError, match="different engine configuration"
            ) as refused:
                ClusterBackend([a, b], heartbeat_interval_s=0)
            assert b in str(refused.value)
            with ClusterBackend([a], heartbeat_interval_s=0) as cluster:
                with pytest.raises(
                    ServiceError, match="different engine configuration"
                ) as refused:
                    cluster.join_worker(b)
                assert b in str(refused.value)
                assert cluster.worker_addresses() == [a]
                assert cluster.n_shards == 1
        finally:
            stop_fleet([proc_a, proc_b])

    def test_config_snapshot(self, cluster, fleet):
        assert cluster.horizon == HORIZON
        assert cluster.n_states == N_CELLS
        assert cluster.n_shards == 2
        assert cluster.remote is True
        assert cluster.worker_addresses() == list(fleet)


class TestBitIdentity:
    def test_solo_streams_match_in_process(self, cluster):
        trajectories = make_trajectories(6)
        reference = reference_records(trajectories)
        for i, name in enumerate(trajectories):
            assert cluster.open(name, seed=1000 + i) == HORIZON
        assert cluster.resident_count() == 6
        for name, trajectory in trajectories.items():
            got = [strip(cluster.step(name, cell)) for cell in trajectory]
            assert got == reference[name], f"stream diverged for {name}"
        for name in trajectories:
            log = cluster.finish(name)
            assert len(log) == HORIZON
        assert cluster.resident_count() == 0

    def test_batched_waves_match_in_process(self, cluster):
        trajectories = make_trajectories(6, seed=11)
        reference = reference_records(trajectories)
        for i, name in enumerate(trajectories):
            cluster.open(name, seed=1000 + i)
        got = {name: [] for name in trajectories}
        for t in range(HORIZON):
            wave = {name: trajectories[name][t] for name in trajectories}
            records, errors = cluster.step_batch(wave)
            assert errors == {}
            for name, record in records.items():
                got[name].append(strip(record))
        assert got == reference
        for name in trajectories:
            cluster.finish(name)

    def test_batch_isolates_bad_members(self, cluster):
        cluster.open("good", seed=1)
        records, errors = cluster.step_batch(
            {"good": 3, "ghost": 2, "bad-cell": None}
        )
        assert set(records) == {"good"}
        assert isinstance(errors["ghost"], SessionError)
        assert "bad-cell" in errors
        cluster.finish("good")

    def test_sessions_spread_over_both_workers(self, cluster):
        for i in range(32):
            cluster.open(f"spread-{i}", seed=i)
        stats = cluster.shard_stats()
        counts = [row["sessions"] for row in stats]
        assert sum(counts) == 32
        assert min(counts) >= 1  # the ring uses both workers
        assert all(row["alive"] and not row["draining"] for row in stats)
        for i in range(32):
            cluster.finish(f"spread-{i}")


class TestMigration:
    def test_drill_100_sessions_zero_drops_bit_identical(self):
        """The acceptance drill: 100+ live sessions, one worker drained
        mid-stream, zero dropped streams, bit-identical to unmigrated."""
        trajectories = make_trajectories(100, seed=23)
        reference = reference_records(trajectories)
        with open_backend("local", heartbeat_interval_s=0) as cluster:
            for i, name in enumerate(trajectories):
                cluster.open(name, seed=1000 + i)
            got = {name: [] for name in trajectories}
            half = HORIZON // 2
            for t in range(half):
                records, errors = cluster.step_batch(
                    {n: trajectories[n][t] for n in trajectories}
                )
                assert errors == {}
                for name, record in records.items():
                    got[name].append(strip(record))

            drained = cluster.shard_stats()[0]["worker"]
            summary = cluster.drain_worker(drained)
            assert summary["worker"] == drained
            assert summary["migrated"] >= 1
            assert sum(summary["targets"].values()) == summary["migrated"]
            # every session now lives on the other worker
            rows = {r["worker"]: r for r in cluster.shard_stats()}
            assert rows[drained]["sessions"] == 0
            assert rows[drained]["draining"] is True

            # the drained worker can die now: nothing is lost
            kill_worker(cluster, drained)
            assert cluster.lost_session_ids() == []

            for t in range(half, HORIZON):
                records, errors = cluster.step_batch(
                    {n: trajectories[n][t] for n in trajectories}
                )
                assert errors == {}, f"dropped streams: {sorted(errors)}"
                for name, record in records.items():
                    got[name].append(strip(record))
            assert got == reference  # bit-identical across the drain
            for name in trajectories:
                assert len(cluster.finish(name)) == HORIZON

    def test_solo_steps_cross_a_drain(self):
        trajectories = make_trajectories(8, seed=31)
        reference = reference_records(trajectories)
        with open_backend("local", heartbeat_interval_s=0) as cluster:
            for i, name in enumerate(trajectories):
                cluster.open(name, seed=1000 + i)
            got = {
                name: [strip(cluster.step(name, trajectories[name][0]))]
                for name in trajectories
            }
            cluster.drain_worker(cluster.worker_addresses()[0])
            for name in trajectories:
                for cell in trajectories[name][1:]:
                    got[name].append(strip(cluster.step(name, cell)))
            assert got == reference

    def test_drain_validation(self, cluster):
        with pytest.raises(ServiceError, match="unknown worker"):
            cluster.drain_worker("tcp://nowhere:1")

    def test_draining_the_last_worker_is_refused(self):
        with open_backend("local", 1, heartbeat_interval_s=0) as cluster:
            cluster.open("solo", seed=1)
            with pytest.raises(ServiceError, match="no other live worker"):
                cluster.drain_worker(cluster.worker_addresses()[0])

    @pytest.mark.parametrize("op", ["open", "resume"])
    def test_a_leave_that_races_a_placement_lands_on_the_survivor(self, op):
        trajectories = make_trajectories(1, seed=37)
        reference = reference_records(trajectories)
        [(name, cells)] = trajectories.items()
        with open_backend("local", heartbeat_interval_s=0) as cluster:
            fleet = cluster.worker_addresses()
            got = []
            if op == "resume":
                cluster.open(name, seed=1000)
                got.append(strip(cluster.step(name, cells[0])))
                state = cluster.suspend(name)
            departed = leave_on_first_placement(cluster, name)
            if op == "open":
                assert cluster.open(name, seed=1000) == HORIZON
            else:
                assert cluster.resume(state) == name
            (survivor,) = [a for a in fleet if a not in departed]
            assert cluster.worker_addresses() == [survivor]
            assert cluster.assignment_of(name) == survivor
            for cell in cells[len(got):]:
                got.append(strip(cluster.step(name, cell)))
            assert got == reference[name]


class TestContainment:
    def test_worker_death_is_typed_and_contained(self):
        with open_backend(
            "local", heartbeat_interval_s=0, rpc_timeout_s=30.0
        ) as cluster:
            for i in range(16):
                cluster.open(f"c{i}", seed=i)
            victim = cluster.shard_stats()[0]["worker"]
            victims = [
                sid
                for sid in cluster.session_ids()
                if cluster._assigned(sid) == victim
            ]
            survivors = [
                sid for sid in cluster.session_ids() if sid not in victims
            ]
            assert victims and survivors
            kill_worker(cluster, victim)

            with pytest.raises(WorkerDownError):
                cluster.step(victims[0], 3)
            # exactly the dead worker's sessions are lost
            assert sorted(cluster.lost_session_ids()) == sorted(victims)
            for sid in survivors:
                cluster.step(sid, 3)  # the other worker keeps serving
            # new opens re-route around the hole
            cluster.open("after-death", seed=99)
            cluster.step("after-death", 5)
            # batches report the typed error per lost member
            records, errors = cluster.step_batch(
                {victims[1]: 2, survivors[0]: 2}
            )
            assert set(records) == {survivors[0]}
            assert isinstance(errors[victims[1]], WorkerDownError)
            rows = {r["worker"]: r for r in cluster.shard_stats()}
            assert rows[victim]["alive"] is False
            assert rows[victim]["lost_sessions"] == len(victims)

    def test_heartbeat_detects_a_silent_death(self):
        with open_backend(
            "local",
            heartbeat_interval_s=0.2,
            heartbeat_timeout_s=1.0,
        ) as cluster:
            kill_worker(cluster, cluster.worker_addresses()[0], timeout_s=15.0)
            # placement ring already routed around the dead worker
            cluster.open("post-heartbeat", seed=1)
            cluster.step("post-heartbeat", 4)

    def test_suspend_all_reports_losses(self):
        with open_backend(
            "local", heartbeat_interval_s=0, rpc_timeout_s=30.0
        ) as cluster:
            for i in range(8):
                cluster.open(f"s{i}", seed=i)
            victim = cluster.worker_addresses()[1]
            doomed = [
                sid
                for sid in cluster.session_ids()
                if cluster._assigned(sid) == victim
            ]
            kill_worker(cluster, victim)
            states, lost = cluster.suspend_all()
            assert sorted(lost) == sorted(doomed)
            assert len(states) == 8 - len(doomed)


class TestCrossPlacementRestore:
    """Checkpoints restore through the cluster onto a different worker,
    at the current schema and the previous one, and continue
    bit-identically -- solo and batched."""

    def checkpoint_and_reference(self, n_sessions=4, split=3):
        trajectories = make_trajectories(n_sessions, seed=41)
        reference = reference_records(trajectories)
        manager = make_manager()
        states = {}
        for i, name in enumerate(trajectories):
            manager.open(name, rng=1000 + i)
            for cell in trajectories[name][:split]:
                manager.step(name, cell)
            states[name] = manager.suspend(name)
        return trajectories, reference, states, split

    @staticmethod
    def downgrade_to_v1(state: SessionState) -> SessionState:
        """A schema-v1 checkpoint: what a PR-1 build would have written."""
        data = state.to_json()
        assert data["schema"] == 2
        del data["schema"]
        del data["scenario"]
        return SessionState.from_json(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("schema", ["v2", "v1"])
    def test_restore_continues_solo(self, cluster, schema):
        trajectories, reference, states, split = self.checkpoint_and_reference()
        for name, state in states.items():
            if schema == "v1":
                state = self.downgrade_to_v1(state)
            assert cluster.resume(state) == name
        for name, trajectory in trajectories.items():
            got = [strip(cluster.step(name, cell)) for cell in trajectory[split:]]
            assert got == reference[name][split:], f"{schema} diverged: {name}"
        for name in trajectories:
            log = cluster.finish(name)
            assert len(log) == HORIZON  # the full pre-suspend history came too

    def test_restore_continues_batched(self, cluster):
        trajectories, reference, states, split = self.checkpoint_and_reference()
        for state in states.values():
            cluster.resume(state)
        got = {name: [] for name in trajectories}
        for t in range(split, HORIZON):
            records, errors = cluster.step_batch(
                {n: trajectories[n][t] for n in trajectories}
            )
            assert errors == {}
            for name, record in records.items():
                got[name].append(strip(record))
        assert got == {n: reference[n][split:] for n in trajectories}
        for name in trajectories:
            cluster.finish(name)

    def test_restore_lands_on_the_ring_owner(self, cluster):
        _, _, states, _ = self.checkpoint_and_reference(n_sessions=8)
        for name, state in states.items():
            cluster.resume(state)
            assert cluster._assigned(name) in cluster.worker_addresses()
        placements = {cluster._assigned(n) for n in states}
        assert len(placements) == 2  # both workers participate
        for name in states:
            cluster.finish(name)


class _HungWorker:
    """A fake worker that answers hello/ping but swallows every other
    call -- a *hung* engine, as seen from the router."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.port = self._listener.getsockname()[1]
        self.address = f"tcp://127.0.0.1:{self.port}"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        from repro.cluster.codec import decode_message, encode_ok

        self._listener.settimeout(0.2)
        conns = []
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            conns.append(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()
        for conn in conns:
            conn.close()
        self._listener.close()

    def _serve_conn(self, conn):
        from repro.cluster.codec import decode_message, encode_ok

        try:
            while not self._stop.is_set():
                header = conn.recv(FRAME_HEADER.size, socket.MSG_WAITALL)
                if len(header) < FRAME_HEADER.size:
                    return
                (length,) = FRAME_HEADER.unpack(header)
                payload = conn.recv(length, socket.MSG_WAITALL)
                message = decode_message(payload)
                if message["op"] == "ping":
                    reply = encode_ok("pong", message["id"])
                elif message["op"] == "hello":
                    reply = encode_ok(
                        {
                            "pid": 1,
                            "host": "127.0.0.1",
                            "port": self.port,
                            "horizon": HORIZON,
                            "n_states": N_CELLS,
                            "sessions": 0,
                        },
                        message["id"],
                    )
                else:
                    continue  # hang: never answer engine ops
                conn.sendall(FRAME_HEADER.pack(len(reply)) + reply)
        except OSError:
            return

    def close(self):
        self._stop.set()
        self._thread.join(5)


class TestDeadlines:
    def test_hung_worker_surfaces_as_worker_down_at_the_deadline(self):
        fake = _HungWorker()
        try:
            handle = WorkerHandle(fake.address, rpc_timeout_s=0.5)
            assert handle.hello()["horizon"] == HORIZON
            assert handle.ping() is True  # answers heartbeats: looks alive
            start = time.monotonic()
            with pytest.raises(WorkerDownError, match="hung worker"):
                handle.call("step", ("u0", 3))
            assert time.monotonic() - start < 10.0
            # the handle is dead now; later calls fail fast and loudly
            assert handle.alive is False
            with pytest.raises(WorkerDownError):
                handle.call("step", ("u0", 3))
            assert handle.ping() is False
        finally:
            fake.close()

    def test_oversized_call_raises_before_send_and_keeps_the_channel(self):
        fake = _HungWorker()
        try:
            handle = WorkerHandle(
                fake.address, max_frame_bytes=512, rpc_timeout_s=5.0
            )
            with pytest.raises(FrameTooLargeError):
                handle.call("open", ("big", None, {"pad": "x" * 4096}))
            assert handle.alive is True
            assert handle.ping() is True  # channel unharmed
        finally:
            fake.close()
