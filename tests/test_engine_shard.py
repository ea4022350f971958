"""The topology suite, backend half: identity, restore, containment.

Every class runs against the ``local`` topology -- the worker fleet
``repro serve --shards N`` builds -- and its subclasses rerun it
``inprocess`` and over ``tcp`` (see :mod:`topology`).  Guarantees:

* release streams are bit-identical to a single in-process
  :class:`SessionManager` under the same seeds, for solo steps and for
  batched waves alike, whatever the topology;
* checkpoints round-trip through the owning worker and restore into a
  fleet of a *different* size -- or in-process -- bit-identically;
* one worker's death surfaces as typed ``ShardDownError`` (its
  ``WorkerDownError`` subclass) for exactly its sessions while the
  other workers keep serving, and a hung worker does the same at the
  RPC deadline;
* a factory that fails in a worker fails the spawn, leaving no worker
  process behind.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.engine.backend import InProcessBackend, as_backend
from repro.errors import (
    QuantificationError,
    ServiceError,
    SessionError,
    ShardDownError,
    WorkerDownError,
)

from topology import (
    HORIZON,
    N_CELLS,
    UNQUANTIFIABLE_SPEC,
    kill_worker,
    make_manager,
    make_trajectories,
    open_backend,
    reference_records,
    sessions_by_worker,
    strip,
)


@pytest.fixture
def pool(request):
    with open_backend(request.cls.topology) as backend:
        yield backend


class TestBitIdentity:
    topology = "local"

    def test_solo_steps_match_in_process_manager(self, pool):
        trajectories = make_trajectories(6)
        reference = reference_records(trajectories)
        for i, name in enumerate(trajectories):
            pool.open(name, seed=1000 + i)
        for name, trajectory in trajectories.items():
            sharded = [strip(pool.step(name, cell)) for cell in trajectory]
            assert sharded == reference[name]

    def test_step_batch_matches_in_process_manager(self, pool):
        trajectories = make_trajectories(6)
        reference = reference_records(trajectories)
        for i, name in enumerate(trajectories):
            pool.open(name, seed=1000 + i)
        streams = {name: [] for name in trajectories}
        for t in range(HORIZON):
            records, errors = pool.step_batch(
                {name: trajectory[t] for name, trajectory in trajectories.items()}
            )
            assert errors == {}
            for name, record in records.items():
                streams[name].append(strip(record))
        assert streams == reference

    def test_finish_log_and_peek_match(self, pool):
        trajectory = make_trajectories(1)["u0"]
        pool.open("u0", seed=1000)
        manager = make_manager()
        manager.open("u0", rng=1000)
        for cell in trajectory[:3]:
            assert pool.peek_budget("u0") == manager.peek_budget("u0")
            pool.step("u0", cell)
            manager.step("u0", cell)
        sharded_log = pool.finish("u0")
        direct_log = manager.finish("u0")
        assert [strip(r) for r in sharded_log.records] == [
            strip(r) for r in direct_log.records
        ]
        assert sharded_log.average_budget == direct_log.average_budget
        assert not pool.contains("u0")

    def test_batch_isolates_bad_members(self, pool):
        pool.open("u0", seed=1)
        pool.open("u1", seed=2)
        records, errors = pool.step_batch({"u0": 3, "u1": 999, "ghost": 0})
        assert set(records) == {"u0"}
        assert isinstance(errors["u1"], SessionError)
        assert isinstance(errors["ghost"], SessionError)

    def test_a_failing_tenant_leaves_its_batch_mates_alone(self, pool):
        """Two tenants at t=1 in one batch, the failing one second: the
        first gets the record a solo step gives, the second its own
        error, and it does not advance."""
        # On worker backends both land on one worker, so its manager
        # steps them as one batch.
        a, b = sessions_by_worker(pool, 2)[0] if pool.n_shards else ("a", "b")
        pool.open(a, seed=1000)
        pool.open(b, seed=1001, scenario=UNQUANTIFIABLE_SPEC)
        manager = make_manager()
        manager.open(a, rng=1000)
        for cell in (3, 4):
            records, errors = pool.step_batch({a: cell, b: 7})
            assert list(records) == [a]
            assert strip(records[a]) == strip(manager.step(a, cell))
            assert list(errors) == [b]
            assert isinstance(errors[b], QuantificationError)
        assert pool.checkpoint(b).committed_t == 0


class TestBitIdentityInProcess(TestBitIdentity):
    topology = "inprocess"


class TestBitIdentityTcp(TestBitIdentity):
    topology = "tcp"


class TestCheckpointRestore:
    topology = "local"

    @pytest.mark.parametrize("restore_shards", [1, 3, 0])
    def test_restore_into_different_shard_count(self, restore_shards):
        """Suspend under 2 workers, resume under 1, 3 or in-process."""
        trajectories = make_trajectories(5)
        reference = reference_records(trajectories)
        split = HORIZON // 2
        with open_backend(self.topology, 2) as first:
            for i, name in enumerate(trajectories):
                first.open(name, seed=1000 + i)
            streams = {
                name: [strip(first.step(name, cell)) for cell in trajectory[:split]]
                for name, trajectory in trajectories.items()
            }
            states, lost = first.suspend_all()
            assert lost == []
            assert sorted(s.session_id for s in states) == sorted(trajectories)
            assert first.resident_count() == 0
        second_topology = self.topology if restore_shards else "inprocess"
        with open_backend(second_topology, restore_shards) as second:
            for state in states:
                assert second.resume(state) == state.session_id
            for name, trajectory in trajectories.items():
                streams[name].extend(
                    strip(second.step(name, cell)) for cell in trajectory[split:]
                )
        assert streams == reference

    def test_checkpoint_roundtrips_through_owning_shard(self):
        with open_backend(self.topology) as pool:
            pool.open("u0", seed=5)
            pool.step("u0", 3)
            state = pool.checkpoint("u0")
            assert state.session_id == "u0"
            assert state.committed_t == 1
            assert pool.contains("u0")  # checkpoint does not evict
            # a suspend does evict, and the state resumes elsewhere
            state = pool.suspend("u0")
            assert not pool.contains("u0")
        manager = make_manager()
        manager.resume(state)
        manager.step("u0", 4)  # continues without error


class TestCheckpointRestoreTcp(TestCheckpointRestore):
    topology = "tcp"


class TestCrashContainment:
    topology = "local"

    def test_dead_shard_raises_typed_error_others_serve(self, pool):
        (on_zero,), (on_one,) = sessions_by_worker(pool)
        pool.open(on_zero, seed=1)
        pool.open(on_one, seed=2)
        dead, alive = pool.worker_addresses()
        kill_worker(pool, dead)

        with pytest.raises(ShardDownError):
            pool.step(on_zero, 3)
        # ... and keeps raising: the loss is never silent
        with pytest.raises(ShardDownError):
            pool.peek_budget(on_zero)
        assert pool.lost_session_ids() == [on_zero]
        # the surviving worker is unaffected
        record = pool.step(on_one, 3)
        assert record.t == 1

        rows = {row["worker"]: row for row in pool.shard_stats()}
        assert rows[dead]["alive"] is False
        assert rows[dead]["lost_sessions"] == 1
        assert rows[alive]["alive"] is True

    def test_batch_with_dead_shard_fails_only_its_members(self, pool):
        members = sessions_by_worker(pool, n_per_worker=2)
        cells = {}
        for sids in members:
            for sid in sids:
                pool.open(sid, seed=int(sid[1:]))
                cells[sid] = 3
        kill_worker(pool, pool.worker_addresses()[1])
        records, errors = pool.step_batch(cells)
        assert set(records) == set(members[0])
        assert set(errors) == set(members[1])
        assert all(isinstance(e, ShardDownError) for e in errors.values())

    def test_suspend_all_reports_lost_sessions(self, pool):
        (on_zero,), (on_one,) = sessions_by_worker(pool)
        pool.open(on_zero, seed=1)
        pool.open(on_one, seed=2)
        kill_worker(pool, pool.worker_addresses()[1])
        states, lost = pool.suspend_all()
        assert [s.session_id for s in states] == [on_zero]
        assert lost == [on_one]

    def test_hung_worker_is_typed_down_at_the_deadline(self):
        """A frozen worker ends its caller's RPC in typed ``WorkerDownError``
        at the deadline -- never a caller blocked forever."""
        with open_backend(self.topology, rpc_timeout_s=1.0) as pool:
            (stuck,), _ = sessions_by_worker(pool)
            pool.open(stuck, seed=1)
            pid = pool.cluster_status()["workers"][0]["pid"]
            os.kill(pid, signal.SIGSTOP)
            try:
                started = time.monotonic()
                with pytest.raises(WorkerDownError, match="hung worker"):
                    pool.step(stuck, 3)
                assert time.monotonic() - started < 10.0
            finally:
                os.kill(pid, signal.SIGCONT)

    def test_factory_failure_surfaces_at_spawn(self):
        def bad_factory():
            raise ValueError("no engine for you")

        before = set(multiprocessing.active_children())
        with pytest.raises(ServiceError, match="no engine for you"):
            with open_backend(self.topology, factory=bad_factory):
                pass
        assert set(multiprocessing.active_children()) <= before


    def test_close_stops_only_the_workers_it_spawned(self):
        with open_backend(self.topology) as pool:
            pids = {row["pid"] for row in pool.cluster_status()["workers"]}
            pool.close()
            running = {p.pid for p in multiprocessing.active_children()}
        # spawn_local owns its workers; dialled ones belong to whoever
        # started them
        if self.topology == "tcp":
            assert pids <= running
        else:
            assert not pids & running


class TestCrashContainmentTcp(TestCrashContainment):
    topology = "tcp"


class TestBackendAdapter:
    def test_as_backend_wraps_manager_and_passes_backends(self):
        manager = make_manager()
        backend = as_backend(manager)
        assert isinstance(backend, InProcessBackend)
        assert as_backend(backend) is backend
        assert backend.n_shards == 0
        assert backend.remote is False
        assert backend.horizon == HORIZON
        assert backend.n_states == N_CELLS

    def test_as_backend_rejects_other_types(self):
        with pytest.raises(SessionError):
            as_backend(object())

    def test_in_process_backend_round_trip(self):
        backend = as_backend(make_manager())
        backend.open("u0", seed=3)
        assert backend.contains("u0")
        record = backend.step("u0", 2)
        assert record.t == 1
        states, lost = backend.suspend_all()
        assert lost == [] and len(states) == 1
        assert backend.resident_count() == 0
        backend.resume(states[0])
        assert backend.session_ids() == ["u0"]
        assert len(backend.finish("u0")) == 1
