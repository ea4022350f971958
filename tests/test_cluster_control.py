"""The self-healing control plane: retry policy, recovery, membership.

The load-bearing guarantees of a :class:`~repro.cluster.ClusterBackend`
recovering from a durable store:

* a worker kill with a durable store and auto-checkpointing costs zero
  sessions: every stream recovers onto the ring successor, replays past
  its checkpoint, and stays bit-identical to an unfaulted run (the
  acceptance drill, 100+ sessions);
* without a checkpoint the loss is *typed* -- ``WorkerDownError`` with
  the recorded reason, counted as ``sessions_lost`` -- never silent;
* runtime ``join`` migrates exactly the ring arcs the newcomer owns
  (untouched sessions never move) and ``leave`` drains a live member;
* recovery converges under cascades (the restore target dying
  mid-recovery just walks to the next successor), across scenario-bound
  sessions and previous-schema checkpoints, and through a scripted
  mid-batch kill (``FaultPlan``) that never acknowledges the killing
  step;
* ops, batched waves and recovery take one per-session exclusion, so a
  replay never interleaves with an op and every acknowledged step is
  journaled in the order it ran -- a resumed session recovers where the
  client left it, or fails typed.
"""

import asyncio
import itertools
import json
import sys
import threading
import time

import pytest

from repro.cluster.backend import ClusterBackend
from repro.cluster.chaos import FaultPlan
from repro.cluster.control import RetryPolicy, StepJournal
from repro.cluster.worker import spawn_local_worker
from repro.engine.session import SessionState
from repro.errors import ServiceError, ValidationError, WorkerDownError
from repro.scenario import (
    CalibrationSpec,
    ChainSpec,
    EventSpec,
    GridSpec,
    MechanismSpec,
    ScenarioSpec,
)
from repro.service import AsyncServiceClient, ReleaseServer, ServerConfig
from repro.service.metrics import ServiceMetrics
from repro.service.store import DirectorySessionStore, MemorySessionStore

from test_cluster_backend import stop_fleet
from topology import (
    HORIZON,
    N_CELLS,
    direct_records,
    kill_worker,
    make_manager,
    make_trajectories,
    reference_records,
    strip,
    strip_elapsed,
)

#: A fast, deterministic policy for tests: real backoff shape, tiny
#: delays.
FAST_RETRY = RetryPolicy(
    attempts=5, base_delay_s=0.01, max_delay_s=0.05, deadline_s=30.0, seed=1
)


def make_supervisor(store, addresses=None, **kwargs):
    """A heartbeat-free cluster backend recovering from ``store``, over
    ``addresses`` -- or, by default, over two local workers it spawns
    and owns (``repro serve --shards 2``)."""
    kwargs.setdefault("retry", FAST_RETRY)
    kwargs.update(store=store, heartbeat_interval_s=0)
    if addresses is None:
        return ClusterBackend.spawn_local(make_manager, 2, **kwargs)
    return ClusterBackend(addresses, **kwargs)


class TestRetryPolicy:
    def test_first_attempt_is_immediate(self):
        assert next(RetryPolicy().schedule()) == 0.0

    def test_seeded_schedules_are_deterministic(self):
        policy = RetryPolicy(attempts=6, seed=17)
        assert list(policy.schedule()) == list(policy.schedule())
        other = RetryPolicy(attempts=6, seed=18)
        assert list(policy.schedule()) != list(other.schedule())

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            attempts=8, base_delay_s=0.1, max_delay_s=0.4, jitter=0.0, seed=0
        )
        delays = list(policy.schedule())
        assert delays[0] == 0.0
        assert delays[1:4] == [0.1, 0.2, 0.4]
        assert all(d == 0.4 for d in delays[4:])  # capped
        assert len(delays) == 8

    def test_deadline_cuts_the_schedule(self):
        policy = RetryPolicy(
            attempts=50, base_delay_s=10.0, deadline_s=0.05, jitter=0.0
        )
        delays = list(policy.schedule())
        assert delays == [0.0]  # the first backoff would blow the budget

    def test_at_least_one_attempt(self):
        assert list(RetryPolicy(attempts=0).schedule()) == [0.0]


class TestStepJournal:
    def test_reset_pins_a_new_base(self):
        journal = StepJournal()
        assert (journal.base_t, journal.cells) == (0, [])
        journal.cells.extend([3, 1, 4])
        journal.reset(5)
        assert (journal.base_t, journal.cells) == (5, [])


class TestRecoveryDrill:
    def test_kill_worker_drill_zero_loss_bit_identical(self, tmp_path):
        """The acceptance drill: 100+ sessions over two workers with a
        durable store and auto-checkpoints, one worker killed
        mid-stream.  Every stream recovers, replays, and finishes
        bit-identical to the unfaulted reference; zero sessions lost."""
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        metrics = ServiceMetrics()
        trajectories = make_trajectories(100, seed=47)
        reference = reference_records(trajectories)
        with make_supervisor(store, checkpoint_every=2) as sup:
            sup.bind_metrics(metrics)
            for i, name in enumerate(trajectories):
                assert sup.open(name, seed=1000 + i) == HORIZON
            got = {name: [] for name in trajectories}
            half = HORIZON // 2
            # mixed load: batched waves for the first half...
            for t in range(half):
                records, errors = sup.step_batch(
                    {n: trajectories[n][t] for n in trajectories}
                )
                assert errors == {}
                for name, record in records.items():
                    got[name].append(strip(record))

            victim = sup.shard_stats()[0]["worker"]
            on_victim = [
                n for n in trajectories
                if sup.assignment_of(n) == victim
            ]
            assert on_victim  # the drill must actually cover losses
            kill_worker(sup, victim)

            # ...solo steps for one post-kill round (each victim
            # session trips WorkerDownError and heals in-line), then
            # batched waves to the horizon.
            for name in trajectories:
                got[name].append(
                    strip(sup.step(name, trajectories[name][half]))
                )
            for t in range(half + 1, HORIZON):
                records, errors = sup.step_batch(
                    {n: trajectories[n][t] for n in trajectories}
                )
                assert errors == {}, f"dropped streams: {sorted(errors)}"
                for name, record in records.items():
                    got[name].append(strip(record))

            assert got == reference  # bit-identical across the kill
            assert sup.lost_session_ids() == []
            stats = sup.recovery_stats()
            assert stats["sessions_recovered"] == len(on_victim)
            assert stats["sessions_lost"] == 0
            assert stats["workers_recovered"] >= 1
            # checkpoint_every=2 bounds replay to < 2 steps/session
            assert stats["steps_replayed"] < 2 * len(on_victim)
            recovered = metrics.snapshot()["recoveries"]
            assert recovered["worker"] >= 1
            assert recovered["session"] == len(on_victim)
            for name in trajectories:
                assert len(sup.finish(name)) == HORIZON
            assert store.ids() == []  # finish drops auto-checkpoints

    def test_no_checkpoint_degrades_to_typed_loss(self):
        metrics = ServiceMetrics()
        with make_supervisor(
            MemorySessionStore(), checkpoint_every=0
        ) as sup:
            sup.bind_metrics(metrics)
            for i in range(12):
                sup.open(f"u{i}", seed=i)
                sup.step(f"u{i}", 3)
            victim = sup.shard_stats()[0]["worker"]
            doomed = sorted(
                f"u{i}" for i in range(12)
                if sup.assignment_of(f"u{i}") == victim
            )
            survivors = [
                f"u{i}" for i in range(12) if f"u{i}" not in doomed
            ]
            assert doomed and survivors
            kill_worker(sup, victim)

            with pytest.raises(WorkerDownError, match="no durable"):
                sup.step(doomed[0], 2)
            assert sup.lost_session_ids() == doomed
            for name in survivors:
                sup.step(name, 2)  # the rest keep serving
            stats = sup.recovery_stats()
            assert stats["sessions_lost"] == len(doomed)
            assert stats["sessions_recovered"] == 0
            failures = metrics.snapshot()["failures"]
            assert failures["sessions_lost"] == len(doomed)
            # the loss stays typed on every later touch too
            with pytest.raises(WorkerDownError):
                sup.peek_budget(doomed[0])

    def test_batched_steps_see_the_loss_and_the_recovery_lock(self):
        """``step_batch`` (every served step) behaves like a solo step:
        a lost member gets its typed loss, and a member whose session
        lock recovery holds waits for it instead of racing the replay."""
        with make_supervisor(
            MemorySessionStore(), checkpoint_every=0
        ) as sup:
            for i in range(24):
                sup.open(f"u{i}", seed=i)
                sup.step(f"u{i}", 3)
            victim = sup.shard_stats()[0]["worker"]
            doomed = sorted(
                f"u{i}" for i in range(24)
                if sup.assignment_of(f"u{i}") == victim
            )
            survivors = [f"u{i}" for i in range(24) if f"u{i}" not in doomed]
            assert len(doomed) >= 2 and len(survivors) >= 2
            kill_worker(sup, victim)
            with pytest.raises(WorkerDownError, match="no durable"):
                sup.step(doomed[0], 2)

            records, errors = sup.step_batch({doomed[1]: 2, survivors[0]: 2})
            assert isinstance(errors[doomed[1]], WorkerDownError)
            assert "no durable" in str(errors[doomed[1]])
            assert records[survivors[0]].t == 2

            out = []
            with sup._session_op(survivors[1]):
                batch = threading.Thread(
                    target=lambda: out.append(sup.step_batch({survivors[1]: 2}))
                )
                batch.start()
                batch.join(0.3)
                assert batch.is_alive() and not out
            batch.join(10)
            assert not batch.is_alive()
            records, errors = out[0]
            assert not errors and records[survivors[1]].t == 2

    def test_recovery_waits_for_a_held_session(self, tmp_path):
        """Recovery takes each session's exclusion before restoring and
        replaying it, so it never interleaves with an op on that
        session: while an op holds it, the session stays on the corpse
        and the rest of the dead worker's sessions move on."""
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        with make_supervisor(store, checkpoint_every=1) as sup:
            for i in range(12):
                sup.open(f"u{i}", seed=i)
                sup.step(f"u{i}", 3)
            victim = sup.shard_stats()[0]["worker"]
            *others, held = sorted(
                f"u{i}" for i in range(12)
                if sup.assignment_of(f"u{i}") == victim
            )
            assert others  # recovery must get past some sessions first
            kill_worker(sup, victim)
            recovery = threading.Thread(target=sup._run_recoveries)
            with sup._session_op(held):
                recovery.start()
                deadline = time.monotonic() + 10.0
                while any(sup.assignment_of(s) == victim for s in others):
                    assert time.monotonic() < deadline, "recovery stalled"
                    time.sleep(0.01)
                time.sleep(0.2)
                assert sup.assignment_of(held) == victim
            recovery.join(30)
            assert not recovery.is_alive()
            assert sup.assignment_of(held) not in (None, victim)
            assert sup.step(held, 2).t == 2
            assert sup.lost_session_ids() == []

    def test_explicit_checkpoints_bound_the_damage(self, tmp_path):
        """checkpoint_every=0 still recovers sessions with an explicit
        `checkpoint` snapshot: replay resumes from the snapshot."""
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        trajectories = make_trajectories(8, seed=53)
        reference = reference_records(trajectories)
        with make_supervisor(store, checkpoint_every=0) as sup:
            for i, name in enumerate(trajectories):
                sup.open(name, seed=1000 + i)
            got = {n: [] for n in trajectories}
            for t in range(3):
                for name in trajectories:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            for name in trajectories:
                sup.checkpoint(name)
            victim = sup.shard_stats()[0]["worker"]
            kill_worker(sup, victim)
            for t in range(3, HORIZON):
                for name in trajectories:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            assert got == reference
            assert sup.lost_session_ids() == []


class TestRacingSteps:
    def test_racing_steps_are_journaled_in_the_order_they_ran(self):
        """Threads racing steps into the same sessions are serialized
        per session, and each step is journaled under that exclusion, so
        every journal lists its cells in the order the worker ran them,
        and recovery after a kill replays exactly the acknowledged
        stream.  More threads than cores and a tiny switch interval."""
        names = [f"u{i}" for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_supervisor(MemorySessionStore(), checkpoint_every=0) as sup:
                for i, name in enumerate(names):
                    sup.open(name, seed=1000 + i)
                    sup.checkpoint(name)  # recovery replays from t=0
                acked = {name: [] for name in names}
                errors = []

                def race(cell):
                    try:
                        for name in names:
                            acked[name].append((sup.step(name, cell).t, cell))
                    except Exception as error:  # pragma: no cover
                        errors.append(error)

                threads = [
                    threading.Thread(target=race, args=(cell,))
                    for cell in (1, 6, 11, 14)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                ran = {n: [cell for _, cell in sorted(acked[n])] for n in names}
                for name in names:
                    assert sup._journal[name].cells == ran[name]
                kill_worker(sup, sup.shard_stats()[0]["worker"])
                manager = make_manager()
                for i, name in enumerate(names):
                    manager.open(name, rng=1000 + i)
                    for cell in ran[name]:
                        manager.step(name, cell)
                    assert strip(sup.step(name, 9)) == strip(manager.step(name, 9))
                assert sup.lost_session_ids() == []
        finally:
            sys.setswitchinterval(interval)


class TestResumedSessions:
    """A suspend-then-resume round trip (the server's eviction) moves a
    session without changing its position, so a later worker death must
    recover it exactly where the client left it -- or fail typed."""

    def test_auto_checkpoints_recover_a_resumed_session_in_place(self, tmp_path):
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        trajectories = make_trajectories(8, seed=97)
        reference = reference_records(trajectories)
        with make_supervisor(store, checkpoint_every=2) as sup:
            for i, name in enumerate(trajectories):
                sup.open(name, seed=1000 + i)
            got = {n: [] for n in trajectories}
            # t=3: one acknowledged step past the t=2 auto-checkpoint
            for t in range(3):
                for name in trajectories:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            for name in trajectories:
                assert sup.resume(sup.suspend(name)) == name
            victim = sup.shard_stats()[0]["worker"]
            assert any(sup.assignment_of(n) == victim for n in trajectories)
            kill_worker(sup, victim)
            for t in range(3, HORIZON):
                for name in trajectories:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            assert got == reference
            assert sup.lost_session_ids() == []

    def test_a_served_restore_keeps_the_durable_checkpoint(self):
        """The server's restore-on-touch resumes an evicted session
        through the backend, which stores the resumed state as the
        session's durable checkpoint; the server must not then delete
        that entry as a spent eviction, or a worker death before the
        next auto-checkpoint loses the session."""
        trajectory = make_trajectories(1, seed=61)["u0"]
        reference = direct_records({"u0": trajectory})["u0"]
        store = MemorySessionStore()

        async def run():
            server = ReleaseServer(
                make_supervisor(store, checkpoint_every=2),
                store=store,
                config=ServerConfig(workers=2, max_resident=1),
            )
            await server.start()
            client = await AsyncServiceClient.connect("127.0.0.1", server.port)
            try:
                await client.open("u0", seed=1000)
                got = [await client.step("u0", cell) for cell in trajectory[:3]]
                await client.open("other", seed=1)  # evicts u0 at t=3
                assert not server._backend.contains("u0")
                got.append(await client.step("u0", trajectory[3]))  # restores
                victim = server._backend.assignment_of("u0")
                await asyncio.get_running_loop().run_in_executor(
                    None, kill_worker, server._backend, victim
                )
                got += [await client.step("u0", cell) for cell in trajectory[4:]]
            finally:
                await client.close()
                await server.drain()
            return got

        got = asyncio.run(run())
        assert [strip_elapsed(record) for record in got] == reference

    def test_a_checkpoint_behind_a_resume_is_a_typed_loss(self):
        """Without auto-checkpoints the store may hold an explicit
        checkpoint from before the resume, which the journal (restarted
        at the resumed position) cannot bridge: a typed loss, never a
        silently rewound stream."""
        with make_supervisor(MemorySessionStore(), checkpoint_every=0) as sup:
            sup.open("s", seed=7)
            sup.step("s", 3)
            assert sup.checkpoint("s").committed_t == 1
            sup.step("s", 2)
            sup.step("s", 5)
            assert sup.resume(sup.suspend("s")) == "s"
            kill_worker(sup, sup.assignment_of("s"))
            with pytest.raises(WorkerDownError, match="does not meet its journal"):
                sup.step("s", 4)
            assert sup.lost_session_ids() == ["s"]
            assert sup.recovery_stats()["sessions_lost"] == 1


class TestRecoveryOptions:
    def test_negative_checkpoint_every_is_rejected(self):
        with pytest.raises(ValidationError, match="checkpoint_every must be >= 0"):
            ClusterBackend(
                ["tcp://127.0.0.1:1"],
                store=MemorySessionStore(),
                checkpoint_every=-1,
            )

    @pytest.mark.parametrize(
        "options", [{"checkpoint_every": 2}, {"standbys": ["tcp://127.0.0.1:2"]}]
    )
    def test_recovery_options_need_a_store(self, options):
        with pytest.raises(ValidationError, match="need a store"):
            ClusterBackend(["tcp://127.0.0.1:1"], **options)


class TestMembership:
    def test_join_migrates_only_moved_arcs(self):
        newcomer_proc, newcomer = spawn_local_worker(make_manager)
        try:
            trajectories = make_trajectories(32, seed=61)
            reference = reference_records(trajectories)
            with make_supervisor(MemorySessionStore()) as sup:
                for i, name in enumerate(trajectories):
                    sup.open(name, seed=1000 + i)
                before = {
                    n: sup.assignment_of(n) for n in trajectories
                }
                got = {
                    n: [strip(sup.step(n, trajectories[n][0]))]
                    for n in trajectories
                }
                summary = sup.join_worker(newcomer)
                assert summary["joined"] is True
                assert len(summary["workers"]) == 3
                after = {
                    n: sup.assignment_of(n) for n in trajectories
                }
                moved = [n for n in trajectories if after[n] != before[n]]
                # the ring invariant: a session either stayed put or
                # moved to the newcomer -- never between old members
                for name in moved:
                    assert after[name] == summary["worker"]
                assert summary["migrated"] == len(moved)
                assert 0 < len(moved) < len(trajectories)
                status = sup.cluster_status()
                assert len(status["workers"]) == 3
                assert status["recovery"]["sessions_lost"] == 0
                # streams cross the join bit-identically
                for name in trajectories:
                    for cell in trajectories[name][1:]:
                        got[name].append(strip(sup.step(name, cell)))
                assert got == reference
                for name in trajectories:
                    sup.finish(name)
        finally:
            stop_fleet([newcomer_proc])

    def test_join_rejects_a_live_duplicate(self):
        with make_supervisor(MemorySessionStore()) as sup:
            with pytest.raises(ServiceError, match="already"):
                sup.join_worker(sup.worker_addresses()[0])

    def test_leave_drains_a_live_member(self):
        trajectories = make_trajectories(10, seed=67)
        reference = reference_records(trajectories)
        with make_supervisor(MemorySessionStore()) as sup:
            for i, name in enumerate(trajectories):
                sup.open(name, seed=1000 + i)
            got = {
                n: [strip(sup.step(n, trajectories[n][0]))]
                for n in trajectories
            }
            addresses = sup.worker_addresses()
            summary = sup.leave_worker(addresses[0])
            assert summary["workers"] == [addresses[1]]
            assert summary["lost"] == []
            assert sup.worker_addresses() == [addresses[1]]
            for name in trajectories:
                assert sup.assignment_of(name) == addresses[1]
                for cell in trajectories[name][1:]:
                    got[name].append(strip(sup.step(name, cell)))
            assert got == reference
            with pytest.raises(ServiceError, match="the last live worker"):
                sup.leave_worker(addresses[1])

    def test_leave_of_a_dead_worker_rescues_checkpointed_sessions(
        self, tmp_path
    ):
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        with make_supervisor(store, checkpoint_every=1) as sup:
            for i in range(12):
                sup.open(f"u{i}", seed=i)
                sup.step(f"u{i}", 3)
            victim = sup.shard_stats()[0]["worker"]
            on_victim = [
                f"u{i}" for i in range(12)
                if sup.assignment_of(f"u{i}") == victim
            ]
            kill_worker(sup, victim)
            # the supervisor heals before membership forgets the
            # dead worker's assignments: nothing is stranded
            summary = sup.leave_worker(victim)
            assert summary["lost"] == []
            assert len(summary["workers"]) == 1
            assert sup.lost_session_ids() == []
            assert (
                sup.recovery_stats()["sessions_recovered"]
                == len(on_victim)
            )
            for i in range(12):
                sup.step(f"u{i}", 2)


def scenario_spec() -> ScenarioSpec:
    """A spec matching the workers' 4x4/horizon-6 default config shape
    but bound explicitly (sessions carry it in their checkpoints)."""
    return ScenarioSpec(
        grid=GridSpec(rows=4, cols=4),
        chain=ChainSpec.gaussian(sigma=1.0),
        events=(EventSpec.presence_range(0, 5, start=2, end=4),),
        mechanism=MechanismSpec("planar_laplace", {"alpha": 0.5}),
        epsilon=0.5,
        horizon=HORIZON,
        calibration=CalibrationSpec("halving"),
        prior_mode="fixed",
    )


class TestHeterogeneousRecovery:
    def test_scenario_bound_sessions_recover(self, tmp_path):
        """A mixed fleet -- default-config and ScenarioSpec-bound
        sessions -- recovers both kinds: checkpoints embed the spec, so
        the surviving worker re-materializes the right models."""
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        spec = scenario_spec()
        trajectories = make_trajectories(12, seed=71)
        names = list(trajectories)
        bound = {n for i, n in enumerate(names) if i % 2}
        manager = make_manager()
        for i, name in enumerate(names):
            manager.open(
                name,
                rng=1000 + i,
                scenario=spec if name in bound else None,
            )
        reference = {
            name: [strip(manager.step(name, c)) for c in trajectory]
            for name, trajectory in trajectories.items()
        }
        with make_supervisor(store, checkpoint_every=2) as sup:
            for i, name in enumerate(names):
                sup.open(
                    name, seed=1000 + i,
                    scenario=spec if name in bound else None,
                )
            got = {n: [] for n in names}
            for t in range(3):
                for name in names:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            victim = sup.shard_stats()[0]["worker"]
            kill_worker(sup, victim)
            for t in range(3, HORIZON):
                for name in names:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            assert got == reference
            assert sup.lost_session_ids() == []

    def test_previous_schema_checkpoint_recovers(self, tmp_path):
        """A v1 checkpoint (a PR-1 build's format) sitting in the store
        still recovers a killed session."""
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        trajectories = make_trajectories(6, seed=73)
        reference = reference_records(trajectories)
        with make_supervisor(store, checkpoint_every=0) as sup:
            for i, name in enumerate(trajectories):
                sup.open(name, seed=1000 + i)
            got = {n: [] for n in trajectories}
            for t in range(3):
                for name in trajectories:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            for name in trajectories:
                state = sup.checkpoint(name)
                data = state.to_json()
                assert data["schema"] == 2
                del data["schema"]
                del data["scenario"]
                store.put(
                    SessionState.from_json(json.loads(json.dumps(data)))
                )
            victim = sup.shard_stats()[0]["worker"]
            kill_worker(sup, victim)
            for t in range(3, HORIZON):
                for name in trajectories:
                    got[name].append(
                        strip(sup.step(name, trajectories[name][t]))
                    )
            assert got == reference
            assert sup.lost_session_ids() == []


class TestScriptedKill:
    def test_kill_mid_batch_is_healed(self, tmp_path):
        """A FaultPlan kill fires *inside* an in-flight batched wave:
        the killing steps are never acknowledged, the supervisor
        recovers the worker's sessions and the retried wave regenerates
        the identical records."""
        armed_proc, armed = spawn_local_worker(
            make_manager, fault_plan=FaultPlan(kill_at_step=5)
        )
        calm_proc, calm = spawn_local_worker(make_manager)
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        try:
            trajectories = make_trajectories(16, seed=79)
            reference = reference_records(trajectories)
            with make_supervisor(
                store, addresses=[armed, calm], checkpoint_every=1
            ) as sup:
                for i, name in enumerate(trajectories):
                    sup.open(name, seed=1000 + i)
                on_armed = [
                    n for n in trajectories
                    if sup.assignment_of(n) == armed
                ]
                assert on_armed  # the scripted kill must have victims
                got = {n: [] for n in trajectories}
                for t in range(HORIZON):
                    records, errors = sup.step_batch(
                        {n: trajectories[n][t] for n in trajectories}
                    )
                    assert errors == {}, f"dropped streams: {sorted(errors)}"
                    for name, record in records.items():
                        got[name].append(strip(record))
                assert got == reference
                assert sup.lost_session_ids() == []
                stats = sup.recovery_stats()
                assert stats["sessions_recovered"] == len(on_armed)
                assert armed_proc.exitcode == 137  # died exactly as scripted
        finally:
            stop_fleet([armed_proc, calm_proc])


class TestCachedStatus:
    """``cluster_status`` takes only the bookkeeping lock and makes no
    RPC, so it answers live at once even mid-recovery: no snapshot
    cached before a worker death can list the dead worker alive."""

    @staticmethod
    def status_under_recovery_lock(sup, kill=None):
        """``cluster_status`` while a recovery pass holds the exclusive
        lock, after SIGKILLing the worker ``kill``; with its wall time."""
        assert sup._recovery_lock.acquire(blocking=False)
        try:
            if kill is not None:
                kill_worker(sup, kill)
            started = time.monotonic()
            status = sup.cluster_status()
            return status, time.monotonic() - started
        finally:
            sup._recovery_lock.release()

    def test_status_serves_cached_view_mid_recovery(self):
        """A call before the recovery, then a worker death: the call
        under the lock lists the dead worker ``alive: false`` (the
        regression: a snapshot cached by the first call listed it
        alive)."""
        with make_supervisor(MemorySessionStore()) as sup:
            live = sup.cluster_status()
            assert "cached" not in live
            assert [w["alive"] for w in live["workers"]] == [True, True]
            victim = live["workers"][0]["worker"]
            held, elapsed = self.status_under_recovery_lock(sup, kill=victim)
            assert elapsed < 1.0
            alive = {w["worker"]: w["alive"] for w in held["workers"]}
            assert alive == {victim: False, live["workers"][1]["worker"]: True}
            # recovery counters and standby rows are live too
            assert held["recovery"]["sessions_lost"] == 0
            assert held["standbys"] == []

    def test_first_status_under_the_lock_goes_live(self):
        """With no call before the recovery pass, a call under the lock
        lists a worker that died ``alive: false`` all the same."""
        with make_supervisor(MemorySessionStore()) as sup:
            survivor, victim = sup.worker_addresses()
            status, elapsed = self.status_under_recovery_lock(sup, kill=victim)
            assert elapsed < 1.0
            alive = {w["worker"]: w["alive"] for w in status["workers"]}
            assert alive == {survivor: True, victim: False}


class TestStandbys:
    def test_dead_member_is_replaced_by_a_warm_standby(self, tmp_path):
        """The membership actuator closes PR 8's operator loop: a kill
        heals sessions onto the survivor *and* auto-joins the pooled
        standby in the corpse's place -- bit-identical streams, zero
        loss, one counted promotion."""
        standby_proc, standby = spawn_local_worker(make_manager)
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        metrics = ServiceMetrics()
        try:
            trajectories = make_trajectories(24, seed=83)
            reference = reference_records(trajectories)
            with make_supervisor(
                store,
                checkpoint_every=1,
                standbys=[standby],
                standby_check_interval_s=0.05,
            ) as sup:
                sup.bind_metrics(metrics)
                deadline = time.time() + 10.0
                while time.time() < deadline:
                    rows = sup.standby_status()
                    if rows and rows[0]["healthy"]:
                        break
                    time.sleep(0.02)
                assert sup.standby_status() == [
                    {"worker": standby, "healthy": True}
                ]
                for i, name in enumerate(trajectories):
                    sup.open(name, seed=1000 + i)
                got = {n: [] for n in trajectories}
                for t in range(3):
                    for name in trajectories:
                        got[name].append(
                            strip(sup.step(name, trajectories[name][t]))
                        )
                victim = sup.shard_stats()[0]["worker"]
                survivor = next(
                    a for a in sup.worker_addresses() if a != victim
                )
                kill_worker(sup, victim)
                for t in range(3, HORIZON):
                    for name in trajectories:
                        got[name].append(
                            strip(sup.step(name, trajectories[name][t]))
                        )
                assert got == reference
                assert sup.lost_session_ids() == []
                # the fleet healed to full strength without an operator
                assert sorted(sup.worker_addresses()) == sorted(
                    [survivor, standby]
                )
                assert sup.standby_status() == []  # pool spent
                stats = sup.recovery_stats()
                assert stats["standby_promotions"] == 1
                assert stats["standbys_pooled"] == 0
                assert stats["sessions_lost"] == 0
                assert metrics.snapshot()["standby_promotions"] == 1
        finally:
            stop_fleet([standby_proc])

    def test_without_a_standby_the_corpse_stays_visible(self):
        """An empty pool must not silently shrink the fleet: the dead
        member remains in membership, reporting the hole."""
        metrics = ServiceMetrics()
        with make_supervisor(
            MemorySessionStore(), checkpoint_every=1
        ) as sup:
            sup.bind_metrics(metrics)
            victim = sup.worker_addresses()[0]
            kill_worker(sup, victim)
            sup._run_recoveries(wait=True)
            assert victim in sup.worker_addresses()
            assert sup.recovery_stats()["standby_promotions"] == 0
            assert metrics.snapshot()["standby_promotions"] == 0

    def test_a_batched_step_that_meets_a_death_waits_for_the_promotion(
        self, tmp_path
    ):
        """A batch member whose worker died returns only once the
        recovery pass the death started is over, standby promotion
        included, as a solo step does -- also when that pass rescues the
        member before the member's own retry runs."""
        standby_proc, standby = spawn_local_worker(make_manager)
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        try:
            with make_supervisor(
                store, checkpoint_every=1, standbys=[standby],
                standby_check_interval_s=0,
            ) as sup:
                for i in range(8):
                    sup.open(f"u{i}", seed=i)
                victim = sup.worker_addresses()[0]
                doomed = sorted(
                    s for s in sup.session_ids() if sup.assignment_of(s) == victim
                )
                assert doomed
                kill_worker(sup, victim)
                # A busy scheduler: the retry runs after the pass has
                # rescued the member, and the promotion takes a while.
                step, join = sup.step, sup.join_worker

                def late_step(sid, cell):
                    time.sleep(0.3)
                    return step(sid, cell)

                def slow_join(address):
                    time.sleep(0.6)
                    return join(address)

                sup.step, sup.join_worker = late_step, slow_join
                records, errors = sup.step_batch({doomed[0]: 3})
                assert errors == {} and records[doomed[0]].t == 1
                assert sup.recovery_stats()["standby_promotions"] == 1
        finally:
            stop_fleet([standby_proc])

    def test_standby_promotion_under_load(self, tmp_path):
        """The chaos drill: a worker dies while concurrent drivers are
        actively stepping a durable fleet.  Every stream heals inline
        and finishes bit-identical, zero sessions are lost, and the
        warm standby is holding the corpse's arcs by the time the load
        completes."""
        standby_proc, standby = spawn_local_worker(make_manager)
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        try:
            trajectories = make_trajectories(32, seed=89)
            reference = reference_records(trajectories)
            names = list(trajectories)
            with make_supervisor(
                store, checkpoint_every=1, standbys=[standby]
            ) as sup:
                for i, name in enumerate(names):
                    sup.open(name, seed=1000 + i)
                got = {n: [] for n in names}
                errors: list[Exception] = []
                started = threading.Barrier(5)

                def drive(shard: list[str]) -> None:
                    try:
                        started.wait(timeout=10)
                        for t in range(HORIZON):
                            for name in shard:
                                got[name].append(
                                    strip(sup.step(name, trajectories[name][t]))
                                )
                                time.sleep(0.002)  # paced, not lockstep
                    except Exception as error:  # pragma: no cover
                        errors.append(error)

                threads = [
                    threading.Thread(target=drive, args=(names[k::4],))
                    for k in range(4)
                ]
                for thread in threads:
                    thread.start()
                started.wait(timeout=10)
                time.sleep(0.05)  # the fleet is mid-flight
                victim = sup.shard_stats()[0]["worker"]
                survivor = next(
                    a for a in sup.worker_addresses() if a != victim
                )
                kill_worker(sup, victim)
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert got == reference  # bit-identical across the kill
                assert sup.lost_session_ids() == []
                stats = sup.recovery_stats()
                assert stats["sessions_lost"] == 0
                assert stats["standby_promotions"] == 1
                assert sorted(sup.worker_addresses()) == sorted(
                    [survivor, standby]
                )
                # the promoted standby is really serving: it owns ring
                # arcs and answers steps (the fleet is at full strength)
                status = sup.cluster_status()
                standby_row = next(
                    row for row in status["workers"]
                    if row["worker"] == standby
                )
                assert standby_row["alive"] is True
                assert standby_row["ring_points"] > 0
        finally:
            stop_fleet([standby_proc])


def cascading_session(ring, armed: str) -> str:
    """A session id whose ring order puts ``armed`` second: it lives on
    another worker, and ``armed`` is its first restore target."""
    return next(
        f"s{i}"
        for i in itertools.count()
        if ring.successors(f"s{i}")[1] == armed
    )


class TestCascade:
    def test_restore_retries_past_a_dying_target(self, tmp_path):
        """The session's home dies, and so does the first worker its
        checkpoint is restored onto, on the first replayed step: the
        restore walks on to the next successor and replays there."""
        first_proc, first = spawn_local_worker(make_manager)
        armed_proc, armed = spawn_local_worker(
            make_manager, fault_plan=FaultPlan(kill_at_step=1)
        )
        last_proc, last = spawn_local_worker(make_manager)
        store = DirectorySessionStore(str(tmp_path / "ckpt"))
        manager = make_manager()
        manager.open("ref", rng=7)
        try:
            with make_supervisor(store, addresses=[first, armed, last]) as sup:
                sid = cascading_session(sup._placement_ring(), armed)
                assert sup.open(sid, seed=7) == HORIZON
                home = sup.assignment_of(sid)
                (survivor,) = {first, last} - {home}
                sup.step(sid, 3)
                assert sup.checkpoint(sid).committed_t == 1
                # the journal holds two steps acked past the checkpoint
                sup.step(sid, 2)
                sup.step(sid, 5)
                kill_worker(sup, home)
                record = sup.step(sid, 4)  # heals through the cascade
                assert armed_proc.exitcode == 137  # died replaying
                assert sup.assignment_of(sid) == survivor
                for cell in (3, 2, 5):
                    manager.step("ref", cell)
                assert strip(record) == strip(manager.step("ref", 4))
                stats = sup.recovery_stats()
                assert stats["sessions_recovered"] == 1
                assert stats["steps_replayed"] == 2
                assert stats["sessions_lost"] == 0
                assert sup.lost_session_ids() == []
                # the restored checkpoint replayed exactly cells [2, 5]
                assert sup.finish(sid).true_cells == [3, 2, 5, 4]
        finally:
            stop_fleet([first_proc, armed_proc, last_proc])

    def test_total_fleet_death_keeps_the_checkpoint(self):
        store = MemorySessionStore()
        with make_supervisor(
            store,
            retry=RetryPolicy(
                attempts=2, base_delay_s=0.001, deadline_s=1.0, seed=3
            ),
        ) as sup:
            sup.open("s1", seed=7)
            sup.step("s1", 3)
            checkpoint = sup.checkpoint("s1")
            for address in sup.worker_addresses():
                kill_worker(sup, address)
            sup._run_recoveries(wait=True)
            assert sup.lost_session_ids() == ["s1"]
            stats = sup.recovery_stats()
            assert stats["sessions_lost"] == 1
            assert stats["sessions_recovered"] == 0
            with pytest.raises(WorkerDownError, match="no live worker"):
                sup.step("s1", 2)
            # the checkpoint survives for restore-on-touch once capacity
            # returns
            assert store.get("s1").to_json() == checkpoint.to_json()
