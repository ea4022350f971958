"""Seeded histories against a recovering worker fleet, checked by replay.

Each seed draws one history of 60-80 ops from ``random.Random(seed)``:
opens, solo steps, batched waves over a random subset (so sessions sit
at different timestamps), budget peeks, checkpoints, suspend-then-resume
round trips (the server's eviction), live drains of a member that is
not the last, finishes, at most one runtime join of a freshly spawned
worker and at most one SIGKILL of a live member.  The fleet is two
heartbeat-free local workers over a durable directory store with
``checkpoint_every=2`` and one pooled standby, so the kill exercises
checkpoint-replay recovery and standby promotion.

The oracle is one in-process :class:`~repro.engine.SessionManager` that
replays every acknowledged op in order:

* every acknowledged record and every ``peek_budget`` equals the
  oracle's;
* every error is typed (:class:`~repro.errors.ReproError`);
* no session is lost, and every session finishes with the oracle's
  full log.

Seeds rather than Hypothesis, because every history spawns worker
processes; a failing seed replays the same op sequence.
"""

import random

import pytest

from repro.cluster.backend import ClusterBackend
from repro.cluster.worker import spawn_local_worker
from repro.errors import ReproError
from repro.service.store import DirectorySessionStore

from test_cluster_backend import stop_fleet
from topology import HORIZON, N_CELLS, kill_worker, make_manager, strip

SEEDS = tuple(range(8))

#: Relative draw weights of the ops; ``join`` and ``kill`` are not
#: drawn but scheduled once per history (see :func:`run_history`).
WEIGHTS = {
    "open": 3.0,
    "step": 6.0,
    "batch": 6.0,
    "peek": 2.0,
    "checkpoint": 2.0,
    "evict": 2.0,
    "drain": 1.0,
    "finish": 1.5,
}


def recovering_fleet(store, standby: str):
    """Two heartbeat-free local workers, auto-checkpointing every 2
    steps into ``store``, with ``standby`` pooled for promotion."""
    return ClusterBackend.spawn_local(
        make_manager,
        2,
        heartbeat_interval_s=0,
        store=store,
        checkpoint_every=2,
        standbys=[standby],
    )


def pick(rng: random.Random, items: list):
    """One of ``items`` from exactly one draw, so the draw sequence
    never depends on how many items there are."""
    return items[int(rng.random() * len(items))]


def outcome(op, *args):
    """``op``'s value, or the type of the typed error it raised (an
    exhausted session has no next budget)."""
    try:
        return op(*args)
    except ReproError as error:
        return type(error)


def members(cluster) -> tuple[list[str], list[str]]:
    """``(live, placing)``: live members, and those still taking
    placements (live and not draining)."""
    rows = cluster.worker_health()
    live = sorted(row["worker"] for row in rows if row["alive"])
    placing = sorted(
        row["worker"] for row in rows if row["alive"] and not row["draining"]
    )
    return live, placing


def run_history(seed: int, store_dir: str) -> list[str]:
    """Drive one seeded history and check it against the oracle.

    Returns the ops that ran, for the coverage check."""
    rng = random.Random(seed)
    n_ops = rng.randint(60, 80)
    join_at = rng.randrange(n_ops // 4, 3 * n_ops // 4)
    kill_at = rng.randrange(n_ops // 4, 3 * n_ops // 4)
    names, weights = zip(*WEIGHTS.items())
    oracle = make_manager()
    t: dict[str, int] = {}  # open session -> acknowledged steps
    opened = 0
    ran: list[str] = []
    spawned = []
    standby_proc, standby = spawn_local_worker(make_manager)
    spawned.append(standby_proc)

    def check(label, op, *args):
        try:
            return op(*args)
        except ReproError as error:
            pytest.fail(f"seed {seed}, op {len(ran)} ({label}): {error!r}")

    try:
        with recovering_fleet(DirectorySessionStore(store_dir), standby) as cluster:
            for index in range(n_ops):
                op = rng.choices(names, weights)[0]
                if index >= join_at and "join" not in ran:
                    op = "join"
                elif index >= kill_at and "kill" not in ran:
                    op = "kill"
                steppable = sorted(sid for sid, at in t.items() if at < HORIZON)
                if op != "open" and not t:
                    op = "open"
                if op in ("step", "batch") and not steppable:
                    op = "open"
                if op == "open":
                    sid, opened = f"h{seed}-{opened}", opened + 1
                    session_seed = rng.randrange(2**31)
                    assert check(op, cluster.open, sid, session_seed) == HORIZON
                    oracle.open(sid, rng=session_seed)
                    t[sid] = 0
                elif op == "step":
                    sid = pick(rng, steppable)
                    cell = rng.randrange(N_CELLS)
                    record = check(op, cluster.step, sid, cell)
                    assert strip(record) == strip(oracle.step(sid, cell)), (seed, index)
                    t[sid] += 1
                elif op == "batch":
                    chosen = [sid for sid in steppable if rng.random() < 0.6]
                    cells = {sid: rng.randrange(N_CELLS) for sid in chosen or steppable[:1]}
                    records, errors = cluster.step_batch(cells)
                    assert all(isinstance(e, ReproError) for e in errors.values())
                    assert errors == {}, (seed, index, errors)
                    for sid, cell in cells.items():
                        assert strip(records[sid]) == strip(oracle.step(sid, cell)), (
                            seed, index, sid,
                        )
                        t[sid] += 1
                elif op == "peek":
                    sid = pick(rng, sorted(t))
                    got = outcome(cluster.peek_budget, sid)
                    assert got == outcome(oracle.peek_budget, sid), (seed, index)
                elif op == "checkpoint":
                    sid = pick(rng, sorted(t))
                    assert check(op, cluster.checkpoint, sid).committed_t == t[sid]
                elif op == "evict":
                    sid = pick(rng, sorted(t))
                    state = check(op, cluster.suspend, sid)
                    assert state.committed_t == t[sid]
                    assert check(op, cluster.resume, state) == sid
                elif op == "drain":
                    _, placing = members(cluster)
                    target = pick(rng, placing)
                    if len(placing) < 2:
                        continue  # never drain the last placing member
                    summary = check(op, cluster.drain_worker, target)
                    assert summary["worker"] == target
                elif op == "finish":
                    sid = pick(rng, sorted(t))
                    log = check(op, cluster.finish, sid)
                    assert [strip(r) for r in log.records] == [
                        strip(r) for r in oracle.finish(sid).records
                    ], (seed, index)
                    del t[sid]
                elif op == "join":
                    process, address = spawn_local_worker(make_manager)
                    spawned.append(process)
                    summary = check(op, cluster.join_worker, address)
                    assert summary["worker"] == address
                elif op == "kill":
                    live, placing = members(cluster)
                    victim = pick(rng, live)
                    if victim in placing and len(placing) < 2:
                        continue  # someone must be left to recover onto
                    kill_worker(cluster, victim)
                ran.append(op)
            for sid in sorted(t):
                log = check("finish", cluster.finish, sid)
                assert [strip(r) for r in log.records] == [
                    strip(r) for r in oracle.finish(sid).records
                ], (seed, sid)
            assert cluster.lost_session_ids() == []
    finally:
        stop_fleet(spawned)
    return ran


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_history_matches_the_oracle(seed, tmp_path):
    ran = run_history(seed, str(tmp_path / "store"))
    assert {"open", "step", "batch", "evict", "finish"} <= set(ran)
