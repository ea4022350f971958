"""Seeded served-path histories, checked by replay.

Each seed draws one history of 60-80 requests from ``random.Random(seed)``
and sends it over two connections to one :class:`ReleaseServer` with
``workers=2`` and ``max_resident=2``, so sessions share step batches
and pool slots, and most of them are evicted and restored on the way.
The ops: opens, steps pipelined two to four deep per session, budget
peeks, checkpoints, and finishes that reopen under a fresh name.  Every
session lives on one connection; its requests go out without waiting
for replies, and the history only waits at random points.

The oracle is one in-process :class:`~repro.engine.SessionManager` that
replays each session's requests in the order they were sent: every
reply -- release record, budget, checkpoint state, finish summary --
must equal the oracle's, and every error must carry the oracle's error
code.  A server that runs a session's ops in any other order than the
client sent them fails here.
"""

import asyncio
import json
import random

import pytest

from repro.errors import ReproError
from repro.service import AsyncServiceClient, ReleaseServer, ServerConfig
from repro.service.protocol import error_code_for

from topology import HORIZON, N_CELLS, make_manager, strip_elapsed

SEEDS = tuple(range(8))

#: Relative draw weights of the ops.
WEIGHTS = {"open": 2.0, "steps": 5.0, "peek": 2.0, "checkpoint": 2.0, "finish": 1.5}

#: Most sessions open at once; an ``open`` past it finishes one first.
MAX_LIVE = 5

#: Chance, after each op, that the history waits for every reply.
SETTLE = 0.15


def outcome(op, *args):
    """``op``'s value, or the wire code of the typed error it raised."""
    try:
        return op(*args)
    except ReproError as error:
        return error_code_for(error)


def timeless(reply):
    """A reply without wall-clock times: a release record's, or those of
    the records inside a checkpoint's state."""
    if not isinstance(reply, dict):
        return reply
    if "state" in reply:
        state = dict(reply["state"])
        state["records"] = [strip_elapsed(r) for r in state["records"]]
        return dict(reply, state=state)
    return strip_elapsed(reply)


async def served(request):
    """A sent request's :func:`timeless` reply, or the wire code of its
    typed error."""
    try:
        return timeless(await request)
    except ReproError as error:
        return error_code_for(error)


def replay(oracle, sid: str, op: str, arg):
    """One op on the oracle, in the served reply's form."""
    if op == "open":
        return outcome(oracle.open, sid, arg)
    if op == "step":
        record = outcome(oracle.step, sid, arg)
        return record if isinstance(record, str) else timeless(record.to_json())
    if op == "peek":
        return outcome(oracle.peek_budget, sid)
    if op == "checkpoint":
        state = outcome(oracle.checkpoint, sid)
        if isinstance(state, str):
            return state
        return timeless({
            "session": sid,
            "t": state.committed_t,
            "state": json.loads(json.dumps(state.to_json())),
        })
    log = outcome(oracle.finish, sid)
    if isinstance(log, str):
        return log
    return {
        "session": sid,
        "n_released": len(log),
        "average_budget": log.average_budget if len(log) else None,
        "n_conservative": log.n_conservative,
    }


async def run_history(seed: int) -> tuple[list[str], dict]:
    """Send one seeded history and check every reply against the oracle.

    Returns the ops sent, for the coverage check, and the server's
    final ``stats``."""
    rng = random.Random(seed)
    n_ops = rng.randint(60, 80)
    names, weights = zip(*WEIGHTS.items())
    server = ReleaseServer(
        make_manager(), config=ServerConfig(workers=2, max_resident=2)
    )
    await server.start()
    clients = [
        await AsyncServiceClient.connect("127.0.0.1", server.port) for _ in range(2)
    ]
    # sid -> [(op, arg, reply task)] in send order
    sent: dict[str, list[tuple]] = {}
    home: dict[str, AsyncServiceClient] = {}
    steps_sent: dict[str, int] = {}  # live session -> steps sent
    ran: list[str] = []
    opened = 0

    def send(sid: str, op: str, arg=None) -> None:
        client = home[sid]
        if op == "open":
            request = client.open(sid, seed=arg)
        elif op == "step":
            request = client.step(sid, arg)
        elif op == "peek":
            request = client.peek_budget(sid)
        elif op == "checkpoint":
            request = client.checkpoint(sid)
        else:
            request = client.finish(sid)
        # Tasks start in creation order, so frames go out in send order.
        sent[sid].append((op, arg, asyncio.ensure_future(served(request))))
        ran.append(op)

    def open_fresh(client: AsyncServiceClient) -> None:
        nonlocal opened
        sid, opened = f"h{seed}-{opened}", opened + 1
        home[sid] = client
        sent[sid] = []
        steps_sent[sid] = 0
        send(sid, "open", rng.randrange(2**31))

    def finish(sid: str) -> None:
        send(sid, "finish")
        del steps_sent[sid]

    async def settle() -> None:
        """Wait for every reply sent so far."""
        await asyncio.gather(*(task for ops in sent.values() for *_, task in ops))

    try:
        while len(ran) < n_ops:
            op = rng.choices(names, weights)[0]
            live = sorted(steps_sent)
            steppable = [sid for sid in live if steps_sent[sid] < HORIZON]
            if not live or (op == "steps" and not steppable):
                op = "open"
            if op == "open":
                if len(live) >= MAX_LIVE:
                    finish(live[int(rng.random() * len(live))])
                open_fresh(clients[opened % len(clients)])
            elif op == "steps":
                sid = steppable[int(rng.random() * len(steppable))]
                depth = min(rng.randint(2, 4), HORIZON - steps_sent[sid])
                for _ in range(depth):
                    send(sid, "step", rng.randrange(N_CELLS))
                steps_sent[sid] += depth
            elif op in ("peek", "checkpoint"):
                send(live[int(rng.random() * len(live))], op)
            else:
                # Finish one session and reopen under a fresh name on
                # its connection, right behind the finish.
                sid = live[int(rng.random() * len(live))]
                finish(sid)
                open_fresh(home[sid])
            if rng.random() < SETTLE:
                await settle()
        for sid in sorted(steps_sent):
            finish(sid)
        await settle()
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
        await server.drain()

    oracle = make_manager()
    for sid, ops in sent.items():
        for index, (op, arg, task) in enumerate(ops):
            assert task.result() == replay(oracle, sid, op, arg), (
                f"seed {seed}: {sid} op {index} ({op})"
            )
    return ran, stats


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_served_history_matches_the_oracle(seed):
    ran, stats = asyncio.run(run_history(seed))
    assert {"open", "step", "peek", "checkpoint", "finish"} <= set(ran)
    assert stats["errors"].get("internal", 0) == 0
    assert stats["sessions"]["evicted"] > 0
