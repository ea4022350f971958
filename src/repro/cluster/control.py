"""The cluster's recovery vocabulary: one retry policy, one step journal.

:class:`~repro.cluster.backend.ClusterBackend` heals a dead worker's
sessions instead of losing them.  Because every session is
deterministic given its seed and scenario, and engine checkpoints are
exact, a lost session can be *rebuilt*: restore its last durable
checkpoint onto a surviving worker and replay the steps the client has
already been acknowledged for.  The replayed stream is bit-identical to
the one the dead worker was producing, so worker death degrades to a
latency blip instead of data loss.  Two pieces of that live here:

* :class:`RetryPolicy` -- one jittered-exponential-backoff policy with
  a per-op deadline budget, shared by every retry loop in the cluster
  layer (an op healing across a worker death, a recovery's restore
  walking past a dying target).  Seedable, so tests get deterministic
  schedules.
* :class:`StepJournal` -- the router's memory of acknowledged steps
  since each session's last durable checkpoint.  Replay needs exactly
  this: the checkpoint pins a position, the journal carries the cells
  observed past it.  ``checkpoint_every`` bounds its length (and thus
  worst-case replay work).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random
from typing import Iterator

__all__ = ["RetryPolicy", "StepJournal"]


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff under a total deadline budget.

    One policy object describes every retry loop in the cluster layer:
    ``attempts`` tries overall, no delay before the first, then
    ``base_delay_s * 2^(k-1)`` capped at ``max_delay_s`` and inflated by
    up to ``jitter`` (a fraction), all bounded by ``deadline_s`` of
    wall-clock from the first attempt.  ``seed`` makes the jitter
    sequence reproducible (``None`` draws fresh randomness).
    """

    attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    deadline_s: float = 60.0
    jitter: float = 0.5
    seed: int | None = None

    def schedule(self) -> Iterator[float]:
        """Yield the pre-attempt sleep for each permitted attempt.

        The first yielded value is always ``0.0``; the generator stops
        early when the next backoff would overrun the deadline, so a
        loop ``for delay in policy.schedule(): sleep(delay); try(...)``
        respects both the attempt and the time budget.
        """
        rng = Random(self.seed)
        deadline = time.monotonic() + self.deadline_s
        for attempt in range(max(1, int(self.attempts))):
            if attempt == 0:
                yield 0.0
                continue
            delay = min(self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1)))
            delay *= 1.0 + self.jitter * rng.random()
            if time.monotonic() + delay >= deadline:
                return
            yield delay


class StepJournal:
    """Acknowledged cells for one session since its durable checkpoint.

    ``base_t`` is the timestamp of the checkpoint currently in the
    store; ``cells`` are the inputs of every step acknowledged after it,
    in order.  Restoring the checkpoint and replaying ``cells``
    reproduces the session at exactly the client-observed position --
    bit-identically, by engine determinism.
    """

    __slots__ = ("base_t", "cells")

    def __init__(self, base_t: int = 0):
        self.base_t = int(base_t)
        self.cells: list[int] = []

    def reset(self, base_t: int) -> None:
        """A new durable checkpoint landed at ``base_t``."""
        self.base_t = int(base_t)
        self.cells.clear()
