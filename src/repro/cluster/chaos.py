"""Deterministic fault injection for cluster drills.

Recovery code is only trustworthy when its failure paths run on every
test and CI pass, not just on unlucky days in production.  This module
makes worker failure a *scripted, seeded input* instead of a
sleep-and-hope race:

* :class:`FaultPlan` -- a frozen, JSON-round-trippable description of
  the faults one worker should exhibit: die (or hang) at exactly the
  Nth engine step it executes, delay every engine op by a seeded
  duration, stop answering heartbeats after the Nth step.
* :class:`FaultInjector` -- the runtime counterpart a
  :class:`~repro.cluster.worker.WorkerServer` consults.  Step counting
  happens *before* the op executes, so a worker killed "at step N"
  never acknowledges step N -- exactly the crash window checkpoint
  replay must cover.
* :class:`ChaosChannel` -- a transport-layer wrapper that injects the
  same seeded delays under any :class:`~repro.cluster.transport`
  channel, for drills that need jitter on the wire rather than in the
  worker.

Every delay derives from ``FaultPlan.seed`` through its own
``random.Random``, so two runs of the same plan misbehave identically.
Plans travel as JSON (``repro worker --fault-plan FILE``) and as plain
dataclasses (:func:`~repro.cluster.worker.spawn_local_worker`'s
``fault_plan=``), and validation is strict: an unknown key or a
negative threshold is a :class:`~repro.errors.ValidationError`, not a
silently ignored typo that makes a drill vacuously pass.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass, fields

from ..errors import ValidationError

__all__ = ["ChaosChannel", "FaultInjector", "FaultPlan"]

#: Engine ops that advance sessions and therefore count toward the
#: step-indexed fault thresholds (``step_batch`` counts one per member).
_STEP_OPS = ("step", "step_batch")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of one worker's misbehaviour.

    All step thresholds index the worker's *executed-step counter*: the
    total number of session steps this worker has been asked to run,
    counted before execution (a batched wave of k sessions advances the
    counter by k at once).

    Parameters
    ----------
    seed:
        Seeds every random choice the plan makes (delays); two injectors
        built from equal plans produce identical schedules.
    kill_at_step:
        Hard-kill the worker process (``os._exit``) the moment its step
        counter would reach this value -- before the step runs, so the
        killing step is never acknowledged.
    hang_at_step:
        From this step on, engine ops are accepted but never answered
        (heartbeats still pong): the router sees a *hung* worker and
        must rely on its RPC deadline.
    rpc_delay_ms / rpc_jitter_ms:
        Delay every engine op by ``rpc_delay_ms`` plus a seeded uniform
        draw from ``[0, rpc_jitter_ms]`` milliseconds.
    blackhole_after_step:
        Once the step counter reaches this value, heartbeat pings go
        unanswered while engine ops keep working -- the
        partial-partition case heartbeat timeouts exist for.
    """

    seed: int = 0
    kill_at_step: int | None = None
    hang_at_step: int | None = None
    rpc_delay_ms: float = 0.0
    rpc_jitter_ms: float = 0.0
    blackhole_after_step: int | None = None

    def __post_init__(self):
        for name in ("kill_at_step", "hang_at_step"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValidationError(
                    f"fault plan {name} must be a positive step index, "
                    f"got {value!r}"
                )
        blackhole = self.blackhole_after_step
        if blackhole is not None and (
            not isinstance(blackhole, int) or blackhole < 0
        ):
            raise ValidationError(
                "fault plan blackhole_after_step must be a non-negative "
                f"step count, got {blackhole!r}"
            )
        for name in ("rpc_delay_ms", "rpc_jitter_ms"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValidationError(
                    f"fault plan {name} must be a non-negative number, "
                    f"got {value!r}"
                )

    def to_json(self) -> dict:
        """The plan as a JSON-safe dict (inverse of :meth:`from_json`)."""
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "FaultPlan":
        """Parse and validate a plan dict; unknown keys are errors."""
        if not isinstance(payload, dict):
            raise ValidationError(
                f"a fault plan must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError(
                f"unknown fault plan keys {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        return cls(**payload)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--fault-plan`` format)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as error:
            raise ValidationError(
                f"cannot read fault plan {path!r}: {error}"
            ) from error
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"fault plan {path!r} is not valid JSON: {error}"
            ) from error
        return cls.from_json(payload)


class FaultInjector:
    """Runtime evaluation of a :class:`FaultPlan` inside one worker.

    Thread-safe: the worker's event loop consults :meth:`blackholed`
    while :meth:`on_engine_op` runs from frame handling.  The injector
    is the single authority on the step counter, so kill/hang/blackhole
    thresholds all observe the same deterministic sequence.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._steps = 0
        self._lock = threading.Lock()

    @property
    def steps(self) -> int:
        """Session steps this worker has been asked to execute so far."""
        with self._lock:
            return self._steps

    def on_engine_op(self, op: str, args) -> str | None:
        """Account one engine op *before* it executes.

        Returns the action the worker must take: ``"kill"`` (exit the
        process immediately -- the op is never acknowledged), ``"hang"``
        (accept but never answer) or ``None`` (run it normally).
        """
        if op == "step":
            advance = 1
        elif op == "step_batch":
            try:
                advance = len(args)
            except TypeError:
                advance = 1
        else:
            advance = 0
        plan = self.plan
        with self._lock:
            before = self._steps
            self._steps = before + advance
            if (
                plan.kill_at_step is not None
                and before < plan.kill_at_step <= self._steps
            ):
                return "kill"
            if (
                plan.hang_at_step is not None
                and advance
                and self._steps >= plan.hang_at_step
            ):
                return "hang"
        return None

    def delay_s(self) -> float:
        """The seeded delay (seconds) to apply before the next engine op."""
        plan = self.plan
        if not plan.rpc_delay_ms and not plan.rpc_jitter_ms:
            return 0.0
        with self._lock:
            jitter = plan.rpc_jitter_ms * self._rng.random()
        return (plan.rpc_delay_ms + jitter) / 1000.0

    def blackholed(self) -> bool:
        """True once heartbeats should vanish (engine ops still served)."""
        after = self.plan.blackhole_after_step
        if after is None:
            return False
        with self._lock:
            return self._steps >= after


class ChaosChannel:
    """Wrap a transport channel with seeded, deterministic send delays.

    Implements the same surface as the wrapped
    :class:`~repro.cluster.transport.SocketChannel`, so it drops into
    any code that talks frames.  Delays apply on :meth:`send` -- the caller
    side of an RPC -- which is where wire jitter perturbs request
    interleaving without distorting receive deadlines.
    """

    def __init__(self, channel, plan: FaultPlan):
        self._channel = channel
        self._plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()

    @property
    def max_frame_bytes(self) -> int:
        return self._channel.max_frame_bytes

    def _delay(self) -> None:
        plan = self._plan
        if not plan.rpc_delay_ms and not plan.rpc_jitter_ms:
            return
        with self._lock:
            jitter = plan.rpc_jitter_ms * self._rng.random()
        time.sleep((plan.rpc_delay_ms + jitter) / 1000.0)

    def send(self, payload: bytes) -> None:
        self._delay()
        self._channel.send(payload)

    def recv(self, timeout_s: float | None = None) -> bytes:
        return self._channel.recv(timeout_s)

    def poll(self, timeout_s: float = 0.0) -> bool:
        return self._channel.poll(timeout_s)

    def close(self) -> None:
        self._channel.close()
