"""Correctness gates: every ledger run checks its outputs before it counts.

Two oracles, both independent of the path the workload measured:

* **Stream identity.**  Sampled sessions are replayed on a reference
  :class:`~repro.engine.SessionManager` from their seeds and true cells;
  every release must agree bit for bit on :data:`FIELDS` (the timing
  column is the only one left out).
* **Privacy.**  Each sampled session's released cells are re-verified
  from scratch: the emission matrix of every step is rebuilt from its
  recorded budget (uniform when the step fell back to it) and fed to
  :func:`~repro.core.quantify.verify_event_privacy` (worst-case prior,
  Theorem IV.1) or :func:`~repro.core.quantify.quantify_fixed_prior`
  (the fixed-prior Definition II.4 ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.qp import SolverStatus
from repro.core.quantify import quantify_fixed_prior, verify_event_privacy
from repro.lppm.planar_laplace import PlanarLaplaceMechanism
from repro.lppm.uniform import UniformMechanism

#: The release fields that must match a reference bit for bit.
FIELDS = ("t", "released_cell", "budget", "n_attempts", "conservative", "forced_uniform")

#: Slack on the fixed-prior check: the engine accepts a ratio up to
#: ``exp(epsilon) * (1 + 1e-9)``, so the realized loss may exceed epsilon
#: by ~1e-9; anything past this is a genuine violation.
FIXED_PRIOR_SLACK = 1e-6


@dataclass
class SessionTrace:
    """What one session was fed and what it released."""

    seed: int
    true_cells: list = field(default_factory=list)
    stream: list = field(default_factory=list)

    def add(self, true_cell: int, release: tuple) -> None:
        self.true_cells.append(int(true_cell))
        self.stream.append(release)


def release_of(record) -> tuple:
    """The :data:`FIELDS` of a ``ReleaseRecord`` or a step reply dict."""
    if isinstance(record, dict):
        return tuple(record[name] for name in FIELDS)
    return tuple(getattr(record, name) for name in FIELDS)


def replay(manager, sessions: dict) -> dict:
    """Each session's stream re-released on ``manager`` by solo steps."""
    streams = {}
    for sid, session in sessions.items():
        manager.open(sid, rng=session.seed)
        streams[sid] = [
            release_of(manager.step(sid, cell)) for cell in session.true_cells
        ]
        manager.finish(sid)
    return streams


def stream_mismatches(sessions: dict, reference: dict) -> list[str]:
    """One message per session whose stream differs from the reference."""
    problems = []
    for sid, session in sessions.items():
        expected = reference.get(sid)
        if expected == session.stream:
            continue
        if expected is None or len(expected) != len(session.stream):
            problems.append(f"{sid}: {len(session.stream)} releases, reference has "
                            f"{None if expected is None else len(expected)}")
            continue
        step = next(i for i, (a, b) in enumerate(zip(session.stream, expected)) if a != b)
        problems.append(
            f"{sid} step {step + 1}: got {session.stream[step]}, reference {expected[step]}"
        )
    return problems


def privacy_violations(compiled, sessions: dict) -> list[str]:
    """One message per sampled session and event that fails re-verification."""
    spec = compiled.spec
    grid = compiled.grid
    uniform = UniformMechanism(grid.n_cells).emission_matrix()
    problems = []
    for sid, session in sessions.items():
        if not session.stream:
            continue
        released = [release[1] for release in session.stream]
        stack = np.stack(
            [
                uniform
                if forced_uniform
                else PlanarLaplaceMechanism(grid, budget).emission_matrix()
                for _, _, budget, _, _, forced_uniform in session.stream
            ]
        )
        for index, event in enumerate(compiled.events):
            if spec.prior_mode == "worst_case":
                check = verify_event_privacy(
                    compiled.chain, event, stack, released, spec.epsilon,
                    horizon=spec.horizon,
                )
                if SolverStatus.VIOLATED in check.statuses:
                    problems.append(
                        f"{sid} event {index}: VIOLATED at t={check.first_violation}"
                    )
            else:
                loss = quantify_fixed_prior(
                    compiled.chain, event, stack, released,
                    compiled.engine_config.prior, horizon=spec.horizon,
                ).epsilon
                if loss > spec.epsilon + FIXED_PRIOR_SLACK:
                    problems.append(
                        f"{sid} event {index}: realized loss {loss:.6g} > {spec.epsilon}"
                    )
    return problems


def sample(sessions: dict, count: int, rng: np.random.Generator) -> dict:
    """``count`` sessions with at least one release, chosen by ``rng``."""
    names = sorted(sid for sid, session in sessions.items() if session.stream)
    chosen = rng.choice(len(names), size=min(count, len(names)), replace=False)
    return {names[i]: sessions[names[i]] for i in sorted(chosen)}
