"""Bayesian inference attacks on released location traces.

Everything here takes the adversary's view: the mobility chain ``M`` and
the emission matrices of the mechanism are public (or learned), the true
trajectory is hidden, and the released trace is observed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_float_array, check_probability_vector
from ..core.automaton_engine import AutomatonModel
from ..core.forward_backward import smoothed_posteriors
from ..core.joint import joint_probability, observation_probability
from ..core.two_world import TwoWorldModel
from ..errors import QuantificationError
from ..events.events import PatternEvent, PresenceEvent
from ..lppm.base import LPPM
from ..markov.transition import as_chain


def _emission_columns(lppm_or_matrices, observations, m: int) -> np.ndarray:
    observations = [int(o) for o in observations]
    if isinstance(lppm_or_matrices, LPPM):
        matrices = [lppm_or_matrices.emission_matrix()] * len(observations)
    else:
        arr = np.asarray(lppm_or_matrices, dtype=np.float64)
        if arr.ndim == 2:
            matrices = [arr] * len(observations)
        elif arr.ndim == 3:
            if arr.shape[0] != len(observations):
                raise QuantificationError(
                    f"{arr.shape[0]} emission matrices for "
                    f"{len(observations)} observations"
                )
            matrices = list(arr)
        else:
            raise QuantificationError(
                f"emissions must be an LPPM or a 2-D/3-D array, got {arr.shape}"
            )
    columns = np.empty((len(observations), m), dtype=np.float64)
    for t, (matrix, output) in enumerate(zip(matrices, observations)):
        if not 0 <= output < matrix.shape[1]:
            raise QuantificationError(
                f"observation {output} at t={t + 1} outside [0, {matrix.shape[1]})"
            )
        columns[t] = matrix[:, output]
    return columns


@dataclass(frozen=True)
class EventBelief:
    """The adversary's belief about an event before and after a release."""

    prior: float
    posterior: float

    @property
    def log_odds_shift(self) -> float:
        """``|log( posterior-odds / prior-odds )|``.

        This is exactly the quantity epsilon-spatiotemporal event privacy
        bounds: under the Definition II.4 guarantee it is at most
        epsilon for the modeled adversary.
        """
        for name, value in (("prior", self.prior), ("posterior", self.posterior)):
            if not 0.0 < value < 1.0:
                raise QuantificationError(
                    f"{name} belief {value} is degenerate; odds undefined"
                )
        prior_odds = self.prior / (1.0 - self.prior)
        posterior_odds = self.posterior / (1.0 - self.posterior)
        return abs(float(np.log(posterior_odds / prior_odds)))


class EventInferenceAttack:
    """Optimal Bayesian inference of a spatiotemporal event.

    Parameters
    ----------
    chain:
        The adversary's mobility model.
    event:
        A PRESENCE/PATTERN event (two-world engine) or any expression /
        compiled event (automaton engine).
    horizon:
        Length of traces the attack will see.
    """

    def __init__(self, chain, event, horizon: int):
        self._chain = as_chain(chain)
        if isinstance(event, (PresenceEvent, PatternEvent)):
            self._model = TwoWorldModel(self._chain, event, horizon)
            self._engine = "two-world"
        else:
            self._model = AutomatonModel(self._chain, event, horizon)
            self._engine = "automaton"
        self._horizon = int(horizon)

    @property
    def engine(self) -> str:
        """Which engine backs the attack ("two-world" or "automaton")."""
        return self._engine

    @property
    def n_states(self) -> int:
        """Number of map cells."""
        return self._model.n_states

    def prior(self, pi) -> float:
        """``Pr(EVENT)`` before seeing anything."""
        return self._model.prior_probability(pi)

    def infer(self, pi, lppm_or_matrices, observations) -> EventBelief:
        """Posterior ``Pr(EVENT | o_1..o_t)`` for a released trace."""
        pi = check_probability_vector(pi, "pi")
        columns = _emission_columns(lppm_or_matrices, observations, self.n_states)
        if self._engine == "two-world":
            joint = joint_probability(self._model, pi, columns)
            total = observation_probability(self._model, pi, columns)
        else:
            joint = self._model.joint_probability(pi, columns)
            total = self._model.observation_probability(pi, columns)
        if total <= 0.0:
            raise QuantificationError(
                "released trace has zero probability under the model"
            )
        return EventBelief(prior=self.prior(pi), posterior=joint / total)


def location_posteriors(chain, pi, lppm_or_matrices, observations) -> np.ndarray:
    """``Pr(u_t | o_1..o_T)`` for every t: the classic localization attack."""
    model = as_chain(chain)
    columns = _emission_columns(lppm_or_matrices, observations, model.n_states)
    return smoothed_posteriors(model, pi, columns)


def top_k_locations(posteriors, k: int = 3) -> list[tuple[tuple[int, float], ...]]:
    """Per-timestamp top-k (cell, probability) guesses from posteriors."""
    arr = as_float_array(posteriors, "posteriors")
    if arr.ndim != 2:
        raise QuantificationError(f"posteriors must be (T, m), got {arr.shape}")
    out = []
    for row in arr:
        order = np.argsort(row)[::-1][:k]
        out.append(tuple((int(i), float(row[i])) for i in order))
    return out


def viterbi_map_trajectory(chain, pi, lppm_or_matrices, observations) -> list[int]:
    """Most likely true trajectory given a released one (MAP decoding).

    Standard Viterbi in log-space over the mobility chain with the
    mechanism's emission columns.  Ties break toward the lower cell
    index (argmax convention), making the output deterministic.
    """
    model = as_chain(chain)
    m = model.n_states
    pi = check_probability_vector(pi, "pi")
    if pi.size != m:
        raise QuantificationError(f"pi has {pi.size} entries, chain has {m}")
    columns = _emission_columns(lppm_or_matrices, observations, m)
    horizon = columns.shape[0]

    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_cols = np.log(columns)
    scores = log_pi + log_cols[0]
    back_pointers = np.zeros((horizon, m), dtype=np.int64)
    for t in range(2, horizon + 1):
        with np.errstate(divide="ignore"):
            log_m = np.log(model.array_at(t - 1))
        candidates = scores[:, None] + log_m  # (from, to)
        back_pointers[t - 1] = np.argmax(candidates, axis=0)
        scores = candidates[back_pointers[t - 1], np.arange(m)] + log_cols[t - 1]
    if not np.isfinite(scores.max()):
        raise QuantificationError(
            "released trace has zero probability under the model"
        )
    path = [int(np.argmax(scores))]
    for t in range(horizon - 1, 0, -1):
        path.append(int(back_pointers[t][path[-1]]))
    path.reverse()
    return path
