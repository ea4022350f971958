"""Mechanism providers: the strategy giving the engine its base LPPM.

Moved here from :mod:`repro.core.priste` (which re-exports them): the
provider protocol is an engine-layer concern, since both the streaming
:class:`~repro.engine.session.ReleaseSession` and the legacy batch
wrappers drive it.

Beyond the original protocol, providers now also expose

* :meth:`MechanismProvider.base_budget` -- a *non-mutating* preview of
  the budget calibration would start from at a timestamp (backs
  ``ReleaseSession.peek_budget``);
* :meth:`MechanismProvider.scaled` -- the budget-rescaling hook of the
  calibration loop, which :class:`StaticMechanismProvider` memoizes so
  the halving ladder's emission matrices are built once and shared by
  every session of a :class:`~repro.engine.manager.SessionManager`;
* ``state_dict``/``load_state_dict`` -- checkpointing hooks for
  suspend/resume.
"""

from __future__ import annotations

import threading
from typing import Protocol, runtime_checkable

import numpy as np

from .._validation import check_positive, check_probability_vector
from ..errors import QuantificationError
from ..geo.grid import GridMap
from ..lppm.base import LPPM
from ..lppm.delta_location_set import DeltaLocationSetMechanism, posterior_update
from ..markov.transition import as_chain


@runtime_checkable
class MechanismProvider(Protocol):
    """Strategy giving the engine its per-timestamp base mechanism."""

    def base_mechanism(self, t: int) -> LPPM:
        """The mechanism to start calibration from at timestamp ``t``."""
        ...

    def base_budget(self, t: int) -> float:
        """The budget of :meth:`base_mechanism` at ``t``, side-effect free."""
        ...

    def scaled(self, mechanism: LPPM, budget: float) -> LPPM:
        """``mechanism`` rescaled to ``budget`` (calibration retry)."""
        ...

    def after_release(self, t: int, mechanism: LPPM, released_cell: int) -> None:
        """Hook after a release (posterior bookkeeping etc.)."""
        ...

    def state_dict(self) -> dict:
        """JSON-friendly snapshot of the provider's mutable state."""
        ...

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        ...


class StaticMechanismProvider:
    """Algorithm 2's provider: the same base LPPM at every timestamp.

    Stateless across releases, so one instance can safely serve many
    concurrent sessions -- which is exactly what makes the ``scaled``
    memo valuable: the calibration ladder ``alpha, alpha/2, alpha/4, ...``
    repeats across timestamps and sessions, and each rescaled mechanism
    (with its lazily computed emission matrix) is constructed only once.

    The memo is guarded by a lock so sessions stepped concurrently on a
    worker pool (:mod:`repro.service`) share one mechanism object per
    budget.  Only the cheap ``with_budget`` construction happens under
    the lock; the heavy emission-matrix computation stays lazy, and a
    concurrent first touch of the same mechanism at worst computes the
    identical matrix twice.
    """

    def __init__(self, lppm: LPPM):
        self._lppm = lppm
        self._ladder: dict[float, LPPM] = {}
        self._ladder_lock = threading.Lock()

    def base_mechanism(self, t: int) -> LPPM:
        return self._lppm

    def base_budget(self, t: int) -> float:
        return float(self._lppm.budget)

    def scaled(self, mechanism: LPPM, budget: float) -> LPPM:
        with self._ladder_lock:
            scaled = self._ladder.get(budget)
            if scaled is None:
                scaled = mechanism.with_budget(budget)
                self._ladder[budget] = scaled
        return scaled

    def after_release(self, t: int, mechanism: LPPM, released_cell: int) -> None:
        return None

    def state_dict(self) -> dict:
        return {}

    def load_state_dict(self, state: dict) -> None:
        return None


class DeltaLocationSetProvider:
    """Algorithm 3's provider: rebuild the mechanism from the posterior.

    Maintains ``p+_{t-1}``; at each timestamp computes the Markov prior
    ``p-_t = p+_{t-1} M`` (line 2), constructs the delta-location set
    mechanism on it (lines 3-4), and updates the posterior with Eq. (21)
    after the release (line 8).

    Stateful: every session needs its own instance (the builder's
    provider factory takes care of that).
    """

    def __init__(self, grid: GridMap, chain, alpha: float, delta: float, initial):
        self._grid = grid
        self._chain = as_chain(chain)
        self._alpha = check_positive(alpha, "alpha")
        self._delta = float(delta)
        self._posterior = check_probability_vector(initial, "initial distribution")
        self._current_prior: np.ndarray | None = None

    @property
    def posterior(self) -> np.ndarray:
        """``p+_{t-1}``: the adversary's posterior after the last release."""
        return self._posterior.copy()

    def base_mechanism(self, t: int) -> LPPM:
        if t == 1:
            prior = self._posterior
        else:
            prior = self._posterior @ self._chain.array_at(t - 1)
        self._current_prior = prior
        return DeltaLocationSetMechanism(self._grid, self._alpha, prior, self._delta)

    def base_budget(self, t: int) -> float:
        return self._alpha

    def scaled(self, mechanism: LPPM, budget: float) -> LPPM:
        # The mechanism is prior-dependent, so rescaled copies cannot be
        # shared across timestamps or sessions.
        return mechanism.with_budget(budget)

    def after_release(self, t: int, mechanism: LPPM, released_cell: int) -> None:
        if self._current_prior is None:
            raise QuantificationError("after_release called before base_mechanism")
        self._posterior = posterior_update(
            self._current_prior, mechanism.emission_matrix(), released_cell
        )
        self._current_prior = None

    def state_dict(self) -> dict:
        return {"posterior": self._posterior.tolist()}

    def load_state_dict(self, state: dict) -> None:
        self._posterior = check_probability_vector(
            np.asarray(state["posterior"], dtype=np.float64), "posterior"
        )
        self._current_prior = None
