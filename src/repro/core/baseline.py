"""Naive exponential baselines (Appendix B).

Two flavours are provided:

* **Generic full enumeration** over all ``m^T`` trajectories --
  :func:`enumerate_prior` / :func:`enumerate_joint`.  These are the exact
  oracles the property tests compare the two-world engine against; they
  accept *any* expression or event.
* **Pattern enumeration** (the paper's Algorithm 4) over the
  ``width^length`` trajectories inside a PATTERN's regions --
  :func:`pattern_prior_naive` / :func:`pattern_joint_naive`.  These are
  the comparators in the Fig. 14 runtime experiment: exponential in event
  length and width where the two-world method is linear / polynomial.
"""

from __future__ import annotations

import itertools

import numpy as np

from .._validation import as_float_array, check_probability_vector
from ..errors import QuantificationError
from ..events.events import PatternEvent, SpatiotemporalEvent
from ..events.expressions import Expression
from ..markov.transition import TimeVaryingChain, as_chain


def _event_expression(event) -> Expression:
    if isinstance(event, SpatiotemporalEvent):
        return event.to_expression()
    if isinstance(event, Expression):
        return event
    raise QuantificationError(f"not an event or expression: {event!r}")


def _trajectory_probability(chain: TimeVaryingChain, pi: np.ndarray, cells) -> float:
    prob = float(pi[cells[0]])
    for t, (src, dst) in enumerate(zip(cells[:-1], cells[1:]), start=1):
        prob *= float(chain.array_at(t)[src, dst])
        if prob == 0.0:
            return 0.0
    return prob


def enumerate_prior(chain, event, pi, horizon: int | None = None) -> float:
    """Exact ``Pr(EVENT)`` by summing over all ``m^T`` trajectories.

    ``horizon`` defaults to the event's last timestamp.  Exponential --
    use only on toy instances (this is the point of the baseline).
    """
    model = as_chain(chain)
    expression = _event_expression(event)
    m = model.n_states
    dist = check_probability_vector(pi, "initial distribution")
    if dist.size != m:
        raise QuantificationError(f"pi has {dist.size} entries, chain has {m}")
    _, end = expression.time_window()
    t_max = end if horizon is None else max(int(horizon), end)
    total = 0.0
    for cells in itertools.product(range(m), repeat=t_max):
        if not expression.evaluate(cells):
            continue
        total += _trajectory_probability(model, dist, cells)
    return total


def enumerate_joint(chain, event, pi, emission_columns, upto_t: int | None = None) -> float:
    """Exact ``Pr(EVENT, o_1..o_t)`` by full trajectory enumeration.

    ``emission_columns`` is the ``(T', m)`` array of released columns
    ``p~_{o_i}``; enumeration runs to ``max(t, end)`` so the event's value
    is fully determined on every trajectory.
    """
    model = as_chain(chain)
    expression = _event_expression(event)
    m = model.n_states
    dist = check_probability_vector(pi, "initial distribution")
    if dist.size != m:
        raise QuantificationError(f"pi has {dist.size} entries, chain has {m}")
    cols = as_float_array(emission_columns, "emission columns")
    if cols.ndim != 2 or cols.shape[1] != m:
        raise QuantificationError(
            f"emission columns must be (T', {m}), got {cols.shape}"
        )
    t_obs = cols.shape[0] if upto_t is None else int(upto_t)
    if not 1 <= t_obs <= cols.shape[0]:
        raise QuantificationError(f"upto_t={upto_t} outside [1, {cols.shape[0]}]")
    _, end = expression.time_window()
    t_max = max(t_obs, end)
    total = 0.0
    for cells in itertools.product(range(m), repeat=t_max):
        if not expression.evaluate(cells):
            continue
        prob = _trajectory_probability(model, dist, cells)
        if prob == 0.0:
            continue
        for i in range(t_obs):
            prob *= float(cols[i, cells[i]])
            if prob == 0.0:
                break
        total += prob
    return total


# ----------------------------------------------------------------------
# Algorithm 4: PATTERN enumeration over region products
# ----------------------------------------------------------------------
def pattern_prior_naive(chain, pattern: PatternEvent, pi) -> float:
    """``Pr(PATTERN)`` by enumerating the region-product trajectories.

    Appendix B: the probability of the pattern is the sum, over all
    ``prod_k |region_k|`` in-region window trajectories, of
    ``p_start[u_start] * prod M[u_t, u_{t+1}]`` where
    ``p_start = pi M^{start-1}``.
    """
    if not isinstance(pattern, PatternEvent):
        raise QuantificationError("pattern_prior_naive requires a PatternEvent")
    model = as_chain(chain)
    m = model.n_states
    dist = check_probability_vector(pi, "initial distribution")
    if dist.size != m:
        raise QuantificationError(f"pi has {dist.size} entries, chain has {m}")
    p_start = dist.copy()
    for t in range(1, pattern.start):
        p_start = p_start @ model.array_at(t)
    region_cells = [region.cells for region in pattern.regions]
    total = 0.0
    for cells in itertools.product(*region_cells):
        prob = float(p_start[cells[0]])
        for offset, (src, dst) in enumerate(zip(cells[:-1], cells[1:])):
            prob *= float(model.array_at(pattern.start + offset)[src, dst])
            if prob == 0.0:
                break
        total += prob
    return total


def pattern_joint_naive(chain, pattern: PatternEvent, pi, emission_columns) -> float:
    """``Pr(PATTERN, o_start..o_end)`` by region-product enumeration.

    The paper's Algorithm 4: per in-region trajectory, multiply the
    transition probabilities and the emission probabilities of the
    observations within the event window.  ``emission_columns`` is
    ``(length, m)``: row ``k`` is ``p~_{o_{start+k}}``.
    """
    if not isinstance(pattern, PatternEvent):
        raise QuantificationError("pattern_joint_naive requires a PatternEvent")
    model = as_chain(chain)
    m = model.n_states
    dist = check_probability_vector(pi, "initial distribution")
    if dist.size != m:
        raise QuantificationError(f"pi has {dist.size} entries, chain has {m}")
    cols = as_float_array(emission_columns, "emission columns")
    if cols.shape != (pattern.length, m):
        raise QuantificationError(
            f"emission columns must be ({pattern.length}, {m}), got {cols.shape}"
        )
    p_start = dist.copy()
    for t in range(1, pattern.start):
        p_start = p_start @ model.array_at(t)
    region_cells = [region.cells for region in pattern.regions]
    total = 0.0
    for cells in itertools.product(*region_cells):
        prob = float(p_start[cells[0]]) * float(cols[0, cells[0]])
        if prob == 0.0:
            continue
        alive = True
        for offset, (src, dst) in enumerate(zip(cells[:-1], cells[1:])):
            prob *= float(model.array_at(pattern.start + offset)[src, dst])
            prob *= float(cols[offset + 1, dst])
            if prob == 0.0:
                alive = False
                break
        if alive:
            total += prob
    return total
