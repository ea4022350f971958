"""Generic hidden-Markov forward-backward algorithm (Eqs. 10-12).

The paper builds its joint-probability computation on the classic
forward-backward recursions; this module provides them in plain (non-
lifted) form, used by tests as an independent oracle, by the attacker-
inference example, and as a reusable substrate.

Conventions: ``alpha_t[k] = Pr(u_t = k, o_1..o_t)`` and
``beta_t[k] = Pr(o_{t+1}..o_T | u_t = k)``; emissions are supplied as a
``(T, m)`` array of columns ``p~_{o_t}[k] = Pr(o_t | u_t = k)``.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_float_array, check_probability_vector
from ..errors import QuantificationError
from ..markov.transition import as_chain


def _validated_emissions(emission_columns, m: int) -> np.ndarray:
    cols = as_float_array(emission_columns, "emission columns")
    if cols.ndim != 2 or cols.shape[1] != m:
        raise QuantificationError(
            f"emission columns must be (T, {m}), got shape {cols.shape}"
        )
    if np.any(cols < 0) or np.any(cols > 1):
        raise QuantificationError("emission probabilities must lie in [0, 1]")
    return cols


def forward_messages(chain, initial, emission_columns) -> np.ndarray:
    """All forward messages ``alpha_1..alpha_T`` as a ``(T, m)`` array.

    Eq. (10): ``alpha_t[k] = p~_{o_t}[k] * sum_i alpha_{t-1}[i] M[i, k]``.
    """
    model = as_chain(chain)
    m = model.n_states
    pi = check_probability_vector(initial, "initial distribution")
    if pi.size != m:
        raise QuantificationError(f"initial has {pi.size} entries, chain has {m}")
    cols = _validated_emissions(emission_columns, m)
    horizon = cols.shape[0]
    alphas = np.empty((horizon, m), dtype=np.float64)
    alphas[0] = pi * cols[0]
    for t in range(2, horizon + 1):
        alphas[t - 1] = (alphas[t - 2] @ model.array_at(t - 1)) * cols[t - 1]
    return alphas


def backward_messages(chain, emission_columns) -> np.ndarray:
    """All backward messages ``beta_1..beta_T`` as a ``(T, m)`` array.

    Eq. (11) with ``beta_T = 1``:
    ``beta_t[k] = sum_i M[k, i] p~_{o_{t+1}}[i] beta_{t+1}[i]``.
    """
    model = as_chain(chain)
    m = model.n_states
    cols = _validated_emissions(emission_columns, m)
    horizon = cols.shape[0]
    betas = np.empty((horizon, m), dtype=np.float64)
    betas[horizon - 1] = 1.0
    for t in range(horizon - 1, 0, -1):
        betas[t - 1] = model.array_at(t) @ (cols[t] * betas[t])
    return betas


def sequence_likelihood(chain, initial, emission_columns) -> float:
    """``Pr(o_1..o_T)`` under the chain and emissions."""
    alphas = forward_messages(chain, initial, emission_columns)
    return float(alphas[-1].sum())


def smoothed_posteriors(chain, initial, emission_columns) -> np.ndarray:
    """``Pr(u_t | o_1..o_T)`` for every t, as a ``(T, m)`` array.

    Eq. (12): ``alpha_t[k] beta_t[k] / sum_i alpha_t[i] beta_t[i]``.  This
    is the adversary's optimal state inference given the whole released
    sequence -- what spatiotemporal event privacy bounds indirectly.
    """
    alphas = forward_messages(chain, initial, emission_columns)
    betas = backward_messages(chain, emission_columns)
    joint = alphas * betas
    totals = joint.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise QuantificationError(
            "observation sequence has zero probability under the model"
        )
    return joint / totals


def filtered_posteriors(chain, initial, emission_columns) -> np.ndarray:
    """``Pr(u_t | o_1..o_t)`` for every t (causal filtering)."""
    alphas = forward_messages(chain, initial, emission_columns)
    totals = alphas.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise QuantificationError(
            "observation prefix has zero probability under the model"
        )
    return alphas / totals
