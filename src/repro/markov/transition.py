"""Transition-matrix abstraction for user mobility.

:class:`TransitionMatrix` wraps a validated row-stochastic matrix ``M``
(``p_{t+1} = p_t M``, matching the paper's convention) with the analysis
operations the rest of the library needs: stationary distribution,
ergodicity, entropy rate and k-step transitions.  :class:`TimeVaryingChain`
generalizes to a different matrix per timestamp, which Section III notes
the method supports ("if the Markov model is time-varying ... our approach
still works").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import networkx as nx
import numpy as np

from .._validation import (
    check_probability_vector,
    check_stochastic_matrix,
    check_timestamp,
)
from ..errors import MarkovError


@dataclass(frozen=True)
class TransitionMatrix:
    """A validated row-stochastic transition matrix.

    Parameters
    ----------
    matrix:
        ``(m, m)`` row-stochastic array; row ``i`` is the distribution of
        the next location given the current location is cell ``i``.
    sparse_hint:
        Optional routing hint for downstream lifted-chain propagation
        (:class:`repro.core.TwoWorldModel`): ``True`` asks for CSR
        matmuls, ``False`` pins dense, ``None`` (default) lets the
        density-based crossover heuristic decide.  Never affects the
        matrix's values or validation.
    """

    matrix: np.ndarray
    sparse_hint: bool | None = None

    def __post_init__(self) -> None:
        validated = check_stochastic_matrix(self.matrix, "transition matrix")
        validated.setflags(write=False)
        object.__setattr__(self, "matrix", validated)
        if self.sparse_hint is not None:
            object.__setattr__(self, "sparse_hint", bool(self.sparse_hint))

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of cells ``m``."""
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is not None:
            return self.matrix.astype(dtype)
        return self.matrix

    @cached_property
    def density(self) -> float:
        """Fraction of non-zero entries, in ``[0, 1]``.

        The input to the sparse-propagation crossover heuristic: banded
        chains (lazy walks, trace-trained models on large maps) sit far
        below 1, Gaussian-kernel chains near it.
        """
        m = self.n_states
        return float(np.count_nonzero(self.matrix)) / float(m * m)

    def row(self, state: int) -> np.ndarray:
        """Next-location distribution from ``state``."""
        if not 0 <= state < self.n_states:
            raise MarkovError(f"state {state} out of range [0, {self.n_states})")
        return self.matrix[state]

    def step(self, distribution) -> np.ndarray:
        """One Markov transition: ``p M``."""
        dist = check_probability_vector(distribution, "distribution")
        if dist.size != self.n_states:
            raise MarkovError(
                f"distribution has {dist.size} entries, chain has {self.n_states} states"
            )
        return dist @ self.matrix

    def power(self, k: int) -> np.ndarray:
        """The k-step transition matrix ``M^k``."""
        if int(k) != k or k < 0:
            raise MarkovError(f"k must be a non-negative integer, got {k!r}")
        return np.linalg.matrix_power(self.matrix, int(k))

    def propagate(self, initial, steps: int) -> np.ndarray:
        """Distributions ``p_1..p_{steps}`` starting from ``p_1 = initial``.

        Returns an ``(steps, m)`` array whose row ``t-1`` is the marginal
        distribution of the location at (1-based) timestamp ``t``.
        """
        check_timestamp(steps, name="steps")
        dist = check_probability_vector(initial, "initial distribution")
        if dist.size != self.n_states:
            raise MarkovError(
                f"initial distribution has {dist.size} entries, chain has "
                f"{self.n_states} states"
            )
        out = np.empty((steps, self.n_states), dtype=np.float64)
        out[0] = dist
        for t in range(1, steps):
            out[t] = out[t - 1] @ self.matrix
        return out

    # ------------------------------------------------------------------
    # structural analysis
    # ------------------------------------------------------------------
    @cached_property
    def support_graph(self) -> nx.DiGraph:
        """Directed graph with an edge wherever ``M[i, j] > 0``."""
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.n_states))
        rows, cols = np.nonzero(self.matrix > 0)
        graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
        return graph

    @cached_property
    def is_irreducible(self) -> bool:
        """Whether the support graph is strongly connected."""
        return nx.is_strongly_connected(self.support_graph)

    @cached_property
    def is_aperiodic(self) -> bool:
        """Whether the support graph is aperiodic (gcd of cycle lengths 1)."""
        return nx.is_aperiodic(self.support_graph)

    @property
    def is_ergodic(self) -> bool:
        """Irreducible and aperiodic: a unique limiting distribution exists."""
        return self.is_irreducible and self.is_aperiodic

    @cached_property
    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution ``pi M = pi``.

        Computed as the left eigenvector for eigenvalue 1.  Raises
        :class:`MarkovError` if the chain is reducible (the stationary
        distribution would not be unique).
        """
        if not self.is_irreducible:
            raise MarkovError(
                "stationary distribution is not unique for a reducible chain"
            )
        eigenvalues, eigenvectors = np.linalg.eig(self.matrix.T)
        idx = int(np.argmin(np.abs(eigenvalues - 1.0)))
        vec = np.real(eigenvectors[:, idx])
        vec = np.abs(vec)
        return vec / vec.sum()

    def entropy_rate(self) -> float:
        """Entropy rate in bits: ``-sum_i pi_i sum_j M_ij log2 M_ij``.

        A low entropy rate corresponds to the paper's "significant mobility
        pattern" regime (small sigma in the synthetic generator).
        """
        pi = self.stationary_distribution
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(self.matrix > 0, np.log2(self.matrix), 0.0)
        per_state = -(self.matrix * logs).sum(axis=1)
        return float(pi @ per_state)

    def pattern_strength(self) -> float:
        """Heuristic in [0, 1]: 1 = deterministic movement, 0 = uniform.

        Defined as ``1 - H_rate / log2(m)``; used by experiment reports to
        describe how "significant" a mobility pattern is (Fig. 13).
        """
        max_entropy = np.log2(self.n_states) if self.n_states > 1 else 1.0
        return float(np.clip(1.0 - self.entropy_rate() / max_entropy, 0.0, 1.0))

    def mixing_time_bound(self, tolerance: float = 1e-2, max_steps: int = 10_000) -> int:
        """Empirical steps until total-variation from stationarity < tolerance.

        Starts from the worst single-state distribution.  Raises
        :class:`MarkovError` if the bound is not reached in ``max_steps``.
        """
        pi = self.stationary_distribution
        current = np.eye(self.n_states)
        for step in range(1, max_steps + 1):
            current = current @ self.matrix
            tv = 0.5 * np.abs(current - pi).sum(axis=1).max()
            if tv < tolerance:
                return step
        raise MarkovError(f"chain did not mix within {max_steps} steps")


class TimeVaryingChain:
    """A sequence of per-timestamp transition matrices.

    ``matrix_at(t)`` returns the matrix governing the transition from
    timestamp ``t`` to ``t + 1`` (1-based, matching ``M_t`` in the paper).
    A time-homogeneous chain is the special case of a single repeated
    matrix, constructed with :meth:`homogeneous`.
    """

    def __init__(self, matrices: Sequence[TransitionMatrix | np.ndarray]):
        if not matrices:
            raise MarkovError("TimeVaryingChain needs at least one matrix")
        converted = []
        for entry in matrices:
            if not isinstance(entry, TransitionMatrix):
                entry = TransitionMatrix(np.asarray(entry))
            converted.append(entry)
        sizes = {tm.n_states for tm in converted}
        if len(sizes) != 1:
            raise MarkovError(f"matrices disagree on state count: {sorted(sizes)}")
        self._matrices = tuple(converted)
        self._homogeneous = len(self._matrices) == 1

    @classmethod
    def homogeneous(cls, matrix: TransitionMatrix | np.ndarray) -> "TimeVaryingChain":
        """Chain that applies the same matrix at every timestamp."""
        return cls([matrix])

    @property
    def n_states(self) -> int:
        """Number of cells ``m``."""
        return self._matrices[0].n_states

    @property
    def is_homogeneous(self) -> bool:
        """Whether a single matrix is used at every timestamp."""
        return self._homogeneous

    @property
    def max_density(self) -> float:
        """The densest per-timestamp matrix's non-zero fraction.

        Conservative aggregate for the sparse-propagation crossover: a
        chain only counts as sparse when *every* timestamp's matrix is.
        """
        return max(tm.density for tm in self._matrices)

    @property
    def sparse_hint(self) -> bool | None:
        """Combined routing hint of the per-timestamp matrices.

        ``False`` wins over ``True`` (one dense-pinned matrix pins the
        whole chain); all-``None`` stays ``None``.
        """
        hints = [tm.sparse_hint for tm in self._matrices]
        if any(hint is False for hint in hints):
            return False
        if any(hint is True for hint in hints):
            return True
        return None

    def matrix_at(self, t: int) -> TransitionMatrix:
        """Transition matrix ``M_t`` applied between timestamps t and t+1."""
        check_timestamp(t, name="t")
        if self._homogeneous:
            return self._matrices[0]
        if t > len(self._matrices):
            raise MarkovError(
                f"chain defines matrices for t in [1, {len(self._matrices)}], got {t}"
            )
        return self._matrices[t - 1]

    def array_at(self, t: int) -> np.ndarray:
        """Raw ``(m, m)`` array of ``M_t``."""
        return self.matrix_at(t).matrix

    def propagate(self, initial, steps: int) -> np.ndarray:
        """Marginals ``p_1..p_steps`` from ``p_1 = initial``."""
        check_timestamp(steps, name="steps")
        dist = check_probability_vector(initial, "initial distribution")
        if dist.size != self.n_states:
            raise MarkovError(
                f"initial distribution has {dist.size} entries, chain has "
                f"{self.n_states} states"
            )
        out = np.empty((steps, self.n_states), dtype=np.float64)
        out[0] = dist
        for t in range(1, steps):
            out[t] = out[t - 1] @ self.array_at(t)
        return out


def as_chain(chain) -> TimeVaryingChain:
    """``chain`` as a :class:`TimeVaryingChain`: one as is, anything else
    (a :class:`TransitionMatrix` or an ``(m, m)`` array) as a homogeneous
    chain."""
    if isinstance(chain, TimeVaryingChain):
        return chain
    if isinstance(chain, TransitionMatrix):
        return TimeVaryingChain.homogeneous(chain)
    return TimeVaryingChain.homogeneous(TransitionMatrix(np.asarray(chain)))
