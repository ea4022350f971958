"""The two-possible-world lifted Markov chain (Section III-B).

The user's ``m``-state chain is lifted to ``2m`` states: indices
``0..m-1`` form the *false world* (EVENT is false so far) and ``m..2m-1``
the *true world*.  The lifted transition matrices (Eqs. 3-8) re-route
probability mass between the worlds so that, after the event window, the
total mass in the true world *is* ``Pr(EVENT)`` (Lemma III.1):

* PRESENCE: mass entering the region during the window is captured by the
  true world and kept there forever (Eq. 4); outside the window both
  worlds evolve independently (Eq. 5).
* PATTERN: the split happens at the window start (Eq. 6); inside the
  window, true-world mass falls back to the false world unless it keeps
  following the pattern's regions (Eq. 7).

Boundary extension (documented in DESIGN.md §5): the paper's construction
assumes ``start > 1`` so the split is performed by transition matrix
``M_{start-1}``.  When ``start == 1`` the membership of the *initial*
location decides the worlds, so the initial distribution itself is split:
``[pi * (1-s), pi * s]`` instead of ``[pi, 0]``.  Both cases are captured
by the *initial lift matrix* ``L`` (m x 2m) with ``lifted_pi = pi @ L``.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .._validation import check_probability_vector, check_timestamp
from ..errors import EventError
from ..events.events import PatternEvent, PresenceEvent, SpatiotemporalEvent
from ..markov.transition import TimeVaryingChain, as_chain

try:  # scipy ships with the library, but the sparse path degrades cleanly
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised only on scipy-less hosts
    _scipy_sparse = None


# ----------------------------------------------------------------------
# sparse front propagation: routing policy + observability
# ----------------------------------------------------------------------

#: Environment override for sparse front propagation: ``auto`` (density
#: heuristic + ``ChainSpec``/``TransitionMatrix`` hints), ``always``,
#: ``never``.  Routing is resolved once per model at construction, so
#: every propagation through one model takes the same code path -- set
#: it uniformly across a fleet (sparse and dense matmuls agree only to
#: a few ulps, and mixed routing would make replicas drift).
SPARSE_ENV = "REPRO_SPARSE_FRONT"

#: ``auto`` routes a chain sparse when its densest matrix has at most
#: this non-zero fraction...
_SPARSE_MAX_DENSITY = 1.0 / 16.0

#: ...and the map has at least this many cells.  Below it, dense gemms
#: on the whole block are faster than any CSR traversal (measured: the
#: crossover for banded chains sits between m=64 and m=144 at the
#: engine's front shapes).
_SPARSE_MIN_STATES = 128

_front_lock = threading.Lock()
_front_counts = {
    "sparse_models": 0,
    "dense_models": 0,
    "sparse_matmuls": 0,
    "dense_matmuls": 0,
    "csr_hits": 0,
    "csr_misses": 0,
}


def _count_front(**deltas: int) -> None:
    with _front_lock:
        for key, delta in deltas.items():
            _front_counts[key] += delta


def front_stats() -> dict:
    """Front-propagation observability snapshot.

    ``sparse_models`` / ``dense_models`` count :class:`TwoWorldModel`
    constructions by routing decision; ``sparse_matmuls`` /
    ``dense_matmuls`` tally individual half-front products (exactly two
    per :meth:`TwoWorldModel.propagate_front` call); ``csr_hits`` /
    ``csr_misses`` measure the per-chain-matrix CSR cache.  Feeds the
    ``solver`` section of the service ``stats`` op.
    """
    with _front_lock:
        snapshot = dict(_front_counts)
    snapshot["scipy_available"] = _scipy_sparse is not None
    snapshot["mode"] = os.environ.get(SPARSE_ENV) or "auto"
    return snapshot


def _reset_front_stats() -> None:
    """Zero the front-propagation counters (tests only)."""
    with _front_lock:
        for key in _front_counts:
            _front_counts[key] = 0


def _resolve_sparse_routing(
    chain: TimeVaryingChain, sparse: bool | None
) -> bool:
    """Decide a model's propagation backend, once, at construction.

    Precedence: ``$REPRO_SPARSE_FRONT`` (``always``/``never``), then the
    explicit ``sparse`` argument, then the chain's
    :attr:`~repro.markov.transition.TransitionMatrix.sparse_hint`, then
    the density x size crossover heuristic.  Sparse routing additionally
    requires scipy; without it every request degrades to dense.

    The decision is deliberately *per model*, not per call: batched
    propagation (``prepare_many``) stacks many fronts into one matmul
    and relies on producing bit-identical rows to solo propagation,
    which holds within either backend but not across them (dense BLAS
    and CSR traversal accumulate in different orders, ~ulps apart).
    """
    if _scipy_sparse is None:
        return False
    mode = os.environ.get(SPARSE_ENV) or "auto"
    if mode not in ("auto", "always", "never"):
        raise EventError(
            f"{SPARSE_ENV} must be 'auto', 'always' or 'never', got {mode!r}"
        )
    if mode == "never":
        return False
    if mode == "always":
        return True
    if sparse is None:
        sparse = chain.sparse_hint
    if sparse is not None:
        return bool(sparse)
    return (
        chain.n_states >= _SPARSE_MIN_STATES
        and chain.max_density <= _SPARSE_MAX_DENSITY
    )


class TwoWorldModel:
    """Lifted chain for one PRESENCE or PATTERN event.

    Parameters
    ----------
    chain:
        The mobility model (:class:`TransitionMatrix`, raw array, or
        :class:`TimeVaryingChain`).
    event:
        A :class:`PresenceEvent` or :class:`PatternEvent` on the same map.
    horizon:
        The release horizon ``T``; must cover the event window.
    sparse:
        Front-propagation routing: ``True`` forces CSR matmuls,
        ``False`` forces dense gemms, ``None`` (default) defers to the
        chain's hint and the density crossover heuristic.  Overridden
        either way by ``$REPRO_SPARSE_FRONT=always|never``.
    """

    def __init__(
        self,
        chain,
        event: SpatiotemporalEvent,
        horizon: int,
        *,
        sparse: bool | None = None,
    ):
        self._chain = as_chain(chain)
        if not isinstance(event, (PresenceEvent, PatternEvent)):
            raise EventError(
                "TwoWorldModel supports PRESENCE and PATTERN events; use "
                "repro.core.AutomatonModel for arbitrary expressions"
            )
        if event.n_cells != self._chain.n_states:
            raise EventError(
                f"event is on {event.n_cells} cells, chain has "
                f"{self._chain.n_states} states"
            )
        self._event = event
        self._horizon = check_timestamp(horizon, name="horizon")
        if event.end > self._horizon:
            raise EventError(
                f"event ends at t={event.end}, beyond horizon T={self._horizon}"
            )
        self._tails: np.ndarray | None = None
        self._sparse = _resolve_sparse_routing(self._chain, sparse)
        self._moves = self._world_moves()
        # Transposed CSR of each distinct chain matrix, keyed by the id of
        # its array (the chain keeps every array alive, so ids are
        # stable); populated lazily by the sparse propagation path.
        self._csr_cache: dict[int, object] = {}
        _count_front(
            **{("sparse_models" if self._sparse else "dense_models"): 1}
        )

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def sparse_routing(self) -> bool:
        """Whether front propagation goes through CSR matmuls."""
        return self._sparse
    @property
    def chain(self) -> TimeVaryingChain:
        """The underlying mobility model."""
        return self._chain

    @property
    def event(self) -> SpatiotemporalEvent:
        """The protected event."""
        return self._event

    @property
    def n_states(self) -> int:
        """Number of map cells ``m``."""
        return self._chain.n_states

    @property
    def horizon(self) -> int:
        """Release horizon ``T``."""
        return self._horizon

    @property
    def start(self) -> int:
        """Event window start."""
        return self._event.start

    @property
    def end(self) -> int:
        """Event window end."""
        return self._event.end

    def true_selector(self) -> np.ndarray:
        """The paper's ``[0, 1]`` vector: 1 on the true world."""
        m = self.n_states
        sel = np.zeros(2 * m, dtype=np.float64)
        sel[m:] = 1.0
        return sel

    # ------------------------------------------------------------------
    # lifted matrices (Eqs. 3-8)
    # ------------------------------------------------------------------
    def _region_indicator(self, t: int) -> np.ndarray:
        return self._event.region_at(t).indicator()

    def _world_moves(self) -> dict[int, tuple[bool, np.ndarray]]:
        """The Eqs. (4)-(8) case table: ``t -> (into_true, columns)``.

        Every non-zero block of the lifted ``M_t`` is the chain matrix
        ``M`` with some columns zeroed, so ``M_t`` is "both worlds step
        by ``M``, then the listed destination columns change world":
        from the false to the true world when ``into_true``, back
        otherwise.  Timestamps absent from the table are block-diagonal
        (Eqs. 5 and 8), which covers every ``t >= end``.
        """
        start, end = self.start, self.end
        moves = {}
        for t in range(max(1, start - 1), end):
            if isinstance(self._event, PresenceEvent):
                # Eq. (4): transitions into the region at time t+1 move to
                # the true world; the true world absorbs.
                region = self._region_indicator(max(t + 1, start))
                moves[t] = (True, np.flatnonzero(region))
            elif t == start - 1:
                # Eq. (6): the split into worlds, by membership at `start`.
                moves[t] = (True, np.flatnonzero(self._region_indicator(start)))
            else:
                # Eq. (7): true-world mass survives only if it continues
                # into the region at time t+1; otherwise it falls back.
                region = self._region_indicator(t + 1)
                moves[t] = (False, np.flatnonzero(region == 0.0))
        return moves

    def transition_blocks(
        self, t: int
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """The four m x m blocks ``(ff, ft, tf, tt)`` of the lifted ``M_t``.

        Block layout follows Eq. (3): ``ff`` = false world to false world,
        ``ft`` = false to true, ``tf`` = true to false, ``tt`` = true to
        true.  Structurally-zero blocks are returned as ``None``.
        """
        check_timestamp(t, name="t")
        base = self._chain.array_at(t)
        move = self._moves.get(t)
        if move is None:
            # Eqs. (5)/(8): independent evolution in both worlds.
            return base, None, None, base
        into_true, columns = move
        moved = np.zeros_like(base)
        moved[:, columns] = base[:, columns]
        stayed = base.copy()
        stayed[:, columns] = 0.0
        if into_true:
            return stayed, moved, None, base
        return base, None, moved, stayed

    def lifted_matrix(self, t: int) -> np.ndarray:
        """The lifted ``M_t`` (2m x 2m) applied between timestamps t, t+1."""
        ff, ft, tf, tt = self.transition_blocks(t)
        m = self.n_states
        lifted = np.zeros((2 * m, 2 * m), dtype=np.float64)
        if ff is not None:
            lifted[:m, :m] = ff
        if ft is not None:
            lifted[:m, m:] = ft
        if tf is not None:
            lifted[m:, :m] = tf
        if tt is not None:
            lifted[m:, m:] = tt
        return lifted

    def _csr_at(self, t: int):
        """Transposed CSR of the chain matrix ``M_t``, cached per matrix.

        Stored transposed because the sparse path computes each output
        half as ``(M.T @ front_half.T).T``: sparse-times-dense hits
        scipy's fast ``csr_matmat`` row loop, whereas dense-times-sparse
        goes through a far slower per-column path.  A homogeneous chain
        needs one entry for the whole horizon.
        """
        base = self._chain.array_at(t)
        cached = self._csr_cache.get(id(base))
        if cached is not None:
            _count_front(csr_hits=1)
            return cached
        _count_front(csr_misses=1)
        built = _scipy_sparse.csr_array(np.ascontiguousarray(base.T))
        self._csr_cache[id(base)] = built
        return built

    def propagate_front(self, front: np.ndarray, t: int) -> np.ndarray:
        """Right-multiply a ``(k, 2m)`` front matrix by the lifted ``M_t``.

        Costs two products, each world's half times the chain matrix
        ``M_t`` (``k m^2`` each on the dense path), followed by moving
        the case table's columns between the two output halves.  The
        result is bit-identical to summing one product per non-zero
        block of Eq. (3): a zeroed block column contributes exact zeros,
        and each output column's dot product is accumulated in the same
        order either way.  Sparse-routed models (see
        :attr:`sparse_routing`) run the two products as CSR matmuls
        instead; the two backends agree to a few ulps (different
        accumulation orders), which is why the routing is fixed per
        model rather than chosen per call.
        """
        m = self.n_states
        if front.ndim != 2 or front.shape[1] != 2 * m:
            raise EventError(
                f"front must have {2 * m} columns, got shape {front.shape}"
            )
        out = np.empty_like(front)
        left, right = out[:, :m], out[:, m:]
        if self._sparse:
            # Transposed halves (m, k): scipy's sparse-times-dense kernel
            # accumulates each output element along a CSR row in a fixed
            # order independent of k, so stacked fronts (prepare_many)
            # still produce bit-identical rows to solo propagation.
            matrix = self._csr_at(t)
            np.copyto(left, (matrix @ np.ascontiguousarray(front[:, :m].T)).T)
            np.copyto(right, (matrix @ np.ascontiguousarray(front[:, m:].T)).T)
            _count_front(sparse_matmuls=2)
        else:
            base = self._chain.array_at(t)
            np.matmul(front[:, :m], base, out=left)
            np.matmul(front[:, m:], base, out=right)
            _count_front(dense_matmuls=2)
        move = self._moves.get(t)
        if move is not None:
            into_true, columns = move
            source, target = (left, right) if into_true else (right, left)
            target[:, columns] += source[:, columns]
            source[:, columns] = 0.0
        return out

    # ------------------------------------------------------------------
    # initial lift (paper: [pi, 0]; extension for start == 1)
    # ------------------------------------------------------------------
    def initial_lift_matrix(self) -> np.ndarray:
        """``L`` (m x 2m) with ``lifted initial = pi @ L``.

        For ``start > 1`` this is ``[I, 0]`` (the paper's ``[pi, 0]``).
        For ``start == 1`` the initial location itself decides the world:
        ``L = [diag(1 - s_start), diag(s_start)]``.
        """
        m = self.n_states
        lift = np.zeros((m, 2 * m), dtype=np.float64)
        if self.start > 1:
            lift[:, :m] = np.eye(m)
        else:
            region = self._region_indicator(self.start)
            lift[:, :m] = np.diag(1.0 - region)
            lift[:, m:] = np.diag(region)
        return lift

    def lift_initial(self, pi) -> np.ndarray:
        """The lifted initial distribution (length 2m)."""
        dist = check_probability_vector(pi, "initial distribution")
        if dist.size != self.n_states:
            raise EventError(
                f"initial distribution has {dist.size} entries, map has "
                f"{self.n_states} cells"
            )
        return dist @ self.initial_lift_matrix()

    def collapse(self, lifted_vector) -> np.ndarray:
        """Collapse a lifted column vector ``v`` to pi-space.

        Returns the ``m``-vector ``L @ v`` so that
        ``lifted_pi . v == pi . collapse(v)`` -- the form Theorem IV.1's
        quadratic conditions need.
        """
        v = np.asarray(lifted_vector, dtype=np.float64).ravel()
        if v.size != 2 * self.n_states:
            raise EventError(
                f"lifted vector has {v.size} entries, expected {2 * self.n_states}"
            )
        return self.initial_lift_matrix() @ v

    # ------------------------------------------------------------------
    # prior (Lemma III.1)
    # ------------------------------------------------------------------
    def tail_vectors(self) -> np.ndarray:
        """``tail_t = prod_{i=t}^{end-1} M_i @ [0,1]^T`` for t = 1..end.

        Row index ``t-1`` holds ``tail_t`` (length 2m); ``tail_end`` is the
        bare true-world selector.  These are the suffix products Lemma
        III.2 appends to the forward state, computed once by a backward
        recurrence in O(end * m^2).
        """
        if self._tails is None:
            end = self.end
            m2 = 2 * self.n_states
            tails = np.empty((end, m2), dtype=np.float64)
            tails[end - 1] = self.true_selector()
            for t in range(end - 1, 0, -1):
                tails[t - 1] = self.lifted_matrix(t) @ tails[t]
            tails.setflags(write=False)
            self._tails = tails
        return self._tails

    def prior_vector(self) -> np.ndarray:
        """Collapsed ``a``: ``a[i] = Pr(EVENT | u_1 = s_i)`` (length m).

        Lemma III.1 in pi-free form: ``Pr(EVENT) = pi . prior_vector()``.
        """
        return self.collapse(self.tail_vectors()[0])

    def prior_probability(self, pi) -> float:
        """Lemma III.1: ``Pr(EVENT)`` under initial distribution ``pi``."""
        dist = check_probability_vector(pi, "initial distribution")
        if dist.size != self.n_states:
            raise EventError(
                f"initial distribution has {dist.size} entries, map has "
                f"{self.n_states} cells"
            )
        return float(dist @ self.prior_vector())
