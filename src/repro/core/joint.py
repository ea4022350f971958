"""Joint probabilities of events and observations (Lemmas III.2 / III.3).

:class:`EventQuantifier` is the pi-free, incremental form used by
Algorithm 2: instead of a number it maintains *matrices* so that, at every
timestamp and for every candidate perturbed location, the Theorem IV.1
vectors ``a``, ``b``, ``c`` come out as functions of the (unknown,
adversary-chosen) initial distribution ``pi``:

* ``a[i] = Pr(EVENT | u_1 = s_i)``
* ``b[i] = Pr(EVENT, o_1..o_t | u_1 = s_i)`` (Lemma III.2 / III.3)
* ``c[i] = Pr(o_1..o_t | u_1 = s_i)``

The implementation mirrors Algorithm 2's bookkeeping (lines 3-15 and
21-25) with these refinements:

* fronts are kept *collapsed* to pi-space, i.e. ``(m, 2m)`` matrices
  ``L A`` rather than the paper's ``(2m, 2m)`` ``A``, halving the cost and
  absorbing the ``start == 1`` initial-split extension for free;
* one front serves every timestamp.  Lemma III.3 freezes the end-front
  and, past the window, carries its event-true part (the true-world
  columns) next to the total.  But the lifted chain is block-diagonal
  for ``t >= end`` (Eqs. 5/8), so the event-true part stays exactly the
  total front with its false-world half zeroed; ``b`` therefore reads
  the total front through the true-world selector ``[0, 1]``, which
  plays the role of the tail vector for ``t > end``;
* the transition-propagation step (independent of the candidate output)
  is separated from the cheap per-candidate step, so PriSTE's budget-
  halving loop pays O(m^2) per retry instead of O(m^3);
* fronts are renormalized each commit and the log of the factored-out
  scale is tracked, so 50+ timestamp sequences cannot underflow.  The
  returned ``b``/``c`` share one scale factor, which cancels in every
  ratio and preserves the sign of the Theorem IV.1 conditions.

Per the paper (Section III-C), the emission matrix may differ at every
timestamp: each call takes the current emission column ``p~_{o_t}``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .._validation import as_float_array, check_probability_vector
from ..errors import QuantificationError
from .two_world import TwoWorldModel, _count_front, _scipy_sparse

#: :meth:`EventQuantifier.candidate_bc_many` switches to CSR products
#: when the model is sparse-routed, at least this many candidate columns
#: are screened at once, and the columns' non-zero fraction is at most
#: ``_SPARSE_BC_MAX_DENSITY`` (cloaking / randomized-response emission
#: columns are indicator-like, so bulk screens are mostly zeros).
_SPARSE_BC_MIN_COLUMNS = 32
_SPARSE_BC_MAX_DENSITY = 0.25

class EventQuantifier:
    """Incremental ``a``/``b``/``c`` computation for one event.

    Protocol, per timestamp ``t = 1..T`` (1-based, in order):

    1. :meth:`prepare` once -- propagates the committed state through
       ``M_{t-1}`` (identity at ``t == 1``);
    2. :meth:`candidate_bc` any number of times with candidate emission
       columns (PriSTE's halving loop);
    3. :meth:`commit` once with the emission column of the mechanism and
       output actually released.
    """

    def __init__(self, model: TwoWorldModel):
        self._model = model
        m = model.n_states
        self._m = m
        # Committed front L A, shape (m, 2m).  Starts as the initial lift.
        self._front: np.ndarray = model.initial_lift_matrix()
        self._committed_t = 0
        self._prepared_t: int | None = None
        self._prop: np.ndarray | None = None
        self._log_scale = 0.0
        self._tails = model.tail_vectors()
        self._a = model.prior_vector()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def model(self) -> TwoWorldModel:
        """The underlying two-world model."""
        return self._model

    @property
    def committed_t(self) -> int:
        """Last timestamp whose release has been committed (0 = none)."""
        return self._committed_t

    @property
    def log_scale(self) -> float:
        """Natural log of the positive factor divided out of ``b``/``c``.

        The true joint probabilities are ``exp(log_scale)`` times the
        values implied by :meth:`candidate_bc`'s output.
        """
        return self._log_scale

    def a_vector(self) -> np.ndarray:
        """Collapsed prior vector ``a`` (Eq. 17), unscaled."""
        return self._a.copy()

    def _tail(self, t: int) -> np.ndarray:
        # Lemma III.2's suffix product; past the window the last one, the
        # bare true-world selector (see the module docstring).
        return self._tails[min(t, self._model.end) - 1]

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def prepare(self, t: int) -> None:
        """Propagate committed state through ``M_{t-1}`` for timestamp t."""
        if t != self._committed_t + 1:
            raise QuantificationError(
                f"prepare({t}) called out of order; committed through "
                f"t={self._committed_t}"
            )
        if t > self._model.horizon:
            raise QuantificationError(
                f"t={t} beyond model horizon {self._model.horizon}"
            )
        if t == 1:
            self._prop = self._front
        else:
            self._prop = self._model.propagate_front(self._front, t - 1)
        self._prepared_t = t

    def _lift_column(self, ptilde) -> np.ndarray:
        col = as_float_array(ptilde, "emission column")
        if col.shape != (self._m,):
            raise QuantificationError(
                f"emission column must have shape ({self._m},), got {col.shape}"
            )
        if np.any(col < 0) or np.any(col > 1):
            raise QuantificationError("emission probabilities must lie in [0, 1]")
        return np.concatenate([col, col])

    def candidate_bc(self, t: int, ptilde) -> tuple[np.ndarray, np.ndarray]:
        """Scaled ``(b, c)`` if ``ptilde`` were the column released at t.

        ``b[i] ~ Pr(EVENT, o_1..o_t | u_1 = s_i)`` and
        ``c[i] ~ Pr(o_1..o_t | u_1 = s_i)``, both times the common factor
        ``exp(-log_scale)``.
        """
        if self._prepared_t != t:
            raise QuantificationError(
                f"candidate_bc({t}) requires prepare({t}) first"
            )
        lifted = self._lift_column(ptilde)
        # Lemmas III.2/III.3: append the emission and the tail.  Both
        # reductions hit the same front, so they are fused into one
        # (m, 2m) @ (2m, 2) product -- the front streams through memory
        # once instead of twice.
        stacked = np.empty((2 * self._m, 2), dtype=np.float64)
        np.multiply(lifted, self._tail(t), out=stacked[:, 0])
        stacked[:, 1] = lifted
        bc = self._prop @ stacked
        return np.ascontiguousarray(bc[:, 0]), np.ascontiguousarray(bc[:, 1])

    def candidate_bc_many(self, t: int, columns) -> tuple[np.ndarray, np.ndarray]:
        """Scaled ``(B, C)``, each ``(N, m)``, for N candidate columns.

        Row ``n`` matches :meth:`candidate_bc`'s output for
        ``columns[n]`` up to BLAS summation order (a few ulps: the
        one-matmul lift and the per-column product accumulate the same
        dot products in different block orders).  Hot paths that must
        stay bitwise-reproducible against per-candidate stepping -- the
        engine's batched verdict rounds -- therefore call
        :meth:`candidate_bc` per candidate and batch at the solver
        layer instead; this bulk form is for screening and audit
        workloads where N is large and ulps are irrelevant.
        """
        if self._prepared_t != t:
            raise QuantificationError(
                f"candidate_bc_many({t}) requires prepare({t}) first"
            )
        cols = as_float_array(columns, "emission columns")
        if cols.ndim != 2 or cols.shape[1] != self._m:
            raise QuantificationError(
                f"emission columns must be (N, {self._m}), got {cols.shape}"
            )
        if np.any(cols < 0) or np.any(cols > 1):
            raise QuantificationError("emission probabilities must lie in [0, 1]")
        lifted = np.concatenate([cols, cols], axis=1)
        tail = self._tail(t)
        # Unlike propagate_front, an adaptive per-call switch is sound
        # here: this method's contract is already only ulp-accurate
        # against candidate_bc (see above), so the crossover can use the
        # actual screen shape.  Only sparse-routed models opt in, which
        # keeps dense scenarios at exactly one code path.
        sparse = (
            self._model.sparse_routing
            and _scipy_sparse is not None
            and cols.shape[0] >= _SPARSE_BC_MIN_COLUMNS
            and np.count_nonzero(cols) <= _SPARSE_BC_MAX_DENSITY * cols.size
        )
        if sparse:
            lifted_sp = _scipy_sparse.csr_array(lifted)
            prop_t = np.ascontiguousarray(self._prop.T)
            b = np.asarray(lifted_sp.multiply(tail).tocsr() @ prop_t)
            c = np.asarray(lifted_sp @ prop_t)
            _count_front(sparse_matmuls=2)
        else:
            b = (lifted * tail[None, :]) @ self._prop.T
            c = lifted @ self._prop.T
        return b, c

    def abort_prepare(self) -> None:
        """Discard a prepared (uncommitted) timestamp, if any.

        :meth:`prepare` never mutates the committed front, so dropping
        the propagated copy rolls the quantifier back to the last
        committed boundary -- used by the engine to keep a session
        checkpointable after a failed step.
        """
        self._prepared_t = None
        self._prop = None

    def commit(self, t: int, ptilde) -> None:
        """Fold the released emission column into the state (lines 21-25)."""
        if self._prepared_t != t:
            raise QuantificationError(f"commit({t}) requires prepare({t}) first")
        lifted = self._lift_column(ptilde)
        # The propagated front belongs to this quantifier (a fresh
        # product, a row block of prepare_many's stack, or at t == 1 the
        # committed front itself), so it is folded in place.
        self._prop *= lifted[None, :]
        self._front = self._prop
        self._rescale()
        self._committed_t = t
        self._prepared_t = None
        self._prop = None

    def _rescale(self) -> None:
        # Normalize at every commit: b/c magnitudes then stay within a
        # factor ~m of 1 regardless of sequence length, which keeps the
        # solver's relative tolerance meaningful and rules out underflow.
        peak = float(self._front.max())
        if 0.0 < peak and peak != 1.0:
            self._front /= peak
            self._log_scale += float(np.log(peak))

    # ------------------------------------------------------------------
    # checkpointing (repro.engine session suspend/resume)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the committed state (not valid mid-timestamp).

        Only the between-timestamps state is captured: call it after
        :meth:`commit` (or before the first :meth:`prepare`), never
        between :meth:`prepare` and :meth:`commit`.  Once ``t >= end``
        is committed the snapshot keeps the two-front layout (``front``
        is ``None``; ``front_true`` is ``front_all`` with its
        false-world half zeroed), so checkpoints stay readable by every
        build of the v2 session schema.
        """
        if self._prepared_t is not None:
            raise QuantificationError(
                "state_dict() is only valid between timestamps; "
                f"t={self._prepared_t} is prepared but not committed"
            )
        state = {
            "front": None,
            "front_true": None,
            "front_all": None,
            "committed_t": self._committed_t,
            "log_scale": self._log_scale,
        }
        if self._committed_t < self._model.end:
            state["front"] = self._front.tolist()
        else:
            front_true = self._front.copy()
            front_true[:, : self._m] = 0.0
            state["front_true"] = front_true.tolist()
            state["front_all"] = self._front.tolist()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""

        def unpack(value):
            if value is None:
                return None
            array = np.array(value, dtype=np.float64)
            if array.shape != (self._m, 2 * self._m):
                raise QuantificationError(
                    f"front must have shape ({self._m}, {2 * self._m}), "
                    f"got {array.shape}"
                )
            return array

        front = unpack(state["front"])
        front_true = unpack(state["front_true"])
        front_all = unpack(state["front_all"])
        committed_t = int(state["committed_t"])
        if (front is None) == (front_all is None):
            raise QuantificationError(
                "exactly one of front (phase 1) and front_all (phase 2) "
                "must be present"
            )
        if (front_true is None) != (front_all is None):
            raise QuantificationError(
                "front_true and front_all must be present together"
            )
        past_window = committed_t >= self._model.end
        if (front is None) != past_window:
            expected = "front_true/front_all" if past_window else "front"
            raise QuantificationError(
                f"committed_t={committed_t} needs the {expected} layout "
                f"(the event window ends at t={self._model.end})"
            )
        if front is None:
            m = self._m
            if np.any(front_true[:, :m] != 0.0) or not np.array_equal(
                front_true[:, m:], front_all[:, m:]
            ):
                raise QuantificationError(
                    "front_true must be front_all with its false-world half "
                    "zeroed"
                )
            front = front_all
        self._front = front
        self._committed_t = committed_t
        self._log_scale = float(state["log_scale"])
        self._prepared_t = None
        self._prop = None

    def prepared_digest(self) -> bytes:
        """Digest of everything a candidate verdict depends on at ``t``.

        Covers the prepared (post-:meth:`prepare`) front, the tail it is
        read through (Lemma III.2's suffix product, or the true-world
        selector past the window) and the prior vector ``a`` -- together
        with a candidate emission column these determine the Theorem
        IV.1 vectors ``(a, b, c)`` exactly, which is what makes verdict
        caching keyed on this digest sound.
        """
        t = self._prepared_t
        if t is None:
            raise QuantificationError("prepared_digest() requires prepare(t) first")
        h = hashlib.blake2b(digest_size=16)
        h.update(t.to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self._prop).tobytes())
        h.update(np.ascontiguousarray(self._tail(t)).tobytes())
        h.update(np.ascontiguousarray(self._a).tobytes())
        return h.digest()

    # ------------------------------------------------------------------
    # fixed-pi conveniences
    # ------------------------------------------------------------------
    def joint_probabilities(self, pi, b: np.ndarray, c: np.ndarray) -> tuple[float, float]:
        """Unscaled-ratio form: ``(Pr(EVENT, o), Pr(o))`` times the scale.

        Multiplying back ``exp(log_scale)`` recovers absolute values; most
        callers only need ratios, which are scale-free.
        """
        dist = check_probability_vector(pi, "initial distribution")
        if dist.size != self._m:
            raise QuantificationError(
                f"initial distribution has {dist.size} entries, map has {self._m}"
            )
        return float(dist @ b), float(dist @ c)


#: Element budget per stacked propagate in :func:`prepare_many`.  Each
#: front is ``m x 2m`` (``2 m^2`` floats): stacking amortizes per-call
#: block dispatch, which dominates for small maps, but costs a copy of
#: every front, which dominates for large ones -- so the stack size
#: adapts as ``budget // (2 m^2)`` fronts (at least 1, i.e. no copy).
_PREPARE_STACK_ELEMENTS = 65_536


def prepare_many(quantifiers, t: int) -> None:
    """Batched :meth:`EventQuantifier.prepare` across one shared model.

    All quantifiers must wrap the *same* :class:`TwoWorldModel` object
    and be committed through ``t - 1`` (the same-phase invariant the
    engine's ``step_many`` guarantees for sessions at one timestamp).
    Their committed fronts are stacked in cache-sized groups
    (``_PREPARE_STACK_ELEMENTS``) and pushed through the lifted
    transition ``M_{t-1}`` as stacked matmuls; every quantifier then
    holds a row-slice view of the stacked result that is bit-identical
    to what its own ``prepare(t)`` would have produced, since the
    matmul computes each output row independently.  On maps large
    enough that copying fronts into a stack costs more than the saved
    dispatch, the group degenerates to single fronts (no copy).
    """
    qs = list(quantifiers)
    if not qs:
        return
    model = qs[0]._model
    for quantifier in qs:
        if quantifier._model is not model:
            raise QuantificationError(
                "prepare_many requires quantifiers over one shared model"
            )
        if t != quantifier._committed_t + 1:
            raise QuantificationError(
                f"prepare_many({t}) called out of order; a quantifier is "
                f"committed through t={quantifier._committed_t}"
            )
    if t > model.horizon:
        raise QuantificationError(f"t={t} beyond model horizon {model.horizon}")
    m = model.n_states
    stack = max(1, _PREPARE_STACK_ELEMENTS // (2 * m * m))
    if len(qs) == 1 or t == 1 or stack == 1:
        # t == 1 aliases the committed front with no matmul, and a stack
        # of one would only copy: replicate solo prepare exactly.
        for quantifier in qs:
            quantifier.prepare(t)
        return
    for g0 in range(0, len(qs), stack):
        group = qs[g0 : g0 + stack]
        if len(group) == 1:
            group[0].prepare(t)
            continue
        stacked = np.concatenate([quantifier._front for quantifier in group], axis=0)
        out = model.propagate_front(stacked, t - 1)
        for index, quantifier in enumerate(group):
            quantifier._prop = out[index * m : (index + 1) * m]
            quantifier._prepared_t = t


def joint_probability(
    model: TwoWorldModel, pi, emission_columns, upto_t: int | None = None
) -> float:
    """Absolute ``Pr(EVENT, o_1..o_t)`` for a fixed ``pi`` (Lemmas III.2/3).

    ``emission_columns`` is a ``(T', m)`` array of released columns; ``t``
    defaults to its length.  This non-incremental wrapper exists for tests
    and one-off quantification; PriSTE uses :class:`EventQuantifier`.
    """
    cols = as_float_array(emission_columns, "emission columns")
    if cols.ndim != 2 or cols.shape[1] != model.n_states:
        raise QuantificationError(
            f"emission columns must be (T', {model.n_states}), got {cols.shape}"
        )
    t_max = cols.shape[0] if upto_t is None else int(upto_t)
    if not 1 <= t_max <= cols.shape[0]:
        raise QuantificationError(
            f"upto_t={upto_t} outside [1, {cols.shape[0]}]"
        )
    quantifier = EventQuantifier(model)
    # Commit everything before t_max; the final timestamp stays a
    # candidate so the returned (b, c) match the quantifier's log_scale
    # (commits rescale, candidates do not).
    for t in range(1, t_max):
        quantifier.prepare(t)
        quantifier.commit(t, cols[t - 1])
    quantifier.prepare(t_max)
    b, c = quantifier.candidate_bc(t_max, cols[t_max - 1])
    joint_scaled, _ = quantifier.joint_probabilities(pi, b, c)
    return float(joint_scaled * np.exp(quantifier.log_scale))


def observation_probability(
    model: TwoWorldModel, pi, emission_columns, upto_t: int | None = None
) -> float:
    """Absolute ``Pr(o_1..o_t)`` for a fixed ``pi``."""
    cols = as_float_array(emission_columns, "emission columns")
    if cols.ndim != 2 or cols.shape[1] != model.n_states:
        raise QuantificationError(
            f"emission columns must be (T', {model.n_states}), got {cols.shape}"
        )
    t_max = cols.shape[0] if upto_t is None else int(upto_t)
    if not 1 <= t_max <= cols.shape[0]:
        raise QuantificationError(f"upto_t={upto_t} outside [1, {cols.shape[0]}]")
    quantifier = EventQuantifier(model)
    for t in range(1, t_max):
        quantifier.prepare(t)
        quantifier.commit(t, cols[t - 1])
    quantifier.prepare(t_max)
    b, c = quantifier.candidate_bc(t_max, cols[t_max - 1])
    _, total_scaled = quantifier.joint_probabilities(pi, b, c)
    return float(total_scaled * np.exp(quantifier.log_scale))
