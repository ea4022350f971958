"""Quadratic-program solver for the Theorem IV.1 conditions.

The paper checks Eqs. (15)/(16) with IBM CPLEX under a wall-clock
threshold and *conservative release*: a location is only released when the
conditions are proven to hold.  This module is the drop-in substitute
(DESIGN.md §4).  It exposes the same trichotomy:

* ``SAFE`` -- the maximum of the condition over the feasible set is
  certified non-positive;
* ``VIOLATED`` -- a feasible ``pi`` with positive value was found;
* ``UNKNOWN`` -- the work/time budget ran out before either certificate
  (PriSTE then treats the candidate as unreleasable, exactly like the
  paper's conservative release).

Exactness.  Every condition the theorem produces is rank-one:
``f(pi) = (pi.u)(pi.v) + pi.w``.  Over the probability simplex the global
maximum of such a function is attained on an *edge* (a pi supported on at
most two coordinates): for any fixed value ``x = pi.u``, maximizing
``f = pi.(x v + w)`` subject to ``pi.u = x, sum(pi) = 1, pi >= 0`` is a
linear program with two equality constraints, whose basic optimal
solutions have at most two non-zero entries; taking ``x`` at the optimum
shows the optimizer itself can be chosen with support <= 2.  On an edge
``pi = lam e_i + (1-lam) e_j`` the objective is a univariate quadratic in
``lam``, maximized in closed form, so enumerating the ``m`` vertices plus
the ``m(m-1)/2`` edges is an *exact* O(m^2) algorithm; on this problem
class the substitute is stronger than a generic QP solver.

Dual-backend architecture.  The enumeration has two interchangeable
implementations behind one dispatch point
(:func:`_solve_rank_one_simplex_stack`):

* the **NumPy kernel** (:func:`_solve_stack_numpy`) packs K conditions
  into ``(K, m)`` coefficient arrays and sweeps ``(K, rows, m)`` blocks
  of the upper-triangular edge set with preallocated scratch buffers --
  always available, no build step;
* the **native kernel** (``_kernels.c`` via :mod:`repro.core.native`)
  runs the same vertex scan + edge sweep as a single fused C pass per
  condition -- no scratch blocks, no masked writes -- which removes the
  per-block NumPy dispatch that dominates small-m batches.

The two are *bit-identical*: statuses, best values, best points,
evaluation counts and the exhausted flag match exactly for every input,
because the C kernel replicates the NumPy kernel's operation order
(every IEEE-754 op individually rounded, FMA contraction disabled), its
NaN/tie-breaking semantics, and its row-blocked evaluation-accounting
schedule.  Selection is ``SolverOptions.kernel`` when set, else the
``REPRO_SOLVER_KERNEL`` environment variable (``auto`` | ``native`` |
``numpy``, default ``auto``: native when loadable, NumPy otherwise).
Because the backends agree bit-for-bit, the choice is *not* part of
:meth:`SolverOptions.fingerprint` -- cached verdicts are portable across
kernels and across hosts with and without a C compiler.

Kernel structure shared by both backends:

* the ``m`` vertex values ``u_i v_i + w_i`` are scanned first in O(m),
  which alone witnesses many violations;
* each edge block only evaluates the *interior* stationary point
  (``f* = f(e_j) - a1^2 / (4 a2)`` where ``a2 < 0`` and
  ``0 < lam* < 1``), since both endpoints are vertices already covered;
* only unordered pairs ``i < j`` are enumerated -- the edge quadratic is
  symmetric under swapping endpoints, so the classic all-ordered-pairs
  sweep does every edge twice;
* a condition whose running best exceeds the tolerance stops early (a
  violation certificate needs no sharper maximum) unless limits are set
  or :attr:`SolverOptions.exhaustive` asks for the true global maximum.

The scalar :func:`maximize_rank_one_simplex` is the K=1 wrapper of the
same kernel, so looping it and calling the batch front end produce
bit-identical statuses, best values and evaluation counts -- the
property the streaming engine's batched verdict pipeline relies on.

The paper's literal box feasible set (``0 <= pi <= 1`` without the sum
constraint) is also supported, via multi-start projected gradient ascent
with an interval-arithmetic upper bound for certification; see
:mod:`repro.core.theorem` for why the simplex is the semantically
consistent default.
"""

from __future__ import annotations

import enum
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .._validation import check_positive, resolve_rng
from ..errors import SolverError
from . import native as _native
from .theorem import RankOneCondition


class SolverStatus(enum.Enum):
    """Outcome of a condition check."""

    SAFE = "safe"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


#: Valid values for ``SolverOptions.kernel`` / ``REPRO_SOLVER_KERNEL``.
KERNEL_CHOICES = ("auto", "native", "numpy")

#: Environment variable consulted when ``SolverOptions.kernel`` is unset.
KERNEL_ENV = "REPRO_SOLVER_KERNEL"


@dataclass(frozen=True)
class SolverOptions:
    """Configuration of the condition solver.

    Parameters
    ----------
    constraint:
        ``"simplex"`` (default; exact) or ``"box"`` (the paper's literal
        formulation; heuristic, may return UNKNOWN).
    tolerance:
        Values in ``(-tolerance, tolerance]`` count as zero -- guards
        against float noise in long matrix products.
    work_limit:
        Maximum number of vertex/edge evaluations (simplex) or gradient
        steps (box) before giving up with UNKNOWN.  ``None`` = unlimited.
    time_limit_s:
        Wall-clock threshold, the paper's conservative-release knob
        (Table III).  ``None`` = unlimited.
    exhaustive:
        When True the simplex path always enumerates every vertex and
        edge (subject to the limits), so ``best_value`` is the global
        maximum even for violated conditions.  The default False stops
        at the first violation certificate, which is all a verdict
        needs; statuses are identical either way.
    n_starts:
        Multi-start count for the box path.
    seed:
        RNG seed for the box path's random starts.
    kernel:
        Simplex-kernel backend: ``"auto"`` (native when available, else
        NumPy), ``"native"`` (compiled kernel, error if unavailable) or
        ``"numpy"``.  ``None`` (default) defers to the
        ``REPRO_SOLVER_KERNEL`` environment variable, itself defaulting
        to ``auto``.  The backends are bit-identical, so this knob
        changes speed only, never answers.
    """

    constraint: str = "simplex"
    tolerance: float = 1e-9
    work_limit: int | None = None
    time_limit_s: float | None = None
    exhaustive: bool = False
    n_starts: int = 16
    seed: int = 0
    kernel: str | None = None

    def __post_init__(self) -> None:
        if self.constraint not in ("simplex", "box"):
            raise SolverError(
                f"constraint must be 'simplex' or 'box', got {self.constraint!r}"
            )
        check_positive(self.tolerance, "tolerance")
        if self.work_limit is not None and self.work_limit < 1:
            raise SolverError(f"work_limit must be >= 1, got {self.work_limit!r}")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise SolverError(
                f"time_limit_s must be positive, got {self.time_limit_s!r}"
            )
        if self.kernel is not None and self.kernel not in KERNEL_CHOICES:
            raise SolverError(
                f"kernel must be one of {KERNEL_CHOICES}, got {self.kernel!r}"
            )

    def fingerprint(self) -> bytes:
        """Stable byte identity of everything that can change a verdict.

        Used by :class:`repro.engine.VerdictCache` to namespace cached
        verdicts: two option sets with equal fingerprints produce the
        same SAFE/VIOLATED answers (UNKNOWN additionally depends on
        wall-clock when ``time_limit_s`` is set; see the cache docs).
        ``kernel`` is deliberately excluded: the native and NumPy
        backends are bit-identical, so the choice cannot change a
        verdict and cached entries stay valid across kernels.
        """
        return repr(
            (
                self.constraint,
                self.tolerance,
                self.work_limit,
                self.time_limit_s,
                self.exhaustive,
                self.n_starts,
                self.seed,
            )
        ).encode()


@dataclass
class SolveResult:
    """Result of maximizing one condition over the feasible set."""

    status: SolverStatus
    best_value: float
    best_point: np.ndarray | None
    n_evaluations: int
    elapsed_s: float
    exhausted: bool = field(default=True)

    @property
    def is_safe(self) -> bool:
        """Whether the condition is certified to hold."""
        return self.status is SolverStatus.SAFE


# ----------------------------------------------------------------------
# kernel selection + accounting
# ----------------------------------------------------------------------

_kernel_lock = threading.Lock()
_kernel_counts = {
    "native_calls": 0,
    "native_conditions": 0,
    "numpy_calls": 0,
    "numpy_conditions": 0,
}


def _count_kernel(kind: str, conditions: int) -> None:
    with _kernel_lock:
        _kernel_counts[f"{kind}_calls"] += 1
        _kernel_counts[f"{kind}_conditions"] += conditions


def _reset_kernel_stats() -> None:
    """Zero the kernel-use counters (tests only)."""
    with _kernel_lock:
        for key in _kernel_counts:
            _kernel_counts[key] = 0


def resolve_kernel(options: SolverOptions | None = None) -> str:
    """The backend a simplex solve would use right now: native or numpy.

    Resolution order: ``options.kernel`` when set, else
    ``$REPRO_SOLVER_KERNEL``, else ``auto``.  ``auto`` picks the native
    kernel when it loads (compiling it on first use if needed) and the
    NumPy kernel otherwise; ``native`` raises :class:`SolverError` when
    the compiled kernel cannot be loaded, rather than silently serving
    from a different backend than the operator pinned.
    """
    requested = options.kernel if options is not None else None
    if requested is None:
        requested = os.environ.get(KERNEL_ENV) or "auto"
    if requested not in KERNEL_CHOICES:
        raise SolverError(
            f"{KERNEL_ENV} must be one of {KERNEL_CHOICES}, got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if _native.native_available():
        return "native"
    if requested == "native":
        detail = _native.native_detail()
        raise SolverError(
            f"kernel='native' requested but the compiled kernel is "
            f"unavailable: {detail['error']}"
        )
    return "numpy"


def kernel_stats() -> dict:
    """Kernel observability snapshot: selection, loader state, use counts.

    Feeds the ``solver`` section of the service ``stats`` op and the
    ``repro_solver_kernel_info`` gauge.
    """
    detail = _native.native_detail()
    with _kernel_lock:
        counts = dict(_kernel_counts)
    try:
        default = resolve_kernel()
    except SolverError:
        default = "invalid"
    return {
        "kernel": default,
        "env": os.environ.get(KERNEL_ENV) or "auto",
        "native_state": detail["state"],
        "native_path": detail["path"],
        "native_error": detail["error"],
        **counts,
    }


# ----------------------------------------------------------------------
# exact simplex path: the stacked vertex + upper-triangle edge kernel
# ----------------------------------------------------------------------

#: Target elements per (rows x columns) edge block of one condition.
#: Small enough that the no-limits early exit fires after a fraction of
#: the triangle; large enough that per-block numpy overhead stays low.
_BLOCK_ELEMENTS = 8_192

#: Target elements per scratch buffer; bounds the conditions-per-chunk
#: so the six float + two bool buffers stay cache-friendly at any K.
_SCRATCH_ELEMENTS = 131_072

#: Conditions per kernel call when :func:`check_conditions_batch` honors
#: the sequential front end's stop-at-first-violation contract.
_SHORT_CIRCUIT_CHUNK = 16


def _triangle_block_evals(r0: int, r1: int, m: int) -> int:
    """Unordered pairs (i, j), i < j, contributed by rows r0 <= i < r1."""
    nb = r1 - r0
    return nb * (m - 1) - (r0 + r1 - 1) * nb // 2


def _edge_block_rows(m: int, work_limit: int | None) -> int:
    """Row-block size of the edge sweep -- one schedule for both kernels.

    The native kernel takes this as an argument so its per-block
    evaluation accounting (counts accrue before the limit and early-exit
    checks) lands on exactly the same boundaries as the NumPy kernel's.
    """
    bs = max(1, min(m - 1, _BLOCK_ELEMENTS // m))
    if work_limit is not None:
        bs = max(1, min(bs, work_limit // m))
    return bs


def _solve_stack_numpy(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, options: SolverOptions, t0: float
):
    """NumPy backend: blocked sweep over ``(K, rows, m)`` scratch buffers.

    Returns the raw per-condition arrays ``(best_value, best_vertex,
    best_edge_i, best_edge_j, n_evals, exhausted)``; result
    materialization is shared with the native backend.
    """
    K, m = U.shape
    tol = options.tolerance
    work_limit = options.work_limit
    time_limit = options.time_limit_s
    limited = work_limit is not None or time_limit is not None
    # With limits set, keep enumerating after a violation so the work
    # accounting of the conservative-release threshold stays faithful;
    # without limits a violation certificate ends the condition's sweep
    # (unless the caller asked for the exhaustive global maximum).
    allow_exit = not limited and not options.exhaustive

    # Vertex scan: f(e_j) = u_j v_j + w_j, all K conditions in two passes.
    # The best value is read at the first maximum, not taken from
    # ``ev.max``: among equal +0.0 and -0.0 the reduction may return
    # either, and the native kernel keeps the first.
    ev = U * V + W
    best_vertex = ev.argmax(axis=1)
    best_value = ev[np.arange(K), best_vertex]
    best_edge_i = np.full(K, -1, dtype=np.int64)
    best_edge_j = np.full(K, -1, dtype=np.int64)
    n_evals = np.full(K, m, dtype=np.int64)
    exhausted = np.ones(K, dtype=bool)
    done = np.zeros(K, dtype=bool)
    if allow_exit:
        done |= best_value > tol

    if m > 1 and not done.all():
        bs = _edge_block_rows(m, work_limit)
        width = m - 1
        chunk_k = max(1, min(K, _SCRATCH_ELEMENTS // (bs * width)))
        shape = (chunk_k, bs, width)
        s_du = np.empty(shape)
        s_dv = np.empty(shape)
        s_a2 = np.empty(shape)
        s_a1 = np.empty(shape)
        s_t = np.empty(shape)
        s_val = np.empty(shape)
        s_m1 = np.empty(shape, dtype=bool)
        s_m2 = np.empty(shape, dtype=bool)
        # Rows below the first of a block see columns j <= i; this mask
        # kills that lower-triangular corner (row-relative ri >= 1 is
        # invalid at column offsets jj <= ri - 1).
        corner = (
            np.tril(np.ones((bs - 1, min(bs - 1, width)), dtype=bool))
            if bs > 1
            else None
        )

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for c0 in range(0, K, chunk_k):
                chunk = np.arange(c0, min(K, c0 + chunk_k))
                alive = chunk[~done[chunk]]
                for r0 in range(0, m - 1, bs):
                    if alive.size == 0:
                        break
                    if time_limit is not None:
                        if time.perf_counter() - t0 > time_limit:
                            exhausted[alive] = False
                            alive = alive[:0]
                            break
                    if work_limit is not None:
                        over = n_evals[alive] >= work_limit
                        if over.any():
                            exhausted[alive[over]] = False
                            alive = alive[~over]
                            if alive.size == 0:
                                break
                    r1 = min(m - 1, r0 + bs)
                    nb = r1 - r0
                    w = m - 1 - r0
                    A = alive.size
                    Ua, Va, Wa = U[alive], V[alive], W[alive]
                    ui = Ua[:, r0:r1, None]
                    vi = Va[:, r0:r1, None]
                    wi = Wa[:, r0:r1, None]
                    uj = Ua[:, None, r0 + 1 :]
                    vj = Va[:, None, r0 + 1 :]
                    wj = Wa[:, None, r0 + 1 :]
                    du = np.subtract(ui, uj, out=s_du[:A, :nb, :w])
                    dv = np.subtract(vi, vj, out=s_dv[:A, :nb, :w])
                    a2 = np.multiply(du, dv, out=s_a2[:A, :nb, :w])
                    a1 = np.multiply(vj, du, out=s_a1[:A, :nb, :w])
                    t = np.multiply(uj, dv, out=s_t[:A, :nb, :w])
                    np.add(a1, t, out=a1)
                    np.subtract(wi, wj, out=t)
                    np.add(a1, t, out=a1)
                    # Interior stationary point exists iff the quadratic
                    # is concave (a2 < 0) and 0 < lam* < 1, which without
                    # division is a1 > 0 and a1 + 2 a2 < 0.
                    mask = np.less(a2, 0.0, out=s_m1[:A, :nb, :w])
                    m2 = np.greater(a1, 0.0, out=s_m2[:A, :nb, :w])
                    np.logical_and(mask, m2, out=mask)
                    np.multiply(a2, 2.0, out=t)
                    np.add(t, a1, out=t)
                    np.less(t, 0.0, out=m2)
                    np.logical_and(mask, m2, out=mask)
                    # f(lam*) = f(e_j) - a1^2 / (4 a2)
                    val = np.multiply(a1, a1, out=s_val[:A, :nb, :w])
                    np.multiply(a2, 4.0, out=t)
                    np.divide(val, t, out=val)
                    np.subtract(ev[alive][:, None, r0 + 1 :], val, out=val)
                    np.logical_not(mask, out=mask)
                    np.copyto(val, -np.inf, where=mask)
                    if nb > 1:
                        cw = min(nb - 1, w)
                        np.copyto(
                            val[:, 1:nb, :cw], -np.inf, where=corner[: nb - 1, :cw]
                        )
                    n_evals[alive] += _triangle_block_evals(r0, r1, m)
                    block_best = val.max(axis=(1, 2))
                    improved = block_best > best_value[alive]
                    for pos in np.flatnonzero(improved):
                        k = int(alive[pos])
                        flat = int(np.argmax(val[pos]))
                        ri, jj = divmod(flat, w)
                        best_value[k] = float(val[pos, ri, jj])
                        best_edge_i[k] = r0 + ri
                        best_edge_j[k] = r0 + 1 + jj
                    if allow_exit:
                        exiting = best_value[alive] > tol
                        if exiting.any():
                            done[alive[exiting]] = True
                            alive = alive[~exiting]

    return best_value, best_vertex, best_edge_i, best_edge_j, n_evals, exhausted


def _solve_stack_native(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, options: SolverOptions
):
    """Native backend: one fused C pass per condition (same schedule)."""
    m = U.shape[1]
    return _native.solve_rank_one_stack(
        np.ascontiguousarray(U, dtype=np.float64),
        np.ascontiguousarray(V, dtype=np.float64),
        np.ascontiguousarray(W, dtype=np.float64),
        tolerance=options.tolerance,
        work_limit=options.work_limit,
        time_limit_s=options.time_limit_s,
        exhaustive=options.exhaustive,
        block_rows=_edge_block_rows(m, options.work_limit),
    )


def _solve_rank_one_simplex_stack(
    U: np.ndarray, V: np.ndarray, W: np.ndarray, options: SolverOptions
) -> list[SolveResult]:
    """Exact simplex maximization of K stacked rank-one conditions.

    ``U``, ``V``, ``W`` are ``(K, m)``; returns one :class:`SolveResult`
    per row.  Every condition follows the identical vertex-scan /
    block-schedule / early-exit path a K=1 call would take, which is
    what makes the batch bit-identical to the scalar loop -- and the
    native and NumPy backends implement that path bit-identically, so
    kernel selection never changes an output.
    """
    K, m = U.shape
    t0 = time.perf_counter()
    kernel = resolve_kernel(options)
    if kernel == "native":
        arrays = _solve_stack_native(U, V, W, options)
    else:
        arrays = _solve_stack_numpy(U, V, W, options, t0)
    _count_kernel(kernel, K)
    best_value, best_vertex, best_edge_i, best_edge_j, n_evals, exhausted = arrays
    tol = options.tolerance

    elapsed = time.perf_counter() - t0
    results: list[SolveResult] = []
    for k in range(K):
        value = float(best_value[k])
        point = np.zeros(m, dtype=np.float64)
        i = int(best_edge_i[k])
        if i < 0:
            point[int(best_vertex[k])] = 1.0
        else:
            j = int(best_edge_j[k])
            du_k = U[k, i] - U[k, j]
            dv_k = V[k, i] - V[k, j]
            a2_k = du_k * dv_k
            a1_k = V[k, j] * du_k + U[k, j] * dv_k + (W[k, i] - W[k, j])
            lam = -a1_k / (2.0 * a2_k)
            point[i] = lam
            point[j] = 1.0 - lam
        if value > tol:
            status = SolverStatus.VIOLATED
        elif exhausted[k]:
            status = SolverStatus.SAFE
        else:
            status = SolverStatus.UNKNOWN
        results.append(
            SolveResult(
                status=status,
                best_value=value,
                best_point=point,
                n_evaluations=int(n_evals[k]),
                elapsed_s=elapsed,
                exhausted=bool(exhausted[k]),
            )
        )
    return results


def maximize_rank_one_simplex(
    condition: RankOneCondition, options: SolverOptions
) -> SolveResult:
    """Exact maximization of one rank-one condition over the simplex.

    The K=1 wrapper of the stacked kernel: scans the vertices, then
    enumerates the upper-triangular edge set in row blocks, respecting
    ``work_limit`` (vertex/edge evaluations) and ``time_limit_s``.  If
    limits end the enumeration early, the result is VIOLATED when a
    positive value was already found and UNKNOWN otherwise.
    """
    return _solve_rank_one_simplex_stack(
        condition.u[None, :], condition.v[None, :], condition.w[None, :], options
    )[0]


# ----------------------------------------------------------------------
# heuristic box path (paper-literal feasible set)
# ----------------------------------------------------------------------
def _box_upper_bound(condition: RankOneCondition) -> float:
    """Interval-arithmetic bound on ``(pi.u)(pi.v) + pi.w`` over the box."""
    u, v, w = condition.u, condition.v, condition.w
    u_range = (float(np.minimum(u, 0).sum()), float(np.maximum(u, 0).sum()))
    v_range = (float(np.minimum(v, 0).sum()), float(np.maximum(v, 0).sum()))
    corners = [x * y for x in u_range for y in v_range]
    return max(corners) + float(np.maximum(w, 0).sum())


def maximize_rank_one_box(
    condition: RankOneCondition, options: SolverOptions
) -> SolveResult:
    """Heuristic maximization over the box ``[0, 1]^m``.

    Projected gradient ascent from deterministic and random starts; SAFE
    only when the interval bound certifies non-positivity, VIOLATED when
    any ascent finds a positive value, otherwise UNKNOWN.  Kept for
    comparison with the paper's literal formulation.
    """
    t0 = time.perf_counter()
    tol = options.tolerance
    u, v, w = condition.u, condition.v, condition.w
    m = condition.n

    bound = _box_upper_bound(condition)
    if bound <= tol:
        return SolveResult(
            status=SolverStatus.SAFE,
            best_value=bound,
            best_point=None,
            n_evaluations=1,
            elapsed_s=time.perf_counter() - t0,
        )

    rng = resolve_rng(options.seed)

    def objective(pi: np.ndarray) -> float:
        return float((pi @ u) * (pi @ v) + pi @ w)

    def gradient(pi: np.ndarray) -> np.ndarray:
        return u * float(pi @ v) + v * float(pi @ u) + w

    starts = [
        np.zeros(m),
        np.ones(m),
        (w > 0).astype(np.float64),
        (u * v > 0).astype(np.float64),
    ]
    for _ in range(max(0, options.n_starts - len(starts))):
        starts.append(rng.uniform(size=m).round())

    best_value = -np.inf
    best_point: np.ndarray | None = None
    n_evaluations = 0
    max_steps = options.work_limit or 200
    for start in starts:
        pi = start.astype(np.float64).copy()
        step = 1.0
        value = objective(pi)
        for _ in range(max_steps):
            if options.time_limit_s is not None:
                if time.perf_counter() - t0 > options.time_limit_s:
                    break
            candidate = np.clip(pi + step * gradient(pi), 0.0, 1.0)
            candidate_value = objective(candidate)
            n_evaluations += 1
            if candidate_value > value + 1e-15:
                pi, value = candidate, candidate_value
                step *= 1.2
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        if value > best_value:
            best_value = value
            best_point = pi
        if best_value > tol:
            break

    elapsed = time.perf_counter() - t0
    status = SolverStatus.VIOLATED if best_value > tol else SolverStatus.UNKNOWN
    return SolveResult(
        status=status,
        best_value=float(best_value),
        best_point=best_point,
        n_evaluations=n_evaluations,
        elapsed_s=elapsed,
        exhausted=False,
    )


# ----------------------------------------------------------------------
# front end
# ----------------------------------------------------------------------
def check_condition(
    condition: RankOneCondition, options: SolverOptions | None = None
) -> SolveResult:
    """Check one Theorem IV.1 condition; see :class:`SolverOptions`."""
    options = options or SolverOptions()
    if options.constraint == "simplex":
        return maximize_rank_one_simplex(condition, options)
    return maximize_rank_one_box(condition, options)


def check_conditions(
    conditions, options: SolverOptions | None = None
) -> tuple[SolverStatus, tuple[SolveResult, ...]]:
    """Check several conditions; combined status is the worst individual.

    VIOLATED dominates UNKNOWN dominates SAFE.  Evaluation short-circuits
    on the first violation (PriSTE halves the budget either way).  This
    is the sequential reference; :func:`check_conditions_batch` is the
    drop-in batched form with identical outputs.
    """
    options = options or SolverOptions()
    results: list[SolveResult] = []
    combined = SolverStatus.SAFE
    for condition in conditions:
        result = check_condition(condition, options)
        results.append(result)
        if result.status is SolverStatus.VIOLATED:
            combined = SolverStatus.VIOLATED
            break
        if result.status is SolverStatus.UNKNOWN:
            combined = SolverStatus.UNKNOWN
    return combined, tuple(results)


class _PackScratch:
    """Per-thread grow-only buffers for packing conditions into stacks.

    ``solve_conditions_batch`` runs on every engine step; re-allocating
    three ``(K, m)`` arrays per call (what ``np.stack`` does) is pure
    overhead for small-m sessions that pack the same shapes thousands of
    times.  The flat backing buffers only ever grow, and the views
    handed out are plain C-contiguous prefixes, so both kernels consume
    them directly.  Thread-local because the service steps sessions from
    a thread pool; the views are consumed before the call returns, so
    reuse across calls on one thread is safe.
    """

    __slots__ = ("capacity", "u", "v", "w")

    def __init__(self) -> None:
        self.capacity = 0
        self.u: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.w: np.ndarray | None = None

    def pack(
        self, conditions: list[RankOneCondition], m: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        K = len(conditions)
        need = K * m
        if need > self.capacity:
            cap = max(need, 4096)
            self.u = np.empty(cap, dtype=np.float64)
            self.v = np.empty(cap, dtype=np.float64)
            self.w = np.empty(cap, dtype=np.float64)
            self.capacity = cap
        U = self.u[:need].reshape(K, m)
        V = self.v[:need].reshape(K, m)
        W = self.w[:need].reshape(K, m)
        for k, condition in enumerate(conditions):
            U[k] = condition.u
            V[k] = condition.v
            W[k] = condition.w
        return U, V, W


_pack_local = threading.local()


def _pack_scratch() -> _PackScratch:
    scratch = getattr(_pack_local, "scratch", None)
    if scratch is None:
        scratch = _PackScratch()
        _pack_local.scratch = scratch
    return scratch


def solve_conditions_batch(
    conditions, options: SolverOptions | None = None
) -> tuple[SolveResult, ...]:
    """Solve every condition of a batch through the stacked kernel.

    No cross-condition short-circuit: all K results come back, each
    bit-identical to what :func:`check_condition` returns for it.  This
    is the primitive the engine's batched verdict pipeline funnels a
    whole calibration round's conditions (many sessions x events x two
    directions) into.

    Conditions of mixed dimension, or box-constrained options, fall back
    to a per-condition loop with unchanged semantics.
    """
    options = options or SolverOptions()
    conditions = list(conditions)
    if not conditions:
        return ()
    sizes = {condition.n for condition in conditions}
    if options.constraint != "simplex" or len(sizes) != 1:
        return tuple(check_condition(condition, options) for condition in conditions)
    U, V, W = _pack_scratch().pack(conditions, sizes.pop())
    return tuple(_solve_rank_one_simplex_stack(U, V, W, options))


def check_conditions_batch(
    conditions, options: SolverOptions | None = None
) -> tuple[SolverStatus, tuple[SolveResult, ...]]:
    """Batched drop-in for :func:`check_conditions`.

    Packs the conditions into the stacked kernel in chunks of
    ``_SHORT_CIRCUIT_CHUNK``, honouring the sequential contract: the
    returned tuple stops at (and includes) the first VIOLATED condition,
    later conditions are never reported, and every reported result is
    bit-identical to the scalar loop's.  Conditions sharing a chunk with
    the first violation may be solved speculatively; their results are
    discarded, so the only difference from the loop is wasted work, not
    output.
    """
    options = options or SolverOptions()
    conditions = list(conditions)
    results: list[SolveResult] = []
    combined = SolverStatus.SAFE
    for start in range(0, len(conditions), _SHORT_CIRCUIT_CHUNK):
        chunk = conditions[start : start + _SHORT_CIRCUIT_CHUNK]
        for result in solve_conditions_batch(chunk, options):
            results.append(result)
            if result.status is SolverStatus.VIOLATED:
                return SolverStatus.VIOLATED, tuple(results)
            if result.status is SolverStatus.UNKNOWN:
                combined = SolverStatus.UNKNOWN
    return combined, tuple(results)
