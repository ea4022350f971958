"""Native vs NumPy vs scalar solver kernels: bit-identity contract.

The compiled kernel (``_kernels.c`` via ctypes) is only allowed to exist
because it returns *exactly* what the NumPy kernel returns -- statuses,
best values (compared via ``repr`` so signed zeros and every last ulp
count), best points, evaluation counts and the exhausted flag -- for
every input, including the adversarial families: degenerate edges with
``a2 >= 0``, exact vertex ties, values sitting on the tolerance
boundary, NaN coefficients, and work-limit truncation mid-sweep.

Every test that pins ``kernel="native"`` is skipped when no compiler is
available (``REPRO_NATIVE_DISABLE=1`` CI job); the selection-logic tests
run everywhere.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.core.qp import (
    KERNEL_CHOICES,
    KERNEL_ENV,
    SolverOptions,
    SolverStatus,
    check_condition,
    kernel_stats,
    maximize_rank_one_simplex,
    resolve_kernel,
    solve_conditions_batch,
)
from repro.core.theorem import RankOneCondition
from repro.errors import SolverError

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="compiled kernel unavailable (no compiler or disabled)",
)


def _trusted(u, v, w):
    """Condition constructor that skips NaN/inf validation."""
    return RankOneCondition._trusted(
        np.asarray(u, dtype=np.float64),
        np.asarray(v, dtype=np.float64),
        np.asarray(w, dtype=np.float64),
        "test",
    )


def _with_kernel(options: SolverOptions, kernel: str) -> SolverOptions:
    return SolverOptions(
        constraint=options.constraint,
        tolerance=options.tolerance,
        work_limit=options.work_limit,
        time_limit_s=options.time_limit_s,
        exhaustive=options.exhaustive,
        n_starts=options.n_starts,
        seed=options.seed,
        kernel=kernel,
    )


def _condition_families(rng, m):
    """Adversarial condition families the bit-identity sweep covers."""
    tol = 1e-9
    families = {
        "mixed": _trusted(
            rng.normal(size=m), rng.normal(size=m), rng.normal(size=m)
        ),
        "safe": _trusted(
            rng.normal(size=m), rng.normal(size=m), rng.normal(size=m) - 6.0
        ),
        # constant u: every edge has a1 = a2 contributions from du = 0,
        # so no interior stationary point ever qualifies (a2 = 0).
        "degenerate_a2": _trusted(
            np.full(m, 0.7), rng.normal(size=m), rng.normal(size=m) - 1.0
        ),
        # coefficients from a tiny discrete set force exact vertex ties;
        # both kernels must keep the *first* maximizer.
        "ties": _trusted(
            rng.choice([0.0, 1.0], size=m),
            rng.choice([0.0, 1.0], size=m),
            rng.choice([-1.0, 0.0], size=m),
        ),
        # vertex values exactly at +/- the tolerance boundary.
        "tolerance_edge": _trusted(
            np.zeros(m),
            np.zeros(m),
            rng.choice([tol, -tol, np.nextafter(tol, 2.0)], size=m),
        ),
    }
    if m >= 2:
        w = rng.normal(size=m)
        w[0] = np.nan
        families["nan"] = _trusted(rng.normal(size=m), rng.normal(size=m), w)
    # non-zeros in one narrow window, the shape Theorem IV.1 produces on
    # lazy-walk and trace-trained chains
    window = np.zeros(m)
    start = int(rng.integers(0, m))
    window[start:start + 5] = 1.0
    families["banded"] = _trusted(
        window * rng.uniform(size=m),
        window * rng.normal(size=m),
        window * (rng.normal(size=m) - 4.0),
    )
    return families


def _option_sets(m):
    triangle = m + m * (m - 1) // 2
    return [
        SolverOptions(),
        SolverOptions(exhaustive=True),
        SolverOptions(tolerance=1e-3),
        SolverOptions(work_limit=1),
        SolverOptions(work_limit=max(1, triangle // 2)),
        SolverOptions(work_limit=triangle + 10),
        # non-binding wall clock: never fires, but disables early exit,
        # so both kernels must run the full deterministic sweep.
        SolverOptions(time_limit_s=1e6),
    ]


def assert_results_identical(a, b):
    assert a.status is b.status
    assert repr(a.best_value) == repr(b.best_value)
    assert a.n_evaluations == b.n_evaluations
    assert a.exhausted == b.exhausted
    if a.best_point is None or b.best_point is None:
        assert a.best_point is None and b.best_point is None
    else:
        assert a.best_point.tobytes() == b.best_point.tobytes()


@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 16, 64, 256])
    def test_native_equals_numpy_equals_scalar(self, m):
        rng = np.random.default_rng(1000 + m)
        conditions = list(_condition_families(rng, m).values())
        for options in _option_sets(m):
            native_opts = _with_kernel(options, "native")
            numpy_opts = _with_kernel(options, "numpy")
            batch_native = solve_conditions_batch(conditions, native_opts)
            batch_numpy = solve_conditions_batch(conditions, numpy_opts)
            for condition, rn, rp in zip(
                conditions, batch_native, batch_numpy
            ):
                assert_results_identical(rn, rp)
                if options.exhaustive:  # the whole O(m^2) vertex + edge sweep
                    assert rn.n_evaluations == m + m * (m - 1) // 2
                # the scalar K=1 front end, on both kernels
                assert_results_identical(
                    rn, maximize_rank_one_simplex(condition, native_opts)
                )
                assert_results_identical(
                    rn, maximize_rank_one_simplex(condition, numpy_opts)
                )

    def test_check_condition_matches_across_kernels(self):
        rng = np.random.default_rng(7)
        for m in (2, 9, 33):
            for condition in _condition_families(rng, m).values():
                rn = check_condition(condition, _with_kernel(SolverOptions(), "native"))
                rp = check_condition(condition, _with_kernel(SolverOptions(), "numpy"))
                assert_results_identical(rn, rp)

    def test_work_limit_truncation_mid_block(self):
        # m = 200 with the default 8192-element block target gives
        # 40-row edge blocks; a limit binding inside block 2 must stop
        # both kernels at the same evaluation count.
        rng = np.random.default_rng(11)
        condition = _trusted(
            rng.normal(size=200), rng.normal(size=200), rng.normal(size=200) - 8.0
        )
        for limit in (200, 201, 5000, 12345):
            options = SolverOptions(work_limit=limit)
            rn = maximize_rank_one_simplex(condition, _with_kernel(options, "native"))
            rp = maximize_rank_one_simplex(condition, _with_kernel(options, "numpy"))
            assert_results_identical(rn, rp)
            assert not rn.exhausted  # the limit actually bound

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_property_random_conditions(self, data):
        m = data.draw(st.integers(1, 9))
        vals = st.floats(-3.0, 3.0, allow_nan=False)

        def vec():
            return np.asarray(data.draw(st.lists(vals, min_size=m, max_size=m)))

        condition = _trusted(vec(), vec(), vec())
        triangle = m + m * (m - 1) // 2
        work_limit = data.draw(
            st.one_of(st.none(), st.integers(1, triangle + 3))
        )
        exhaustive = data.draw(st.booleans())
        options = SolverOptions(work_limit=work_limit, exhaustive=exhaustive)
        rn = maximize_rank_one_simplex(condition, _with_kernel(options, "native"))
        rp = maximize_rank_one_simplex(condition, _with_kernel(options, "numpy"))
        assert_results_identical(rn, rp)


class TestKernelSelection:
    def test_options_beat_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert resolve_kernel(SolverOptions(kernel="numpy")) == "numpy"
        if native.native_available():
            assert resolve_kernel(SolverOptions(kernel="native")) == "native"
        assert resolve_kernel() == "numpy"

    def test_invalid_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fortran")
        with pytest.raises(SolverError, match="REPRO_SOLVER_KERNEL"):
            resolve_kernel()

    def test_invalid_option_rejected_eagerly(self):
        with pytest.raises(SolverError, match="kernel"):
            SolverOptions(kernel="fortran")

    def test_auto_resolves_to_a_real_backend(self):
        assert resolve_kernel(SolverOptions(kernel="auto")) in ("native", "numpy")

    def test_native_request_fails_loudly_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        native.reset()
        try:
            assert not native.native_available()
            assert native.native_detail()["state"] == "disabled"
            # what a compiler-less host reports as its default kernel
            monkeypatch.delenv(KERNEL_ENV, raising=False)
            stats = kernel_stats()
            assert stats["native_state"] == "disabled"
            assert stats["kernel"] == "numpy"
            with pytest.raises(SolverError, match="native"):
                resolve_kernel(SolverOptions(kernel="native"))
            # auto degrades silently to numpy
            assert resolve_kernel(SolverOptions(kernel="auto")) == "numpy"
            result = maximize_rank_one_simplex(
                _trusted([1.0, 0.0], [1.0, 0.0], [0.0, 0.0]),
                SolverOptions(kernel="auto"),
            )
            assert result.status is SolverStatus.VIOLATED
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            native.reset()

    def test_fingerprint_excludes_kernel(self):
        base = SolverOptions()
        for kernel in KERNEL_CHOICES:
            assert SolverOptions(kernel=kernel).fingerprint() == base.fingerprint()
        assert SolverOptions(work_limit=5).fingerprint() != base.fingerprint()

    def test_kernel_stats_counts_solved_conditions(self):
        before = kernel_stats()
        conditions = [
            _trusted([1.0, -1.0], [1.0, 2.0], [0.0, 0.0]) for _ in range(3)
        ]
        solve_conditions_batch(conditions, SolverOptions(kernel="numpy"))
        after = kernel_stats()
        assert after["numpy_calls"] == before["numpy_calls"] + 1
        assert after["numpy_conditions"] == before["numpy_conditions"] + 3
        assert after["kernel"] in ("native", "numpy")
        assert after["native_state"] in (
            "unloaded", "disabled", "native", "unavailable"
        )

    def test_forced_numpy_environment_end_to_end(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        before = kernel_stats()["numpy_conditions"]
        rng = np.random.default_rng(3)
        conditions = [
            _trusted(rng.normal(size=6), rng.normal(size=6), rng.normal(size=6))
            for _ in range(4)
        ]
        results = solve_conditions_batch(conditions, SolverOptions())
        assert len(results) == 4
        assert kernel_stats()["numpy_conditions"] == before + 4


@needs_native
class TestNativeLoader:
    def test_detail_reports_native(self):
        detail = native.native_detail()
        assert detail["state"] == "native"
        assert detail["path"] is not None
        assert detail["error"] is None

    def test_abi_version_pinned(self):
        lib = native.load_kernel()
        assert lib is not None
        assert lib.ro_kernel_abi_version() == native.KERNEL_ABI_VERSION

    def test_reload_is_stable(self):
        first = native.native_detail()["path"]
        native.reset()
        assert native.native_available()
        assert native.native_detail()["path"] == first
