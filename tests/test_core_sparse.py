"""Sparse front propagation: routing policy, equivalence, observability.

The CSR path is a *routing* decision made once per
:class:`TwoWorldModel` at construction (env override > explicit arg >
``ChainSpec``/``TransitionMatrix`` hint > density x size heuristic).
Within one model every propagation takes the same backend, so the
engine's stacked-equals-solo bit-identity contract holds; across
backends dense BLAS and CSR traversal agree to a few ulps, which this
suite pins with a near-zero tolerance on lazy-walk, trace-trained and
explicit-matrix chains, and exactly (bitwise) for the stacked-vs-solo
invariant ``prepare_many`` relies on.
"""

import numpy as np
import pytest

from repro.core.joint import EventQuantifier, prepare_many
from repro.core.two_world import (
    SPARSE_ENV,
    TwoWorldModel,
    _reset_front_stats,
    _scipy_sparse,
    front_stats,
)
from repro.errors import EventError
from repro.events.events import PresenceEvent
from repro.geo.grid import GridMap
from repro.geo.regions import Region
from repro.markov.synthetic import lazy_random_walk_transitions
from repro.markov.training import fit_transition_matrix
from repro.markov.transition import TimeVaryingChain, TransitionMatrix
from repro.scenario.spec import ChainSpec

from conftest import block_product_reference, propagation_events

needs_scipy = pytest.mark.skipif(
    _scipy_sparse is None, reason="scipy unavailable"
)


@pytest.fixture(autouse=True)
def _no_routing_override(monkeypatch):
    """Routing is decided by each test, never by the calling shell."""
    monkeypatch.delenv(SPARSE_ENV, raising=False)

HORIZON = 6


def _event(m):
    return PresenceEvent(
        Region.from_range(m, 0, max(1, m // 8)), start=2, end=4
    )


def _lazy_walk_chain(side):
    grid = GridMap(side, side, cell_size_km=1.0)
    return lazy_random_walk_transitions(grid, stay_probability=0.3)


def _trace_chain(m, rng):
    # One long self-avoiding-ish walk with zero smoothing: every row has
    # at most a handful of non-zeros, like a real trace-trained model.
    path = list(range(m)) + list(range(m - 1, -1, -1))
    path += [int(c) for c in rng.integers(0, m, size=4 * m)]
    return fit_transition_matrix([path], m, smoothing=0.0)


def _banded_matrix(m, bandwidth=2):
    matrix = np.zeros((m, m))
    for i in range(m):
        lo, hi = max(0, i - bandwidth), min(m, i + bandwidth + 1)
        matrix[i, lo:hi] = 1.0
        matrix[i] /= matrix[i].sum()
    return TransitionMatrix(matrix)


def _chains(rng):
    return {
        "lazy_walk": _lazy_walk_chain(12),
        "trace": _trace_chain(100, rng),
        "explicit_banded": _banded_matrix(150),
    }


@needs_scipy
class TestSparseVsDense:
    def test_propagate_front_matches_dense_to_ulps(self, rng):
        for name, chain in _chains(rng).items():
            m = chain.n_states
            event = _event(m)
            dense = TwoWorldModel(chain, event, HORIZON, sparse=False)
            sparse = TwoWorldModel(chain, event, HORIZON, sparse=True)
            assert not dense.sparse_routing
            assert sparse.sparse_routing
            front = rng.uniform(size=(4, 2 * m))
            for t in range(1, HORIZON):
                out_dense = dense.propagate_front(front, t)
                out_sparse = sparse.propagate_front(front, t)
                np.testing.assert_allclose(
                    out_sparse,
                    out_dense,
                    rtol=1e-12,
                    atol=1e-15,
                    err_msg=f"{name} t={t}",
                )
                # both agree with the reference dense product
                reference = front @ dense.lifted_matrix(t)
                np.testing.assert_allclose(
                    out_sparse, reference, rtol=1e-12, atol=1e-15
                )

    def test_stacked_equals_solo_bitwise_in_sparse_backend(self, rng):
        # prepare_many stacks committed fronts whenever 2 m^2 fits the
        # stack budget; scipy's CSR matmat accumulates each output row
        # independently of the stack width, so stacked rows must equal
        # solo propagation *bitwise* -- the invariant that lets sparse
        # models keep the engine's batched-equals-solo contract.
        chain = _banded_matrix(150)
        model = TwoWorldModel(chain, _event(150), HORIZON, sparse=True)
        front = rng.uniform(size=(6, 300))
        for t in range(1, HORIZON):
            stacked = model.propagate_front(front, t)
            for k in range(front.shape[0]):
                solo = model.propagate_front(front[k : k + 1], t)
                assert stacked[k].tobytes() == solo[0].tobytes(), (
                    f"t={t} row={k}"
                )

    def test_prepare_many_bit_identical_on_sparse_model(self, rng):
        chain = _lazy_walk_chain(12)
        event = _event(144)
        model = TwoWorldModel(chain, event, HORIZON, sparse=True)
        assert model.sparse_routing
        batched = [EventQuantifier(model) for _ in range(5)]
        solo = [EventQuantifier(model) for _ in range(5)]
        columns = rng.uniform(0.05, 1.0, size=(HORIZON, 144))
        for t in range(1, HORIZON + 1):
            prepare_many(batched, t)
            for quantifier in solo:
                quantifier.prepare(t)
            for qb, qs in zip(batched, solo):
                bb, cb = qb.candidate_bc(t, columns[t - 1])
                bs, cs = qs.candidate_bc(t, columns[t - 1])
                assert bb.tobytes() == bs.tobytes()
                assert cb.tobytes() == cs.tobytes()
                qb.commit(t, columns[t - 1])
                qs.commit(t, columns[t - 1])

    def test_candidate_bc_many_matches_solo_to_ulps(self, rng):
        chain = _lazy_walk_chain(12)
        m = 144
        model = TwoWorldModel(chain, _event(m), HORIZON, sparse=True)
        quantifier = EventQuantifier(model)
        quantifier.prepare(1)
        # wide, mostly-zero column set: the adaptive CSR branch engages
        columns = np.zeros((40, m))
        columns[:, :6] = rng.uniform(0.1, 1.0, size=(40, 6))
        _reset_front_stats()
        b_many, c_many = quantifier.candidate_bc_many(1, columns)
        assert front_stats()["sparse_matmuls"] > 0  # CSR branch engaged
        for k in range(columns.shape[0]):
            b, c = quantifier.candidate_bc(1, columns[k])
            np.testing.assert_allclose(b_many[k], b, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(c_many[k], c, rtol=1e-12, atol=1e-15)


@needs_scipy
class TestCsrPropagationBitwise:
    """Two CSR products per call, bit-identical to per-block CSR products."""

    @pytest.mark.parametrize("name", sorted(propagation_events(150)))
    def test_csr_matches_block_reference(self, rng, name):
        horizon = 8
        chains = {
            "banded": _banded_matrix(150),
            "time_varying": TimeVaryingChain(
                [_banded_matrix(150, bandwidth=b) for b in (1, 2, 3)] * 3
            ),
        }
        for chain_name, chain in chains.items():
            model = TwoWorldModel(
                chain, propagation_events(150)[name], horizon, sparse=True
            )
            assert model.sparse_routing
            for rows in (1, 150, 3 * 150):
                front = rng.uniform(size=(rows, 300))
                for t in range(1, horizon):
                    before = front_stats()["sparse_matmuls"]
                    out = model.propagate_front(front, t)
                    assert front_stats()["sparse_matmuls"] - before == 2
                    np.testing.assert_array_equal(
                        out,
                        block_product_reference(model, front, t),
                        err_msg=f"{name} {chain_name} rows={rows} t={t}",
                    )

    def test_one_csr_per_distinct_chain_matrix(self, rng):
        event = propagation_events(150)["pattern_start_3"]
        front = rng.uniform(size=(2, 300))
        homogeneous = TwoWorldModel(_banded_matrix(150), event, 8, sparse=True)
        _reset_front_stats()
        for t in range(1, 8):
            homogeneous.propagate_front(front, t)
        assert (front_stats()["csr_misses"], front_stats()["csr_hits"]) == (1, 6)
        matrices = [_banded_matrix(150, bandwidth=b) for b in (1, 2)]
        varying = TwoWorldModel(
            TimeVaryingChain(matrices * 4), event, 8, sparse=True
        )
        _reset_front_stats()
        for t in range(1, 8):
            varying.propagate_front(front, t)
        assert (front_stats()["csr_misses"], front_stats()["csr_hits"]) == (2, 5)


@needs_scipy
class TestRoutingPolicy:
    def test_auto_heuristic_by_density_and_size(self):
        # 144-cell lazy walk: density ~0.056 <= 1/16 and m >= 128
        big = TwoWorldModel(_lazy_walk_chain(12), _event(144), HORIZON)
        assert big.sparse_routing
        # 16-cell lazy walk: too small regardless of density
        small = TwoWorldModel(_lazy_walk_chain(4), _event(16), HORIZON)
        assert not small.sparse_routing
        # 150-cell banded but hint pins dense
        hinted = TwoWorldModel(
            TransitionMatrix(_banded_matrix(150).matrix, sparse_hint=False),
            _event(150),
            HORIZON,
        )
        assert not hinted.sparse_routing

    def test_hint_promotes_small_chain(self):
        chain = TransitionMatrix(
            _lazy_walk_chain(4).matrix, sparse_hint=True
        )
        model = TwoWorldModel(chain, _event(16), HORIZON)
        assert model.sparse_routing

    def test_env_overrides_everything(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV, "never")
        model = TwoWorldModel(_lazy_walk_chain(12), _event(144), HORIZON, sparse=True)
        assert not model.sparse_routing
        monkeypatch.setenv(SPARSE_ENV, "always")
        model = TwoWorldModel(_lazy_walk_chain(4), _event(16), HORIZON, sparse=False)
        assert model.sparse_routing

    def test_invalid_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV, "maybe")
        with pytest.raises(EventError, match="REPRO_SPARSE_FRONT"):
            TwoWorldModel(_lazy_walk_chain(4), _event(16), HORIZON)

    def test_time_varying_chain_hints_combine(self):
        banded = _banded_matrix(150)
        pinned_dense = TransitionMatrix(banded.matrix, sparse_hint=False)
        pinned_sparse = TransitionMatrix(banded.matrix, sparse_hint=True)
        assert TimeVaryingChain([banded, pinned_sparse]).sparse_hint is True
        # one dense-pinned matrix pins the whole chain
        assert (
            TimeVaryingChain([pinned_sparse, pinned_dense]).sparse_hint is False
        )
        assert TimeVaryingChain([banded, banded]).sparse_hint is None


@needs_scipy
class TestFrontStats:
    def test_counters_move(self, rng):
        _reset_front_stats()
        chain = _banded_matrix(150)
        sparse = TwoWorldModel(chain, _event(150), HORIZON, sparse=True)
        dense = TwoWorldModel(chain, _event(150), HORIZON, sparse=False)
        stats = front_stats()
        assert stats["sparse_models"] == 1
        assert stats["dense_models"] == 1
        front = rng.uniform(size=(2, 300))
        sparse.propagate_front(front, 2)
        sparse.propagate_front(front, 2)  # same t: CSR cache hit
        dense.propagate_front(front, 2)
        stats = front_stats()
        assert stats["sparse_matmuls"] > 0
        assert stats["dense_matmuls"] > 0
        assert stats["csr_misses"] > 0
        assert stats["csr_hits"] > 0
        assert stats["scipy_available"] is True
        assert stats["mode"] in ("auto", "always", "never")


class TestChainSpecHint:
    def test_hint_plumbs_through_build(self):
        grid = GridMap(12, 12, cell_size_km=1.0)
        assert ChainSpec.lazy_walk(sparse=True).build(grid).sparse_hint is True
        assert ChainSpec.lazy_walk(sparse=False).build(grid).sparse_hint is False
        assert ChainSpec.lazy_walk().build(grid).sparse_hint is None

    def test_json_roundtrip_and_digest_stability(self):
        plain = ChainSpec.lazy_walk(stay_probability=0.3)
        hinted = ChainSpec.lazy_walk(stay_probability=0.3, sparse=True)
        # unset hint is omitted, so pre-existing spec digests are stable
        assert "sparse" not in plain.to_json()
        assert hinted.to_json()["sparse"] is True
        assert ChainSpec.from_json(plain.to_json()).sparse is None
        assert ChainSpec.from_json(hinted.to_json()).sparse is True

    def test_all_kinds_carry_the_hint(self):
        specs = [
            ChainSpec.gaussian(1.0, sparse=True),
            ChainSpec.lazy_walk(sparse=True),
            ChainSpec.from_traces([[0, 1, 0, 1]], sparse=True),
            ChainSpec.explicit([[0.5, 0.5], [0.5, 0.5]], sparse=True),
        ]
        for spec in specs:
            assert spec.sparse is True
            assert ChainSpec.from_json(spec.to_json()).sparse is True
