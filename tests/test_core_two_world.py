"""Unit tests for the two-possible-world lifted chain."""

import numpy as np
import pytest

from repro.core.baseline import enumerate_prior
from repro.core.two_world import SPARSE_ENV, TwoWorldModel, front_stats
from repro.errors import EventError
from repro.events.events import PatternEvent, PresenceEvent
from repro.geo.regions import Region
from repro.markov.transition import TimeVaryingChain, TransitionMatrix

from conftest import (
    PAPER_M,
    block_product_reference,
    propagation_events,
    random_chain,
)


class TestPaperExample:
    def test_appendix_c_prior_vector(self, paper_chain, paper_presence):
        """Example C.1: Pr(PRESENCE) = pi . [0.28, 0.298, 0.226]."""
        model = TwoWorldModel(paper_chain, paper_presence, horizon=6)
        assert np.allclose(model.prior_vector(), [0.28, 0.298, 0.226])

    def test_appendix_c_lifted_matrices(self, paper_chain, paper_presence):
        """Eq. (22): the lifted matrices at t=2,3 vs t=1,4,5."""
        model = TwoWorldModel(paper_chain, paper_presence, horizon=6)
        inside = model.lifted_matrix(2)
        expected_inside = np.array(
            [
                [0, 0, 0.7, 0.1, 0.2, 0],
                [0, 0, 0.5, 0.4, 0.1, 0],
                [0, 0, 0.9, 0.0, 0.1, 0],
                [0, 0, 0, 0.1, 0.2, 0.7],
                [0, 0, 0, 0.4, 0.1, 0.5],
                [0, 0, 0, 0.0, 0.1, 0.9],
            ]
        )
        assert np.allclose(inside, expected_inside)
        assert np.allclose(model.lifted_matrix(3), expected_inside)
        outside = model.lifted_matrix(1)
        expected_outside = np.block(
            [[PAPER_M, np.zeros((3, 3))], [np.zeros((3, 3)), PAPER_M]]
        )
        assert np.allclose(outside, expected_outside)
        assert np.allclose(model.lifted_matrix(4), expected_outside)
        assert np.allclose(model.lifted_matrix(5), expected_outside)


class TestLiftedStructure:
    def test_lifted_matrices_row_stochastic(self, paper_chain, paper_pattern):
        model = TwoWorldModel(paper_chain, paper_pattern, horizon=8)
        for t in range(1, 8):
            lifted = model.lifted_matrix(t)
            assert np.allclose(lifted.sum(axis=1), 1.0), f"t={t}"
            assert np.all(lifted >= 0)

    def test_blocks_match_dense(self, paper_chain, paper_pattern):
        model = TwoWorldModel(paper_chain, paper_pattern, horizon=8)
        for t in range(1, 8):
            ff, ft, tf, tt = model.transition_blocks(t)
            dense = model.lifted_matrix(t)
            m = 3
            assert np.allclose(dense[:m, :m], ff if ff is not None else 0.0)
            assert np.allclose(dense[:m, m:], ft if ft is not None else 0.0)
            assert np.allclose(dense[m:, :m], tf if tf is not None else 0.0)
            assert np.allclose(dense[m:, m:], tt if tt is not None else 0.0)

    def test_propagate_front_matches_dense(self, paper_chain, paper_pattern, rng):
        model = TwoWorldModel(paper_chain, paper_pattern, horizon=8)
        front = rng.uniform(size=(3, 6))
        for t in range(1, 8):
            fast = model.propagate_front(front, t)
            slow = front @ model.lifted_matrix(t)
            assert np.allclose(fast, slow), f"t={t}"

    def test_true_world_absorbing_for_presence(self, paper_chain, paper_presence):
        model = TwoWorldModel(paper_chain, paper_presence, horizon=6)
        for t in range(1, 6):
            lifted = model.lifted_matrix(t)
            # No mass ever leaves the true world for PRESENCE.
            assert np.allclose(lifted[3:, :3], 0.0)

    def test_pattern_true_world_leaks_back(self, paper_chain, paper_pattern):
        model = TwoWorldModel(paper_chain, paper_pattern, horizon=8)
        # Inside the window (t = start..end-1 = 2..3) mass can fall back.
        assert np.any(model.lifted_matrix(2)[3:, :3] > 0)

    def test_initial_lift_start_gt_1(self, paper_chain, paper_presence):
        model = TwoWorldModel(paper_chain, paper_presence, horizon=6)
        pi = np.array([0.2, 0.5, 0.3])
        lifted = model.lift_initial(pi)
        assert np.allclose(lifted, [0.2, 0.5, 0.3, 0, 0, 0])

    def test_initial_lift_start_1(self, paper_chain):
        event = PresenceEvent(Region.from_cells(3, [1]), start=1, end=2)
        model = TwoWorldModel(paper_chain, event, horizon=4)
        pi = np.array([0.2, 0.5, 0.3])
        lifted = model.lift_initial(pi)
        # Mass at cell 1 starts in the true world.
        assert np.allclose(lifted, [0.2, 0.0, 0.3, 0.0, 0.5, 0.0])

    def test_collapse_adjoint_identity(self, paper_chain, paper_presence, rng):
        model = TwoWorldModel(paper_chain, paper_presence, horizon=6)
        pi = np.array([0.2, 0.5, 0.3])
        vector = rng.uniform(size=6)
        assert model.lift_initial(pi) @ vector == pytest.approx(
            pi @ model.collapse(vector)
        )


class TestPropagateFrontBitwise:
    """Two products per call, bit-identical to the block-by-block form."""

    HORIZON = 8

    @pytest.mark.parametrize("m", [7, 64])
    @pytest.mark.parametrize("name", sorted(propagation_events(7)))
    def test_dense_matches_block_reference(self, monkeypatch, rng, name, m):
        monkeypatch.delenv(SPARSE_ENV, raising=False)
        model = TwoWorldModel(
            random_chain(m, rng), propagation_events(m)[name], self.HORIZON,
            sparse=False,
        )
        assert not model.sparse_routing
        # one row, one quantifier's (m, 2m) front, three stacked fronts
        for rows in (1, m, 3 * m):
            front = rng.uniform(size=(rows, 2 * m))
            for t in range(1, self.HORIZON):
                before = front_stats()["dense_matmuls"]
                out = model.propagate_front(front, t)
                assert front_stats()["dense_matmuls"] - before == 2
                np.testing.assert_array_equal(
                    out,
                    block_product_reference(model, front, t),
                    err_msg=f"{name} rows={rows} t={t}",
                )


class TestPriorAgainstEnumeration:
    @pytest.mark.parametrize("start,end", [(2, 2), (2, 4), (1, 3), (4, 5)])
    def test_presence(self, rng, start, end):
        chain = random_chain(3, rng)
        event = PresenceEvent(Region.from_cells(3, [0, 2]), start=start, end=end)
        model = TwoWorldModel(chain, event, horizon=6)
        pi = np.array([0.3, 0.3, 0.4])
        assert model.prior_probability(pi) == pytest.approx(
            enumerate_prior(chain, event, pi), abs=1e-12
        )

    @pytest.mark.parametrize("start", [1, 2, 3])
    def test_pattern(self, rng, start):
        chain = random_chain(3, rng)
        event = PatternEvent(
            [Region.from_cells(3, [0, 1]), Region.from_cells(3, [2])], start=start
        )
        model = TwoWorldModel(chain, event, horizon=6)
        pi = np.array([0.5, 0.25, 0.25])
        assert model.prior_probability(pi) == pytest.approx(
            enumerate_prior(chain, event, pi), abs=1e-12
        )

    def test_time_varying_chain(self, rng):
        matrices = [random_chain(3, rng) for _ in range(5)]
        chain = TimeVaryingChain(matrices)
        event = PresenceEvent(Region.from_cells(3, [1]), start=2, end=4)
        model = TwoWorldModel(chain, event, horizon=6)
        pi = np.array([0.1, 0.6, 0.3])
        assert model.prior_probability(pi) == pytest.approx(
            enumerate_prior(chain, event, pi), abs=1e-12
        )

    def test_prior_plus_negation_is_one(self, paper_chain, paper_presence):
        """The false-world mass is exactly 1 - Pr(EVENT) (mass conservation)."""
        model = TwoWorldModel(paper_chain, paper_presence, horizon=6)
        pi = np.array([0.2, 0.5, 0.3])
        prior = model.prior_probability(pi)
        assert 0.0 < prior < 1.0
        # Propagate the lifted initial through the window and read both
        # world totals.
        state = model.lift_initial(pi)
        for t in range(1, model.end):
            state = state @ model.lifted_matrix(t)
        assert state[3:].sum() == pytest.approx(prior)
        assert state[:3].sum() == pytest.approx(1.0 - prior)


class TestValidation:
    def test_rejects_event_beyond_horizon(self, paper_chain, paper_presence):
        with pytest.raises(EventError):
            TwoWorldModel(paper_chain, paper_presence, horizon=3)

    def test_rejects_size_mismatch(self, paper_chain):
        event = PresenceEvent(Region.from_cells(5, [0]), start=1, end=1)
        with pytest.raises(EventError):
            TwoWorldModel(paper_chain, event, horizon=3)

    def test_rejects_raw_expression(self, paper_chain):
        from repro.events.expressions import at

        with pytest.raises(EventError, match="AutomatonModel"):
            TwoWorldModel(paper_chain, at(1, 0), horizon=3)
