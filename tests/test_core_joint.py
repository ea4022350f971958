"""Unit tests for the incremental joint-probability quantifier."""

import json

import numpy as np
import pytest

from repro.core.baseline import enumerate_joint
from repro.core.joint import (
    EventQuantifier,
    joint_probability,
    observation_probability,
)
from repro.core.two_world import TwoWorldModel
from repro.errors import QuantificationError
from repro.events.events import PatternEvent, PresenceEvent
from repro.geo.regions import Region

from conftest import random_chain, random_emission


def _columns(emission: np.ndarray, observations) -> np.ndarray:
    return np.stack([emission[:, o] for o in observations])


class TestAgainstEnumeration:
    @pytest.mark.parametrize("upto", [1, 2, 3, 4, 5, 6])
    def test_presence_joint(self, rng, upto):
        chain = random_chain(3, rng)
        emission = random_emission(3, rng)
        event = PresenceEvent(Region.from_cells(3, [0, 1]), start=3, end=4)
        model = TwoWorldModel(chain, event, horizon=6)
        pi = np.array([0.25, 0.5, 0.25])
        observations = [0, 2, 1, 0, 1, 2]
        cols = _columns(emission, observations)
        fast = joint_probability(model, pi, cols, upto_t=upto)
        slow = enumerate_joint(chain, event, pi, cols, upto_t=upto)
        assert fast == pytest.approx(slow, rel=1e-10)

    @pytest.mark.parametrize("upto", [1, 3, 5])
    def test_pattern_joint(self, rng, upto):
        chain = random_chain(3, rng)
        emission = random_emission(3, rng)
        event = PatternEvent(
            [Region.from_cells(3, [0, 1]), Region.from_cells(3, [1, 2])], start=2
        )
        model = TwoWorldModel(chain, event, horizon=5)
        pi = np.array([0.4, 0.3, 0.3])
        observations = [1, 1, 0, 2, 0]
        cols = _columns(emission, observations)
        fast = joint_probability(model, pi, cols, upto_t=upto)
        slow = enumerate_joint(chain, event, pi, cols, upto_t=upto)
        assert fast == pytest.approx(slow, rel=1e-10)

    def test_observation_probability_decomposes(self, rng):
        """Pr(o) = Pr(o, EVENT) + Pr(o, not EVENT) at every prefix."""
        chain = random_chain(3, rng)
        emission = random_emission(3, rng)
        event = PresenceEvent(Region.from_cells(3, [2]), start=2, end=3)
        model = TwoWorldModel(chain, event, horizon=5)
        pi = np.array([0.2, 0.2, 0.6])
        observations = [0, 1, 2, 1, 0]
        cols = _columns(emission, observations)
        for upto in range(1, 6):
            total = observation_probability(model, pi, cols, upto_t=upto)
            with_event = joint_probability(model, pi, cols, upto_t=upto)
            without = enumerate_joint(
                chain, ~event.to_expression(), pi, cols, upto_t=upto
            )
            assert total == pytest.approx(with_event + without, rel=1e-10)


class TestQuantifierProtocol:
    def _setup(self, rng):
        chain = random_chain(3, rng)
        event = PresenceEvent(Region.from_cells(3, [0]), start=2, end=3)
        model = TwoWorldModel(chain, event, horizon=5)
        return model, random_emission(3, rng)

    def test_prepare_out_of_order_rejected(self, rng):
        model, _ = self._setup(rng)
        quantifier = EventQuantifier(model)
        with pytest.raises(QuantificationError):
            quantifier.prepare(2)

    def test_candidate_requires_prepare(self, rng):
        model, emission = self._setup(rng)
        quantifier = EventQuantifier(model)
        with pytest.raises(QuantificationError):
            quantifier.candidate_bc(1, emission[:, 0])

    def test_commit_requires_prepare(self, rng):
        model, emission = self._setup(rng)
        quantifier = EventQuantifier(model)
        with pytest.raises(QuantificationError):
            quantifier.commit(1, emission[:, 0])

    def test_prepare_beyond_horizon_rejected(self, rng):
        model, emission = self._setup(rng)
        quantifier = EventQuantifier(model)
        for t in range(1, 6):
            quantifier.prepare(t)
            quantifier.commit(t, emission[:, 0])
        with pytest.raises(QuantificationError):
            quantifier.prepare(6)

    def test_candidates_do_not_mutate_state(self, rng):
        model, emission = self._setup(rng)
        quantifier = EventQuantifier(model)
        quantifier.prepare(1)
        b1, c1 = quantifier.candidate_bc(1, emission[:, 0])
        # Trying a different candidate must not change the first's answer.
        quantifier.candidate_bc(1, emission[:, 1])
        b2, c2 = quantifier.candidate_bc(1, emission[:, 0])
        assert np.allclose(b1, b2)
        assert np.allclose(c1, c2)

    def test_bad_column_shape_rejected(self, rng):
        model, _ = self._setup(rng)
        quantifier = EventQuantifier(model)
        quantifier.prepare(1)
        with pytest.raises(QuantificationError):
            quantifier.candidate_bc(1, np.ones(4))

    def test_column_out_of_unit_interval_rejected(self, rng):
        model, _ = self._setup(rng)
        quantifier = EventQuantifier(model)
        quantifier.prepare(1)
        with pytest.raises(QuantificationError):
            quantifier.candidate_bc(1, np.array([0.5, 1.5, 0.2]))

    def test_scaling_invariant_bc(self, rng):
        """b, c with the log_scale undone must equal the direct joints."""
        model, emission = self._setup(rng)
        quantifier = EventQuantifier(model)
        pi = np.array([0.3, 0.4, 0.3])
        observations = [0, 1, 2, 0, 1]
        cols = _columns(emission, observations)
        for t in range(1, 6):
            quantifier.prepare(t)
            b, c = quantifier.candidate_bc(t, cols[t - 1])
            # Candidates are relative to the *committed* scale, so read
            # log_scale before committing t.
            scale = np.exp(quantifier.log_scale)
            quantifier.commit(t, cols[t - 1])
            joint_scaled, total_scaled = quantifier.joint_probabilities(pi, b, c)
            assert joint_scaled * scale == pytest.approx(
                joint_probability(model, pi, cols, upto_t=t), rel=1e-9
            )
            assert total_scaled * scale == pytest.approx(
                observation_probability(model, pi, cols, upto_t=t), rel=1e-9
            )

    def test_long_sequence_no_underflow(self, rng):
        """200 timestamps: scaled fronts stay finite and non-zero."""
        chain = random_chain(4, rng)
        event = PresenceEvent(Region.from_cells(4, [0]), start=2, end=3)
        model = TwoWorldModel(chain, event, horizon=200)
        emission = random_emission(4, rng)
        quantifier = EventQuantifier(model)
        for t in range(1, 201):
            quantifier.prepare(t)
            col = emission[:, int(rng.integers(4))]
            b, c = quantifier.candidate_bc(t, col)
            quantifier.commit(t, col)
        assert np.all(np.isfinite(b)) and np.all(np.isfinite(c))
        assert float(c.max()) > 1e-10  # rescaling kept values in range
        assert quantifier.log_scale < 0  # scale factored out, recorded


class TestCheckpointLayout:
    """One committed front inside, v2 two-front snapshots past the window."""

    EVENTS = {
        "presence": PresenceEvent(Region.from_cells(4, [1, 2]), start=2, end=3),
        "pattern": PatternEvent(
            [Region.from_cells(4, [0, 1]), Region.from_cells(4, [1, 3])], start=2
        ),
    }

    def _setup(self, rng, name):
        model = TwoWorldModel(random_chain(4, rng), self.EVENTS[name], horizon=7)
        emission = random_emission(4, rng)
        return model, _columns(emission, rng.integers(4, size=7))

    @staticmethod
    def _advance(quantifier, cols, upto):
        for t in range(quantifier.committed_t + 1, upto + 1):
            quantifier.prepare(t)
            quantifier.commit(t, cols[t - 1])

    @pytest.mark.parametrize("name", sorted(EVENTS))
    def test_state_dict_keeps_two_front_layout_past_window(self, rng, name):
        model, cols = self._setup(rng, name)
        quantifier = EventQuantifier(model)
        for t in range(1, model.horizon + 1):
            self._advance(quantifier, cols, t)
            state = quantifier.state_dict()
            if t < model.end:
                assert state["front"] is not None
                assert state["front_true"] is None and state["front_all"] is None
                continue
            assert state["front"] is None
            front_true = np.asarray(state["front_true"])
            front_all = np.asarray(state["front_all"])
            assert np.all(front_true[:, :4] == 0.0)
            np.testing.assert_array_equal(front_true[:, 4:], front_all[:, 4:])

    @pytest.mark.parametrize("name", sorted(EVENTS))
    def test_restore_mid_phase_two_is_bit_identical(self, rng, name):
        model, cols = self._setup(rng, name)
        reference = EventQuantifier(model)
        self._advance(reference, cols, model.end + 1)
        state = json.loads(json.dumps(reference.state_dict()))
        assert state["front"] is None
        restored = EventQuantifier(model)
        restored.load_state_dict(state)
        for t in range(model.end + 2, model.horizon + 1):
            for quantifier in (reference, restored):
                quantifier.prepare(t)
            b_ref, c_ref = reference.candidate_bc(t, cols[t - 1])
            b_res, c_res = restored.candidate_bc(t, cols[t - 1])
            assert b_ref.tobytes() == b_res.tobytes()
            assert c_ref.tobytes() == c_res.tobytes()
            for quantifier in (reference, restored):
                quantifier.commit(t, cols[t - 1])
            assert restored.state_dict() == reference.state_dict()
            assert restored.log_scale == reference.log_scale

    def test_inconsistent_phase_two_state_rejected(self, rng):
        model, cols = self._setup(rng, "presence")
        quantifier = EventQuantifier(model)
        self._advance(quantifier, cols, model.end + 1)
        state = quantifier.state_dict()
        front_true = np.asarray(state["front_true"])
        rescaled = front_true.copy()
        rescaled[:, 4:] *= 0.5
        leaked = front_true.copy()
        leaked[0, 0] = 0.25
        for bad in (rescaled, leaked):
            with pytest.raises(QuantificationError, match="front_true"):
                EventQuantifier(model).load_state_dict(
                    dict(state, front_true=bad.tolist())
                )
        # a single-front (phase 1) layout cannot describe t >= end
        with pytest.raises(QuantificationError, match="layout"):
            EventQuantifier(model).load_state_dict(
                dict(state, front=state["front_all"], front_true=None, front_all=None)
            )
