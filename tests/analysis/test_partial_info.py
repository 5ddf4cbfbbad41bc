"""Tests for the partial-information hazard DP (analysis.partial_info)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    analyse_partial_info_policy,
    conditional_hazards,
    expand_activation,
)
from repro.events import (
    DeterministicInterArrival,
    EmpiricalInterArrival,
    GeometricInterArrival,
)
from repro.exceptions import PolicyError

DELTA1, DELTA2 = 1.0, 6.0


class TestExpandActivation:
    def test_padding_with_tail(self):
        out = expand_activation(np.array([0.3]), 4, tail=0.7)
        np.testing.assert_allclose(out, [0.3, 0.7, 0.7, 0.7])

    def test_truncation(self):
        out = expand_activation(np.array([0.1, 0.2, 0.3]), 2)
        np.testing.assert_allclose(out, [0.1, 0.2])

    def test_validation(self):
        with pytest.raises(PolicyError):
            expand_activation(np.array([[0.1]]), 3)
        with pytest.raises(PolicyError):
            expand_activation(np.array([2.0]), 3)
        with pytest.raises(PolicyError):
            expand_activation(np.array([0.5]), 3, tail=1.5)


class TestConditionalHazards:
    def test_always_active_tracks_true_hazard(self, two_slot):
        """With c = 1 everywhere, no event is ever missed, so the
        conditional hazard equals the plain hazard along the no-event
        path: beta_hat_1 = beta_1, beta_hat_2 = beta_2, ..."""
        beta_hat, survival = conditional_hazards(
            two_slot, np.ones(4), 3, tail=1.0
        )
        assert beta_hat[0] == pytest.approx(two_slot.hazard(1))
        assert beta_hat[1] == pytest.approx(two_slot.hazard(2))
        # Survival: s1 = 1, s2 = 1 - beta_1, s3 = 0 (gap <= 2 always).
        assert survival[0] == pytest.approx(1.0)
        assert survival[1] == pytest.approx(0.4)
        assert survival[2] == pytest.approx(0.0, abs=1e-12)

    def test_never_active_mixes_over_missed_events(self, two_slot):
        """With c = 0 the sensor misses everything; the conditional
        hazard converges to the stationary event rate 1/mu."""
        beta_hat, survival = conditional_hazards(
            two_slot, np.zeros(2), 60, tail=0.0
        )
        np.testing.assert_allclose(survival, 1.0)  # never captures
        assert beta_hat[-1] == pytest.approx(1.0 / two_slot.mu, rel=1e-6)

    def test_geometric_hazard_is_constant(self):
        d = GeometricInterArrival(0.25)
        beta_hat, _ = conditional_hazards(d, np.full(8, 0.5), 8, tail=0.5)
        np.testing.assert_allclose(beta_hat, 0.25, atol=1e-9)

    def test_deterministic_with_certain_capture(self):
        d = DeterministicInterArrival(3)
        beta_hat, survival = conditional_hazards(
            d, np.ones(6), 6, tail=1.0
        )
        # Events at multiples of 3; capture is certain at slot 3.
        np.testing.assert_allclose(beta_hat[:3], [0.0, 0.0, 1.0], atol=1e-12)
        assert survival[3] == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_missed_event_recurs(self):
        """Sleep through the first event: it recurs 3 slots later."""
        d = DeterministicInterArrival(3)
        c = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        beta_hat, survival = conditional_hazards(d, c, 6, tail=1.0)
        assert beta_hat[2] == pytest.approx(1.0)   # missed (c_3 = 0)
        assert survival[3] == pytest.approx(1.0)   # still uncaptured
        assert beta_hat[5] == pytest.approx(1.0)   # recurs at slot 6
        assert survival[5] == pytest.approx(1.0)

    def test_fractional_activation_interpolates(self, two_slot):
        """c in (0,1) mixes the captured and missed branches."""
        c = np.array([0.5])
        beta_hat, survival = conditional_hazards(two_slot, c, 2, tail=0.0)
        # s_2 = 1 - c_1 * beta_1 = 1 - 0.5 * 0.6.
        assert survival[1] == pytest.approx(1 - 0.3)

    def test_invalid_horizon(self, two_slot):
        with pytest.raises(PolicyError):
            conditional_hazards(two_slot, np.ones(1), 0)


class TestAnalysePolicy:
    def test_always_on_has_perfect_qom(self, two_slot):
        analysis = analyse_partial_info_policy(
            two_slot, np.ones(2), DELTA1, DELTA2, tail=1.0
        )
        assert analysis.qom == pytest.approx(1.0, abs=1e-9)
        assert analysis.energy_rate == pytest.approx(
            DELTA1 + DELTA2 / two_slot.mu, rel=1e-9
        )

    def test_stationary_distribution_normalised(self, small_weibull):
        analysis = analyse_partial_info_policy(
            small_weibull, np.array([0.0, 0.0, 0.5]), DELTA1, DELTA2, tail=1.0
        )
        assert analysis.stationary.sum() == pytest.approx(1.0, abs=1e-3)
        assert analysis.expected_cycle == pytest.approx(
            small_weibull.mu / analysis.qom, rel=1e-6
        )

    def test_qom_between_zero_and_one(self, any_distribution):
        analysis = analyse_partial_info_policy(
            any_distribution, np.array([0.0, 1.0]), DELTA1, DELTA2, tail=0.3
        )
        assert 0 <= analysis.qom <= 1

    def test_never_capturing_policy_is_truncated(self, two_slot):
        analysis = analyse_partial_info_policy(
            two_slot, np.zeros(2), DELTA1, DELTA2, tail=0.0,
            max_horizon=500,
        )
        assert analysis.truncated
        assert analysis.qom < 0.05

    def test_matches_simulation(self, small_weibull):
        """Analytic QoM must agree with a large-battery simulation."""
        from repro.core.policy import InfoModel, VectorPolicy
        from repro.energy import ConstantRecharge
        from repro.sim import simulate_single

        vector = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.4])
        analysis = analyse_partial_info_policy(
            small_weibull, vector, DELTA1, DELTA2, tail=1.0
        )
        policy = VectorPolicy(vector, tail=1.0, info_model=InfoModel.PARTIAL)
        result = simulate_single(
            small_weibull,
            policy,
            ConstantRecharge(analysis.energy_rate * 1.05),
            capacity=50_000,
            delta1=DELTA1,
            delta2=DELTA2,
            horizon=400_000,
            seed=11,
        )
        assert result.qom == pytest.approx(analysis.qom, abs=0.02)

    def test_energy_rate_matches_simulation(self, small_weibull):
        from repro.core.policy import InfoModel, VectorPolicy
        from repro.energy import ConstantRecharge
        from repro.sim import simulate_single

        vector = np.array([0.0, 0.0, 1.0, 1.0])
        analysis = analyse_partial_info_policy(
            small_weibull, vector, DELTA1, DELTA2, tail=1.0
        )
        policy = VectorPolicy(vector, tail=1.0, info_model=InfoModel.PARTIAL)
        result = simulate_single(
            small_weibull,
            policy,
            ConstantRecharge(analysis.energy_rate * 1.1),
            capacity=50_000,
            delta1=DELTA1,
            delta2=DELTA2,
            horizon=400_000,
            seed=13,
        )
        simulated_rate = result.total_energy_consumed / result.horizon
        assert simulated_rate == pytest.approx(analysis.energy_rate, rel=0.03)

    def test_negative_deltas_rejected(self, two_slot):
        with pytest.raises(PolicyError):
            analyse_partial_info_policy(two_slot, np.ones(2), -1, 6)


class TestBeliefCrossCheck:
    def test_dp_matches_belief_filter(self, small_weibull):
        """The hazard DP must agree with the exact POMDP belief filter
        along the deterministic all-active no-capture path."""
        from repro.mdp import BeliefState

        horizon = 10
        beta_hat, _ = conditional_hazards(
            small_weibull, np.ones(horizon), horizon, tail=1.0
        )
        belief = BeliefState(small_weibull)
        for t in range(horizon):
            assert belief.event_probability() == pytest.approx(
                float(beta_hat[t]), abs=1e-9
            )
            belief = belief.updated(active=True, observation=0)


class TestAnalyseValidation:
    """The DP takes only finite probabilities in [0, 1] (to within the
    1e-12 that expand_activation allows) and finite energy costs."""

    @pytest.mark.parametrize(
        "activation, tail",
        [
            ([np.nan], 1.0),
            ([0.5, np.inf], 1.0),
            ([1.5, 0.2], 1.0),
            ([-0.3, 0.5], 1.0),
            ([0.5], np.nan),
            ([0.5], 1.7),
            ([0.5], -0.1),
        ],
    )
    def test_invalid_activation_rejected(self, small_weibull, activation, tail):
        with pytest.raises(PolicyError, match="activation"):
            analyse_partial_info_policy(
                small_weibull, np.array(activation), DELTA1, DELTA2, tail=tail
            )

    @pytest.mark.parametrize("activation", [[np.nan], [1.5, 0.2]])
    def test_expand_activation_agrees(self, activation):
        with pytest.raises(PolicyError):
            expand_activation(np.array(activation), 3)

    def test_tolerance_is_clipped(self, small_weibull):
        """Values within 1e-12 of [0, 1] are accepted and clipped."""
        nudged = analyse_partial_info_policy(
            small_weibull, np.array([-1e-13, 1 + 1e-13]), DELTA1, DELTA2,
            tail=1 + 1e-13,
        )
        exact = analyse_partial_info_policy(
            small_weibull, np.array([0.0, 1.0]), DELTA1, DELTA2, tail=1.0
        )
        assert nudged.qom == exact.qom
        assert nudged.energy_rate == exact.energy_rate

    @pytest.mark.parametrize(
        "delta1, delta2", [(np.nan, 6.0), (1.0, np.inf), (np.inf, 6.0)]
    )
    def test_non_finite_deltas_rejected(self, two_slot, delta1, delta2):
        with pytest.raises(PolicyError):
            analyse_partial_info_policy(two_slot, np.ones(2), delta1, delta2)
