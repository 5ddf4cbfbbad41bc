"""Tests for the estimate -> re-solve -> act controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveController
from repro.analysis.partial_info import clear_analysis_cache
from repro.core.baselines import AggressivePolicy
from repro.devtools import telemetry
from repro.energy.recharge import ConstantRecharge
from repro.events import (
    DeterministicInterArrival,
    EmpiricalInterArrival,
    WeibullInterArrival,
)
from repro.exceptions import PolicyError
from repro.sim import ChunkedSimulator

DELTA1 = 1.0
DELTA2 = 6.0

#: Low-fidelity clustering search: keeps partial-info re-solve tests
#: inside the tier-1 time budget without changing the loop under test.
FAST_SOLVE = {"max_candidates": 4, "top_k": 2, "refine": False}


def _make_sim(
    distribution=None,
    seed: int = 5,
    total_horizon: int = 60_000,
    full_info: bool = True,
) -> ChunkedSimulator:
    return ChunkedSimulator(
        distribution
        if distribution is not None
        else WeibullInterArrival(20, 3),
        ConstantRecharge(0.5),
        capacity=200.0,
        delta1=DELTA1,
        delta2=DELTA2,
        total_horizon=total_horizon,
        seed=seed,
        full_info=full_info,
    )


def _solved_key(controller: AdaptiveController) -> tuple:
    """The clustering structure and predicted QoM of the last solve."""
    p = controller._policy
    return (p.n1, p.n2, p.n3, p.c_n1, p.c_n2, p.c_n3,
            controller._solved.predicted_qom)


class TestValidation:
    def test_unknown_family_raises(self) -> None:
        with pytest.raises(PolicyError):
            AdaptiveController(_make_sim(), e=0.5, family="gaussian")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_slots": 0},
            {"drift_threshold": -0.1},
            {"changepoint_ratio": 1.0},
            {"quantization": 1.0},
            {"quantization": -0.5},
            {"e": -1.0},
        ],
    )
    def test_bad_parameters_raise(self, kwargs: dict) -> None:
        base = {"e": 0.5}
        base.update(kwargs)
        with pytest.raises(PolicyError):
            AdaptiveController(_make_sim(), **base)

    def test_run_requires_positive_chunks(self) -> None:
        controller = AdaptiveController(_make_sim(), e=0.5)
        with pytest.raises(PolicyError):
            controller.run(0)


class TestWarmup:
    def test_warmup_policy_until_min_observations(self) -> None:
        # A sparse truth: one chunk yields far fewer than
        # min_observations gaps, so the first record must still be on
        # the warm-up policy with no model solved.
        sim = _make_sim(
            DeterministicInterArrival(400), total_horizon=4000
        )
        controller = AdaptiveController(
            sim, e=0.5, chunk_slots=1000, min_observations=30
        )
        record = controller.step()
        assert record.family == "warmup"
        assert not record.resolved
        assert controller.current_distribution is None
        assert isinstance(controller.policy, AggressivePolicy)

    def test_custom_warmup_policy_used(self) -> None:
        custom = AggressivePolicy()
        sim = _make_sim(full_info=False, total_horizon=2000)
        controller = AdaptiveController(
            sim, e=0.5, chunk_slots=1000, warmup_policy=custom
        )
        assert controller.policy is custom


class TestFullInfoLoop:
    def test_first_fit_resolves_and_converges(self) -> None:
        controller = AdaptiveController(
            _make_sim(), e=0.5, chunk_slots=2000
        )
        records = controller.run(10)
        assert controller.n_resolves >= 1
        assert records[-1].family in ("weibull", "held")
        # After convergence the solved model predicts the realized QoM.
        realized = np.nanmean([r.qom for r in records[-3:]])
        assert records[-1].predicted_qom == pytest.approx(
            realized, abs=0.1
        )

    def test_stationary_truth_needs_few_resolves(self) -> None:
        controller = AdaptiveController(
            _make_sim(), e=0.5, chunk_slots=2000
        )
        controller.run(15)
        # One initial solve; noise-level drift must not keep re-solving.
        assert 1 <= controller.n_resolves <= 3
        assert controller.n_changepoints == 0

    def test_degenerate_fit_falls_back_to_empirical(self) -> None:
        sim = _make_sim(
            DeterministicInterArrival(6), total_horizon=10_000
        )
        controller = AdaptiveController(
            sim, e=0.5, chunk_slots=1000, family="weibull"
        )
        with telemetry.collect() as col:
            records = controller.run(3)
        resolving = [r for r in records if r.resolved]
        assert resolving, "controller never resolved on a dense truth"
        assert resolving[0].degenerate_fallback
        assert resolving[0].family == "empirical"
        assert col.counters.get("adaptive.fit.degenerate", 0) >= 1
        assert isinstance(
            controller.current_distribution, EmpiricalInterArrival
        )

    def test_changepoint_detection_resets_and_resolves(self) -> None:
        sim = _make_sim(total_horizon=60_000, seed=9)
        controller = AdaptiveController(sim, e=0.5, chunk_slots=2000)
        controller.run(8)
        assert controller.n_changepoints == 0
        # Abrupt switch to a much denser truth.
        sim.set_distribution(WeibullInterArrival(6, 2))
        records = controller.run(6)
        assert controller.n_changepoints >= 1
        cp = next(r for r in records if r.changepoint)
        assert cp.resolved

    def test_telemetry_counts_chunks_and_resolves(self) -> None:
        controller = AdaptiveController(
            _make_sim(), e=0.5, chunk_slots=2000
        )
        with telemetry.collect() as col:
            controller.run(5)
        assert col.counters.get("adaptive.chunks") == 5
        assert (
            col.counters.get("adaptive.resolve")
            == controller.n_resolves
            >= 1
        )


class TestQuantization:
    def test_noisy_refits_snap_to_identical_fingerprints(self) -> None:
        controller = AdaptiveController(
            _make_sim(), e=0.5, quantization=1.0 / 64.0
        )
        # A pmf sitting on the quantization grid, plus sub-grid noise:
        # the two fits differ byte-wise but must snap to one fingerprint.
        ticks = np.array([10.0, 20.0, 25.0, 9.0])
        base = ticks / ticks.sum()
        noise = np.array([1e-6, -2e-6, 1.5e-6, -0.5e-6])
        a = EmpiricalInterArrival(base)
        b = EmpiricalInterArrival((base + noise) / (base + noise).sum())
        assert a.fingerprint != b.fingerprint
        qa = controller._quantize(a)
        qb = controller._quantize(b)
        assert qa.fingerprint == qb.fingerprint

    def test_zero_quantization_disables_snapping(self) -> None:
        controller = AdaptiveController(
            _make_sim(), e=0.5, quantization=0.0
        )
        dist = EmpiricalInterArrival([0.123456, 0.876544])
        assert controller._quantize(dist) is dist

    def test_weibull_quantizes_in_parameter_space(self) -> None:
        controller = AdaptiveController(_make_sim(), e=0.5)
        quantized = controller._quantize(
            WeibullInterArrival(19.87654, 3.01234)
        )
        assert isinstance(quantized, WeibullInterArrival)
        assert quantized.scale == pytest.approx(19.88)
        assert quantized.shape == pytest.approx(3.01)


class TestPartialInfoLoop:
    def test_pi_resolve_reuses_memo(self) -> None:
        """A partial-info re-solve of an unchanged fit comes back from
        the analysis memo — the warm-re-solve machinery the adaptive
        loop is built on — and equals a cold solve."""
        sim = _make_sim(
            WeibullInterArrival(12, 2),
            full_info=False,
            total_horizon=20_000,
        )
        controller = AdaptiveController(
            sim, e=0.5, chunk_slots=2000, solve_kwargs=FAST_SOLVE
        )
        controller.run(3)
        assert controller.n_resolves >= 1
        # Re-solving the identical quantized distribution again must
        # come back from the analysis memo without a single recompute ...
        fitted = controller.current_distribution
        with telemetry.collect() as col2:
            controller._solve(fitted)
        assert col2.counters.get("analysis.memo.hit", 0) > 0
        assert col2.counters.get("analysis.memo.miss", 0) == 0
        warm = _solved_key(controller)
        # ... and must match a cold solve of the same fit exactly.
        clear_analysis_cache()
        controller._solve(fitted)
        assert _solved_key(controller) == warm

    def test_pi_estimate_deconvolves_with_model_hint(self) -> None:
        sim = _make_sim(
            WeibullInterArrival(12, 2),
            full_info=False,
            total_horizon=30_000,
        )
        controller = AdaptiveController(
            sim, e=0.5, chunk_slots=3000, solve_kwargs=FAST_SOLVE
        )
        records = controller.run(6)
        assert controller.n_resolves >= 1
        solved = controller.current_distribution
        assert isinstance(solved, EmpiricalInterArrival)
        # The censoring correction is mean(a) = p_hint * mean(g): the
        # solved model's mean gap must sit well below the raw censored
        # captured-gap mean still held in the observation window (the
        # hint only approximates the realized capture probability, so
        # exact recovery of the truth is not gated here).
        support = np.arange(1, solved.alpha.size + 1)
        est_mean = float(np.dot(support, solved.alpha))
        captured_mean = controller.observer.mean()
        assert est_mean < 0.85 * captured_mean
        assert est_mean > 1.0
        assert all(r.family in ("warmup", "empirical", "held")
                   for r in records)
