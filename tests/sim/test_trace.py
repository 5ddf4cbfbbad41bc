"""Tests for the per-slot trace facility."""

from __future__ import annotations

import pytest

from repro.core import AggressivePolicy, OverflowGuardPolicy, solve_greedy
from repro.energy import BernoulliRecharge, ConstantRecharge
from repro.events import DeterministicInterArrival
from repro.exceptions import SimulationError
from repro.sim import simulate_single, summarize_trace, trace_single

DELTA1, DELTA2 = 1.0, 6.0


def _guarded(weibull):
    return OverflowGuardPolicy(solve_greedy(weibull, 0.3, DELTA1, DELTA2).as_policy())


class TestTraceReplaysEngine:
    @pytest.mark.parametrize(
        "make_policy, recharge, seed",
        [
            (lambda w: AggressivePolicy(), BernoulliRecharge(0.5, 1.0), 0),
            (lambda w: AggressivePolicy(), BernoulliRecharge(0.5, 1.0), 7),
            (lambda w: AggressivePolicy(), BernoulliRecharge(0.5, 1.0), 42),
            # Non-dyadic amounts: a clipped level and the reflected form
            # round differently, so only the engine's arithmetic matches.
            (lambda w: AggressivePolicy(), BernoulliRecharge(0.37, 0.7), 0),
            # Battery-aware: the trace must feed the level to the policy.
            (_guarded, BernoulliRecharge(0.5, 1.0), 3),
        ],
        ids=["0", "7", "42", "non-dyadic", "overflow-guard"],
    )
    def test_aggregates_match_fast_engine(
        self, weibull, make_policy, recharge, seed
    ):
        """Same seed -> identical counters between trace and engine."""
        kwargs = dict(
            capacity=80.0, delta1=DELTA1, delta2=DELTA2,
            horizon=5_000, seed=seed,
        )
        policy = make_policy(weibull)
        fast = simulate_single(weibull, policy, recharge, **kwargs)
        slow = summarize_trace(
            trace_single(weibull, policy, recharge, **kwargs), 80.0
        )
        assert slow.n_events == fast.n_events
        assert slow.n_captures == fast.n_captures
        assert slow.total_activations == fast.total_activations
        assert slow.sensors[0].blocked_slots == fast.sensors[0].blocked_slots
        assert slow.sensors[0].final_battery == fast.sensors[0].final_battery
        assert (
            slow.sensors[0].energy_overflow == fast.sensors[0].energy_overflow
        )
        assert slow.aoi == fast.aoi

    def test_greedy_policy_replay(self, weibull):
        policy = solve_greedy(weibull, 0.5, DELTA1, DELTA2).as_policy()
        kwargs = dict(
            capacity=300.0, delta1=DELTA1, delta2=DELTA2,
            horizon=8_000, seed=11,
        )
        recharge = ConstantRecharge(0.5)
        fast = simulate_single(weibull, policy, recharge, **kwargs)
        slow = summarize_trace(
            trace_single(weibull, policy, recharge, **kwargs), 300.0
        )
        assert slow.n_captures == fast.n_captures
        assert slow.qom == pytest.approx(fast.qom)


class TestRecordSemantics:
    def test_recency_resets_on_event_full_info(self):
        d = DeterministicInterArrival(3)
        policy = solve_greedy(d, 3.0, DELTA1, DELTA2).as_policy()
        records = trace_single(
            d, policy, ConstantRecharge(3.0),
            capacity=100, delta1=DELTA1, delta2=DELTA2,
            horizon=9, seed=0,
        )
        assert [r.recency for r in records] == [1, 2, 3, 1, 2, 3, 1, 2, 3]
        assert [r.event for r in records] == [False, False, True] * 3

    def test_energy_books_per_slot(self, weibull):
        records = trace_single(
            weibull, AggressivePolicy(), BernoulliRecharge(0.5, 2.0),
            capacity=30, delta1=DELTA1, delta2=DELTA2,
            horizon=2_000, seed=5,
        )
        for prev, cur in zip(records, records[1:]):
            stored = cur.recharge - cur.overflow
            assert cur.battery_before == pytest.approx(
                prev.battery_after + stored
            )
            assert 0 <= cur.battery_after <= 30 + 1e-9

    def test_blocked_never_active(self, weibull):
        records = trace_single(
            weibull, AggressivePolicy(), ConstantRecharge(0.2),
            capacity=20, delta1=DELTA1, delta2=DELTA2,
            horizon=3_000, seed=9,
        )
        assert any(r.blocked for r in records)
        for r in records:
            assert not (r.blocked and r.active)
            if r.captured:
                assert r.active and r.event

    def test_invalid_configuration(self, weibull):
        """The trace rejects exactly what simulate_single rejects."""
        for bad in (
            dict(capacity=-1), dict(delta1=-1.0), dict(delta2=-1.0),
            dict(horizon=-1), dict(initial_energy=81.0),
        ):
            kwargs = dict(
                capacity=80.0, delta1=DELTA1, delta2=DELTA2,
                horizon=10, seed=0,
            )
            kwargs.update(bad)
            for run in (trace_single, simulate_single):
                with pytest.raises(SimulationError):
                    run(
                        weibull, AggressivePolicy(), ConstantRecharge(0.5),
                        **kwargs,
                    )

    def test_empty_trace_summary(self):
        result = summarize_trace([], 50.0)
        assert result.horizon == 0
        assert result.qom == 1.0
