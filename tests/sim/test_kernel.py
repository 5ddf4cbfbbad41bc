"""Bit-identity of the vectorized kernel against the reference engine.

Every test compares full :class:`SimulationResult` objects with ``==``:
both backends must produce exactly the same integers *and* the same
floating-point bit patterns, per the kernel contract.  The C scan is
the only fast path; ``test_no_native.py`` covers the reference-loop
fallback without it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggressivePolicy, solve_greedy
from repro.core.baselines import (
    AgeThresholdPolicy,
    energy_balanced_period,
    solve_ebcw,
)
from repro.core.battery_aware import OverflowGuardPolicy
from repro.core.clustering import optimize_clustering
from repro.core.policy import InfoModel, VectorPolicy
from repro.energy import BernoulliRecharge, ConstantRecharge
from repro.energy.recharge import RechargeProcess
from repro.events import WeibullInterArrival
from repro.exceptions import SimulationError
from repro.sim import _native, simulate_single

DELTA1, DELTA2 = 1.0, 6.0


def _policies(weibull):
    return {
        "aggressive": AggressivePolicy(),
        "aggressive_full": AggressivePolicy(info_model=InfoModel.FULL),
        "greedy_full": solve_greedy(weibull, 0.5, DELTA1, DELTA2).as_policy(),
        "clustering_partial": optimize_clustering(
            weibull, 0.5, DELTA1, DELTA2
        ).policy,
        "ebcw_partial": solve_ebcw(weibull, 0.5, DELTA1, DELTA2).policy,
        "periodic": energy_balanced_period(weibull, 0.5, DELTA1, DELTA2),
        "age_threshold": AgeThresholdPolicy(25),
    }


def _both(policy, recharge, **kwargs):
    ref = simulate_single(policy=policy, recharge=recharge,
                          backend="reference", **kwargs)
    vec = simulate_single(policy=policy, recharge=recharge,
                          backend="vectorized", **kwargs)
    return ref, vec


class TestBitIdentity:
    @pytest.mark.parametrize(
        "name",
        ["aggressive", "aggressive_full", "greedy_full",
         "clustering_partial", "ebcw_partial", "periodic",
         "age_threshold"],
    )
    @pytest.mark.parametrize("capacity", [40.0, 1000.0])
    def test_all_policies_both_capacities(
        self, weibull, kernel_impl, name, capacity
    ):
        """Starved and well-provisioned runs, every shipped policy class."""
        policy = _policies(weibull)[name]
        ref, vec = _both(
            policy, BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=capacity,
            delta1=DELTA1, delta2=DELTA2, horizon=20_000, seed=7,
        )
        assert ref == vec
        assert ref.sensors[0].final_battery == vec.sensors[0].final_battery
        assert ref.sensors[0].energy_overflow == vec.sensors[0].energy_overflow

    def test_nondyadic_values_still_identical(self, weibull, kernel_impl):
        """Rounding-sensitive inputs: identical fp op order is required."""
        ref, vec = _both(
            AggressivePolicy(), BernoulliRecharge(0.3, 1.0 / 3.0),
            distribution=weibull, capacity=37.7,
            delta1=0.9, delta2=6.1, horizon=20_000, seed=3,
        )
        assert ref == vec

    def test_constant_recharge_overflow_regime(self, weibull, kernel_impl):
        """Tiny capacity forces overflow shaving on nearly every slot."""
        ref, vec = _both(
            AggressivePolicy(), ConstantRecharge(5.0),
            distribution=weibull, capacity=8.0,
            delta1=DELTA1, delta2=DELTA2, horizon=10_000, seed=11,
        )
        assert ref == vec
        assert ref.sensors[0].energy_overflow > 0

    def test_auto_backend_matches_reference(self, weibull, kernel_impl):
        policy = solve_greedy(weibull, 0.5, DELTA1, DELTA2).as_policy()
        kwargs = dict(
            distribution=weibull, capacity=300.0,
            delta1=DELTA1, delta2=DELTA2, horizon=15_000, seed=5,
        )
        auto = simulate_single(
            policy=policy, recharge=BernoulliRecharge(0.5, 1.0), **kwargs
        )
        ref = simulate_single(
            policy=policy, recharge=BernoulliRecharge(0.5, 1.0),
            backend="reference", **kwargs,
        )
        assert auto == ref

    def test_initial_energy_zero(self, weibull, kernel_impl):
        ref, vec = _both(
            AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=50.0,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=2,
            initial_energy=0.0,
        )
        assert ref == vec


class TestEdges:
    def test_zero_horizon(self, weibull, kernel_impl):
        ref, vec = _both(
            AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=100.0,
            delta1=DELTA1, delta2=DELTA2, horizon=0, seed=1,
        )
        assert ref == vec
        assert vec.horizon == 0
        assert vec.sensors[0].final_battery == 50.0

    def test_zero_capacity(self, weibull, kernel_impl):
        """Everything overflows; every desired slot is blocked."""
        ref, vec = _both(
            AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=0.0,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=4,
        )
        assert ref == vec
        assert vec.sensors[0].activations == 0
        assert vec.sensors[0].blocked_slots > 0

    def test_capacity_below_activation_cost(self, weibull, kernel_impl):
        """The gate can never open: permanent blocking."""
        ref, vec = _both(
            AggressivePolicy(), ConstantRecharge(1.0),
            distribution=weibull, capacity=DELTA1 + DELTA2 - 0.5,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=4,
        )
        assert ref == vec
        assert vec.sensors[0].activations == 0

    def test_never_active_policy(self, weibull, kernel_impl):
        policy = VectorPolicy(np.zeros(4), tail=0.0,
                              info_model=InfoModel.PARTIAL)
        ref, vec = _both(
            policy, BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=60.0,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=8,
        )
        assert ref == vec
        assert vec.sensors[0].activations == 0

    def test_long_horizon_recency_beyond_table(self, kernel_impl):
        """Recency larger than the policy table exercises the tail."""
        sparse = WeibullInterArrival(400, 3)
        policy = VectorPolicy(
            np.linspace(1.0, 0.2, 16), tail=0.35, info_model=InfoModel.FULL
        )
        ref, vec = _both(
            policy, BernoulliRecharge(0.5, 1.0),
            distribution=sparse, capacity=200.0,
            delta1=DELTA1, delta2=DELTA2, horizon=20_000, seed=13,
        )
        assert ref == vec

    def test_native_scan_refuses_short_inputs(self):
        """The C scans read `horizon` slots of every input; a shorter
        array is refused before its address is passed."""
        native = _native.get_native_scan()
        assert native is not None, "the C scan needs gcc/cc"
        cs, flags, coins = np.arange(1.0, 9.0), np.zeros(8, bool), np.zeros(8)
        table = np.ones(3)
        args = (1.0, False, True, 10.0, 1.0, 1.0, 5.0)
        activations, _, blocked, *_ = native.scan(cs, flags, coins, table, *args)
        assert activations + blocked == 8  # every coin is below the table
        for bad in (
            (cs, flags[:7], coins, table, *args),
            (cs, flags, coins[:7], table, *args),
            (cs, flags, coins, np.ones(7), 1.0, True, *args[2:]),
        ):
            with pytest.raises(SimulationError, match="too short"):
                native.scan(*bad)
        resp = np.zeros(8, dtype=np.int64)
        with pytest.raises(SimulationError, match="too short"):
            native.scan_network(cs[None, :], flags, coins, resp[:7], table, *args)


class TestDispatch:
    def test_battery_aware_rejected_by_vectorized(self, weibull):
        policy = OverflowGuardPolicy(
            optimize_clustering(weibull, 0.5, DELTA1, DELTA2).policy
        )
        with pytest.raises(SimulationError, match="battery-aware"):
            simulate_single(
                weibull, policy, BernoulliRecharge(0.5, 1.0),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=100, seed=0, backend="vectorized",
            )

    def test_battery_aware_auto_falls_back(self, weibull):
        policy = OverflowGuardPolicy(
            optimize_clustering(weibull, 0.5, DELTA1, DELTA2).policy
        )
        auto = simulate_single(
            weibull, policy, BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=2_000, seed=0,
        )
        ref = simulate_single(
            weibull, policy, BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=2_000, seed=0, backend="reference",
        )
        assert auto == ref

    def test_battery_trace_rejected_by_vectorized(self, weibull):
        with pytest.raises(SimulationError, match="trace"):
            simulate_single(
                weibull, AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=100, seed=0, backend="vectorized",
                collect_battery_trace=True,
            )

    def test_negative_recharge_rejected_by_vectorized(self, weibull):
        class SignedRecharge(RechargeProcess):
            mean_rate = 0.0

            def sequence(self, horizon, rng):
                return rng.normal(0.0, 1.0, size=horizon)

        with pytest.raises(SimulationError, match="negative"):
            simulate_single(
                weibull, AggressivePolicy(), SignedRecharge(),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=100, seed=0, backend="vectorized",
            )
        # auto silently uses the reference loop for the same setup
        auto = simulate_single(
            weibull, AggressivePolicy(), SignedRecharge(),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=100, seed=0,
        )
        ref = simulate_single(
            weibull, AggressivePolicy(), SignedRecharge(),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=100, seed=0, backend="reference",
        )
        assert auto == ref

    def test_unknown_backend_rejected(self, weibull):
        with pytest.raises(SimulationError, match="backend"):
            simulate_single(
                weibull, AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=10, seed=0, backend="numba",
            )


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        capacity=st.sampled_from([0.0, 6.9, 40.0, 123.45, 1000.0]),
        horizon=st.integers(0, 600),
        p_hot=st.floats(0.0, 1.0),
        tail=st.floats(0.0, 1.0),
        full_info=st.booleans(),
        q=st.floats(0.1, 1.0),
    )
    def test_random_configs_bit_identical(
        self, seed, capacity, horizon, p_hot, tail, full_info, q
    ):
        policy = VectorPolicy(
            np.array([p_hot, tail / 2.0, p_hot / 3.0]),
            tail=tail,
            info_model=InfoModel.FULL if full_info else InfoModel.PARTIAL,
        )
        recharge = BernoulliRecharge(q, 0.7)
        distribution = WeibullInterArrival(20, 2)
        ref, vec = _both(
            policy, recharge,
            distribution=distribution, capacity=capacity,
            delta1=DELTA1, delta2=DELTA2, horizon=horizon, seed=seed,
        )
        assert ref == vec
