"""Bit-identity of the network kernel against the reference loop.

Every test compares full :class:`SimulationResult` objects with ``==``:
both backends must produce exactly the same integers *and* the same
floating-point bit patterns for every sensor, per the kernel contract.
The C scan is the only fast path; ``test_no_native.py`` covers the
reference-loop fallback without it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggressivePolicy
from repro.core.clustering import optimize_clustering
from repro.core.multi import (
    NO_SENSOR,
    Coordinator,
    MultiAggressiveCoordinator,
    MultiPeriodicCoordinator,
    RoundRobinCoordinator,
    make_mfi,
    make_mpi,
    make_multi_periodic,
)
from repro.core.policy import InfoModel, VectorPolicy
from repro.energy import BernoulliRecharge, ConstantRecharge
from repro.energy.recharge import RechargeProcess
from repro.exceptions import SimulationError
from repro.sim import _native, simulate_network

DELTA1, DELTA2 = 1.0, 6.0


def _coordinators(weibull):
    return {
        "aggressive1": MultiAggressiveCoordinator(1),
        "aggressive3": MultiAggressiveCoordinator(3),
        "mfi4": make_mfi(weibull, 0.1, 4, DELTA1, DELTA2)[0],
        "mpi2": make_mpi(weibull, 0.1, 2, DELTA1, DELTA2)[0],
        "periodic3": make_multi_periodic(weibull, 0.1, 3, DELTA1, DELTA2),
        "mfi2_active": make_mfi(
            weibull, 0.1, 2, DELTA1, DELTA2, assignment="active-slot"
        )[0],
        "aggressive2_active": RoundRobinCoordinator(
            AggressivePolicy(), 2, assignment="active-slot"
        ),
    }


def _both(coordinator, recharge, **kwargs):
    ref = simulate_network(coordinator=coordinator, recharge=recharge,
                           backend="reference", **kwargs)
    vec = simulate_network(coordinator=coordinator, recharge=recharge,
                           backend="vectorized", **kwargs)
    return ref, vec


class TestBitIdentity:
    @pytest.mark.parametrize(
        "name",
        ["aggressive1", "aggressive3", "mfi4", "mpi2", "periodic3",
         "mfi2_active", "aggressive2_active"],
    )
    @pytest.mark.parametrize("capacity", [40.0, 1000.0])
    def test_all_coordinators_both_capacities(
        self, weibull, kernel_impl, name, capacity
    ):
        """Starved and well-provisioned runs, every eligible coordinator."""
        coordinator = _coordinators(weibull)[name]
        ref, vec = _both(
            coordinator, BernoulliRecharge(0.1, 1.0),
            distribution=weibull, capacity=capacity,
            delta1=DELTA1, delta2=DELTA2, horizon=20_000, seed=7,
        )
        assert ref == vec
        for rs, vs in zip(ref.sensors, vec.sensors):
            assert rs.final_battery == vs.final_battery
            assert rs.energy_overflow == vs.energy_overflow

    def test_nondyadic_values_still_identical(self, weibull, kernel_impl):
        """Rounding-sensitive inputs: identical fp op order is required."""
        ref, vec = _both(
            MultiAggressiveCoordinator(2), BernoulliRecharge(0.3, 1.0 / 3.0),
            distribution=weibull, capacity=37.7,
            delta1=0.9, delta2=6.1, horizon=20_000, seed=3,
        )
        assert ref == vec

    def test_overflow_heavy_regime(self, weibull, kernel_impl):
        """Tiny capacity forces overflow shaving on nearly every slot."""
        ref, vec = _both(
            MultiAggressiveCoordinator(2), ConstantRecharge(5.0),
            distribution=weibull, capacity=8.0,
            delta1=DELTA1, delta2=DELTA2, horizon=10_000, seed=11,
        )
        assert ref == vec
        assert all(s.energy_overflow > 0 for s in vec.sensors)

    def test_auto_backend_matches_reference(self, weibull, kernel_impl):
        coordinator = make_mfi(weibull, 0.1, 3, DELTA1, DELTA2)[0]
        kwargs = dict(
            distribution=weibull, capacity=300.0,
            delta1=DELTA1, delta2=DELTA2, horizon=15_000, seed=5,
        )
        auto = simulate_network(
            coordinator=coordinator, recharge=BernoulliRecharge(0.1, 1.0),
            **kwargs,
        )
        ref = simulate_network(
            coordinator=coordinator, recharge=BernoulliRecharge(0.1, 1.0),
            backend="reference", **kwargs,
        )
        assert auto == ref

    def test_initial_energy_zero(self, weibull, kernel_impl):
        ref, vec = _both(
            MultiAggressiveCoordinator(2), BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=50.0,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=2,
            initial_energy=0.0,
        )
        assert ref == vec


class TestEdges:
    def test_zero_horizon(self, weibull, kernel_impl):
        ref, vec = _both(
            MultiAggressiveCoordinator(3), BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=100.0,
            delta1=DELTA1, delta2=DELTA2, horizon=0, seed=1,
        )
        assert ref == vec
        assert vec.horizon == 0
        assert all(s.final_battery == 50.0 for s in vec.sensors)

    def test_zero_capacity(self, weibull, kernel_impl):
        """Everything overflows; every desired slot is blocked."""
        ref, vec = _both(
            MultiAggressiveCoordinator(2), BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=0.0,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=4,
        )
        assert ref == vec
        assert all(s.activations == 0 for s in vec.sensors)
        assert any(s.blocked_slots > 0 for s in vec.sensors)

    def test_capacity_below_activation_cost(self, weibull, kernel_impl):
        """The gate can never open: permanent blocking on every sensor."""
        ref, vec = _both(
            MultiAggressiveCoordinator(3), ConstantRecharge(1.0),
            distribution=weibull, capacity=DELTA1 + DELTA2 - 0.5,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=4,
        )
        assert ref == vec
        assert all(s.activations == 0 for s in vec.sensors)

    def test_periodic_never_active(self, weibull, kernel_impl):
        """theta1=0: the schedule prescribes no activations at all."""
        ref, vec = _both(
            MultiPeriodicCoordinator(0, 5, 2), BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=60.0,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=8,
        )
        assert ref == vec
        assert all(s.activations == 0 for s in vec.sensors)

    def test_active_slot_never_active_policy(self, weibull, kernel_impl):
        """Constant-zero PI table under active-slot: all slots unassigned."""
        coordinator = RoundRobinCoordinator(
            VectorPolicy(np.zeros(4), tail=0.0, info_model=InfoModel.PARTIAL),
            3, assignment="active-slot",
        )
        ref, vec = _both(
            coordinator, BernoulliRecharge(0.5, 1.0),
            distribution=weibull, capacity=60.0,
            delta1=DELTA1, delta2=DELTA2, horizon=5_000, seed=8,
        )
        assert ref == vec
        assert all(s.activations == 0 for s in vec.sensors)

    def test_long_recency_beyond_table(self, kernel_impl):
        """Recency larger than the policy table exercises the tail."""
        from repro.events import WeibullInterArrival

        sparse = WeibullInterArrival(400, 3)
        policy = VectorPolicy(
            np.linspace(1.0, 0.2, 16), tail=0.35, info_model=InfoModel.FULL
        )
        ref, vec = _both(
            RoundRobinCoordinator(policy, 2), BernoulliRecharge(0.5, 1.0),
            distribution=sparse, capacity=200.0,
            delta1=DELTA1, delta2=DELTA2, horizon=20_000, seed=13,
        )
        assert ref == vec


class _EveryOtherCoordinator(Coordinator):
    """A custom coordinator the kernel has no decomposition for."""

    def __init__(self, n_sensors: int) -> None:
        super().__init__(n_sensors, InfoModel.PARTIAL)

    def decide(self, slot: int, recency: int) -> tuple[int, float]:
        if slot % 2:
            return NO_SENSOR, 0.0
        return (slot // 2) % self.n_sensors, 0.5


class TestDispatch:
    def test_unknown_coordinator_rejected_by_vectorized(self, weibull):
        with pytest.raises(SimulationError, match="unsupported coordinator"):
            simulate_network(
                weibull, _EveryOtherCoordinator(2), BernoulliRecharge(0.5, 1.0),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=100, seed=0, backend="vectorized",
            )

    def test_unknown_coordinator_auto_falls_back(self, weibull):
        auto = simulate_network(
            weibull, _EveryOtherCoordinator(2), BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=2_000, seed=0,
        )
        ref = simulate_network(
            weibull, _EveryOtherCoordinator(2), BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=2_000, seed=0, backend="reference",
        )
        assert auto == ref
        assert auto.total_activations > 0

    def test_active_slot_capture_coupled_falls_back(self, weibull):
        """Active-slot rotation + non-constant PI table needs the loop."""
        policy = optimize_clustering(weibull, 0.2, DELTA1, DELTA2).policy
        coordinator = RoundRobinCoordinator(
            policy, 2, assignment="active-slot"
        )
        with pytest.raises(SimulationError, match="active-slot"):
            simulate_network(
                weibull, coordinator, BernoulliRecharge(0.2, 1.0),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=100, seed=0, backend="vectorized",
            )
        auto = simulate_network(
            weibull, coordinator, BernoulliRecharge(0.2, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=5_000, seed=0,
        )
        ref = simulate_network(
            weibull, coordinator, BernoulliRecharge(0.2, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=5_000, seed=0, backend="reference",
        )
        assert auto == ref

    def test_negative_recharge_rejected_by_vectorized(self, weibull):
        class SignedRecharge(RechargeProcess):
            mean_rate = 0.0

            def sequence(self, horizon, rng):
                return rng.normal(0.0, 1.0, size=horizon)

        with pytest.raises(SimulationError, match="negative"):
            simulate_network(
                weibull, MultiAggressiveCoordinator(2), SignedRecharge(),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=100, seed=0, backend="vectorized",
            )

    def test_unknown_backend_rejected(self, weibull):
        with pytest.raises(SimulationError, match="backend"):
            simulate_network(
                weibull, MultiAggressiveCoordinator(2),
                BernoulliRecharge(0.5, 1.0),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=10, seed=0, backend="numba",
            )

    def test_dispatch_is_native_independent(self, weibull, monkeypatch):
        """A structural rejection does not depend on the C scan loading."""
        coordinator = _EveryOtherCoordinator(2)
        for loaded in (True, False):
            if not loaded:
                monkeypatch.setattr(_native, "_lib_tried", True)
                monkeypatch.setattr(_native, "_lib_cache", None)
            with pytest.raises(SimulationError, match="unsupported"):
                simulate_network(
                    weibull, coordinator, BernoulliRecharge(0.5, 1.0),
                    capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                    horizon=100, seed=0, backend="vectorized",
                )


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        capacity=st.sampled_from([0.0, 6.9, 40.0, 123.45, 1000.0]),
        horizon=st.integers(0, 600),
        n_sensors=st.sampled_from([1, 2, 5]),
        p_hot=st.floats(0.0, 1.0),
        tail=st.floats(0.0, 1.0),
        full_info=st.booleans(),
        q=st.floats(0.1, 1.0),
    )
    def test_random_configs_bit_identical(
        self, seed, capacity, horizon, n_sensors, p_hot, tail, full_info, q
    ):
        from repro.events import WeibullInterArrival

        policy = VectorPolicy(
            np.array([p_hot, tail / 2.0, p_hot / 3.0]),
            tail=tail,
            info_model=InfoModel.FULL if full_info else InfoModel.PARTIAL,
        )
        coordinator = RoundRobinCoordinator(policy, n_sensors)
        recharge = BernoulliRecharge(q, 0.7)
        distribution = WeibullInterArrival(20, 2)
        ref, vec = _both(
            coordinator, recharge,
            distribution=distribution, capacity=capacity,
            delta1=DELTA1, delta2=DELTA2, horizon=horizon, seed=seed,
        )
        assert ref == vec
