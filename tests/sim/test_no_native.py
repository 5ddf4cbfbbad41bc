"""Without the C scan, every entry point falls back to the reference loop.

On a host with no C compiler ``get_native_scan()`` returns ``None``; the
``no_native`` fixture recreates that state.  ``backend="auto"`` must then
return exactly the reference results and record the reason, and
``backend="vectorized"`` must raise like for any ineligible run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.partial_info import clear_analysis_cache
from repro.core import AggressivePolicy, solve_greedy
from repro.core.clustering import optimize_clustering
from repro.core.multi import MultiAggressiveCoordinator, make_mfi, make_mpi
from repro.devtools import telemetry
from repro.energy import BernoulliRecharge
from repro.events import WeibullInterArrival
from repro.exceptions import SimulationError
from repro.sim import (
    NetworkRunSpec,
    RunSpec,
    simulate_batch,
    simulate_network,
    simulate_network_runs,
    simulate_single,
)
from repro.sim import _native, bulk_substreams, spawn_substreams
from repro.sim._native import NATIVE_UNAVAILABLE

DELTA1, DELTA2 = 1.0, 6.0


def _single(weibull):
    policy = optimize_clustering(weibull, 0.5, DELTA1, DELTA2).policy
    return lambda backend: simulate_single(
        weibull, policy, BernoulliRecharge(0.5, 1.0),
        capacity=60.0, delta1=DELTA1, delta2=DELTA2,
        horizon=3_000, seed=7, backend=backend,
    )


def _network(weibull):
    coordinator = make_mfi(weibull, 0.1, 3, DELTA1, DELTA2)[0]
    return lambda backend: simulate_network(
        weibull, coordinator, BernoulliRecharge(0.1, 1.0),
        capacity=50.0, delta1=DELTA1, delta2=DELTA2,
        horizon=3_000, seed=7, backend=backend,
    )


def _batch(weibull):
    policies = [
        AggressivePolicy(),
        solve_greedy(weibull, 0.5, DELTA1, DELTA2).as_policy(),
        optimize_clustering(weibull, 0.5, DELTA1, DELTA2).policy,
    ]
    specs = [
        RunSpec(
            distribution=weibull, policy=policy,
            recharge=BernoulliRecharge(0.5, 1.0), capacity=40.0,
            delta1=DELTA1, delta2=DELTA2, horizon=700 + 50 * i, seed=i,
        )
        for i, policy in enumerate(policies)
    ]
    return lambda backend: simulate_batch(specs, backend=backend)


def _network_runs(weibull):
    coordinators = [
        MultiAggressiveCoordinator(2),
        make_mpi(weibull, 0.1, 2, DELTA1, DELTA2)[0],
    ]
    specs = [
        NetworkRunSpec(
            distribution=weibull, coordinator=coordinator,
            recharge=BernoulliRecharge(0.1, 1.0), capacity=50.0,
            delta1=DELTA1, delta2=DELTA2, horizon=400, seed=11 + i,
        )
        for i, coordinator in enumerate(coordinators)
    ]
    return lambda backend: simulate_network_runs(specs, backend=backend)


ENTRY_POINTS = {
    "simulate_single": _single,
    "simulate_network": _network,
    "simulate_batch": _batch,
    "simulate_network_runs": _network_runs,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_auto_falls_back_to_reference(weibull, no_native, entry):
    run = ENTRY_POINTS[entry](weibull)
    reference = run("reference")
    with telemetry.collect() as t:
        auto = run("auto")
    assert auto == reference
    reasons = {
        e["reason"] for e in t.events if e["kind"] == "backend_fallback"
    }
    assert reasons == {NATIVE_UNAVAILABLE}
    backends = {e["backend"] for e in t.events if e["kind"] == "simulation_run"}
    assert backends == {"reference"}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_vectorized_raises(weibull, no_native, entry):
    run = ENTRY_POINTS[entry](weibull)
    with pytest.raises(SimulationError, match="native scan unavailable"):
        run("vectorized")


def test_structural_reason_outranks_missing_native(weibull, no_native):
    """An ineligible configuration reports its own reason on every host."""
    with pytest.raises(SimulationError, match="trace"):
        simulate_single(
            weibull, AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=100, seed=0, backend="vectorized",
            collect_battery_trace=True,
        )


def test_clustering_search_falls_back_to_reference_dp(monkeypatch):
    """Without the C library the partial-information DP runs the numpy
    reference: the same solution, with the reason recorded."""
    small = WeibullInterArrival(8, 3)

    def solve():
        clear_analysis_cache()
        solution = optimize_clustering(small, 0.5, DELTA1, DELTA2, n_jobs=1)
        clear_analysis_cache()
        p = solution.policy
        return (
            p.n1, p.n2, p.n3, p.c_n1, p.c_n2, p.c_n3,
            solution.qom, solution.energy_rate,
            solution.analysis.survival.tobytes(),
        )

    assert _native.get_native_scan() is not None, "the C DP needs gcc/cc"
    native = solve()
    monkeypatch.setattr(_native, "_lib_tried", True)  # as no_native does
    monkeypatch.setattr(_native, "_lib_cache", None)
    with telemetry.collect() as t:
        reference = solve()
    assert native == reference
    assert t.counters["analysis.fallback.reference"] >= 1
    reasons = {
        (e["entry"], e["reason"])
        for e in t.events if e["kind"] == "backend_fallback"
    }
    assert reasons == {("partial_info", NATIVE_UNAVAILABLE)}


def test_substreams_and_results_match_native(weibull, request):
    """Without the library, sub-streams derive through numpy's
    SeedSequence: the same streams, so the same simulation results."""
    seeds = [
        0, 2**40 + 7, [7, 5, 0, 3], np.random.SeedSequence(9, spawn_key=(3,)),
    ]

    def derive():
        streams = [spawn_substreams(s, 3) for s in seeds]
        streams += bulk_substreams(seeds, 3)
        draws = [[g.random(8).tobytes() for g in gens] for gens in streams]
        return draws, _single(weibull)("auto"), _batch(weibull)("auto")

    assert _native.get_native_scan() is not None, "the C hash needs gcc/cc"
    native = derive()
    request.getfixturevalue("no_native")
    assert derive() == native
    (child,) = spawn_substreams([7, 5, 0, 3], 1)
    assert isinstance(child.bit_generator.seed_seq, np.random.SeedSequence)
