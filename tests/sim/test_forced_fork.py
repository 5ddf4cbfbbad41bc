"""Forced-fork equivalence for every seeded ``parallel_map`` caller.

``parallel_map`` normally finishes small workloads serially, so an
``n_jobs=2`` test can pass without ever forking.  Here the fork
threshold is forced to zero and each caller must return exactly what
its serial run returns.  A generator that crossed the fork boundary (a
worker closure capturing a live stream, or generators passed as items)
would hand every worker a copy of the same stream, and the results
would differ.

The callable form of ``replicate`` is covered the same way in
``tests/devtools/test_telemetry.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.partial_info import clear_analysis_cache
from repro.core import AggressivePolicy, MultiAggressiveCoordinator
from repro.core.clustering import optimize_clustering
from repro.devtools import telemetry
from repro.energy import BernoulliRecharge
from repro.events import WeibullInterArrival
from repro.experiments.common import compute_points, compute_spec_points
from repro.sim import (
    replicate,
    simulate_network_batch,
    simulate_single,
    spawn_seeds,
)
from repro.sim import parallel as parallel_mod
from repro.sim.batch_kernel import RunSpec

DELTA1, DELTA2 = 1.0, 6.0
WEIBULL = WeibullInterArrival(40, 3)
RATES = (0.3, 0.5, 0.7)


def _spec(rate, seed, horizon=2_000):
    return RunSpec(
        distribution=WEIBULL,
        policy=AggressivePolicy(),
        recharge=BernoulliRecharge(rate, 1.0),
        capacity=80.0,
        delta1=DELTA1,
        delta2=DELTA2,
        horizon=horizon,
        seed=seed,
    )


def _batch_replicate(n_jobs):
    return replicate(_spec(0.5, 0), 4, base_seed=7, n_jobs=n_jobs).values


def _network_replicate(n_jobs):
    return simulate_network_batch(
        WEIBULL, MultiAggressiveCoordinator(3), BernoulliRecharge(0.5, 1.0),
        capacity=100.0, delta1=DELTA1, delta2=DELTA2,
        horizon=1_000, seeds=spawn_seeds(7, 4), n_jobs=n_jobs,
    )


def _point_sweep(n_jobs):
    def point(rate):
        return simulate_single(
            WEIBULL, AggressivePolicy(), BernoulliRecharge(rate, 1.0),
            capacity=80.0, delta1=DELTA1, delta2=DELTA2,
            horizon=2_000, seed=spawn_seeds(3, 1)[0],
        )

    return compute_points(point, RATES, n_jobs=n_jobs)


def _spec_sweep(n_jobs):
    def point_specs(rate):
        return [_spec(rate, seed) for seed in spawn_seeds(1, 2)]

    return compute_spec_points(point_specs, RATES, n_jobs=n_jobs)


def _clustering_screen(n_jobs):
    clear_analysis_cache()
    solution = optimize_clustering(
        WeibullInterArrival(8, 3), 0.5, DELTA1, DELTA2, n_jobs=n_jobs
    )
    return (
        solution.qom,
        solution.energy_rate,
        solution.analysis.survival.tobytes(),
        solution.analysis.beta_hat.tobytes(),
    )


CALLERS = {
    "sim.batch.replicate[RunSpec]": _batch_replicate,
    "sim.network.replicate": _network_replicate,
    "experiments.compute_points": _point_sweep,
    "experiments.compute_spec_points": _spec_sweep,
    "core.clustering.screen": _clustering_screen,
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_forced_fork_matches_serial(caller, monkeypatch):
    run = CALLERS[caller]
    serial = run(1)
    monkeypatch.setattr(parallel_mod, "PARALLEL_MIN_FORK_SECONDS", 0.0)
    forked = run(2)
    assert telemetry.last_dispatch_record()["mode"] == "parallel"
    assert forked == serial
