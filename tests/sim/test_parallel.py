"""Parallel fan-out: determinism, seed spawning, replicate(n_jobs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AggressivePolicy
from repro.energy import BernoulliRecharge
from repro.exceptions import SimulationError
from repro.sim import (
    parallel_map,
    replicate,
    resolve_n_jobs,
    simulate_network_batch,
    simulate_single,
    spawn_seeds,
)
from repro.sim import parallel as parallel_mod
from repro.devtools import telemetry
from repro.core import MultiAggressiveCoordinator

DELTA1, DELTA2 = 1.0, 6.0


class TestResolveNJobs:
    def test_none_is_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_explicit_counts(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(3) == 3

    def test_minus_one_uses_all_cores(self):
        assert resolve_n_jobs(-1) >= 1

    @pytest.mark.parametrize("bad", [0, -2, -17])
    def test_invalid_counts_rejected(self, bad):
        with pytest.raises(SimulationError, match="n_jobs"):
            resolve_n_jobs(bad)


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        a = spawn_seeds(42, 16)
        b = spawn_seeds(42, 16)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        states = {tuple(s.generate_state(4)) for s in a}
        assert len(states) == 16

    def test_different_base_seeds_differ(self):
        a = spawn_seeds(1, 4)
        b = spawn_seeds(2, 4)
        assert all(
            tuple(x.generate_state(4)) != tuple(y.generate_state(4))
            for x, y in zip(a, b)
        )

    def test_zero_count(self):
        assert spawn_seeds(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError, match="count"):
            spawn_seeds(0, -1)

    def test_seeds_drive_the_simulator(self, weibull):
        (seed,) = spawn_seeds(9, 1)
        result = simulate_single(
            weibull, AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=500, seed=seed,
        )
        again = simulate_single(
            weibull, AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=500, seed=spawn_seeds(9, 1)[0],
        )
        assert result == again


class TestAutoSerialDispatch:
    """Small workloads must never pay the fork spin-up (tier-1 speed guard)."""

    def test_small_workload_never_forks(self, monkeypatch):
        """Below the threshold no pool may be constructed at all."""

        class _Forbidden:
            def __init__(self, *args, **kwargs):
                raise AssertionError("pool forked for a tiny workload")

        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor", _Forbidden
        )
        out = parallel_map(lambda x: x + 1, range(10), n_jobs=2)
        assert out == [x + 1 for x in range(10)]
        assert telemetry.last_dispatch_record()["mode"] == "serial-auto"

    def test_serial_mode_recorded(self):
        parallel_map(lambda x: x, [1, 2, 3])
        assert telemetry.last_dispatch_record()["mode"] == "serial"

    def test_zero_threshold_forces_fork(self):
        out = parallel_map(
            lambda x: x * 2, range(6), n_jobs=2, min_fork_seconds=0.0
        )
        assert out == [x * 2 for x in range(6)]
        dispatch = telemetry.last_dispatch_record()
        assert dispatch["mode"] == "parallel"
        assert dispatch["first_item_seconds"] is not None

    def test_dispatch_does_not_change_results(self):
        fn = lambda x: x * x - 3  # noqa: E731
        auto = parallel_map(fn, range(12), n_jobs=2)
        forked = parallel_map(fn, range(12), n_jobs=2, min_fork_seconds=0.0)
        assert auto == forked == [fn(x) for x in range(12)]

    def test_slow_workload_forks(self, monkeypatch):
        import time

        def slow(x):
            time.sleep(0.002)
            return -x

        out = parallel_map(slow, range(8), n_jobs=2, min_fork_seconds=0.005)
        assert out == [-x for x in range(8)]
        assert telemetry.last_dispatch_record()["mode"] == "parallel"

    def test_failed_call_records_its_own_failure(self):
        """Regression: an exception used to leave the previous call's
        record in place; now the failed call reports itself."""
        parallel_map(lambda x: x, [1, 2, 3])  # leaves a clean record
        with pytest.raises(ZeroDivisionError):
            parallel_map(lambda x: 1 // x, [0, 1])
        record = telemetry.last_dispatch_record()
        assert record["error"] is True
        assert record["items"] == 2


class TestParallelMap:
    def test_matches_serial_comprehension(self):
        items = list(range(23))
        fn = lambda x: x * x + 1  # noqa: E731
        assert parallel_map(fn, items, n_jobs=2) == [fn(x) for x in items]

    def test_order_preserved_with_closures(self):
        offset = 1000  # closures work because workers are forked
        out = parallel_map(lambda x: offset - x, range(10), n_jobs=2)
        assert out == [offset - x for x in range(10)]

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], n_jobs=4) == []

    def test_serial_path(self):
        assert parallel_map(lambda x: -x, [1, 2, 3]) == [-1, -2, -3]


def _run_one(weibull, seed):
    return simulate_single(
        weibull, AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
        capacity=80.0, delta1=DELTA1, delta2=DELTA2,
        horizon=2_000, seed=seed,
    )


class TestReplicate:
    def test_parallel_equals_serial_exactly(self, weibull):
        run = lambda seed: _run_one(weibull, seed)  # noqa: E731
        serial = replicate(run, n_replicates=8, base_seed=5)
        parallel = replicate(run, n_replicates=8, base_seed=5, n_jobs=2)
        assert serial.values == parallel.values
        assert serial.mean == parallel.mean
        assert serial.ci_low == parallel.ci_low
        assert serial.ci_high == parallel.ci_high

    def test_seed_derivation_uses_seed_sequences(self, weibull):
        """Replicate seeds come from SeedSequence.spawn, not raw integers."""
        seen = []

        def run(seed):
            seen.append(seed)
            return _run_one(weibull, seed)

        replicate(run, n_replicates=3, base_seed=11)
        assert all(isinstance(s, np.random.SeedSequence) for s in seen)
        expected = spawn_seeds(11, 3)
        assert [s.spawn_key for s in seen] == [s.spawn_key for s in expected]

    def test_base_seed_reproducible(self, weibull):
        run = lambda seed: _run_one(weibull, seed)  # noqa: E731
        a = replicate(run, n_replicates=4, base_seed=3)
        b = replicate(run, n_replicates=4, base_seed=3)
        assert a.values == b.values


class TestNetworkBatch:
    def test_matches_per_seed_calls(self, weibull):
        seeds = spawn_seeds(7, 6)
        batch = simulate_network_batch(
            weibull, MultiAggressiveCoordinator(3),
            BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=1_000, seeds=seeds, n_jobs=2,
        )
        serial = simulate_network_batch(
            weibull, MultiAggressiveCoordinator(3),
            BernoulliRecharge(0.5, 1.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            horizon=1_000, seeds=seeds,
        )
        assert batch == serial
        assert all(r.n_sensors == 3 for r in batch)
