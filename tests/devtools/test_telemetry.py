"""Telemetry subsystem: non-interference, merge exactness, manifests.

The contract under test, in order of importance:

1. Telemetry must never change results — runs are bit-identical with a
   collector active or not, on every backend.
2. Counter/timer totals are exact across process boundaries: a forked
   ``parallel_map`` reports the same totals as the serial run.
3. Disabled-mode instrumentation costs < 2% of the simulation hot path.
4. Run manifests round-trip through JSON and the schema check.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AggressivePolicy
from repro.core.policy import InfoModel
from repro.devtools import telemetry
from repro.energy import BernoulliRecharge, ConstantRecharge
from repro.events import WeibullInterArrival
from repro.sim import parallel_map, replicate, simulate_single

DELTA1, DELTA2 = 1.0, 6.0


def _run(weibull, **overrides):
    kwargs = dict(
        distribution=weibull,
        policy=AggressivePolicy(),
        recharge=BernoulliRecharge(0.5, 1.0),
        capacity=60.0,
        delta1=DELTA1,
        delta2=DELTA2,
        horizon=20_000,
        seed=7,
    )
    kwargs.update(overrides)
    return simulate_single(**kwargs)


class TestZeroInterference:
    """Results must be bit-identical with telemetry enabled vs disabled."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_golden_bit_identity(self, weibull, kernel_impl, backend):
        plain = _run(weibull, backend=backend)
        with telemetry.collect() as t:
            observed = _run(weibull, backend=backend)
        assert plain == observed
        assert (
            plain.sensors[0].final_battery
            == observed.sensors[0].final_battery
        )
        assert t.counters, "collection recorded nothing"
        assert f"sim.dispatch.{backend}" in t.counters

    def test_overflow_regime_identical(self, weibull, kernel_impl):
        """Tiny capacity exercises the overflow-shaving branch."""
        kwargs = dict(
            recharge=ConstantRecharge(5.0), capacity=8.0, horizon=10_000
        )
        plain = _run(weibull, **kwargs)
        with telemetry.collect():
            observed = _run(weibull, **kwargs)
        assert plain == observed
        assert plain.sensors[0].energy_overflow > 0

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        capacity=st.sampled_from([0.0, 6.9, 40.0, 123.45, 1000.0]),
        horizon=st.integers(0, 500),
        q=st.floats(0.1, 1.0),
        full_info=st.booleans(),
        backend=st.sampled_from(["reference", "vectorized"]),
    )
    def test_hypothesis_sweep_bit_identical(
        self, seed, capacity, horizon, q, full_info, backend
    ):
        """Random configurations, both backends."""
        distribution = WeibullInterArrival(20, 2)
        policy = AggressivePolicy(
            info_model=InfoModel.FULL if full_info else InfoModel.PARTIAL
        )
        kwargs = dict(
            distribution=distribution,
            policy=policy,
            recharge=BernoulliRecharge(q, 0.7),
            capacity=capacity,
            delta1=DELTA1,
            delta2=DELTA2,
            horizon=horizon,
            seed=seed,
            backend=backend,
        )
        plain = simulate_single(**kwargs)
        with telemetry.collect():
            observed = simulate_single(**kwargs)
        assert plain == observed


class TestMergeExactness:
    """Serial and forked runs of a workload report identical totals."""

    def test_parallel_map_counters_match_serial(self):
        def work(x):
            telemetry.count("test.items")
            telemetry.count("test.weight", x)
            telemetry.event("test_item", value=x)
            with telemetry.timed("test.timer"):
                pass
            return x * x

        with telemetry.collect() as serial:
            out_serial = parallel_map(work, range(8))
        with telemetry.collect() as forked:
            out_forked = parallel_map(
                work, range(8), n_jobs=2, min_fork_seconds=0.0
            )
        assert out_serial == out_forked == [x * x for x in range(8)]
        for name, expected in (
            ("test.items", 8),
            ("test.weight", sum(range(8))),
        ):
            assert serial.counters[name] == expected
            assert forked.counters[name] == expected
        assert serial.timers["test.timer"]["count"] == 8
        assert forked.timers["test.timer"]["count"] == 8
        serial_events = [e for e in serial.events if e["kind"] == "test_item"]
        forked_events = [e for e in forked.events if e["kind"] == "test_item"]
        assert len(serial_events) == len(forked_events) == 8
        assert (
            sorted(e["value"] for e in serial_events)
            == sorted(e["value"] for e in forked_events)
        )

    def test_dispatch_modes_recorded(self):
        with telemetry.collect() as serial:
            parallel_map(lambda x: x, [1, 2, 3])
        assert serial.counters["parallel.dispatch.serial"] == 1
        with telemetry.collect() as forked:
            parallel_map(lambda x: x, range(6), n_jobs=2,
                         min_fork_seconds=0.0)
        assert forked.counters["parallel.dispatch.parallel"] == 1
        record = telemetry.last_dispatch_record()
        assert record["mode"] == "parallel"
        assert record["error"] is False

    def test_replicate_simulation_counters_match(self, weibull, monkeypatch):
        """End-to-end: sim.dispatch totals survive the fork boundary."""
        from repro.sim import parallel as parallel_mod

        def run(seed):
            return simulate_single(
                weibull, AggressivePolicy(), BernoulliRecharge(0.5, 1.0),
                capacity=80.0, delta1=DELTA1, delta2=DELTA2,
                horizon=2_000, seed=seed,
            )

        with telemetry.collect() as serial:
            a = replicate(run, n_replicates=6, base_seed=5)
        monkeypatch.setattr(parallel_mod, "PARALLEL_MIN_FORK_SECONDS", 0.0)
        with telemetry.collect() as forked:
            b = replicate(run, n_replicates=6, base_seed=5, n_jobs=2)
        assert a.values == b.values
        key = "sim.dispatch.vectorized"
        assert serial.counters[key] == forked.counters[key] == 6
        serial_runs = [
            e for e in serial.events if e["kind"] == "simulation_run"
        ]
        forked_runs = [
            e for e in forked.events if e["kind"] == "simulation_run"
        ]
        assert len(serial_runs) == len(forked_runs) == 6

    def test_nested_collect_merges_into_parent(self):
        with telemetry.collect() as outer:
            telemetry.count("outer.only")
            with telemetry.collect() as inner:
                telemetry.count("shared", 2)
                telemetry.event("nested", depth=1)
        assert inner.counters == {"shared": 2}
        assert outer.counters == {"outer.only": 1, "shared": 2}
        assert [e["kind"] for e in outer.events] == ["nested"]

    def test_isolated_collect_does_not_merge(self):
        with telemetry.collect() as outer:
            with telemetry.isolated_collect() as frame:
                telemetry.count("isolated")
            assert frame.counters == {"isolated": 1}
            assert "isolated" not in outer.counters
            telemetry.absorb(frame.snapshot())
        assert outer.counters == {"isolated": 1}

    def test_event_buffer_cap_counts_drops(self):
        with telemetry.collect() as t:
            for i in range(10_050):
                telemetry.event("flood", i=i)
        assert len(t.events) == 10_000
        assert t.counters["telemetry.dropped"] == 50


class TestDisabledOverhead:
    """With no collector, instrumentation must cost < 2% of the hot path."""

    def test_disabled_calls_under_two_percent_of_hot_path(self, weibull):
        assert not telemetry.enabled()
        # Per-call cost of every disabled primitive, averaged over many
        # calls so the measurement itself is stable.
        reps = 50_000
        start = time.perf_counter()
        for _ in range(reps):
            telemetry.count("x")
            telemetry.event("x", a=1)
            with telemetry.timed("x"):
                pass
        per_site = (time.perf_counter() - start) / (3 * reps)

        # How many instrumentation sites does one hot run actually hit?
        # Count what an enabled run records: every counter increment,
        # event and timer entry corresponds to one call site.
        with telemetry.collect() as t:
            _run(weibull, backend="vectorized", horizon=50_000)
        sites = (
            sum(t.counters.values())
            + len(t.events)
            + sum(int(s["count"]) for s in t.timers.values())
        )

        # Hot-path duration without collection (best of three).
        duration = min(
            _timed_run(weibull) for _ in range(3)
        )
        overhead = sites * per_site
        assert overhead < 0.02 * duration, (
            f"disabled telemetry overhead {overhead * 1e6:.1f}us exceeds "
            f"2% of the {duration * 1e3:.1f}ms hot path ({sites} sites, "
            f"{per_site * 1e9:.0f}ns/site)"
        )


def _timed_run(weibull):
    start = time.perf_counter()
    _run(weibull, backend="vectorized", horizon=50_000)
    return time.perf_counter() - start


class TestSeedProvenance:
    def test_int_seed(self):
        assert telemetry.describe_seed(7) == {"type": "int", "entropy": 7}

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(42).spawn(3)[1]
        described = telemetry.describe_seed(seq)
        assert described["type"] == "seed_sequence"
        assert described["entropy"] == 42
        assert described["spawn_key"] == [1]

    def test_irreproducible_seeds(self):
        assert telemetry.describe_seed(None)["reproducible"] is False
        gen = np.random.default_rng(0)
        assert telemetry.describe_seed(gen)["reproducible"] is False


class TestManifest:
    def test_round_trips_through_schema_check(self, tmp_path, weibull):
        with telemetry.collect() as t:
            _run(weibull, horizon=2_000)
        path = tmp_path / "manifest.json"
        written = telemetry.write_manifest(
            str(path), t.snapshot(),
            command="simulate", arguments={"seed": 7, "horizon": 2_000},
        )
        loaded = json.loads(path.read_text())
        telemetry.validate_manifest(loaded)
        assert loaded["schema_version"] == telemetry.MANIFEST_SCHEMA_VERSION
        assert loaded["command"] == "simulate"
        assert loaded["arguments"]["horizon"] == 2_000
        assert loaded["versions"]["numpy"]
        (run,) = loaded["runs"]
        assert run["entry"] == "simulate_single"
        assert run["seed"] == {"type": "int", "entropy": 7}
        assert run["horizon"] == 2_000
        assert loaded["telemetry"]["counters"] == written["telemetry"]["counters"]

    def test_missing_key_rejected(self):
        with telemetry.collect() as t:
            telemetry.count("x")
        manifest = telemetry.build_manifest(t.snapshot())
        del manifest["runs"]
        with pytest.raises(telemetry.TelemetryError, match="runs"):
            telemetry.validate_manifest(manifest)

    def test_wrong_schema_version_rejected(self):
        manifest = telemetry.build_manifest({"counters": {}, "events": []})
        manifest["schema_version"] = 999
        with pytest.raises(telemetry.TelemetryError, match="schema_version"):
            telemetry.validate_manifest(manifest)

    def test_non_object_rejected(self):
        with pytest.raises(telemetry.TelemetryError, match="JSON object"):
            telemetry.validate_manifest([1, 2, 3])

    def test_run_entry_without_entry_key_rejected(self):
        manifest = telemetry.build_manifest({})
        manifest["runs"] = [{"kind": "simulation_run"}]
        with pytest.raises(telemetry.TelemetryError, match="entry"):
            telemetry.validate_manifest(manifest)
