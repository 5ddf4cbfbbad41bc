"""Tests for the chunked simulator backing the adaptive loop."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.adaptive import LinearRewardInactionPolicy
from repro.core import OverflowGuardPolicy, solve_greedy
from repro.core.baselines import AggressivePolicy, PeriodicPolicy
from repro.core.clustering import ClusteringPolicy
from repro.core.policy import ActivationPolicy, InfoModel, VectorPolicy
from repro.devtools import telemetry
from repro.energy.recharge import BernoulliRecharge, ConstantRecharge
from repro.events import DeterministicInterArrival, WeibullInterArrival
from repro.exceptions import SimulationError
from repro.sim import ChunkedSimulator, ChunkResult, simulate_single
from repro.sim._native import NATIVE_UNAVAILABLE

DELTA1 = 1.0
DELTA2 = 6.0


def _make_sim(
    seed: int = 7,
    total_horizon: int = 8000,
    full_info: bool = True,
    capacity: float = 100.0,
    rate: float = 0.5,
) -> ChunkedSimulator:
    return ChunkedSimulator(
        WeibullInterArrival(10, 2),
        ConstantRecharge(rate),
        capacity=capacity,
        delta1=DELTA1,
        delta2=DELTA2,
        total_horizon=total_horizon,
        seed=seed,
        full_info=full_info,
    )


class TestValidation:
    def test_horizon_below_one_raises(self) -> None:
        with pytest.raises(SimulationError):
            ChunkedSimulator(
                WeibullInterArrival(10, 2), ConstantRecharge(0.5),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                total_horizon=0,
            )

    def test_chunk_below_one_raises(self) -> None:
        sim = _make_sim()
        with pytest.raises(SimulationError):
            sim.run_chunk(AggressivePolicy(info_model=InfoModel.FULL), 0)

    def test_chunk_past_horizon_raises(self) -> None:
        sim = _make_sim(total_horizon=100)
        sim.run_chunk(AggressivePolicy(info_model=InfoModel.FULL), 80)
        with pytest.raises(SimulationError):
            sim.run_chunk(AggressivePolicy(info_model=InfoModel.FULL), 21)

    def test_info_model_mismatch_raises(self) -> None:
        sim = _make_sim(full_info=True)
        with pytest.raises(SimulationError):
            sim.run_chunk(
                AggressivePolicy(info_model=InfoModel.PARTIAL), 100
            )

    def test_initial_energy_outside_capacity_raises(self) -> None:
        with pytest.raises(SimulationError):
            ChunkedSimulator(
                WeibullInterArrival(10, 2), ConstantRecharge(0.5),
                capacity=50.0, delta1=DELTA1, delta2=DELTA2,
                total_horizon=100, initial_energy=60.0,
            )


class TestStatePersistence:
    def test_same_seed_same_chunking_is_reproducible(self) -> None:
        sim_a = _make_sim()
        sim_b = _make_sim()
        policy = AggressivePolicy(info_model=InfoModel.FULL)
        for _ in range(4):
            ra = sim_a.run_chunk(policy, 1000)
            rb = sim_b.run_chunk(policy, 1000)
            assert ra.n_events == rb.n_events
            assert ra.n_captures == rb.n_captures
            assert ra.final_battery == rb.final_battery
            np.testing.assert_array_equal(ra.true_gaps, rb.true_gaps)
            np.testing.assert_array_equal(
                ra.captured_gaps, rb.captured_gaps
            )

    def test_counters_accumulate_across_chunks(self) -> None:
        sim = _make_sim(total_horizon=6000)
        policy = AggressivePolicy(info_model=InfoModel.FULL)
        chunks = [sim.run_chunk(policy, 1500) for _ in range(4)]
        assert sim.n_events == sum(c.n_events for c in chunks)
        assert sim.n_captures == sum(c.n_captures for c in chunks)
        assert sim.slots_remaining == 0
        assert sim.battery == pytest.approx(chunks[-1].final_battery)

    def test_gaps_partition_the_timeline(self) -> None:
        """Completed true gaps plus the in-flight remainder tile the run."""
        sim = _make_sim(total_horizon=5000)
        policy = AggressivePolicy(info_model=InfoModel.FULL)
        gaps: list[int] = []
        for _ in range(5):
            gaps.extend(sim.run_chunk(policy, 1000).true_gaps.tolist())
        assert all(g >= 1 for g in gaps)
        # Gaps close at event slots, so their sum can't exceed the horizon.
        assert sum(gaps) <= 5000

    def test_captured_gaps_are_sums_of_true_gaps(self) -> None:
        """Under partial info every captured gap spans >= 1 true gaps, so
        total captured-gap mass is bounded by total true-gap mass."""
        sim = _make_sim(full_info=False, total_horizon=8000)
        policy = AggressivePolicy(info_model=InfoModel.PARTIAL)
        chunk = sim.run_chunk(policy, 8000)
        assert chunk.n_captures <= chunk.n_events
        assert chunk.captured_gaps.size == chunk.n_captures
        if chunk.captured_gaps.size:
            assert chunk.captured_gaps.min() >= 1
            assert chunk.captured_gaps.sum() <= 8000


class TestDynamics:
    def test_battery_gate_blocks_when_unaffordable(self) -> None:
        sim = ChunkedSimulator(
            WeibullInterArrival(10, 2), ConstantRecharge(0.0),
            capacity=DELTA1 + DELTA2 - 0.5, delta1=DELTA1, delta2=DELTA2,
            total_horizon=2000, seed=3, initial_energy=0.0,
        )
        chunk = sim.run_chunk(
            AggressivePolicy(info_model=InfoModel.FULL), 2000
        )
        assert chunk.activations == 0
        assert chunk.blocked_slots == 2000
        assert chunk.n_captures == 0

    def test_set_distribution_applies_to_future_gaps(self) -> None:
        sim = _make_sim(total_horizon=4000)
        policy = AggressivePolicy(info_model=InfoModel.FULL)
        sim.run_chunk(policy, 1000)
        sim.set_distribution(DeterministicInterArrival(5))
        gaps: list[int] = []
        for _ in range(3):
            gaps.extend(sim.run_chunk(policy, 1000).true_gaps.tolist())
        # The in-flight gap completes under the old truth; everything
        # after is deterministic 5s.
        assert len(gaps) > 10
        assert all(g == 5 for g in gaps[1:])

    def test_qom_nan_when_no_events(self) -> None:
        sim = ChunkedSimulator(
            DeterministicInterArrival(500), ConstantRecharge(0.5),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            total_horizon=1000, seed=1,
        )
        chunk = sim.run_chunk(
            AggressivePolicy(info_model=InfoModel.FULL), 100
        )
        assert chunk.n_events == 0
        assert np.isnan(chunk.qom)

    def test_learning_hook_called_per_slot(self) -> None:
        sim = _make_sim(full_info=False, total_horizon=4000)
        automaton = LinearRewardInactionPolicy(
            initial_probability=0.5, theta=0.05
        )
        chunk = sim.run_chunk(automaton, 4000)
        # Rewards are exactly the captures, and each reward moved p up.
        assert automaton.n_rewards == chunk.n_captures
        assert chunk.n_captures > 0
        assert automaton.probability > 0.5

    def test_agrees_with_simulate_single_statistically(self) -> None:
        """Chunked and monolithic runs draw events in a different order,
        so they agree in distribution, not bit for bit."""
        distribution = WeibullInterArrival(10, 2)
        recharge = ConstantRecharge(0.5)
        policy = AggressivePolicy(info_model=InfoModel.FULL)
        horizon = 40_000

        sim = ChunkedSimulator(
            distribution, recharge, capacity=100.0,
            delta1=DELTA1, delta2=DELTA2,
            total_horizon=horizon, seed=11,
        )
        for _ in range(20):
            sim.run_chunk(policy, horizon // 20)
        chunked_qom = sim.n_captures / sim.n_events

        mono = simulate_single(
            distribution, policy, recharge, capacity=100.0,
            delta1=DELTA1, delta2=DELTA2, horizon=horizon, seed=11,
        )
        assert chunked_qom == pytest.approx(mono.qom, abs=0.03)
        assert sim.n_events == pytest.approx(mono.n_events, rel=0.05)


def _fallback_reasons(collector: telemetry.TelemetryCollection, entry: str) -> List[str]:
    return [
        e["reason"] for e in collector.events
        if e["kind"] == "backend_fallback" and e["entry"] == entry
    ]


class TestBatteryAware:
    """Battery-aware policies see the level in chunked runs too."""

    BASE = VectorPolicy(np.r_[np.zeros(7), 1.0], info_model=InfoModel.FULL)

    def _activations(self, policy: ActivationPolicy) -> int:
        sim = ChunkedSimulator(
            WeibullInterArrival(10, 2), ConstantRecharge(2.0),
            capacity=100.0, delta1=DELTA1, delta2=DELTA2,
            total_horizon=8000, seed=3,
        )
        return sum(sim.run_chunk(policy, 1000).activations for _ in range(8))

    def test_overflow_guard_activates_more_than_base(self) -> None:
        # The recharge (2/slot) far exceeds what the base spends, so the
        # bucket sits full and the guard activates nearly every slot.
        guarded = self._activations(OverflowGuardPolicy(self.BASE))
        plain = self._activations(self.BASE)
        assert guarded > 5 * plain

    def test_records_the_simulate_single_fallback_reason(self) -> None:
        policy = OverflowGuardPolicy(self.BASE)
        with telemetry.collect() as chunked:
            self._activations(policy)
        with telemetry.collect() as single:
            simulate_single(
                WeibullInterArrival(10, 2), policy, ConstantRecharge(2.0),
                capacity=100.0, delta1=DELTA1, delta2=DELTA2,
                horizon=1000, seed=3,
            )
        reasons = _fallback_reasons(chunked, "chunked")
        assert len(reasons) == 8
        assert set(reasons) == set(_fallback_reasons(single, "simulate_single"))


# -- Bit-identity with the simulator's own pre-refactor slot loop ----------

GOLD_FIRST = WeibullInterArrival(10, 2)
GOLD_SECOND = WeibullInterArrival(20, 3)
GOLD_TOTAL = 4000
CHUNKINGS: Dict[str, List[int]] = {
    "1": [1], "7": [7], "2000": [2000], "mixed": [1, 7, 2000, 13, 250, 3],
}
TABLE_POLICIES = [
    "greedy-fi", "clustering-pi", "aggressive-fi", "aggressive-pi", "periodic",
]


def _gold_policy(name: str) -> ActivationPolicy:
    if name == "greedy-fi":
        return solve_greedy(GOLD_FIRST, 0.65, DELTA1, DELTA2).as_policy()
    if name == "clustering-pi":
        return ClusteringPolicy(4, 11, 30, c_n1=0.6, c_n2=0.45, c_n3=0.3)
    if name == "aggressive-fi":
        return AggressivePolicy(info_model=InfoModel.FULL)
    if name == "aggressive-pi":
        return AggressivePolicy(info_model=InfoModel.PARTIAL)
    if name == "periodic":  # slot-indexed; theta2=10 straddles chunks
        return PeriodicPolicy(3, 10)
    assert name == "lri"
    return LinearRewardInactionPolicy(initial_probability=0.3, theta=0.05)


def _gold_run(policy: ActivationPolicy, chunking: str) -> List[ChunkResult]:
    """A 4000-slot run whose truth switches half-way through."""
    sim = ChunkedSimulator(
        GOLD_FIRST, BernoulliRecharge(0.5, 1.3), capacity=40.0,
        delta1=DELTA1, delta2=DELTA2, total_horizon=GOLD_TOTAL, seed=5,
        full_info=policy.info_model == InfoModel.FULL,
    )
    sizes = CHUNKINGS[chunking]
    chunks = []
    while sim.slots_remaining:
        if sim.distribution is GOLD_FIRST and sim.slots_remaining <= GOLD_TOTAL // 2:
            sim.set_distribution(GOLD_SECOND)
        size = sizes[len(chunks) % len(sizes)]
        chunks.append(sim.run_chunk(policy, min(size, sim.slots_remaining)))
    return chunks


def _fields(chunk: ChunkResult) -> Tuple[object, ...]:
    return (
        chunk.n_slots, chunk.n_events, chunk.n_captures, chunk.activations,
        chunk.blocked_slots, float(chunk.final_battery).hex(),
        chunk.true_gaps.tolist(), chunk.captured_gaps.tolist(),
    )


def _digest(chunks: List[ChunkResult]) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(repr(_fields(c)[:6]).encode())
        h.update(np.asarray(c.true_gaps, dtype="<i8").tobytes())
        h.update(b"|")
        h.update(np.asarray(c.captured_gaps, dtype="<i8").tobytes())
        h.update(b"#")
    return h.hexdigest()


#: SHA-256 over every ChunkResult field of each run, recorded with the
#: simulator's former private slot loop.  The greedy-fi and
#: clustering-pi entries for chunkings 1, 7 and mixed were recorded with
#: that loop's recency table sized for the whole trajectory so far (the
#: fix `test_table_path_equals_per_slot_calls` pins); all others are
#: the former loop's output unchanged.
PARENT_DIGESTS = {
    ("greedy-fi", "1"): "371ec37211c8b623cc47cb1166979afb6b44da49ebbb8348fd2a5a8ab1c2b7d8",
    ("greedy-fi", "7"): "9e6524b2644c969b3064d1f4abd81accad6f02a330c64febc7439192a22d95f3",
    ("greedy-fi", "2000"): "33a552ab12e34b83b03cc18bc6a25be48faf1adc0eadbbcd9341e86ffdad3aef",
    ("greedy-fi", "mixed"): "47789c85602c3810dfe37009ce87d4d9767efb1949453d47a927c1ff4e6d5f5f",
    ("clustering-pi", "1"): "6d9c4400cb6b49a18152e8b05bf857f9d547bfb0421b5abb667bd17223acd05d",
    ("clustering-pi", "7"): "ab35ae8518b552f8bde3e456d2ce934c16c241fcd8ac9eefa8c59a9035b06d11",
    ("clustering-pi", "2000"): "ed7654994c8556f5b8881936cc9a34a503d1e37c14127e243a2bb3f61966aaa4",
    ("clustering-pi", "mixed"): "1a9de92738d505ad8c5d369cabfd844967e4bd38332baa8babcfd8b84eb13332",
    ("aggressive-fi", "1"): "12c86c8435fb9d8c60620f9444d7e49a42d6d8f01be94ad7aa01dfb7a5a30136",
    ("aggressive-fi", "7"): "752515db91809ad42e27353f17b0d1163e0d20491f39ba39571745fe8cf67a99",
    ("aggressive-fi", "2000"): "cc2cd28ebd18e759b37ff53878d91bfcf48def8580928ca4a4541a4a513b4ee9",
    ("aggressive-fi", "mixed"): "966358365f29384d284646af961ce491f75afa2f9377828b3e2bb937e515c594",
    ("aggressive-pi", "1"): "12c86c8435fb9d8c60620f9444d7e49a42d6d8f01be94ad7aa01dfb7a5a30136",
    ("aggressive-pi", "7"): "752515db91809ad42e27353f17b0d1163e0d20491f39ba39571745fe8cf67a99",
    ("aggressive-pi", "2000"): "cc2cd28ebd18e759b37ff53878d91bfcf48def8580928ca4a4541a4a513b4ee9",
    ("aggressive-pi", "mixed"): "966358365f29384d284646af961ce491f75afa2f9377828b3e2bb937e515c594",
    ("periodic", "1"): "7277c2202d9e04971fd952342eded0e21bac21d95a0efa49246267b18514bd90",
    ("periodic", "7"): "946e6f6ad93c17dcee56b4427b99815078985e00d8d805a57d3d4ba36372d655",
    ("periodic", "2000"): "9268f5f6f395af62e044bd40448cce97f380c02517facb7b89986f4d249f87d9",
    ("periodic", "mixed"): "99ee3db2402e75399d02de2e78528e295352f85903387a987b9f00d1c2b76335",
    ("lri", "1"): "f7a492c9d06a09a69f31cd7a584824303a8c003644c4a9b78013165535919c25",
    ("lri", "7"): "34094f5944b4f24c3691dd536a61aa07a606aaacbede3cc0d078a59a532a695f",
    ("lri", "2000"): "d7d1e4b6070e52b4fcf4acac8d6dd5c54edb11747f6b1eee117f05c51e7fc422",
    ("lri", "mixed"): "7a27fa30f618070af75da5f2e9f94f52a69ff2409af071894b6b2a28a66f005c",
}


class _PerSlotOnly(ActivationPolicy):
    """A policy's probabilities with its fast paths hidden."""

    def __init__(self, base: ActivationPolicy) -> None:
        self.base = base
        self.info_model = base.info_model

    def activation_probability(self, slot: int, recency: int) -> float:
        return self.base.activation_probability(slot, recency)


class TestParentDigests:
    @pytest.mark.parametrize("name, chunking", sorted(PARENT_DIGESTS))
    def test_matches_recorded_digest(self, name: str, chunking: str) -> None:
        chunks = _gold_run(_gold_policy(name), chunking)
        assert _digest(chunks) == PARENT_DIGESTS[(name, chunking)]

    @pytest.mark.parametrize("name", ["greedy-fi", "clustering-pi"])
    @pytest.mark.parametrize("chunking", ["1", "7"])
    def test_table_path_equals_per_slot_calls(
        self, name: str, chunking: str
    ) -> None:
        """The recency carried into a chunk can exceed the chunk length;
        the table must still give the policy's own probability there."""
        policy = _gold_policy(name)
        table = [_fields(c) for c in _gold_run(policy, chunking)]
        per_slot = [_fields(c) for c in _gold_run(_PerSlotOnly(policy), chunking)]
        assert table == per_slot

    @pytest.mark.parametrize("name", TABLE_POLICIES)
    def test_c_path_equals_reference_path(
        self, name: str, request: pytest.FixtureRequest
    ) -> None:
        """Every chunk of a table policy: C scan == resumed reference loop."""
        with telemetry.collect() as native:
            scanned = {ch: _gold_run(_gold_policy(name), ch) for ch in CHUNKINGS}
        assert _fallback_reasons(native, "chunked") == []

        request.getfixturevalue("no_native")
        with telemetry.collect() as fallback:
            looped = {ch: _gold_run(_gold_policy(name), ch) for ch in CHUNKINGS}
        reasons = _fallback_reasons(fallback, "chunked")
        assert reasons and set(reasons) == {NATIVE_UNAVAILABLE}

        for ch in CHUNKINGS:
            assert len(scanned[ch]) == len(looped[ch])
            for a, b in zip(scanned[ch], looped[ch]):
                assert _fields(a) == _fields(b)
