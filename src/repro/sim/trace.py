"""Structured per-slot simulation traces (debugging / inspection).

The main engine keeps only aggregates for speed.  For debugging a policy
or producing a figure of one run, :func:`trace_single` runs the engine's
reference loop (:func:`repro.sim.engine._simulate_reference`, the one
per-slot loop of the single-sensor model) and records every slot through
its ``on_slot`` callback, so a trace is the engine's run itself, not a
re-implementation of it.  :func:`summarize_trace` reduces a trace back
to the aggregate counters (tests assert they equal
:func:`repro.sim.simulate_single`'s with ``==``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.policy import ActivationPolicy
from repro.energy.recharge import RechargeProcess
from repro.events.base import InterArrivalDistribution
from repro.sim import engine, kernel
from repro.sim.metrics import (
    SensorStats,
    SimulationResult,
    aoi_from_capture_slots,
)
from repro.sim.rng import SeedLike


@dataclass(frozen=True)
class SlotRecord:
    """Everything that happened in one slot."""

    slot: int
    recency: int           # state fed to the policy this slot
    recharge: float
    overflow: float        # harvested energy lost to a full bucket
    battery_before: float  # after recharge, before the decision
    probability: float
    wanted_active: bool
    blocked: bool
    active: bool
    event: bool
    captured: bool
    battery_after: float


def trace_single(
    distribution: InterArrivalDistribution,
    policy: ActivationPolicy,
    recharge: RechargeProcess,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seed: SeedLike = None,
    initial_energy: Optional[float] = None,
) -> list[SlotRecord]:
    """Run the slot loop, returning the full per-slot record list.

    Checks its arguments, draws its sub-streams and resolves the policy
    exactly as :func:`repro.sim.simulate_single` does, then runs the
    engine's reference loop, so a trace with the same seed replays the
    engine's run slot for slot (battery-aware policies included).
    ``overflow`` is the slot's increment of the engine's running
    overflow total.
    """
    initial = engine._check_run(
        horizon, capacity, delta1, delta2, initial_energy
    )
    events, amounts, coins = engine._draw(distribution, recharge, horizon, seed)
    fast = kernel.policy_fast_paths(policy, horizon)
    events_list, amounts_list = events.tolist(), amounts.tolist()
    coins_list = coins.tolist()
    records: list[SlotRecord] = []
    last_shave = 0.0

    def record(
        t: int, recency: int, prob: float, active: bool, captured: bool,
        battery: float, after: float, shave: float,
    ) -> None:
        nonlocal last_shave
        wanted = coins_list[t - 1] < prob
        records.append(
            SlotRecord(
                slot=t,
                recency=recency,
                recharge=amounts_list[t - 1],
                overflow=shave - last_shave,
                battery_before=battery,
                probability=float(prob),
                wanted_active=wanted,
                blocked=wanted and not active,
                active=active,
                event=events_list[t - 1],
                captured=captured,
                battery_after=after,
            )
        )
        last_shave = shave

    engine._simulate_reference(
        policy, fast, events, amounts, coins, float(capacity), float(delta1),
        float(delta2), horizon, initial, collect_aoi=False, on_slot=record,
    )
    return records


def summarize_trace(
    records: list[SlotRecord], capacity: float
) -> SimulationResult:
    """Aggregate a trace into the engine's result type."""
    n_captures = sum(r.captured for r in records)
    capture_slots = [r.slot for r in records if r.captured]
    aoi = aoi_from_capture_slots(capture_slots, len(records))
    stats = SensorStats(
        activations=sum(r.active for r in records),
        captures=n_captures,
        energy_harvested=sum(r.recharge for r in records),
        energy_consumed=sum(
            r.battery_before - r.battery_after for r in records
        ),
        energy_overflow=sum(r.overflow for r in records),
        blocked_slots=sum(r.blocked for r in records),
        final_battery=records[-1].battery_after if records else capacity / 2,
        last_capture_slot=aoi.last_capture_slot,
    )
    return SimulationResult(
        horizon=len(records),
        n_events=sum(r.event for r in records),
        n_captures=n_captures,
        sensors=(stats,),
        aoi=aoi,
    )
