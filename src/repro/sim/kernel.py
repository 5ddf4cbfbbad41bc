"""Fast path of :func:`repro.sim.simulate_single`: dispatch to the C scan.

The reference engine walks every slot in Python.  For the policies the
paper actually simulates — recency tables (greedy, clustering,
aggressive, EBCW) and slot tables (periodic) — the per-slot activation
probability is a table lookup, so the whole slot loop can run as
compiled IEEE-strict scalar code (:mod:`repro.sim._native`).

Execution paths: a configuration the gates admit
(:func:`policy_fast_paths`, :func:`ineligibility_reason`) runs the C
scan; every other one — including any run on a host where the scan did
not compile — runs the reference loop in :mod:`repro.sim.engine`.

The C scan performs the same floating-point operations in the same
order as the reference loop, so results are **bit-identical** — this is
asserted by ``tests/sim/test_kernel.py`` and re-checked by the
benchmark harness on every run.

RNG stream-order contract: the kernel never draws random numbers; it
receives the exact arrays (events, recharge, coins) that
``simulate_single`` drew from its three sub-streams, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.policy import ActivationPolicy, InfoModel
from repro.devtools import telemetry
from repro.sim._native import (
    NATIVE_UNAVAILABLE,
    get_native_scan,
    require_native_scan,
)
from repro.sim.metrics import (
    AoIStats,
    SensorStats,
    SimulationResult,
    aoi_from_capture_slots,
)

#: Default size of the recency lookup table when the policy provides a
#: recency fast path; recencies beyond it use the policy's tail value.
_TABLE_SLOTS = 1 << 16


@dataclass(frozen=True)
class PolicyFastPaths:
    """How one policy's activation probabilities can be precomputed.

    Exactly one of ``table``/``slot_probs`` is set for table-driven
    policies; both are ``None`` when the policy needs per-slot calls
    (battery-aware policies always do, so they can see the level, and
    so do learners, whose ``observe`` hook runs after every slot).
    """

    table: Optional[np.ndarray]
    tail: float
    slot_probs: Optional[np.ndarray]
    battery_aware: bool
    full_info: bool
    observe: Optional[Callable[[bool, bool], None]] = None


def policy_fast_paths(
    policy: ActivationPolicy, horizon: int, recency_reach: Optional[int] = None
) -> PolicyFastPaths:
    """Resolve the policy's fast paths for one run (RL015 gate).

    This is the single place the scan layers read policy attributes:
    the engine, the single-run kernel, the chunked simulator and the
    batch packer all dispatch on the result, so the eligibility
    decision cannot drift from what the scans actually consume.
    ``observe`` is the policy's per-slot ``observe_outcome(active,
    captured)`` learning hook, if it has one (only chunked runs call it).
    ``recency_reach`` (default ``horizon``) is the largest recency the
    run can see: a resumed run reaches its carried recency plus its
    slots, while its slot tables stay indexed by slot up to ``horizon``.
    """
    table: Optional[np.ndarray] = None
    tail = 0.0
    slot_probs: Optional[np.ndarray] = None
    battery_aware = bool(getattr(policy, "battery_aware", False))
    observe = getattr(policy, "observe_outcome", None)
    if not battery_aware and observe is None:
        reach = horizon if recency_reach is None else recency_reach
        recency_fast = policy.recency_probabilities(min(reach, _TABLE_SLOTS))
        if recency_fast is not None:
            table, tail = recency_fast
        else:
            slot_probs = policy.slot_probabilities(horizon)
    return PolicyFastPaths(
        table=table,
        tail=float(tail),
        slot_probs=slot_probs,
        battery_aware=battery_aware,
        full_info=policy.info_model == InfoModel.FULL,
        observe=observe,
    )


def ineligibility_reason(
    fast: PolicyFastPaths,
    recharge_amounts: np.ndarray,
    collect_battery_trace: bool = False,
) -> Optional[str]:
    """Why this configuration cannot use the kernel; None when it can.

    Structural reasons come first, so a configuration the kernel cannot
    express is reported as such on every host; the last reason is a
    missing C scan.
    """
    if fast.battery_aware:
        return "policy is battery-aware (needs per-slot battery feedback)"
    if fast.observe is not None:
        return "policy learns per slot (observe_outcome runs in the loop)"
    if collect_battery_trace:
        return "battery traces are collected by the reference loop only"
    if fast.table is None and fast.slot_probs is None:
        return (
            "policy provides neither a recency table nor slot "
            "probabilities (per-slot policy calls need the reference loop)"
        )
    if recharge_amounts.size and float(recharge_amounts.min()) < 0:
        return "recharge sequence contains negative amounts"
    if get_native_scan() is None:
        return NATIVE_UNAVAILABLE
    return None


def simulate_kernel(
    fast: PolicyFastPaths,
    events: np.ndarray,
    recharge_amounts: np.ndarray,
    coins: np.ndarray,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    initial: float,
    collect_aoi: bool = True,
) -> SimulationResult:
    """Run the C scan on pre-drawn arrays (see module docs).

    Age-of-Information statistics are closed formulas over the
    capture-slot sequence (pure integers) accumulated inside the scan,
    reproducing the reference accumulation exactly;
    ``collect_aoi=False`` skips them.
    """
    if horizon == 0:
        return _result(
            0, 0, 0, 0, initial, 0.0, 0.0, delta1, delta2, 0,
            aoi=aoi_from_capture_slots((), 0) if collect_aoi else None,
        )
    native = require_native_scan()
    telemetry.count("kernel.scan.native")
    cs = np.cumsum(recharge_amounts)  # sequential, matches the scalar sum
    slot_mode = fast.slot_probs is not None
    activations, captures, blocked, neg, shave, raw_aoi = native.scan(
        cs, events, coins, fast.slot_probs if slot_mode else fast.table,
        fast.tail, slot_mode, fast.full_info, capacity, delta1, delta2,
        initial, compute_aoi=collect_aoi,
    )
    aoi: Optional[AoIStats] = None
    if collect_aoi:
        area, area_sq, max_age, last_capture = raw_aoi
        aoi = AoIStats(
            area=area,
            area_sq=area_sq,
            max_age=max_age,
            last_capture_slot=last_capture,
            n_resets=captures,
            horizon=horizon,
        )
    return _result(
        activations, captures, blocked, int(np.count_nonzero(events)),
        neg, shave, float(cs[-1]), delta1, delta2, horizon, aoi=aoi,
    )


def _result(
    activations: int,
    captures: int,
    blocked: int,
    n_events: int,
    neg: float,
    shave: float,
    harvested: float,
    delta1: float,
    delta2: float,
    horizon: int,
    aoi: Optional[AoIStats] = None,
    battery_trace: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Assemble the result from final reflected state (engine formulas)."""
    stats = SensorStats(
        activations=activations,
        captures=captures,
        energy_harvested=harvested,
        energy_consumed=activations * delta1 + captures * delta2,
        energy_overflow=shave,
        blocked_slots=blocked,
        final_battery=(neg + harvested) - shave,
        last_capture_slot=aoi.last_capture_slot if aoi is not None else 0,
    )
    return SimulationResult(
        horizon=horizon,
        n_events=n_events,
        n_captures=captures,
        sensors=(stats,),
        battery_trace=battery_trace,
        aoi=aoi,
    )
