"""Fast path of :func:`repro.sim.simulate_network`: dispatch to the C scan.

The multi-sensor reference loop walks every slot in Python and touches
every sensor on every slot.  For the coordinators the paper simulates —
round-robin M-FI / M-PI, the multi-aggressive baseline and the
block-rotated periodic baseline — the per-slot decisions reduce to
arrays the compiled scan (:mod:`repro.sim._native`) can consume:

* **responsibility** is a pure function of the slot index (slot and
  block round-robin), or of the precomputed event stream (active-slot
  rotation under full information);
* the activation probability of the responsible sensor is a slot table
  or a shared recency table, exactly as for a single sensor.

:func:`plan_or_reason` precomputes that :class:`NetworkPlan`; the C scan
then runs the whole slot loop over the responsibility array, with each
sensor's battery in the engine's Skorokhod-reflected form.

Execution paths: an eligible configuration runs the C scan; every other
one — unsupported coordinators (custom subclasses, active-slot rotation
with capture-dependent policies, battery-aware policies) and any run on
a host where the scan did not compile — runs the reference loop in
:mod:`repro.sim.network`.

The C scan performs the same floating-point operations in the same
order as the reference loop, so results are **bit-identical** — this is
asserted by ``tests/sim/test_network_kernel.py`` and re-checked by the
``sim_fleet`` workload of ``perfbench/`` on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.multi import (
    NO_SENSOR,
    Coordinator,
    MultiAggressiveCoordinator,
    MultiPeriodicCoordinator,
    RoundRobinCoordinator,
)
from repro.core.policy import InfoModel
from repro.devtools import telemetry
from repro.sim._native import (
    NATIVE_UNAVAILABLE,
    get_native_scan,
    require_native_scan,
)
from repro.sim.kernel import _TABLE_SLOTS
from repro.sim.metrics import (
    AoIStats,
    SensorStats,
    SimulationResult,
    aoi_from_capture_slots,
)


@dataclass(frozen=True)
class NetworkPlan:
    """Precomputed dispatch plan for one eligible network configuration.

    ``resp[t - 1]`` is the responsible sensor in slot ``t`` (or
    :data:`~repro.core.multi.NO_SENSOR`).  Exactly one of ``slot_probs``
    (per-slot activation probability of the responsible sensor) and
    ``table``/``tail`` (shared recency table) describes the activation
    probabilities; ``full_info`` selects the recency semantics.
    """

    n_sensors: int
    resp: np.ndarray
    table: Optional[np.ndarray]
    tail: float
    slot_probs: Optional[np.ndarray]
    full_info: bool


def _slot_round_robin(horizon: int, n_sensors: int) -> np.ndarray:
    """Responsibility under plain slot round-robin (``t = kN + s``)."""
    return np.arange(horizon, dtype=np.int64) % n_sensors


def _active_slot_resp(probs: np.ndarray, n_sensors: int) -> np.ndarray:
    """Responsibility under active-slot rotation, given per-slot probs.

    The coordinator's counter advances only on slots with positive
    activation probability; other slots get :data:`NO_SENSOR`.
    """
    active = probs > 0.0
    counter_before = np.cumsum(active, dtype=np.int64) - active.astype(np.int64)
    return np.where(
        active, counter_before % n_sensors, np.int64(NO_SENSOR)
    ).astype(np.int64)


def _full_info_probs(
    events: np.ndarray,
    table: Optional[np.ndarray],
    tail: float,
    horizon: int,
) -> np.ndarray:
    """Per-slot activation probabilities under full information.

    Full-information recency is slots-since-last-event, computable in
    one pass: the last event slot at or before ``t - 1`` via a running
    maximum over ``t * 1[event at t]``.
    """
    slots = np.arange(1, horizon + 1, dtype=np.int64)
    event_slots = np.where(events, slots, 0)
    last_incl = np.maximum.accumulate(event_slots)
    last_before = np.concatenate(([0], last_incl[:-1]))
    recency = slots - last_before  # >= 1; event at slot 0 is implicit
    tsize = 0 if table is None else table.size
    if tsize == 0:
        return np.full(horizon, tail)
    clipped = np.minimum(recency, tsize) - 1
    probs: np.ndarray = np.asarray(table, dtype=np.float64)[clipped]
    if bool(np.any(recency > tsize)):
        probs = np.where(recency > tsize, tail, probs)
    return probs


def _constant_table_prob(
    table: Optional[np.ndarray], tail: float
) -> Optional[float]:
    """The constant probability a recency table collapses to, if any.

    Expressed with inequalities (never float equality): the table is
    constant and equal to ``tail`` iff ``min >= max`` and ``tail`` lies
    within ``[max, min]``.
    """
    tsize = 0 if table is None else table.size
    if tsize == 0:
        return tail
    tmin = float(np.min(table))
    tmax = float(np.max(table))
    if tmin >= tmax and tail >= tmax and tail <= tmin:
        return tail
    return None


def _admit(plan: NetworkPlan) -> Tuple[Optional[NetworkPlan], Optional[str]]:
    """A structurally eligible plan runs only where the C scan loaded."""
    if get_native_scan() is None:
        return None, NATIVE_UNAVAILABLE
    return plan, None


def plan_or_reason(
    coordinator: Coordinator,
    events: np.ndarray,
    recharge_rows: np.ndarray,
    horizon: int,
) -> Tuple[Optional[NetworkPlan], Optional[str]]:
    """Build the kernel's dispatch plan, or explain why it cannot run.

    Returns ``(plan, None)`` when the configuration is eligible and
    ``(None, reason)`` otherwise.  The rule depends on the coordinator's
    structure and the recharge sign — never on the drawn coins — and,
    for a configuration that passes those, on the C scan being loaded.
    """
    if recharge_rows.size and float(np.min(recharge_rows)) < 0:
        return None, "recharge sequence contains negative amounts"
    n = coordinator.n_sensors

    if type(coordinator) is MultiAggressiveCoordinator:
        return _admit(
            NetworkPlan(
                n_sensors=n,
                resp=_slot_round_robin(horizon, n),
                table=None,
                tail=1.0,
                slot_probs=None,
                full_info=False,
            )
        )

    if type(coordinator) is MultiPeriodicCoordinator:
        slots0 = np.arange(horizon, dtype=np.int64)
        probs = np.where(slots0 % coordinator.theta2 < coordinator.theta1,
                         1.0, 0.0)
        return _admit(
            NetworkPlan(
                n_sensors=n,
                resp=(slots0 // coordinator.theta2) % n,
                table=None,
                tail=0.0,
                slot_probs=probs,
                full_info=False,
            )
        )

    if type(coordinator) is RoundRobinCoordinator:
        policy = coordinator.policy
        if bool(getattr(policy, "battery_aware", False)):
            return None, "policy is battery-aware (needs per-slot battery feedback)"
        full_info = policy.info_model == InfoModel.FULL
        table: Optional[np.ndarray] = None
        tail = 0.0
        slot_probs: Optional[np.ndarray] = None
        recency_fast = policy.recency_probabilities(min(horizon, _TABLE_SLOTS))
        if recency_fast is not None:
            table, tail = recency_fast
        else:
            slot_probs = policy.slot_probabilities(horizon)
            if slot_probs is None:
                return None, (
                    "policy provides neither a recency table nor slot "
                    "probabilities (per-slot policy calls need the "
                    "reference loop)"
                )
            slot_probs = np.asarray(slot_probs, dtype=np.float64)

        if coordinator.assignment == "slot":
            resp = _slot_round_robin(horizon, n)
        elif slot_probs is not None:
            resp = _active_slot_resp(slot_probs, n)
        elif full_info:
            # Full-information recency is a pure function of the event
            # stream, so the per-slot probabilities — and with them the
            # rotation counter — are precomputable.
            slot_probs = _full_info_probs(events, table, tail, horizon)
            table = None
            resp = _active_slot_resp(slot_probs, n)
        else:
            constant = _constant_table_prob(table, tail)
            if constant is None:
                return None, (
                    "active-slot assignment with a capture-dependent "
                    "partial-information policy (rotation state needs "
                    "the reference loop)"
                )
            if constant > 0.0:
                resp = _slot_round_robin(horizon, n)
            else:
                resp = np.full(horizon, NO_SENSOR, dtype=np.int64)
        return _admit(
            NetworkPlan(
                n_sensors=n,
                resp=resp,
                table=table,
                tail=float(tail),
                slot_probs=slot_probs,
                full_info=full_info,
            )
        )

    return None, (
        f"unsupported coordinator {type(coordinator).__name__} "
        "(only the shipped round-robin / aggressive / periodic "
        "coordinators have a vectorized decomposition)"
    )


def simulate_network_kernel(
    events: np.ndarray,
    recharge_rows: np.ndarray,
    coins: np.ndarray,
    plan: NetworkPlan,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    initial: float,
) -> SimulationResult:
    """Run the C network scan on pre-drawn arrays.

    RNG stream-order contract: the kernel never draws random numbers; it
    receives the exact arrays (events, coins, per-sensor recharge rows)
    that ``simulate_network`` drew from its ``2 + N`` sub-streams, in
    that order.
    """
    n = plan.n_sensors
    if horizon == 0:
        return _network_result(
            [0] * n, [0] * n, [0] * n, [initial] * n, [0.0] * n,
            [0.0] * n, 0, delta1, delta2, 0,
            [0] * n, aoi_from_capture_slots((), 0),
        )
    native = require_native_scan()
    telemetry.count("network_kernel.scan.native")
    cs = np.cumsum(recharge_rows, axis=1)
    if plan.slot_probs is not None:
        probs, slot_mode = plan.slot_probs, True
    else:
        probs = plan.table if plan.table is not None else np.empty(0)
        slot_mode = False
    counts, state, raw_aoi = native.scan_network(
        cs, events, coins, plan.resp, np.asarray(probs, dtype=np.float64),
        plan.tail, slot_mode, plan.full_info,
        capacity, delta1, delta2, initial,
    )
    captures = [int(counts[s, 1]) for s in range(n)]
    aoi = AoIStats(
        area=int(raw_aoi[0]),
        area_sq=int(raw_aoi[1]),
        max_age=int(raw_aoi[2]),
        last_capture_slot=int(raw_aoi[3]),
        n_resets=sum(captures),
        horizon=horizon,
    )
    return _network_result(
        [int(counts[s, 0]) for s in range(n)],
        captures,
        [int(counts[s, 2]) for s in range(n)],
        [float(state[s, 0]) for s in range(n)],
        [float(state[s, 1]) for s in range(n)],
        [float(cs[s, -1]) for s in range(n)],
        int(np.count_nonzero(events)), delta1, delta2, horizon,
        [int(counts[s, 3]) for s in range(n)], aoi,
    )


def _network_result(
    activations: List[int],
    captures: List[int],
    blocked: List[int],
    negs: List[float],
    shaves: List[float],
    harvested: List[float],
    n_events: int,
    delta1: float,
    delta2: float,
    horizon: int,
    last_captures: List[int],
    aoi: AoIStats,
) -> SimulationResult:
    """Assemble the result from final reflected state (engine formulas)."""
    stats = tuple(
        SensorStats(
            activations=activations[s],
            captures=captures[s],
            energy_harvested=harvested[s],
            energy_consumed=activations[s] * delta1 + captures[s] * delta2,
            energy_overflow=shaves[s],
            blocked_slots=blocked[s],
            final_battery=(negs[s] + harvested[s]) - shaves[s],
            last_capture_slot=last_captures[s],
        )
        for s in range(len(activations))
    )
    return SimulationResult(
        horizon=horizon,
        n_events=n_events,
        n_captures=sum(captures),
        sensors=stats,
        aoi=aoi,
    )
