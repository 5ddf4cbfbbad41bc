"""Single-sensor slotted simulation engine (paper Sec. III-A, Fig. 1).

Each slot follows the paper's fixed update sequence:

1. the recharge ``e_t`` is applied (clipped at capacity ``K``);
2. the sensor takes its activation decision — only permitted when the
   battery holds at least ``delta1 + delta2``;
3. the event ``V_t``, if any, occurs; an active sensor captures it.

An active slot consumes ``delta1``; a capture consumes ``delta2`` more.
The recency state fed to the policy depends on its information model:
full information tracks slots since the last *event*, partial information
slots since the last *capture*.  An event is assumed at slot 0, so both
recencies start at 1.

Backends
--------
``simulate_single`` accepts ``backend="auto" | "reference" | "vectorized"``.
The reference backend is the readable per-slot Python loop below; the
vectorized backend (:mod:`repro.sim.kernel`) replays the identical
arithmetic in a compiled C scan and is bit-identical to it.  Both
consume the same three RNG sub-streams in the same order, so a seed
pins one trajectory regardless of backend.  Without a C compiler
``auto`` runs the reference loop for every configuration.

To make bit-identity achievable the battery is maintained in *reflected*
form: instead of the clipped level ``B_t`` the loop tracks

* ``cum``   — the running sum of recharge amounts,
* ``neg``   — the initial energy minus all activation costs so far,
* ``shave`` — the running maximum of ``(neg + cum) - K`` (total overflow),

and the level before each decision is ``(neg + cum) - shave``.  This is
the Skorokhod-reflection solution of the clip recursion: exactly equal in
real arithmetic, and — because every term is a plain sequential sum — a
form the C scan (and ``np.cumsum`` for ``cum``) reproduces
operation-for-operation in floating point.

:func:`_simulate_reference` is the single-sensor model's only per-slot
Python loop.  It serves :func:`simulate_single`, ``simulate_batch``,
:class:`~repro.sim.chunked.ChunkedSimulator` (resumed per chunk from a
:class:`LoopState`) and :func:`~repro.sim.trace.trace_single` (through
its ``on_slot`` callback); :func:`_fallback_reason` picks it or the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.policy import ActivationPolicy
from repro.devtools import telemetry
from repro.energy.recharge import RechargeProcess
from repro.events.base import InterArrivalDistribution
from repro.events.renewal import generate_event_flags
from repro.exceptions import SimulationError
from repro.sim import kernel
from repro.sim.metrics import AoIStats, SimulationResult
from repro.sim.rng import SeedLike, spawn_substreams

#: Valid values of the ``backend`` argument.
BACKENDS = ("auto", "reference", "vectorized")

#: ``on_slot(t, recency, prob, active, captured, battery, battery_after,
#: shave)``: ``t`` is the 1-based slot of the call, ``battery`` the level
#: the decision saw, ``shave`` the total overflow so far.
SlotCallback = Callable[[int, int, float, bool, bool, float, float, float], None]


@dataclass(frozen=True)
class LoopState:
    """The reflected battery, next recency and slots done of a run."""

    cum: float
    neg: float
    shave: float = 0.0
    recency: int = 1
    start: int = 0


def _check_run(
    horizon: int, capacity: float, delta1: float, delta2: float,
    initial_energy: Optional[float],
) -> float:
    """Check the arguments every run shares; return the initial level."""
    if horizon < 0:
        raise SimulationError(f"horizon must be >= 0, got {horizon}")
    if capacity < 0:
        raise SimulationError(f"capacity must be >= 0, got {capacity}")
    if delta1 < 0 or delta2 < 0:
        raise SimulationError(
            f"delta1/delta2 must be >= 0, got {delta1}, {delta2}"
        )
    initial = capacity / 2.0 if initial_energy is None else float(initial_energy)
    if not 0 <= initial <= capacity:
        raise SimulationError(
            f"initial energy {initial} outside [0, {capacity}]"
        )
    return initial


def _draw(
    distribution: InterArrivalDistribution, recharge: RechargeProcess,
    horizon: int, seed: SeedLike,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Events, recharge and coins from ``seed``'s three sub-streams."""
    event_rng, recharge_rng, coin_rng = spawn_substreams(seed, 3)
    events = generate_event_flags(distribution, horizon, event_rng)
    amounts = recharge.sequence(horizon, recharge_rng)
    return events, amounts, coin_rng.random(horizon)


def _fallback_reason(
    entry: str, fast: kernel.PolicyFastPaths, recharge_amounts: np.ndarray,
    backend: str = "auto", collect_battery_trace: bool = False,
) -> Optional[str]:
    """Why ``entry`` runs the reference loop (recorded); None for the scan.

    Raises instead for ``backend="vectorized"``.
    """
    reason = kernel.ineligibility_reason(
        fast, recharge_amounts, collect_battery_trace
    )
    if reason is not None:
        if backend == "vectorized":
            raise SimulationError(f"vectorized backend unavailable: {reason}")
        telemetry.count("sim.fallback.reference")
        telemetry.event("backend_fallback", entry=entry, reason=reason)
    return reason


def _record_run(
    backend: str,
    policy: ActivationPolicy,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seed: SeedLike,
) -> None:
    """Emit the run-manifest event for one simulate_single call."""
    if not telemetry.enabled():
        return
    telemetry.count(f"sim.dispatch.{backend}")
    telemetry.event(
        "simulation_run",
        entry="simulate_single",
        backend=backend,
        policy=type(policy).__name__,
        capacity=float(capacity),
        delta1=float(delta1),
        delta2=float(delta2),
        horizon=int(horizon),
        seed=telemetry.describe_seed(seed),
    )


def simulate_single(
    distribution: InterArrivalDistribution,
    policy: ActivationPolicy,
    recharge: RechargeProcess,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    seed: SeedLike = None,
    initial_energy: Optional[float] = None,
    collect_battery_trace: bool = False,
    backend: str = "auto",
    collect_aoi: bool = True,
) -> SimulationResult:
    """Run one sensor for ``horizon`` slots and return its statistics.

    ``initial_energy`` defaults to ``capacity / 2`` as in the paper's
    experiments.  Events, recharge and activation coin-flips each use an
    independent sub-stream of ``seed`` for reproducibility.

    ``backend`` selects the execution engine: ``"reference"`` forces the
    per-slot Python loop, ``"vectorized"`` forces the fast kernel (and
    raises :class:`SimulationError` when the configuration is not
    eligible), ``"auto"`` uses the kernel whenever it is eligible.  All
    backends are bit-identical.

    ``collect_aoi=False`` skips the Age-of-Information accumulators and
    leaves ``result.aoi`` as ``None``; it never changes any other field
    of the result.
    """
    if backend not in BACKENDS:
        raise SimulationError(
            f"backend must be one of {BACKENDS}, got {backend!r}"
        )
    initial = _check_run(horizon, capacity, delta1, delta2, initial_energy)
    events, recharge_amounts, coins = _draw(
        distribution, recharge, horizon, seed
    )

    # Policy fast paths: a recency table, a slot table, or a per-slot
    # call (battery-aware policies always take the per-slot call so they
    # can see the current level).  Resolved by the shared RL015 gate so
    # the batch packer dispatches on exactly the same rule.
    fast = kernel.policy_fast_paths(policy, horizon)

    if backend != "reference" and _fallback_reason(
        "simulate_single", fast, recharge_amounts, backend,
        collect_battery_trace,
    ) is None:
        _record_run(
            "vectorized", policy, capacity, delta1, delta2, horizon, seed
        )
        with telemetry.timed("sim.simulate_single.vectorized"):
            return kernel.simulate_kernel(
                fast, events, recharge_amounts, coins, float(capacity),
                float(delta1), float(delta2), horizon, initial, collect_aoi,
            )

    _record_run("reference", policy, capacity, delta1, delta2, horizon, seed)
    return _simulate_reference(
        policy, fast, events, recharge_amounts, coins, float(capacity),
        float(delta1), float(delta2), horizon, initial,
        collect_battery_trace, collect_aoi,
    )[0]


def _simulate_reference(
    policy: ActivationPolicy,
    fast: kernel.PolicyFastPaths,
    events: np.ndarray,
    recharge_amounts: np.ndarray,
    coins: np.ndarray,
    capacity: float,
    delta1: float,
    delta2: float,
    horizon: int,
    initial: float,
    collect_battery_trace: bool = False,
    collect_aoi: bool = True,
    state: Optional[LoopState] = None,
    on_slot: Optional[SlotCallback] = None,
) -> Tuple[SimulationResult, LoopState]:
    """The bit-exact per-slot reference loop (reflected battery form).

    The arrays (and ``fast.slot_probs``) hold the ``horizon`` slots of
    this call.  ``state`` resumes a trajectory where an earlier call left it
    (``initial`` is then unused); the returned state continues it.
    Counters cover this call; the energy fields are carried totals, and
    AoI (``collect_aoi``) and battery traces assume a fresh start.
    ``on_slot`` (see :data:`SlotCallback`) runs after each slot's
    capture, before the recency update.
    """
    activation_cost = delta1 + delta2  # decision threshold (Sec. III-A)
    cost_capture = delta1 + delta2
    table, tail, slot_probs = fast.table, fast.tail, fast.slot_probs
    battery_aware, full_info = fast.battery_aware, fast.full_info
    table_size = 0 if table is None else table.size

    n_events = 0
    n_captures = 0
    activations = 0
    blocked = 0
    trace: Optional[np.ndarray] = None
    if collect_battery_trace:
        trace = levels = np.empty(horizon)

        def record_level(
            t: int, recency: int, prob: float, active: bool,
            captured: bool, battery: float, after: float, shave: float,
        ) -> None:
            levels[t - 1] = after

        on_slot = record_level

    # Age-of-Information accumulators: a capture at slot t closes a gap
    # of g = t - last_capture slots whose end-of-slot ages are
    # 1 .. g - 1 (then 0 at t itself); the trailing censored gap of
    # r slots contributes ages 1 .. r.  Pure integer arithmetic — the
    # vectorized paths replay the same closed forms exactly.
    aoi_area = 0
    aoi_sq = 0
    aoi_max = 0
    last_capture = 0

    # Reflected battery state (see module docstring): the level before
    # each decision is (neg + cum) - shave.
    if state is None:
        state = LoopState(cum=0.0, neg=initial)
    cum, neg, shave, recency = state.cum, state.neg, state.shave, state.recency
    offset = state.start  # slot t of this call is slot t + offset overall

    events_list = events.tolist()
    recharge_list = recharge_amounts.tolist()
    coins_list = coins.tolist()
    table_list = table.tolist() if table is not None else None
    slot_list = slot_probs.tolist() if slot_probs is not None else None

    for t in range(1, horizon + 1):
        # 1. Recharge (clip at capacity via the running shave).
        cum = cum + recharge_list[t - 1]
        pre = neg + cum
        over = pre - capacity
        if over > shave:
            shave = over
        battery = pre - shave

        # 2. Activation decision.
        if table_list is not None:
            prob = table_list[recency - 1] if recency <= table_size else tail
        elif slot_list is not None:
            prob = slot_list[t - 1]
        elif battery_aware:
            prob = policy.activation_probability_with_battery(
                t + offset, recency, battery, capacity
            )
        else:
            prob = policy.activation_probability(t + offset, recency)
        wants_active = coins_list[t - 1] < prob
        if wants_active and battery < activation_cost:
            blocked += 1
            wants_active = False

        # 3. Event arrival and capture.
        event = events_list[t - 1]
        if event:
            n_events += 1
        captured = False
        if wants_active:
            activations += 1
            if event:
                captured = True
                n_captures += 1
                neg = neg - cost_capture
                gap = t - last_capture
                aoi_area += gap * (gap - 1) // 2
                aoi_sq += ((gap - 1) * gap // 2) * (2 * gap - 1) // 3
                if gap - 1 > aoi_max:
                    aoi_max = gap - 1
                last_capture = t
            else:
                neg = neg - delta1

        if on_slot is not None:
            on_slot(
                t, recency, prob, wants_active, captured, battery,
                (neg + cum) - shave, shave,
            )

        # 4. Recency update for the next slot.
        if full_info:
            recency = 1 if event else recency + 1
        else:
            recency = 1 if captured else recency + 1

    aoi: Optional[AoIStats] = None
    if collect_aoi:
        residual = horizon - last_capture
        aoi_area += residual * (residual + 1) // 2
        aoi_sq += (residual * (residual + 1) // 2) * (2 * residual + 1) // 3
        if residual > aoi_max:
            aoi_max = residual
        aoi = AoIStats(
            area=aoi_area,
            area_sq=aoi_sq,
            max_age=aoi_max,
            last_capture_slot=last_capture,
            n_resets=n_captures,
            horizon=horizon,
        )
    result = kernel._result(
        activations, n_captures, blocked, n_events, neg, shave, cum,
        delta1, delta2, horizon, aoi=aoi, battery_trace=trace,
    )
    return result, LoopState(cum, neg, shave, recency, offset + horizon)
