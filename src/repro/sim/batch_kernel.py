"""Batched mega-simulation kernel: many (policy, seed) runs per scan call.

The figure sweeps and any serious policy comparison run M replicates x
P configurations; executed one :func:`repro.sim.simulate_single` call
at a time, per-call dispatch (sub-stream derivation, eligibility
resolution, ctypes marshalling, result assembly) dominates once the
per-run scan itself is fast.  This module packs many runs into
contiguous ``(runs, slots)`` arrays and executes the whole batch in one
scan call:

* **packing** — ragged horizons pad to the longest run; a per-run
  length vector bounds every scan, so padding is never read by it.
  Recharge rows pad with ``0.0`` before the row-wise cumulative sum,
  and IEEE ``x + 0.0 == x`` (bitwise; ``-0.0`` needs a negative
  recharge, which eligibility excludes), so each padded row replicates
  its last valid cumulative value.
* **native batch scan** — one ``repro_batch_scan`` /
  ``repro_network_batch_scan`` call dispatches every packed run to the
  same ``static`` C routine the single-run symbol uses (OpenMP
  ``parallel for`` over runs when compiled in; threading reorders
  scheduling only, never arithmetic).

Execution paths: eligible runs take the native batch scan, ineligible
ones — including every run on a host where the scan did not compile —
the reference loop.  Results split back into per-run
:class:`SimulationResult` objects **bit-identical** to
``simulate_single`` / ``simulate_network`` — per run, the same FP ops
in the same order.

Dispatch mirrors ``simulate_single`` exactly: the shared gates
(:func:`repro.sim.kernel.policy_fast_paths`,
:func:`repro.sim.kernel.ineligibility_reason`,
:func:`repro.sim.network_kernel.plan_or_reason`) decide eligibility,
ineligible runs peel off to the reference loop with the already-drawn
arrays, and mixed batches return results in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.core.multi import Coordinator
from repro.core.policy import ActivationPolicy
from repro.devtools import telemetry
from repro.energy.recharge import RechargeProcess
from repro.events.base import InterArrivalDistribution
from repro.events.renewal import generate_event_flags_bulk
from repro.exceptions import SimulationError
from repro.sim import engine, kernel, network_kernel
from repro.sim._native import require_native_scan
from repro.sim.metrics import (
    AoIStats,
    SimulationResult,
    aoi_from_capture_slots,
)
from repro.sim.rng import SeedLike, bulk_substreams

__all__ = [
    "NetworkRunSpec",
    "RunSpec",
    "simulate_batch",
    "simulate_network_runs",
]


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One ``simulate_single`` configuration, ready for batching.

    Field-for-field the arguments of :func:`repro.sim.simulate_single`;
    ``simulate_batch(specs)[i]`` equals ``simulate_single(**specs[i])``
    bit-for-bit.  Specs in one batch may differ in every field,
    including horizon.
    """

    distribution: InterArrivalDistribution
    policy: ActivationPolicy
    recharge: RechargeProcess
    capacity: float
    delta1: float
    delta2: float
    horizon: int
    seed: SeedLike = None
    initial_energy: Optional[float] = None
    collect_battery_trace: bool = False
    collect_aoi: bool = True


@dataclass(frozen=True, eq=False)
class NetworkRunSpec:
    """One ``simulate_network`` configuration, ready for batching."""

    distribution: InterArrivalDistribution
    coordinator: Coordinator
    recharge: RechargeProcess
    capacity: float
    delta1: float
    delta2: float
    horizon: int
    seed: SeedLike = None
    initial_energy: Optional[float] = None


@dataclass
class _Drawn:
    """One run's drawn arrays plus its resolved dispatch decision."""

    events: np.ndarray
    recharge: np.ndarray
    coins: np.ndarray
    fast: kernel.PolicyFastPaths
    reason: Optional[str]
    initial: float


def _spec_initial(i: int, spec: Union[RunSpec, NetworkRunSpec]) -> float:
    """Check spec ``i`` like a single run; return its initial level."""
    try:
        return engine._check_run(
            spec.horizon, spec.capacity, spec.delta1, spec.delta2,
            spec.initial_energy,
        )
    except SimulationError as exc:
        raise SimulationError(f"spec {i}: {exc}") from None


def _draw_single(
    i: int,
    spec: RunSpec,
    fast_cache: Dict[Tuple[int, int], kernel.PolicyFastPaths],
    coin_rng: np.random.Generator,
    events: np.ndarray,
    recharge_amounts: np.ndarray,
    initial: float,
) -> _Drawn:
    """Resolve one run's dispatch decision from its pre-drawn arrays.

    Events and recharge rows arrive from the grouped bulk draws in
    :func:`simulate_batch`; ``coin_rng`` is the run's third sub-stream,
    all bit-identical to the engine's ``make_rng`` + ``spawn`` — the
    whole point of batching would be lost if seeds replayed differently.
    """
    coins = coin_rng.random(spec.horizon)
    key = (id(spec.policy), spec.horizon)
    fast = fast_cache.get(key)
    if fast is None:
        fast = kernel.policy_fast_paths(spec.policy, spec.horizon)
        fast_cache[key] = fast
    reason = kernel.ineligibility_reason(
        fast, recharge_amounts, spec.collect_battery_trace
    )
    return _Drawn(
        events=events,
        recharge=recharge_amounts,
        coins=coins,
        fast=fast,
        reason=reason,
        initial=initial,
    )


def _bulk_event_rows(
    specs: Sequence[object],
    event_rngs: Sequence[np.random.Generator],
) -> List[np.ndarray]:
    """Event-flag rows for every spec, grouped by (distribution, horizon).

    Batches typically replicate one event model across many seeds; each
    group costs one :func:`generate_event_flags_bulk` call.  Rows are
    bit-identical to per-run ``generate_event_flags`` with the same
    streams.
    """
    rows: List[Optional[np.ndarray]] = [None] * len(specs)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((id(spec.distribution), spec.horizon), []).append(i)
    for (_, horizon), idxs in groups.items():
        mat = generate_event_flags_bulk(
            specs[idxs[0]].distribution,
            horizon,
            [event_rngs[i] for i in idxs],
        )
        for j, i in enumerate(idxs):
            rows[i] = mat[j]
    return rows  # type: ignore[return-value]


def _bulk_recharge_rows(
    specs: Sequence[object],
    rngs_per_spec: Sequence[List[np.random.Generator]],
) -> List[np.ndarray]:
    """Recharge rows for every spec, grouped by (process, horizon).

    ``rngs_per_spec[i]`` holds spec ``i``'s recharge streams (one for a
    single sensor, ``n_sensors`` for a fleet); the returned entry is the
    matching ``(len(rngs), horizon)`` block, bit-identical to per-run
    ``sequence`` calls.
    """
    rows: List[Optional[np.ndarray]] = [None] * len(specs)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((id(spec.recharge), spec.horizon), []).append(i)
    for (_, horizon), idxs in groups.items():
        flat = [rng for i in idxs for rng in rngs_per_spec[i]]
        mat = np.asarray(
            specs[idxs[0]].recharge.sequence_bulk(horizon, flat),
            dtype=np.float64,
        )
        offset = 0
        for i in idxs:
            width = len(rngs_per_spec[i])
            rows[i] = mat[offset:offset + width]
            offset += width
    return rows  # type: ignore[return-value]


def _record_runs(
    entry: str,
    specs: Sequence[Any],
    policy_names: Sequence[str],
    vectorized: Sequence[bool],
) -> None:
    """Emit one run-manifest event per spec.

    Mirrors ``engine._record_run`` so ``--telemetry`` manifests list
    every simulation a batched call performed, with seed provenance —
    a batch must not be less auditable than the per-run loop it
    replaces.
    """
    if not telemetry.enabled():
        return
    for spec, name, is_vec in zip(specs, policy_names, vectorized):
        telemetry.event(
            "simulation_run",
            entry=entry,
            backend="vectorized" if is_vec else "reference",
            policy=name,
            capacity=float(spec.capacity),
            delta1=float(spec.delta1),
            delta2=float(spec.delta2),
            horizon=int(spec.horizon),
            seed=telemetry.describe_seed(spec.seed),
        )


def _count_fallbacks(entry: str, reasons: List[str]) -> None:
    if not reasons or not telemetry.enabled():
        return
    by_reason: Dict[str, int] = {}
    for reason in reasons:
        by_reason[reason] = by_reason.get(reason, 0) + 1
    for reason, n in sorted(by_reason.items()):
        telemetry.event(
            "backend_fallback", entry=entry, reason=reason, runs=n
        )


def _pack_tables(
    probs_arrays: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-run prob tables, deduplicating shared ones.

    Batches typically replicate a handful of policies across many
    seeds; keying on the array's ``id`` keeps the flat buffer at one
    copy per distinct table instead of one per run.
    """
    offsets = np.empty(len(probs_arrays), dtype=np.int64)
    sizes = np.empty(len(probs_arrays), dtype=np.int64)
    unique: List[np.ndarray] = []
    offset_by_id: Dict[int, int] = {}
    total = 0
    for j, arr in enumerate(probs_arrays):
        off = offset_by_id.get(id(arr))
        if off is None:
            off = total
            offset_by_id[id(arr)] = off
            unique.append(arr)
            total += arr.size
        offsets[j] = off
        sizes[j] = arr.size
    flat = (
        np.concatenate(unique)
        if unique
        else np.empty(0, dtype=np.float64)
    )
    return flat, offsets, sizes


_EMPTY_TABLE = np.empty(0, dtype=np.float64)


def _run_probs(fast: kernel.PolicyFastPaths) -> Tuple[np.ndarray, bool]:
    """The (table, slot_mode) pair a run's scan reads probabilities from."""
    if fast.slot_probs is not None:
        return np.asarray(fast.slot_probs, dtype=np.float64), True
    if fast.table is not None:
        return np.asarray(fast.table, dtype=np.float64), False
    return _EMPTY_TABLE, False


def simulate_batch(
    specs: Iterable[RunSpec],
    backend: str = "auto",
) -> List[SimulationResult]:
    """Run every spec and return results in input order.

    ``backend`` has the ``simulate_single`` contract: ``"reference"``
    forces the per-slot loop for every run, ``"vectorized"`` raises
    when any run is ineligible, ``"auto"`` batches the eligible runs
    and peels ineligible ones off to the reference loop.  All backends
    are bit-identical to per-run ``simulate_single`` calls.
    """
    specs = list(specs)
    if backend not in engine.BACKENDS:
        raise SimulationError(
            f"backend must be one of {engine.BACKENDS}, got {backend!r}"
        )
    n_specs = len(specs)
    results: List[Optional[SimulationResult]] = [None] * n_specs
    if n_specs == 0:
        return []
    telemetry.count("batch.runs", n_specs)

    initials = [_spec_initial(i, s) for i, s in enumerate(specs)]
    fast_cache: Dict[Tuple[int, int], kernel.PolicyFastPaths] = {}
    all_streams = bulk_substreams([s.seed for s in specs], 3)
    event_rows = _bulk_event_rows(specs, [st[0] for st in all_streams])
    recharge_rows = _bulk_recharge_rows(
        specs, [[st[1]] for st in all_streams]
    )
    drawn = [
        _draw_single(
            i, s, fast_cache, all_streams[i][2],
            event_rows[i], recharge_rows[i][0], initials[i],
        )
        for i, s in enumerate(specs)
    ]

    eligible: List[int] = []
    fallback_reasons: List[str] = []
    for i, d in enumerate(drawn):
        if backend != "reference" and d.reason is None:
            if specs[i].horizon == 0:
                # The kernel's horizon-0 early return, inlined.
                results[i] = kernel._result(
                    0, 0, 0, 0, d.initial, 0.0, 0.0,
                    specs[i].delta1, specs[i].delta2, 0,
                    aoi=(
                        aoi_from_capture_slots((), 0)
                        if specs[i].collect_aoi
                        else None
                    ),
                )
            else:
                eligible.append(i)
            continue
        if backend == "vectorized":
            raise SimulationError(
                f"vectorized backend unavailable for spec {i}: {d.reason}"
            )
        if backend != "reference":
            fallback_reasons.append(d.reason or "")
        spec = specs[i]
        results[i] = engine._simulate_reference(
            spec.policy, d.fast, d.events, d.recharge, d.coins,
            float(spec.capacity), float(spec.delta1), float(spec.delta2),
            spec.horizon, d.initial, spec.collect_battery_trace,
            spec.collect_aoi,
        )[0]
    telemetry.count("batch.dispatch.reference", n_specs - len(eligible))
    _count_fallbacks("simulate_batch", fallback_reasons)
    _record_runs(
        "simulate_batch",
        specs,
        [type(s.policy).__name__ for s in specs],
        [backend != "reference" and d.reason is None for d in drawn],
    )

    if eligible:
        _scan_batch_packed(specs, drawn, eligible, results)

    return results  # type: ignore[return-value]


def _scan_batch_packed(
    specs: Sequence[RunSpec],
    drawn: Sequence[_Drawn],
    eligible: Sequence[int],
    results: List[Optional[SimulationResult]],
) -> None:
    """Pack the eligible runs, scan them in one batch, split results."""
    n_runs = len(eligible)
    lengths = np.array(
        [specs[i].horizon for i in eligible], dtype=np.int64
    )
    stride = int(lengths.max())
    telemetry.count(
        "batch.padding_waste_slots",
        int(n_runs * stride - int(lengths.sum())),
    )

    events2 = np.zeros((n_runs, stride), dtype=np.uint8)
    recharge2 = np.zeros((n_runs, stride), dtype=np.float64)
    coins2 = np.zeros((n_runs, stride), dtype=np.float64)
    for j, i in enumerate(eligible):
        horizon = specs[i].horizon
        events2[j, :horizon] = drawn[i].events
        recharge2[j, :horizon] = drawn[i].recharge
        coins2[j, :horizon] = drawn[i].coins
    # Row-wise sequential adds; zero padding replicates each row's last
    # valid cumulative value exactly (x + 0.0 == x).
    cs2 = np.cumsum(recharge2, axis=1)

    capacities = np.array([specs[i].capacity for i in eligible], dtype=float)
    delta1s = np.array([specs[i].delta1 for i in eligible], dtype=float)
    delta2s = np.array([specs[i].delta2 for i in eligible], dtype=float)
    initials = np.array([drawn[i].initial for i in eligible], dtype=float)
    run_probs = [_run_probs(drawn[i].fast) for i in eligible]

    native = require_native_scan()
    telemetry.count("batch.dispatch.native", n_runs)
    tables, offsets, sizes = _pack_tables([p for p, _ in run_probs])
    counts, state = native.scan_batch(
        cs2,
        events2,
        coins2,
        lengths,
        tables,
        offsets,
        sizes,
        np.array([drawn[i].fast.tail for i in eligible], dtype=float),
        np.array([m for _, m in run_probs], dtype=np.int32),
        np.array(
            [drawn[i].fast.full_info for i in eligible], dtype=np.int32
        ),
        capacities,
        delta1s,
        delta2s,
        initials,
        parallel=True,
    )

    # Zero padding keeps each row's event count equal to its own horizon's.
    n_events_all = np.count_nonzero(events2, axis=1)
    for j, i in enumerate(eligible):
        horizon = specs[i].horizon
        # The batch scan always computes the AoI accumulators (the
        # per-run flag would force a second specialization for no
        # measurable gain); collect_aoi only gates attachment here.
        aoi = (
            AoIStats(
                area=int(counts[j, 3]),
                area_sq=int(counts[j, 4]),
                max_age=int(counts[j, 5]),
                last_capture_slot=int(counts[j, 6]),
                n_resets=int(counts[j, 1]),
                horizon=horizon,
            )
            if specs[i].collect_aoi
            else None
        )
        results[i] = kernel._result(
            int(counts[j, 0]),
            int(counts[j, 1]),
            int(counts[j, 2]),
            int(n_events_all[j]),
            float(state[j, 0]),
            float(state[j, 1]),
            float(cs2[j, horizon - 1]),
            float(specs[i].delta1),
            float(specs[i].delta2),
            horizon,
            aoi=aoi,
        )


@dataclass
class _NetDrawn:
    """One network run's drawn arrays plus its dispatch plan."""

    events: np.ndarray
    recharge_rows: np.ndarray
    coins: np.ndarray
    plan: Optional[network_kernel.NetworkPlan]
    reason: Optional[str]
    initial: float


def _draw_network(
    i: int,
    spec: NetworkRunSpec,
    backend: str,
    coin_rng: np.random.Generator,
    events: np.ndarray,
    recharge_rows: np.ndarray,
    initial: float,
) -> _NetDrawn:
    """Resolve one run's plan from its pre-drawn arrays.

    Events and recharge rows arrive from the grouped bulk draws in
    :func:`simulate_network_runs`, bit-identical to per-run draws with
    the ``simulate_network`` RNG protocol.
    """
    coins = coin_rng.random(spec.horizon)
    spec.coordinator.reset()
    plan: Optional[network_kernel.NetworkPlan] = None
    reason: Optional[str] = None
    if backend != "reference":
        plan, reason = network_kernel.plan_or_reason(
            spec.coordinator, events, recharge_rows, spec.horizon
        )
    return _NetDrawn(
        events=events,
        recharge_rows=recharge_rows,
        coins=coins,
        plan=plan,
        reason=reason,
        initial=initial,
    )


def simulate_network_runs(
    specs: Iterable[NetworkRunSpec],
    backend: str = "auto",
) -> List[SimulationResult]:
    """Run every network spec and return results in input order.

    The batched counterpart of per-seed :func:`repro.sim.simulate_network`
    calls, bit-identical to them; with the native scan available, all
    eligible runs execute in one ``repro_network_batch_scan`` call.
    Runs may use different coordinators and sensor counts.
    """
    specs = list(specs)
    if backend not in engine.BACKENDS:
        raise SimulationError(
            f"backend must be one of {engine.BACKENDS}, got {backend!r}"
        )
    n_specs = len(specs)
    results: List[Optional[SimulationResult]] = [None] * n_specs
    if n_specs == 0:
        return []
    telemetry.count("network_batch.runs", n_specs)

    initials = [_spec_initial(i, s) for i, s in enumerate(specs)]
    # Sub-stream counts vary with the fleet size; bulk-derive per count.
    counts = [2 + s.coordinator.n_sensors for s in specs]
    net_streams: List[List[np.random.Generator]] = [[]] * n_specs
    for want in sorted(set(counts)):
        idxs = [i for i, k in enumerate(counts) if k == want]
        got = bulk_substreams([specs[i].seed for i in idxs], want)
        for i, streams in zip(idxs, got):
            net_streams[i] = streams
    event_rows = _bulk_event_rows(specs, [st[0] for st in net_streams])
    recharge_blocks = _bulk_recharge_rows(
        specs, [st[2:] for st in net_streams]
    )
    drawn = [
        _draw_network(
            i, s, backend, net_streams[i][1],
            event_rows[i], recharge_blocks[i], initials[i],
        )
        for i, s in enumerate(specs)
    ]

    eligible: List[int] = []
    fallback_reasons: List[str] = []
    for i, d in enumerate(drawn):
        if d.plan is not None:
            eligible.append(i)
            continue
        if backend == "vectorized":
            raise SimulationError(
                f"vectorized backend unavailable for spec {i}: {d.reason}"
            )
        if backend != "reference":
            fallback_reasons.append(d.reason or "")
        # Runtime import: repro.sim.network's batched fast path imports
        # this module, so a module-top import would be circular.
        from repro.sim.network import _simulate_network_reference

        spec = specs[i]
        results[i] = _simulate_network_reference(
            coordinator=spec.coordinator,
            events=d.events,
            recharge_rows=d.recharge_rows,
            coins=d.coins,
            capacity=float(spec.capacity),
            delta1=float(spec.delta1),
            delta2=float(spec.delta2),
            horizon=spec.horizon,
            initial=d.initial,
        )
    telemetry.count(
        "network_batch.dispatch.reference", n_specs - len(eligible)
    )
    _count_fallbacks("simulate_network_runs", fallback_reasons)
    _record_runs(
        "simulate_network_runs",
        specs,
        [type(s.coordinator).__name__ for s in specs],
        [d.plan is not None for d in drawn],
    )

    if not eligible:
        return results  # type: ignore[return-value]

    telemetry.count("network_batch.dispatch.native", len(eligible))
    positive: List[int] = []
    for i in eligible:
        d = drawn[i]
        if d.plan is None:  # pragma: no cover - eligible => planned
            raise SimulationError(f"spec {i}: eligible run lost its plan")
        if specs[i].horizon > 0:
            positive.append(i)
            continue
        results[i] = network_kernel.simulate_network_kernel(
            events=d.events,
            recharge_rows=d.recharge_rows,
            coins=d.coins,
            plan=d.plan,
            capacity=float(specs[i].capacity),
            delta1=float(specs[i].delta1),
            delta2=float(specs[i].delta2),
            horizon=0,
            initial=d.initial,
        )
    if not positive:
        return results  # type: ignore[return-value]

    n_runs = len(positive)
    lengths = np.array([specs[i].horizon for i in positive], dtype=np.int64)
    stride = int(lengths.max())
    sensor_counts = np.array(
        [drawn[i].plan.n_sensors for i in positive],  # type: ignore[union-attr]
        dtype=np.int64,
    )
    sensor_offsets = np.concatenate(
        ([0], np.cumsum(sensor_counts)[:-1])
    ).astype(np.int64)
    total_rows = int(sensor_counts.sum())
    telemetry.count(
        "network_batch.padding_waste_slots",
        int(total_rows * stride) - int((sensor_counts * lengths).sum()),
    )

    events2 = np.zeros((n_runs, stride), dtype=np.uint8)
    coins2 = np.zeros((n_runs, stride), dtype=np.float64)
    resp2 = np.zeros((n_runs, stride), dtype=np.int64)
    recharge_all = np.zeros((total_rows, stride), dtype=np.float64)
    probs_arrays: List[np.ndarray] = []
    slot_modes = np.empty(n_runs, dtype=np.int32)
    for j, i in enumerate(positive):
        d = drawn[i]
        plan = d.plan
        if plan is None:  # pragma: no cover - eligible => planned
            raise SimulationError(f"spec {i}: eligible run lost its plan")
        horizon = specs[i].horizon
        events2[j, :horizon] = d.events
        coins2[j, :horizon] = d.coins
        resp2[j, :horizon] = plan.resp
        row0 = int(sensor_offsets[j])
        recharge_all[row0:row0 + plan.n_sensors, :horizon] = d.recharge_rows
        if plan.slot_probs is not None:
            probs_arrays.append(
                np.asarray(plan.slot_probs, dtype=np.float64)
            )
            slot_modes[j] = 1
        else:
            probs_arrays.append(
                np.asarray(plan.table, dtype=np.float64)
                if plan.table is not None
                else _EMPTY_TABLE
            )
            slot_modes[j] = 0
    cs_all = np.cumsum(recharge_all, axis=1)

    tables, offsets, sizes = _pack_tables(probs_arrays)
    counts, state, aoi_rows = require_native_scan().scan_network_batch(
        cs_all,
        events2,
        coins2,
        resp2,
        lengths,
        sensor_counts,
        sensor_offsets,
        tables,
        offsets,
        sizes,
        np.array(
            [drawn[i].plan.tail for i in positive],  # type: ignore[union-attr]
            dtype=np.float64,
        ),
        slot_modes,
        np.array(
            [drawn[i].plan.full_info for i in positive],  # type: ignore[union-attr]
            dtype=np.int32,
        ),
        np.array([specs[i].capacity for i in positive], dtype=np.float64),
        np.array([specs[i].delta1 for i in positive], dtype=np.float64),
        np.array([specs[i].delta2 for i in positive], dtype=np.float64),
        np.array([drawn[i].initial for i in positive], dtype=np.float64),
        parallel=True,
    )

    for j, i in enumerate(positive):
        horizon = specs[i].horizon
        n_sensors = int(sensor_counts[j])
        row0 = int(sensor_offsets[j])
        harvested = [
            float(cs_all[row0 + s, horizon - 1]) for s in range(n_sensors)
        ]
        captures_by = [int(counts[row0 + s, 1]) for s in range(n_sensors)]
        aoi = AoIStats(
            area=int(aoi_rows[j, 0]),
            area_sq=int(aoi_rows[j, 1]),
            max_age=int(aoi_rows[j, 2]),
            last_capture_slot=int(aoi_rows[j, 3]),
            n_resets=sum(captures_by),
            horizon=horizon,
        )
        results[i] = network_kernel._network_result(
            [int(counts[row0 + s, 0]) for s in range(n_sensors)],
            captures_by,
            [int(counts[row0 + s, 2]) for s in range(n_sensors)],
            [float(state[row0 + s, 0]) for s in range(n_sensors)],
            [float(state[row0 + s, 1]) for s in range(n_sensors)],
            harvested,
            int(np.count_nonzero(events2[j])),
            float(specs[i].delta1),
            float(specs[i].delta2),
            horizon,
            [int(counts[row0 + s, 3]) for s in range(n_sensors)],
            aoi,
        )
    return results  # type: ignore[return-value]
