"""Simulator throughput benchmark emitting machine-readable JSON.

``python -m repro bench`` runs the simulator throughput suite — the
reference loop against the vectorized kernel for each shipped policy
class (single-sensor) and each fig6 coordinator at N ∈ {1, 4, 16}
(multi-sensor), plus serial-versus-parallel :func:`repro.sim.replicate`
with its auto-serial dispatch decision and the measured pool spin-up
cost — and writes ``BENCH_simulator.json`` so future changes can be
checked for perf regressions against an archived run.

Every timed pair is also checked for bit-identity (the kernel contract),
so a benchmark run doubles as an end-to-end consistency check; the
``bit_identical`` flags land in the JSON next to the timings.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.partial_info import clear_analysis_cache
from repro.core.baselines import (
    AggressivePolicy,
    energy_balanced_period,
    solve_age_threshold,
)
from repro.core.clustering import ClusteringSolution, optimize_clustering
from repro.core.greedy import solve_greedy
from repro.core.multi import (
    Coordinator,
    MultiAggressiveCoordinator,
    make_mfi,
    make_mpi,
    make_multi_periodic,
)
from repro.core.policy import ActivationPolicy
from repro.energy.recharge import BernoulliRecharge
from repro.events.base import InterArrivalDistribution
from repro.events.pareto import ParetoInterArrival
from repro.events.weibull import WeibullInterArrival
from repro.devtools import telemetry
from repro.experiments.config import DELTA1, DELTA2
from repro.sim import parallel_map, replicate, simulate_single
from repro.sim._native import get_native_scan
from repro.sim.batch_kernel import RunSpec, simulate_batch
from repro.sim.metrics import SimulationResult
from repro.sim.network import simulate_network
from repro.sim.parallel import PARALLEL_MIN_FORK_SECONDS
from repro.sim.rng import spawn_seeds

#: Default full-size horizon (matches benchmarks/bench_simulator_throughput).
DEFAULT_HORIZON = 100_000

#: Quick-mode horizon for CI smoke runs.
QUICK_HORIZON = 20_000

_SEED = 1
_CAPACITY = 1000.0

#: Per-run horizon for the ``batch`` section.  Short runs are the
#: regime the batched entry targets: per-call dispatch (sub-stream
#: derivation, eligibility resolution, ctypes marshalling, result
#: assembly) dominates once the scan itself is this cheap.
BATCH_HORIZON = 512

#: Batch sizes timed in the ``batch`` section (quick mode drops the
#: largest).
BATCH_M_VALUES = (16, 256, 4096)
BATCH_M_VALUES_QUICK = (16, 256)

#: Pre-checkpointing ``optimize_clustering`` timings (seconds per cold
#: serial call at e=0.5, delta1=1, delta2=6) measured on the 1-core
#: reference container before the cached/checkpointed optimiser landed.
#: ``speedup_vs_baseline`` in the ``optimizer`` section is relative to
#: these, so the perf trajectory survives re-benchmarking.
OPTIMIZER_BASELINE_SECONDS: Dict[str, float] = {
    "weibull": 1.887,
    "pareto": 78.988,
}

#: Maximum acceptable AoI accumulation overhead on the QoM hot path.
AOI_OVERHEAD_GATE_PCT = 5.0

#: Minimum acceptable warm-cache ``/solve`` speedup over a cold solve in
#: the ``serve`` section (CI-asserted).  A warm hit is a memory-LRU
#: lookup plus JSON transport, so the real ratio runs orders of
#: magnitude above this floor.
SERVE_WARM_SPEEDUP_GATE = 10.0

#: Minimum acceptable warm re-solve speedup in the ``adaptive`` section
#: (CI-asserted).  The controller quantizes fitted pmfs, so an
#: unchanged distribution re-fits to a byte-identical fingerprint and
#: the warm ``optimize_clustering`` call is an analysis-memo hit — the
#: real ratio runs orders of magnitude above this floor.
ADAPTIVE_WARM_SPEEDUP_GATE = 5.0

#: Maximum acceptable final-window regret (percent of the oracle QoM)
#: for the full-info adaptive runs — the convergence contract from the
#: acceptance criteria, asserted in CI for the stationary scenario.
ADAPTIVE_REGRET_GATE_PCT = 5.0


def _policy_cases() -> List[Tuple[str, ActivationPolicy]]:
    """One representative per table-driven policy class."""
    events = WeibullInterArrival(40, 3)
    return [
        ("aggressive_partial", AggressivePolicy()),
        ("greedy_full_info", solve_greedy(events, 0.5, DELTA1, DELTA2).as_policy()),
        ("clustering_partial", optimize_clustering(events, 0.5, DELTA1, DELTA2).policy),
        ("periodic_slot_table", energy_balanced_period(events, 0.5, DELTA1, DELTA2)),
        ("age_threshold", solve_age_threshold(events, 0.5, DELTA1, DELTA2).policy),
    ]


def _best_of(fn: Callable[[], Any], rounds: int) -> Tuple[Any, float]:
    """Run ``fn`` ``rounds`` times; return (last result, best seconds)."""
    best = float("inf")
    result: Optional[Any] = None
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    if result is None:  # pragma: no cover - rounds >= 1 always
        raise RuntimeError("benchmark closure never ran")
    return result, best


def _solution_key(solution: ClusteringSolution) -> Tuple[Any, ...]:
    """Everything that must match for two optimiser runs to be identical."""
    p = solution.policy
    a = solution.analysis
    return (
        p.n1, p.n2, p.n3, p.c_n1, p.c_n2, p.c_n3,
        a.qom, a.energy_rate, a.expected_cycle,
        a.survival.tobytes(), a.beta_hat.tobytes(),
    )


def _bench_optimizer(quick: bool, n_jobs: int) -> Dict[str, Any]:
    """Time ``optimize_clustering`` cold / warm / parallel per event model.

    The cold run starts from an empty analysis memo; the warm run reuses
    it; the parallel run starts cold again with ``n_jobs`` workers.  All
    three must return bit-identical solutions — the ``bit_identical``
    flag asserts the optimiser's cache/checkpoint contract end to end.
    """
    cases: List[Tuple[str, InterArrivalDistribution]] = [
        ("weibull", WeibullInterArrival(40, 3)),
    ]
    if not quick:
        cases.append(("pareto", ParetoInterArrival(2, 10)))
    section: Dict[str, Any] = {}
    for name, events in cases:
        clear_analysis_cache()
        start = time.perf_counter()
        cold = optimize_clustering(events, 0.5, DELTA1, DELTA2)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = optimize_clustering(events, 0.5, DELTA1, DELTA2)
        warm_s = time.perf_counter() - start
        clear_analysis_cache()
        parallel = optimize_clustering(
            events, 0.5, DELTA1, DELTA2, n_jobs=n_jobs
        )
        baseline = OPTIMIZER_BASELINE_SECONDS[name]
        section[name] = {
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "baseline_seconds": baseline,
            "speedup_vs_baseline": baseline / cold_s if cold_s > 0 else None,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else None,
            "parallel_n_jobs": n_jobs,
            "bit_identical": (
                _solution_key(cold) == _solution_key(warm)
                and _solution_key(cold) == _solution_key(parallel)
            ),
        }
    clear_analysis_cache()
    return section


def _network_cases(
    events: InterArrivalDistribution, e: float, n_sensors: int
) -> List[Tuple[str, Coordinator]]:
    """The four fig6 strategies at one fleet size (paper Sec. VI-B)."""
    return [
        ("mfi_full_info", make_mfi(events, e, n_sensors, DELTA1, DELTA2)[0]),
        ("mpi_partial", make_mpi(events, e, n_sensors, DELTA1, DELTA2)[0]),
        ("aggressive", MultiAggressiveCoordinator(n_sensors)),
        ("periodic", make_multi_periodic(events, e, n_sensors, DELTA1, DELTA2)),
    ]


def _bench_network(
    horizon: int, rounds: int, quick: bool
) -> Dict[str, Any]:
    """Time ``simulate_network`` reference vs vectorized per (policy, N).

    Mirrors the fig6 setting (Bernoulli recharge q=0.1, c=1, policies
    solved at the aggregate rate N*e).  The reference loop is timed once
    per cell (it is the slow baseline being replaced; at N=16 one run
    already costs seconds), the kernel best-of-``rounds``.  Every cell
    checks bit-identity, so the section doubles as an end-to-end
    consistency check of the network kernel.
    """
    events = WeibullInterArrival(40, 3)
    e = 0.1
    recharge = BernoulliRecharge(q=e, c=1.0)
    n_values = [1, 4] if quick else [1, 4, 16]
    cells: Dict[str, Any] = {}
    for n in n_values:
        for name, coordinator in _network_cases(events, e, n):
            def _run(backend: str, c: Coordinator = coordinator) -> SimulationResult:
                return simulate_network(
                    events, c, recharge,
                    capacity=_CAPACITY, delta1=DELTA1, delta2=DELTA2,
                    horizon=horizon, seed=_SEED, backend=backend,
                )

            ref_result, ref_s = _best_of(lambda: _run("reference"), 1)
            vec_result, vec_s = _best_of(lambda: _run("vectorized"), rounds)
            cells[f"{name}_n{n}"] = {
                "n_sensors": n,
                "reference_seconds": ref_s,
                "vectorized_seconds": vec_s,
                "speedup": ref_s / vec_s if vec_s > 0 else None,
                "slots_per_second": {
                    "reference": horizon / ref_s if ref_s > 0 else None,
                    "vectorized": horizon / vec_s if vec_s > 0 else None,
                },
                "bit_identical": ref_result == vec_result,
            }
    return {"e": e, "n_values": n_values, "cells": cells}


def _bench_batch(rounds: int, quick: bool) -> Dict[str, Any]:
    """Per-run vectorized dispatch vs one batched scan call at M runs.

    Times ``M`` independent ``simulate_single`` calls against a single
    :func:`repro.sim.batch_kernel.simulate_batch` call over the same M
    specs.  Every cell checks the batched results (the OpenMP batch
    scan) against the per-run ones (the serial single-run scan)
    bit-for-bit, so the section doubles as an end-to-end consistency
    check of the mega-kernel.
    """
    events = WeibullInterArrival(40, 3)
    recharge = BernoulliRecharge(0.5, 1.0)
    policy = AggressivePolicy()
    horizon = BATCH_HORIZON
    m_values = list(BATCH_M_VALUES_QUICK if quick else BATCH_M_VALUES)
    cells: Dict[str, Any] = {}
    for m in m_values:
        seeds = spawn_seeds(_SEED, m)
        specs = [
            RunSpec(
                distribution=events, policy=policy, recharge=recharge,
                capacity=_CAPACITY, delta1=DELTA1, delta2=DELTA2,
                horizon=horizon, seed=seed,
            )
            for seed in seeds
        ]

        def _per_run() -> List[SimulationResult]:
            return [
                simulate_single(
                    events, policy, recharge,
                    capacity=_CAPACITY, delta1=DELTA1, delta2=DELTA2,
                    horizon=horizon, seed=seed,
                )
                for seed in seeds
            ]

        per_results, per_s = _best_of(_per_run, rounds)
        batch_results, batch_s = _best_of(
            lambda: simulate_batch(specs), rounds
        )
        slots = m * horizon
        cells[f"m{m}"] = {
            "runs": m,
            "per_run_seconds": per_s,
            "batched_seconds": batch_s,
            "speedup": per_s / batch_s if batch_s > 0 else None,
            "slots_per_second": {
                "per_run": slots / per_s if per_s > 0 else None,
                "batched": slots / batch_s if batch_s > 0 else None,
            },
            "bit_identical": batch_results == per_results,
        }
    return {"horizon": horizon, "m_values": m_values, "cells": cells}


def _bench_aoi(horizon: int, rounds: int) -> Dict[str, Any]:
    """AoI accumulation overhead on the single-sensor hot path.

    Times the vectorized backend with AoI disabled (``collect_aoi=False``
    — exactly the pre-AoI QoM hot path, the flag reaches the native
    scan) against the default AoI-on run.  Each timing sample loops the
    run ``repeats`` times so short horizons stay well above timer
    resolution; best-of-``rounds`` then discards scheduler noise.
    Every cell also asserts the AoI contract end to end: the reference
    loop and the vectorized kernel must agree bit-for-bit on the full
    result, AoI block included.
    """
    events = WeibullInterArrival(40, 3)
    recharge = BernoulliRecharge(0.5, 1.0)
    # The true overhead is a handful of integer ops per slot, so the
    # measurement must resolve low single-digit percentages: stretch
    # each sample to ~tens of milliseconds and take the best of at
    # least seven rounds per side.
    repeats = max(1, 800_000 // max(horizon, 1))
    rounds = max(rounds, 7)
    cells: Dict[str, Any] = {}
    for name, policy in _policy_cases():
        def _run(
            backend: str, collect: bool,
            policy: ActivationPolicy = policy,
        ) -> SimulationResult:
            return simulate_single(
                events, policy, recharge,
                capacity=_CAPACITY, delta1=DELTA1, delta2=DELTA2,
                horizon=horizon, seed=_SEED, backend=backend,
                collect_aoi=collect,
            )

        def _repeated(collect: bool) -> Callable[[], SimulationResult]:
            def fn() -> SimulationResult:
                for _ in range(repeats):
                    result = _run("vectorized", collect)
                return result
            return fn

        _, qom_s = _best_of(_repeated(False), rounds)
        vec_result, aoi_s = _best_of(_repeated(True), rounds)
        ref_result = _run("reference", True)
        overhead = (
            (aoi_s - qom_s) / qom_s * 100.0 if qom_s > 0 else None
        )
        cells[name] = {
            "qom_only_seconds": qom_s / repeats,
            "with_aoi_seconds": aoi_s / repeats,
            "overhead_pct": overhead,
            "within_gate": (
                overhead is not None and overhead < AOI_OVERHEAD_GATE_PCT
            ),
            "bit_identical": ref_result == vec_result,
        }
    return {
        "gate_pct": AOI_OVERHEAD_GATE_PCT,
        "repeats": repeats,
        "cells": cells,
    }


def _percentile_ms(sorted_ms: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending latency sample."""
    index = min(len(sorted_ms) - 1, max(0, round(q * (len(sorted_ms) - 1))))
    return sorted_ms[index]


def _serve_post(
    port: int, path: str, body: Dict[str, Any]
) -> Tuple[Dict[str, Any], float]:
    """POST one JSON request over a real socket; returns (body, ms)."""
    import http.client

    payload = json.dumps(body)
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    try:
        conn.request(
            "POST", path, body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if "error" in data:
        raise RuntimeError(f"serve bench request failed: {data}")
    return data, elapsed_ms


def _bench_serve(quick: bool, horizon: int) -> Dict[str, Any]:
    """Cold/warm ``/solve`` latency, coalescing and store tiers end to end.

    Drives a live :class:`~repro.serve.server.ServerThread` over a real
    socket with the clustering workload (Pareto in full mode — the
    paper's heavy-tail case and the slowest shipped solve — Weibull in
    quick mode so CI stays fast).  Asserts the service's three contracts
    in one pass: warm hits beat the cold solve by at least
    ``SERVE_WARM_SPEEDUP_GATE``; eight concurrent identical cold solves
    run the optimiser exactly once; and both the served policy and a
    served simulation are bit-identical to direct
    ``optimize_clustering`` / ``simulate_single`` calls.
    """
    import shutil
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.energy.recharge import ConstantRecharge
    from repro.serve import PolicyService, ServerThread

    if quick:
        events_spec = "weibull:40,3"
        distribution: InterArrivalDistribution = WeibullInterArrival(40, 3)
    else:
        events_spec = "pareto:2,10"
        distribution = ParetoInterArrival(2, 10)
    rate = 0.5
    request = {
        "events": events_spec, "family": "clustering", "rate": rate,
        "delta1": DELTA1, "delta2": DELTA2,
    }
    sim_request = dict(
        request, capacity=_CAPACITY, horizon=horizon, seed=_SEED
    )
    n_warm = 20 if quick else 50
    cache_dir = tempfile.mkdtemp(prefix="repro-serve-bench-")
    clear_analysis_cache()
    try:
        service = PolicyService(cache_dir=cache_dir, batch_window_ms=2.0)
        with ServerThread(service) as server:
            cold_body, cold_ms = _serve_post(server.port, "/solve", request)
            warm_samples = sorted(
                _serve_post(server.port, "/solve", request)[1]
                for _ in range(n_warm)
            )
            warm_p50 = _percentile_ms(warm_samples, 0.50)
            warm_p99 = _percentile_ms(warm_samples, 0.99)

            sim_body, _ = _serve_post(server.port, "/simulate", sim_request)

            # Coalescing burst: a distinct cold key (delta2 shifted) so
            # the solver is guaranteed in flight while the other seven
            # requests arrive.
            burst = dict(request, delta2=DELTA2 + 1)
            before = dict(service.stats)
            with ThreadPoolExecutor(max_workers=8) as pool:
                tiers = [
                    body["cache"]["tier"]
                    for body, _ in pool.map(
                        lambda _i: _serve_post(server.port, "/solve", burst),
                        range(8),
                    )
                ]
            computed = (
                service.stats.get("solve.computed", 0)
                - before.get("solve.computed", 0)
            )
            coalesced = (
                service.stats.get("solve.coalesced", 0)
                - before.get("solve.coalesced", 0)
            )
            stats = dict(service.stats)

        # Bit-identity against the direct (un-served) entry points.
        clear_analysis_cache()
        direct = optimize_clustering(distribution, rate, DELTA1, DELTA2)
        policy_body = cold_body["policy"]
        solve_identical = (
            policy_body["n1"] == direct.policy.n1
            and policy_body["n2"] == direct.policy.n2
            and policy_body["n3"] == direct.policy.n3
            and policy_body["c_n1"] == direct.policy.c_n1
            and policy_body["c_n2"] == direct.policy.c_n2
            and policy_body["c_n3"] == direct.policy.c_n3
            and cold_body["qom"] == direct.qom
        )
        direct_sim = simulate_single(
            distribution, direct.policy, ConstantRecharge(rate),
            capacity=_CAPACITY, delta1=DELTA1, delta2=DELTA2,
            horizon=horizon, seed=_SEED,
        )
        sim_identical = (
            sim_body["qom"] == direct_sim.qom
            and sim_body["n_events"] == direct_sim.n_events
            and sim_body["n_captures"] == direct_sim.n_captures
            and direct_sim.aoi is not None
            and sim_body["aoi"]["time_average"]
            == direct_sim.aoi.time_average
        )

        # Disk tier: a fresh process-equivalent (new service, same
        # cache dir, cold memory) must be served from disk.
        service2 = PolicyService(cache_dir=cache_dir)
        with ServerThread(service2) as server2:
            disk_body, disk_ms = _serve_post(server2.port, "/solve", request)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    clear_analysis_cache()

    warm_speedup = cold_ms / warm_p50 if warm_p50 > 0 else None
    return {
        "events": events_spec,
        "family": "clustering",
        "horizon": horizon,
        "cold_ms": cold_ms,
        "warm_p50_ms": warm_p50,
        "warm_p99_ms": warm_p99,
        "warm_speedup": warm_speedup,
        "warm_gate": SERVE_WARM_SPEEDUP_GATE,
        "meets_warm_gate": (
            warm_speedup is not None
            and warm_speedup >= SERVE_WARM_SPEEDUP_GATE
        ),
        "coalescing": {
            "n_requests": 8,
            "computed": computed,
            "coalesced": coalesced,
            "tiers": sorted(tiers),
            "single_execution": computed == 1,
        },
        "store": {
            "memory_hits": stats.get("store.memory.hit", 0),
            "disk_hits": stats.get("store.disk.hit", 0),
            "misses": stats.get("store.miss", 0),
            "disk_tier_hit": disk_body["cache"]["tier"] == "disk",
            "disk_hit_ms": disk_ms,
        },
        "bit_identical": {
            "solve": solve_identical,
            "simulate": sim_identical,
        },
    }


def _bench_adaptive(quick: bool, n_jobs: int) -> Dict[str, Any]:
    """Adaptive estimate->re-solve->act loop: regret and re-solve reuse.

    Two sub-benchmarks.  The *scenario* cells run the full-info
    :class:`~repro.adaptive.AdaptiveController` against the
    known-distribution oracle and record the per-chunk regret
    trajectory; the stationary final-window gap must close within
    ``ADAPTIVE_REGRET_GATE_PCT`` and the changepoint run must
    re-converge after the switch (its final window is entirely
    post-switch).  The *resolve* cell times a cold
    ``optimize_clustering`` on a quantized empirical fit against a warm
    repeat on the same fingerprint — exactly the call an
    unchanged-distribution re-solve makes — and the ``checkpoints``
    counters prove the reuse actually happened (prefix-checkpoint hits
    inside the cold solve, memo hits on the warm one).
    """
    import math

    import numpy as np

    from repro.events.empirical import EmpiricalInterArrival
    from repro.experiments.adaptive import FINAL_WINDOW_FRACTION, run_adaptive

    # Full-info runs are cheap (solve_greedy re-solves), so even quick
    # mode affords a horizon long enough for the final window to
    # average per-chunk binomial noise below the regret gate.
    horizon = 60_000 if quick else 120_000
    chunk_slots = 2_000

    with telemetry.collect() as col:
        scenarios: Dict[str, Any] = {}
        for scenario in ("stationary", "changepoint"):
            start = time.perf_counter()
            fig = run_adaptive(
                scenario=scenario, info="full", horizon=horizon,
                chunk_slots=chunk_slots, seed=_SEED,
            )
            elapsed = time.perf_counter() - start
            n_chunks = len(fig.get("adaptive").y)
            tail = max(int(n_chunks * FINAL_WINDOW_FRACTION), 1)

            def _final(label: str, fig: Any = fig, tail: int = tail) -> float:
                window = [
                    y for y in fig.get(label).y[-tail:] if not math.isnan(y)
                ]
                return sum(window) / max(len(window), 1)

            final_adaptive = _final("adaptive")
            final_oracle = _final("oracle")
            regret_pct = (
                (final_oracle - final_adaptive) / final_oracle * 100.0
                if final_oracle > 0 else None
            )
            meta = dict(
                part.split("=", 1) for part in fig.notes.split() if "=" in part
            )
            scenarios[scenario] = {
                "info": "full",
                "n_chunks": n_chunks,
                "seconds": elapsed,
                "final_adaptive_qom": final_adaptive,
                "final_oracle_qom": final_oracle,
                "final_automaton_qom": _final("automaton"),
                "final_regret_pct": regret_pct,
                "within_regret_gate": (
                    regret_pct is not None
                    and regret_pct <= ADAPTIVE_REGRET_GATE_PCT
                ),
                "resolves": int(meta["resolves"]),
                "changepoints": int(meta["changepoints"]),
                "regret_trajectory": list(fig.get("regret").y),
            }

        # Warm re-solve on an unchanged fingerprint.  The pmf is already
        # on the controller's 1/512 quantization grid, exactly what a
        # re-fit of a stationary stream produces after quantization.
        raw = 0.125 * (0.875 ** np.arange(40))
        ticks = np.round(raw / raw.sum() / (1.0 / 512.0))
        fitted = EmpiricalInterArrival(ticks / ticks.sum())
        clear_analysis_cache()
        cold, cold_s = _best_of(
            lambda: optimize_clustering(
                fitted, 0.5, DELTA1, DELTA2, n_jobs=n_jobs
            ),
            1,
        )
        warm, warm_s = _best_of(
            lambda: optimize_clustering(
                fitted, 0.5, DELTA1, DELTA2, n_jobs=n_jobs
            ),
            3,
        )
    clear_analysis_cache()

    counters = col.counters
    return {
        "horizon": horizon,
        "chunk_slots": chunk_slots,
        "regret_gate_pct": ADAPTIVE_REGRET_GATE_PCT,
        "scenarios": scenarios,
        "resolve": {
            "family": "clustering",
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "warm_speedup": cold_s / warm_s if warm_s > 0 else None,
            "warm_gate": ADAPTIVE_WARM_SPEEDUP_GATE,
            "meets_warm_gate": (
                warm_s > 0 and cold_s / warm_s >= ADAPTIVE_WARM_SPEEDUP_GATE
            ),
            "bit_identical": _solution_key(cold) == _solution_key(warm),
        },
        "checkpoints": {
            "prefix_hits": counters.get("analysis.prefix.hit", 0),
            "prefix_slots_reused": counters.get(
                "analysis.prefix.slots_reused", 0
            ),
            "prefix_captures": counters.get("analysis.prefix.capture", 0),
            "memo_hits": counters.get("analysis.memo.hit", 0),
            "memo_misses": counters.get("analysis.memo.miss", 0),
            "adaptive_chunks": counters.get("adaptive.chunks", 0),
            "adaptive_resolves": counters.get("adaptive.resolve", 0),
            "adaptive_changepoints": counters.get("adaptive.changepoints", 0),
            "degenerate_fallbacks": counters.get(
                "adaptive.fit.degenerate", 0
            ),
        },
    }


def run_bench(
    horizon: int = DEFAULT_HORIZON,
    n_replicates: int = 8,
    n_jobs: int = 2,
    rounds: int = 3,
    quick: bool = False,
) -> Dict[str, Any]:
    """Time every policy class on both backends; return the JSON payload.

    The whole suite runs inside a telemetry collection, so the payload's
    ``telemetry`` section reports what actually executed: backend
    dispatch counts, analysis-cache hit rates and fork/serial decisions.
    """
    with telemetry.collect() as collection:
        payload = _run_bench_timed(
            horizon=horizon,
            n_replicates=n_replicates,
            n_jobs=n_jobs,
            rounds=rounds,
            quick=quick,
        )
    payload["telemetry"] = _telemetry_section(collection.snapshot())
    return payload


def _run_bench_timed(
    horizon: int,
    n_replicates: int,
    n_jobs: int,
    rounds: int,
    quick: bool,
) -> Dict[str, Any]:
    events = WeibullInterArrival(40, 3)
    recharge = BernoulliRecharge(0.5, 1.0)
    native = get_native_scan()

    policies: Dict[str, Any] = {}
    for name, policy in _policy_cases():
        def _run(backend: str, policy: ActivationPolicy = policy) -> SimulationResult:
            return simulate_single(
                events, policy, recharge,
                capacity=_CAPACITY, delta1=DELTA1, delta2=DELTA2,
                horizon=horizon, seed=_SEED, backend=backend,
            )

        ref_result, ref_s = _best_of(lambda: _run("reference"), max(1, rounds - 1))
        vec_result, vec_s = _best_of(lambda: _run("vectorized"), rounds)
        policies[name] = {
            "reference_seconds": ref_s,
            "vectorized_seconds": vec_s,
            "speedup": ref_s / vec_s if vec_s > 0 else None,
            "slots_per_second": {
                "reference": horizon / ref_s if ref_s > 0 else None,
                "vectorized": horizon / vec_s if vec_s > 0 else None,
            },
            "bit_identical": ref_result == vec_result,
        }

    def _replicate_run(seed: Any) -> SimulationResult:
        return simulate_single(
            events, AggressivePolicy(), recharge,
            capacity=_CAPACITY, delta1=DELTA1, delta2=DELTA2,
            horizon=horizon, seed=seed,
        )

    start = time.perf_counter()
    serial = replicate(_replicate_run, n_replicates, base_seed=_SEED, n_jobs=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = replicate(
        _replicate_run, n_replicates, base_seed=_SEED, n_jobs=n_jobs
    )
    parallel_s = time.perf_counter() - start
    dispatch = telemetry.last_dispatch_record()

    # Pool spin-up cost in isolation: force a fork over trivial items.
    # This is the fixed price the auto-serial threshold protects against.
    start = time.perf_counter()
    parallel_map(_identity, list(range(n_jobs)), n_jobs=n_jobs,
                 min_fork_seconds=0.0)
    spinup_s = time.perf_counter() - start

    return {
        "schema_version": 2,
        "generated_unix": time.time(),
        "horizon": horizon,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "native_scan": native is not None,
            "native_openmp": native.openmp if native is not None else False,
        },
        "policies": policies,
        "aoi": _bench_aoi(horizon, rounds),
        "batch": _bench_batch(rounds, quick),
        "network": _bench_network(horizon, rounds, quick),
        "optimizer": _bench_optimizer(quick, n_jobs),
        "adaptive": _bench_adaptive(quick, n_jobs),
        "serve": _bench_serve(quick, horizon),
        "replicate": {
            "n_replicates": n_replicates,
            "n_jobs": n_jobs,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s > 0 else None,
            "identical": serial.values == parallel.values,
            "dispatch": dispatch["mode"],
            "threshold_seconds": PARALLEL_MIN_FORK_SECONDS,
            "pool_spinup_seconds": spinup_s,
        },
    }


def _identity(x: Any) -> Any:
    """Trivial worker used to time pool spin-up in isolation."""
    return x


def _hit_rate(hits: int, misses: int) -> Optional[float]:
    total = hits + misses
    return hits / total if total else None


def _telemetry_section(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Condense a telemetry snapshot into the bench payload section.

    Reports the three decision families the perf stack makes silently:
    which kernel backend/scan actually ran, the analysis memo/disk-cache
    hit rates, and how each ``parallel_map`` call dispatched.
    """
    counters: Dict[str, int] = dict(snapshot.get("counters", {}))
    memo_hits = counters.get("analysis.memo.hit", 0)
    memo_misses = counters.get("analysis.memo.miss", 0)
    disk_hits = counters.get("analysis.disk.hit", 0)
    disk_misses = counters.get("analysis.disk.miss", 0)
    prefix = "parallel.dispatch."
    return {
        "backend_dispatch": {
            name: value for name, value in sorted(counters.items())
            if name.startswith(("sim.", "network.", "kernel.",
                                "network_kernel.", "native."))
        },
        "cache": {
            "memo_hits": memo_hits,
            "memo_misses": memo_misses,
            "memo_hit_rate": _hit_rate(memo_hits, memo_misses),
            "memo_evictions": counters.get("analysis.memo.evict", 0),
            "disk_hits": disk_hits,
            "disk_misses": disk_misses,
            "disk_hit_rate": _hit_rate(disk_hits, disk_misses),
            "disk_corrupt": counters.get("analysis.disk.corrupt", 0),
        },
        "parallel_dispatch": {
            name[len(prefix):]: value
            for name, value in sorted(counters.items())
            if name.startswith(prefix)
        },
        "timers": {
            name: dict(slot)
            for name, slot in sorted(snapshot.get("timers", {}).items())
        },
        "events_recorded": len(snapshot.get("events", ())),
    }


def format_bench(payload: Dict[str, Any]) -> str:
    """Human-readable summary of a benchmark payload."""
    lines = [
        f"simulator benchmark — horizon={payload['horizon']}, "
        f"native_scan={payload['host']['native_scan']}"
    ]
    for name, row in payload["policies"].items():
        speedup = row["speedup"]
        lines.append(
            f"  {name:20s} ref {row['reference_seconds'] * 1e3:8.2f} ms   "
            f"vec {row['vectorized_seconds'] * 1e3:7.2f} ms   "
            f"{speedup:6.1f}x   bit_identical={row['bit_identical']}"
        )
    for name, row in payload.get("aoi", {}).get("cells", {}).items():
        lines.append(
            f"  aoi:{name:20s} qom {row['qom_only_seconds'] * 1e3:7.2f} ms   "
            f"+aoi {row['with_aoi_seconds'] * 1e3:7.2f} ms   "
            f"overhead {row['overhead_pct']:5.2f}%   "
            f"within_gate={row['within_gate']}   "
            f"bit_identical={row['bit_identical']}"
        )
    for name, row in payload.get("batch", {}).get("cells", {}).items():
        lines.append(
            f"  batch:{name:18s} per-run {row['per_run_seconds'] * 1e3:8.1f} ms   "
            f"batched {row['batched_seconds'] * 1e3:7.2f} ms   "
            f"{row['speedup']:6.1f}x   "
            f"bit_identical={row['bit_identical']}"
        )
    for name, row in payload.get("network", {}).get("cells", {}).items():
        lines.append(
            f"  net:{name:20s} ref {row['reference_seconds'] * 1e3:8.1f} ms   "
            f"vec {row['vectorized_seconds'] * 1e3:7.2f} ms   "
            f"{row['speedup']:6.1f}x   bit_identical={row['bit_identical']}"
        )
    for name, row in payload.get("optimizer", {}).items():
        lines.append(
            f"  optimize:{name:12s} cold {row['cold_seconds']:7.2f} s   "
            f"warm {row['warm_seconds'] * 1e3:7.1f} ms   "
            f"{row['speedup_vs_baseline']:6.1f}x vs baseline   "
            f"bit_identical={row['bit_identical']}"
        )
    adaptive = payload.get("adaptive")
    if adaptive:
        for name, row in adaptive["scenarios"].items():
            lines.append(
                f"  adaptive:{name:14s} final {row['final_adaptive_qom']:.4f} "
                f"vs oracle {row['final_oracle_qom']:.4f}   "
                f"regret {row['final_regret_pct']:5.2f}%   "
                f"resolves={row['resolves']} "
                f"changepoints={row['changepoints']}   "
                f"within_gate={row['within_regret_gate']}"
            )
        res = adaptive["resolve"]
        cp = adaptive["checkpoints"]
        lines.append(
            f"  adaptive:resolve       cold {res['cold_seconds'] * 1e3:8.1f} ms   "
            f"warm {res['warm_seconds'] * 1e3:7.2f} ms   "
            f"{res['warm_speedup']:6.1f}x (gate {res['warm_gate']:.0f}x)   "
            f"prefix_hits={cp['prefix_hits']} memo_hits={cp['memo_hits']}   "
            f"bit_identical={res['bit_identical']}"
        )
    serve = payload.get("serve")
    if serve:
        lines.append(
            f"  serve:{serve['family']}({serve['events']}) "
            f"cold {serve['cold_ms']:8.1f} ms   "
            f"warm p50 {serve['warm_p50_ms']:6.2f} ms "
            f"p99 {serve['warm_p99_ms']:6.2f} ms   "
            f"{serve['warm_speedup']:8.1f}x (gate {serve['warm_gate']:.0f}x)"
        )
        lines.append(
            f"  serve:coalescing 8 concurrent -> computed="
            f"{serve['coalescing']['computed']} "
            f"coalesced={serve['coalescing']['coalesced']}   "
            f"disk_tier_hit={serve['store']['disk_tier_hit']}   "
            f"bit_identical=solve:{serve['bit_identical']['solve']}/"
            f"simulate:{serve['bit_identical']['simulate']}"
        )
    rep = payload["replicate"]
    lines.append(
        f"  replicate x{rep['n_replicates']:<3d}      serial "
        f"{rep['serial_seconds']:.2f} s   n_jobs={rep['n_jobs']} "
        f"{rep['parallel_seconds']:.2f} s   "
        f"dispatch={rep.get('dispatch', '?')}   "
        f"identical={rep['identical']}"
    )
    return "\n".join(lines)


def write_bench(payload: Dict[str, Any], path: str) -> None:
    """Write the payload as pretty-printed JSON."""
    out = pathlib.Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
