"""The ``repro serve`` application core: cache-first solve/simulate.

:class:`PolicyService` is transport-agnostic — the HTTP layer in
:mod:`repro.serve.server` only parses bodies and maps exceptions to
status codes; everything below lives here so tests and the bench can
drive the service in-process.

Three mechanisms make the service cache-first (DESIGN.md §15):

1.  **Tiered policy store.**  Solved policies live in a
    :class:`~repro.store.TieredStore` (byte-budgeted memory LRU →
    atomic on-disk JSON blobs) keyed on the
    canonical solve key — (distribution fingerprint, family,
    energy/cost parameters, solver params) — so a warm ``/solve`` is a
    dictionary lookup instead of a DP.

2.  **Request coalescing.**  Concurrent identical solves share one
    in-flight ``asyncio.Future`` keyed on the hex content address: the
    first request computes (in a worker thread), every concurrent
    duplicate awaits the same future, and the solver runs exactly once
    (the bench gate asserts ``computed == 1`` for 8 concurrent cold
    requests).

3.  **Simulate micro-batching.**  ``/simulate`` requests arriving
    within a short window are packed into one
    :func:`~repro.sim.batch_kernel.simulate_batch` call, which is
    bit-identical to per-run ``simulate_single`` — so batching is
    invisible in the results and only visible in throughput.

Concurrency/telemetry note: :func:`repro.devtools.telemetry.collect`
frames live on a module-global stack that interleaved request handlers
would corrupt (request A's exit would pop request B's frame), so this
module never touches that stack.  Per-request manifests are built from
explicit :class:`~repro.devtools.telemetry.TelemetryCollection`
objects, and the service keeps its own lifetime counters (updated only
on the event-loop thread).
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.devtools import telemetry
from repro.energy.recharge import (
    BernoulliRecharge,
    ConstantRecharge,
    RechargeProcess,
)
from repro.events.base import InterArrivalDistribution
from repro.events.spec import parse_distribution
from repro.exceptions import ServeError
from repro.serve import schema as serve_schema
from repro.serve.policies import (
    canonical_solve_key,
    policy_from_payload,
    solve_policy,
)
from repro.sim.batch import summarize
from repro.sim.batch_kernel import RunSpec, simulate_batch
from repro.sim.metrics import SimulationResult
from repro.sim.rng import spawn_seeds
from repro.store import MemoryLRU, TieredStore

__all__ = ["PolicyService"]

#: Memory-tier caps for the policy store.  Policy payloads are small
#: (the largest, greedy vectors, run a few KiB), so the entry cap is
#: the binding budget in practice; the byte budget bounds pathological
#: payloads.
_STORE_MAX_ENTRIES = 4096

#: Flush a simulate micro-batch at this many pending runs even if the
#: batching window has not elapsed.
_MAX_BATCH = 256


def _encode_payload(payload: Dict[str, Any]) -> bytes:
    """Serialise a policy payload for the disk tier."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _decode_payload(blob: bytes) -> Optional[Dict[str, Any]]:
    """Parse a stored payload; ``None`` marks the blob corrupt."""
    try:
        value = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if (
        not isinstance(value, dict)
        or value.get("family") not in serve_schema.POLICY_FAMILIES
    ):
        return None
    return value


def _payload_nbytes(key: bytes, value: Any) -> int:
    """Byte accounting for the memory tier: encoded size plus key."""
    try:
        return len(key) + len(_encode_payload(value)) + 64
    except (TypeError, ValueError):
        return len(key) + 1024


def _finite(value: float, fallback: float) -> float:
    """Replace non-finite summary statistics for JSON transport."""
    return value if math.isfinite(value) else fallback


def _summary_dict(values: List[float]) -> Dict[str, float]:
    """JSON-safe mean/CI summary (single-replicate NaNs collapse to 0)."""
    stats = summarize(values)
    return {
        "mean": stats.mean,
        "std_error": _finite(stats.std_error, 0.0),
        "ci_low": _finite(stats.ci_low, stats.mean),
        "ci_high": _finite(stats.ci_high, stats.mean),
    }


def _aoi_dict(result: SimulationResult) -> Dict[str, Any]:
    """JSON projection of a run's Age-of-Information statistics."""
    aoi = result.aoi
    if aoi is None:  # simulate paths always collect AoI
        raise ServeError("simulation result is missing AoI statistics")
    return {
        "time_average": aoi.time_average,
        "max_age": int(aoi.max_age),
        "n_resets": int(aoi.n_resets),
        "variance": aoi.variance,
    }


class PolicyService:
    """Cache-first solve/simulate service behind ``repro serve``.

    All public coroutines (:meth:`solve`, :meth:`simulate`,
    :meth:`sweep`) and :meth:`healthz` must run on a single event loop;
    CPU-bound work is pushed to worker threads while the store,
    in-flight map and counters are touched only from the loop thread.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        store_mb: float = 32.0,
        batch_window_ms: float = 5.0,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        if store_mb <= 0:
            raise ServeError(f"store_mb must be > 0, got {store_mb}")
        if batch_window_ms < 0:
            raise ServeError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        self.store = TieredStore(
            memory=MemoryLRU(
                _STORE_MAX_ENTRIES,
                max_bytes=int(store_mb * 1_000_000),
                nbytes=_payload_nbytes,
            ),
            encode=_encode_payload,
            decode=_decode_payload,
            disk_dir=cache_dir,
            counter_prefix="serve.store",
            file_prefix="policy-",
            file_suffix=".json",
        )
        self.batch_window_ms = float(batch_window_ms)
        self.telemetry_dir = telemetry_dir
        self.stats: Dict[str, int] = {}
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._pending: List[
            Tuple[RunSpec, "asyncio.Future[SimulationResult]"]
        ] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._batch_sizes: List[int] = []
        self._solve_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-solve"
        )
        self._sim_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-sim"
        )
        self._started = time.monotonic()
        self._manifest_seq = 0

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release worker threads and cancel any pending batch flush."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._solve_pool.shutdown(wait=False)
        self._sim_pool.shutdown(wait=False)

    def _count(self, name: str, n: int = 1) -> None:
        self.stats[name] = self.stats.get(name, 0) + n

    # -- cache-first solve with coalescing -----------------------------
    async def _solve_payload(
        self,
        distribution: InterArrivalDistribution,
        family: str,
        rate: Optional[float],
        delta1: float,
        delta2: float,
        params: Dict[str, Any],
    ) -> Tuple[Dict[str, Any], str, str]:
        """Resolve one policy payload: store → in-flight → compute.

        Returns ``(payload, tier, address)`` where ``tier`` is the
        store tier that served the hit, ``"coalesced"`` when the
        request piggybacked on a concurrent identical solve, or
        ``"computed"`` when this request ran the solver.
        """
        key = canonical_solve_key(
            distribution, family, rate, delta1, delta2, params
        )
        address = TieredStore.address(key)
        payload, tier = self.store.lookup(key)
        if payload is not None:
            self._count(f"store.{tier}.hit")
            return payload, tier, address
        self._count("store.miss")

        loop = asyncio.get_running_loop()
        inflight = self._inflight.get(address)
        if inflight is not None:
            self._count("solve.coalesced")
            payload = await asyncio.shield(inflight)
            return payload, "coalesced", address

        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        self._inflight[address] = future
        self._count("solve.computed")
        try:
            payload = await loop.run_in_executor(
                self._solve_pool,
                functools.partial(
                    solve_policy,
                    distribution, family, rate, delta1, delta2, params,
                ),
            )
        except BaseException as exc:
            # Fan the failure out to every coalesced waiter before
            # re-raising on the computing request's own path.
            self._inflight.pop(address, None)
            if not future.cancelled():
                future.set_exception(exc)
                future.exception()  # mark retrieved for the no-waiter case
            raise
        self._inflight.pop(address, None)
        if not future.cancelled():
            future.set_result(payload)
        self.store.put(key, payload)
        return payload, "computed", address

    @staticmethod
    def _cache_descriptor(tier: str) -> Dict[str, Any]:
        return {"tier": tier, "hit": tier in ("memory", "disk")}

    def _request_fields(
        self, request: Dict[str, Any]
    ) -> Tuple[InterArrivalDistribution, str, Optional[float], float, float,
               Dict[str, Any]]:
        distribution = parse_distribution(request["events"])
        rate = request.get("rate")
        return (
            distribution,
            request["family"],
            None if rate is None else float(rate),
            float(request["delta1"]),
            float(request["delta2"]),
            dict(request.get("params", {})),
        )

    # -- endpoints -----------------------------------------------------
    async def solve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Handle ``POST /solve``: return the policy payload for a family."""
        serve_schema.validate(
            request, serve_schema.SOLVE_REQUEST_SCHEMA, "solve"
        )
        started = time.perf_counter()
        self._count("requests.solve")
        distribution, family, rate, delta1, delta2, params = (
            self._request_fields(request)
        )
        payload, tier, address = await self._solve_payload(
            distribution, family, rate, delta1, delta2, params
        )
        response = {
            "address": address,
            "events": {
                "spec": request["events"],
                "family": type(distribution).__name__,
                "fingerprint": distribution.fingerprint,
            },
            "family": family,
            "rate": rate,
            "delta1": delta1,
            "delta2": delta2,
            "policy": payload,
            "qom": payload.get("qom"),
            "energy_rate": payload.get("energy_rate"),
            "cache": self._cache_descriptor(tier),
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }
        self._write_manifest("solve", request, runs=[])
        return response

    def _build_recharge(
        self, request: Dict[str, Any], rate: Optional[float]
    ) -> RechargeProcess:
        spec = request.get("recharge")
        if spec is None:
            if rate is None or rate <= 0:
                raise ServeError(
                    "request needs either a 'recharge' spec or a "
                    "positive 'rate' (used as a constant recharge)"
                )
            return ConstantRecharge(rate)
        if spec["kind"] == "bernoulli":
            if "q" not in spec or "c" not in spec:
                raise ServeError("bernoulli recharge needs 'q' and 'c'")
            return BernoulliRecharge(spec["q"], spec["c"])
        if "rate" not in spec:
            raise ServeError("constant recharge needs 'rate'")
        return ConstantRecharge(spec["rate"])

    def _run_spec(
        self,
        request: Dict[str, Any],
        distribution: InterArrivalDistribution,
        policy: Any,
        rate: Optional[float],
        seed: Any,
    ) -> RunSpec:
        initial = request.get("initial_energy")
        return RunSpec(
            distribution=distribution,
            policy=policy,
            recharge=self._build_recharge(request, rate),
            capacity=float(request["capacity"]),
            delta1=float(request["delta1"]),
            delta2=float(request["delta2"]),
            horizon=int(request["horizon"]),
            seed=seed,
            initial_energy=None if initial is None else float(initial),
            collect_aoi=True,
        )

    async def simulate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Handle ``POST /simulate``: one micro-batched simulation run."""
        serve_schema.validate(
            request, serve_schema.SIMULATE_REQUEST_SCHEMA, "simulate"
        )
        started = time.perf_counter()
        self._count("requests.simulate")
        distribution, family, rate, delta1, delta2, params = (
            self._request_fields(request)
        )
        payload, tier, _ = await self._solve_payload(
            distribution, family, rate, delta1, delta2, params
        )
        policy = policy_from_payload(payload)
        seed = request.get("seed")
        spec = self._run_spec(request, distribution, policy, rate, seed)
        result, batch_size = await self._submit_run(spec)
        sensor = result.sensors[0]
        response = {
            "qom": result.qom,
            "n_events": int(result.n_events),
            "n_captures": int(result.n_captures),
            "horizon": int(result.horizon),
            "activations": int(sensor.activations),
            "final_battery": float(sensor.final_battery),
            "aoi": _aoi_dict(result),
            "policy": payload,
            "cache": self._cache_descriptor(tier),
            "batch_size": batch_size,
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }
        self._write_manifest(
            "simulate", request,
            runs=[self._run_record("serve.simulate", request, seed)],
        )
        return response

    async def sweep(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Handle ``POST /sweep``: replicated runs with CI aggregation."""
        serve_schema.validate(
            request, serve_schema.SWEEP_REQUEST_SCHEMA, "sweep"
        )
        started = time.perf_counter()
        self._count("requests.sweep")
        distribution, family, rate, delta1, delta2, params = (
            self._request_fields(request)
        )
        payload, tier, _ = await self._solve_payload(
            distribution, family, rate, delta1, delta2, params
        )
        policy = policy_from_payload(payload)
        n_runs = int(request["n_runs"])
        base_seed = request.get("base_seed")
        seeds = spawn_seeds(base_seed, n_runs)
        specs = [
            self._run_spec(request, distribution, policy, rate, seed)
            for seed in seeds
        ]
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            self._sim_pool, functools.partial(simulate_batch, specs)
        )
        self._count("sweep.runs", n_runs)
        qom_values = [r.qom for r in results]
        aoi_values = [_aoi_dict(r)["time_average"] for r in results]
        response = {
            "n_runs": n_runs,
            "qom": _summary_dict(qom_values),
            "aoi_time_average": _summary_dict(aoi_values),
            "qom_values": qom_values,
            "policy": payload,
            "cache": self._cache_descriptor(tier),
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
        }
        self._write_manifest(
            "sweep", request,
            runs=[self._run_record("serve.sweep", request, base_seed)],
        )
        return response

    def healthz(self) -> Dict[str, Any]:
        """Handle ``GET /healthz``: liveness plus lifetime service stats."""
        self._count("requests.healthz")
        stats: Dict[str, Any] = dict(self.stats)
        stats["store.memory.entries"] = self.store.memory_len()
        stats["store.memory.bytes"] = self.store.memory.current_bytes
        if self._batch_sizes:
            stats["simulate.max_batch_size"] = max(self._batch_sizes)
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started,
            "stats": stats,
        }

    # -- simulate micro-batching ---------------------------------------
    async def _submit_run(
        self, spec: RunSpec
    ) -> Tuple[SimulationResult, int]:
        """Queue one run; resolves once its micro-batch executes."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SimulationResult]" = loop.create_future()
        self._pending.append((spec, future))
        batch_id = len(self._batch_sizes)
        if len(self._pending) >= _MAX_BATCH:
            self._flush_pending()
        elif self.batch_window_ms <= 0:
            self._flush_pending()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(
                self.batch_window_ms / 1000.0, self._flush_pending
            )
        result = await future
        # The batch this run rode in is the first one flushed at or
        # after its submission index.
        batch_size = (
            self._batch_sizes[batch_id]
            if batch_id < len(self._batch_sizes)
            else 1
        )
        return result, batch_size

    def _flush_pending(self) -> None:
        """Pack every queued run into one ``simulate_batch`` dispatch."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        self._batch_sizes.append(len(batch))
        self._count("simulate.batches")
        self._count("simulate.runs", len(batch))
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._run_batch(batch))
        # Keep a reference so the task is not garbage-collected mid-run.
        task.add_done_callback(lambda _t: None)

    async def _run_batch(
        self,
        batch: List[Tuple[RunSpec, "asyncio.Future[SimulationResult]"]],
    ) -> None:
        loop = asyncio.get_running_loop()
        specs = [spec for spec, _ in batch]
        try:
            results = await loop.run_in_executor(
                self._sim_pool, functools.partial(simulate_batch, specs)
            )
        except BaseException as exc:  # repro-lint: disable=RL005
            # A batch failure must reach every queued request, not the
            # event loop's exception handler; each waiter re-raises it
            # when it awaits its future, so nothing is swallowed.
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
                    future.exception()
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)

    # -- telemetry manifests -------------------------------------------
    def _run_record(
        self, entry: str, request: Dict[str, Any], seed: Any
    ) -> Dict[str, Any]:
        return {
            "kind": "simulation_run",
            "entry": entry,
            "events": request["events"],
            "family": request["family"],
            "horizon": int(request["horizon"]),
            "capacity": float(request["capacity"]),
            "seed": telemetry.describe_seed(seed),
        }

    def _write_manifest(
        self,
        endpoint: str,
        request: Dict[str, Any],
        runs: List[Dict[str, Any]],
    ) -> None:
        """Write one per-request PR-5 telemetry manifest, if configured."""
        if not self.telemetry_dir:
            return
        frame = telemetry.TelemetryCollection()
        for name, value in sorted(self.stats.items()):
            frame.add_count(f"serve.{name}", value)
        for record in runs:
            frame.add_event(record)
        self._manifest_seq += 1
        os.makedirs(self.telemetry_dir, exist_ok=True)
        path = os.path.join(
            self.telemetry_dir,
            f"serve-{self._manifest_seq:06d}-{endpoint}.json",
        )
        telemetry.write_manifest(
            path,
            frame.snapshot(),
            command=f"serve:{endpoint}",
            arguments=request,
        )
        self._count("manifests.written")
