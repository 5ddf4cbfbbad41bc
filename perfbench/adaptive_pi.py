"""adaptive_pi: the online partial-information controller, re-solves included.

An ``AdaptiveController`` with partial information drives a
``ChunkedSimulator`` (K=200, e=0.5, 2000-slot chunks) under the
changepoint truth schedule: W(20,3) for the first ``SWITCH_CHUNK``
chunks, W(9,2) afterwards.  One operation is one chunk: simulate, fit,
deconvolve and (almost always, under partial information) re-solve the
clustering policy.  This loads ``analysis`` through a stream of
re-solves on nearby quantized fits, where the memo and DP-prefix reuse
are meant to pay off; ``serve``/``store`` are idle.

The simulator is seeded with the experiments' ``DEFAULT_SEED`` whatever
``--seed`` is; ``--seed`` seeds the regret evaluation.  A seeded
trajectory made the benchmark unsteady: the partial-information fit
keeps the longest captured gap it has seen, so the fitted support (and
with it every re-solve's cost) differed twofold between trajectory
seeds, and the chunk rate spread 30-40% across runs.

The controller runs with ``drift_threshold=0``, so every chunk re-solves
once the window holds enough gaps.  With the default threshold some
trajectories stop re-solving after a few chunks and others never do,
which made the chunk rate swing tenfold.

Every pass over the trajectory does the same work, so a run makes
``PASSES`` passes, each from a fresh controller and a cleared memo, and
times each chunk by its fastest pass, the one least slowed by other
tenants' load on the host.  One pass timed once spread 0.13-0.27
(IQR/median) across runs of the same code.

Correctness: every pass must learn exactly the policies of the first,
and the last re-solve, which ran warm (memo and DP-prefix reuse inside
the controller), must equal a cold ``optimize_clustering`` of the same
fitted distribution exactly.  The final-window regret of the
learned policies against the oracle is measured and reported
(``pi_final_regret_pct``) but not gated: under partial information it
exceeds the 5% gate on some trajectories.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import Outcome, median
from tracing import Tracer, untraced_then_traced

DELTA1, DELTA2 = 1.0, 6.0
E = 0.5
CAPACITY = 200.0
CHUNK = 2000
TRUTH_A = (20.0, 3.0)
TRUTH_B = (9.0, 2.0)
#: The first chunk that runs under ``TRUTH_B``.
SWITCH_CHUNK = 2
#: Passes over the trajectory in a timed run; each chunk is timed by its
#: fastest pass.
PASSES = 4


class AdaptivePI:
    name = "adaptive_pi"

    def __init__(self, seed: int, cfg: Dict[str, Any]) -> None:
        self.seed = seed
        self.cfg = cfg

    def truth(self, chunk: int) -> Any:
        from repro.events import WeibullInterArrival

        scale, shape = TRUTH_A if chunk < SWITCH_CHUNK else TRUTH_B
        return WeibullInterArrival(scale, shape)

    def setup(self) -> Dict[str, Any]:
        from repro.analysis.partial_info import clear_analysis_cache
        from repro.core import AggressivePolicy, optimize_clustering
        from repro.energy.recharge import ConstantRecharge
        from repro.sim import simulate_single

        # Warm-up: one cheap solve per truth model plus a native scan.
        for chunk in (0, SWITCH_CHUNK):
            dist = self.truth(chunk)
            optimize_clustering(dist, E, DELTA1, DELTA2, max_candidates=2,
                                refine=False, top_k=1, n_jobs=1)
            simulate_single(dist, AggressivePolicy(), ConstantRecharge(E),
                            capacity=CAPACITY, delta1=DELTA1, delta2=DELTA2,
                            horizon=512, seed=0)
        clear_analysis_cache()
        return {}

    def _controller(self, n_chunks: int) -> Any:
        from repro.adaptive import AdaptiveController
        from repro.experiments.config import DEFAULT_SEED
        from repro.energy.recharge import ConstantRecharge
        from repro.sim.chunked import ChunkedSimulator

        sim = ChunkedSimulator(
            self.truth(0), ConstantRecharge(E), capacity=CAPACITY,
            delta1=DELTA1, delta2=DELTA2,
            total_horizon=n_chunks * CHUNK,
            seed=DEFAULT_SEED, full_info=False,
        )
        return AdaptiveController(sim, e=E, chunk_slots=CHUNK, drift_threshold=0.0,
                                  n_jobs=1)

    def loop(self, tracer: Tracer, n_chunks: int) -> List[Dict[str, Any]]:
        """Run chunks from a fresh controller and a cleared memo."""
        from repro.analysis.partial_info import clear_analysis_cache

        clear_analysis_cache()
        controller = self._controller(n_chunks)
        sim = controller.simulator
        records: List[Dict[str, Any]] = []
        for i in range(n_chunks):
            truth = self.truth(i)
            if truth.fingerprint != sim.distribution.fingerprint:
                sim.set_distribution(truth)
            t0 = time.perf_counter()
            with tracer.span("adaptive.step", request=True):
                record = controller.step()
            records.append({
                "elapsed": time.perf_counter() - t0,
                "slots": record.n_slots,
                "policy": controller.policy,
                "fitted": controller.current_distribution,
                "chunk": i,
                "resolved": record.resolved,
                "qom": record.predicted_qom,
            })
        return records

    def check(self, records: List[Dict[str, Any]], outcome: Outcome) -> None:
        from repro.analysis.partial_info import clear_analysis_cache
        from repro.core import optimize_clustering

        # One cold re-solve takes as long as a chunk: check the last one.
        for rec in [r for r in records if r["resolved"]][-1:]:
            clear_analysis_cache()
            cold = optimize_clustering(rec["fitted"], E, DELTA1, DELTA2, n_jobs=1)
            outcome.checks.expect(
                _policy_key(cold.policy, cold.qom) == _policy_key(rec["policy"], rec["qom"]),
                f"chunk {rec['chunk']}: warm re-solve differs from a cold solve",
            )
        outcome.report["pi_final_regret_pct"] = self.final_regret_pct(records)

    def final_regret_pct(self, records: List[Dict[str, Any]]) -> float:
        """Mean regret of the final-window policies against the oracle, in %.

        Each policy the controller learned in the last quarter of the
        chunks is simulated for a long horizon under the truth in force,
        beside the oracle policy solved on that truth, on the same seed.
        """
        from repro.core import optimize_clustering
        from repro.energy.recharge import ConstantRecharge
        from repro.sim import simulate_single

        window = records[-max(len(records) // 4, 1):]
        oracles: Dict[str, Any] = {}
        regrets = []
        for rec in window:
            truth = self.truth(rec["chunk"])
            key = truth.fingerprint
            if key not in oracles:
                oracles[key] = optimize_clustering(truth, E, DELTA1, DELTA2, n_jobs=1)
            kwargs = dict(capacity=CAPACITY, delta1=DELTA1, delta2=DELTA2,
                          horizon=int(self.cfg["regret_horizon"]), seed=[self.seed, 7])
            adaptive = simulate_single(truth, rec["policy"], ConstantRecharge(E), **kwargs).qom
            oracle = simulate_single(truth, oracles[key].policy, ConstantRecharge(E), **kwargs).qom
            regrets.append(100.0 * (oracle - adaptive) / oracle)
        return sum(regrets) / len(regrets)

    def run(self, state: Dict[str, Any], seconds: float, outcome: Outcome) -> None:
        n = max(1, round(seconds / (PASSES * float(self.cfg["nominal_chunk_s"]))))
        passes = [self.loop(Tracer(), n) for _ in range(PASSES)]
        records = passes[0]
        for i, other in enumerate(passes[1:], start=1):
            outcome.checks.expect(
                [_record_key(r) for r in other] == [_record_key(r) for r in records],
                f"pass {i} learned other policies than pass 0",
            )
        elapsed = [min(p[c]["elapsed"] for p in passes) for c in range(n)]
        slots = sum(r["slots"] for r in records)
        outcome.ops = PASSES * n
        outcome.metrics["throughput"] = slots / sum(elapsed)
        outcome.metrics["latency_ms"] = median(elapsed) * 1000.0
        outcome.report["adaptive_slots_per_s"] = slots / sum(elapsed)
        outcome.report["chunks"] = n
        outcome.report["chunk_seconds"] = [[round(r["elapsed"], 3) for r in p] for p in passes]
        self.check(records, outcome)

    def trace(self, state: Dict[str, Any], tracer: Tracer,
              outcome: Outcome) -> Tuple[float, float, Dict[str, int], Any]:
        n = int(self.cfg["trace_chunks"])
        untraced, traced, counters, records = untraced_then_traced(
            lambda t: self.loop(t, n), tracer)
        outcome.ops = 2 * len(records)
        self.check(records, outcome)
        return untraced, traced, counters, records

    def layer_metrics(self, records: List[Dict[str, Any]], tracer: Tracer) -> Dict[str, float]:
        return {"trace.coverage": tracer.coverage(*tracer.extent())}


def _policy_key(policy: Any, qom: float) -> Tuple[Any, ...]:
    return (policy.n1, policy.n2, policy.n3, policy.c_n1, policy.c_n2,
            policy.c_n3, float(qom))


def _record_key(rec: Dict[str, Any]) -> Tuple[Any, ...]:
    """What two passes must agree on for one chunk."""
    if not rec["resolved"]:
        return (False, rec["slots"])
    return (True, rec["slots"]) + _policy_key(rec["policy"], rec["qom"])
