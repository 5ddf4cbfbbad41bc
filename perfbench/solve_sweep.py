"""solve_sweep: cold clustering-policy syntheses over a paper-style sweep.

One operation is one sweep point: a recharge rate ``e`` at which the
clustering, energy-balanced periodic and Theorem-1 greedy policies are
synthesised for W(40,3) and for P(2,10), with the paper's delta1=1,
delta2=6.  Each synthesis starts from an empty analysis memo.  The run
walks the rates of ``grid`` in order and starts again from the first
until its points are done, each rate moved by a small seed-drawn
jitter: the solve cost jumps with ``e``, so every run must cover the
same part of the cost curve whatever its seed.  A solve takes seconds,
so a run repeats each synthesis a few times and times it by its fastest
repetition, the one least slowed by other tenants' load on the host.
Nearly all the time goes to ``analysis`` (``PartialInfoSolver.analyse``)
and the ``core.clustering`` search; ``serve``/``store`` are idle.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from common import Outcome
from tracing import Tracer, untraced_then_traced

DELTA1, DELTA2 = 1.0, 6.0
MODELS = ("weibull", "pareto")
#: Each grid rate moves by up to this much, drawn from the seed.
JITTER = 0.0025
#: Width of the simulated-vs-analysed QoM check, in binomial std errors.
CLT_SIGMAS = 5.0


def _build(model: str) -> Any:
    from repro.events import ParetoInterArrival, WeibullInterArrival

    if model == "weibull":
        return WeibullInterArrival(40, 3)
    return ParetoInterArrival(2, 10)


class SolveSweep:
    name = "solve_sweep"

    def __init__(self, seed: int, cfg: Dict[str, Any]) -> None:
        self.seed = seed
        self.cfg = cfg

    # -- set-up --------------------------------------------------------
    def setup(self) -> Dict[str, Any]:
        from repro.analysis.partial_info import clear_analysis_cache
        from repro.core import AggressivePolicy, optimize_clustering
        from repro.energy.recharge import ConstantRecharge
        from repro.sim import simulate_single

        models = {m: _build(m) for m in MODELS}
        # Warm-up: one untimed (cheap) solve per event model and one
        # native-scan call, so the first timed point is not the slowest.
        for dist in models.values():
            optimize_clustering(dist, 0.5, DELTA1, DELTA2, max_candidates=2,
                                refine=False, top_k=1, n_jobs=1)
            simulate_single(dist, AggressivePolicy(), ConstantRecharge(0.5),
                            capacity=100, delta1=DELTA1, delta2=DELTA2,
                            horizon=512, seed=0)
        clear_analysis_cache()
        rng = np.random.default_rng([self.seed, 101])
        return {"rates": [float(e + rng.uniform(-JITTER, JITTER)) for e in self.cfg["grid"]]}

    # -- one operation -------------------------------------------------
    def solve_point(self, e: float, tracer: Tracer) -> Dict[str, Any]:
        from repro.analysis.partial_info import clear_analysis_cache
        from repro.core import energy_balanced_period, optimize_clustering, solve_greedy

        out: Dict[str, Any] = {"e": e, "solutions": {}, "seconds": {}}
        for model in MODELS:
            clear_analysis_cache()  # every synthesis is cold
            t0 = time.perf_counter()
            with tracer.span("events.build"):
                dist = _build(model)
            with tracer.span(f"core.solve.{model}", request=True):
                clustering = optimize_clustering(dist, e, DELTA1, DELTA2, n_jobs=1)
            with tracer.span("core.baselines"):
                periodic = energy_balanced_period(dist, e, DELTA1, DELTA2)
                greedy = solve_greedy(dist, e, DELTA1, DELTA2)
            out["seconds"][model] = time.perf_counter() - t0
            out["solutions"][model] = (dist, clustering, periodic, greedy)
        out["elapsed"] = sum(out["seconds"].values())
        return out

    def sweep(self, state: Dict[str, Any], tracer: Tracer,
              n_points: int) -> List[Dict[str, Any]]:
        rates = state["rates"]
        return [self.solve_point(rates[i % len(rates)], tracer) for i in range(n_points)]

    # -- checks --------------------------------------------------------
    def check(self, records: List[Dict[str, Any]], outcome: Outcome) -> None:
        from repro.core import solve_greedy, solve_linear_program
        from repro.energy.recharge import ConstantRecharge
        from repro.sim import simulate_single

        horizon = int(self.cfg["clt_horizon"])
        first: Dict[float, Dict[str, Any]] = {}
        for i, rec in enumerate(records):
            if rec["e"] in first:
                # A repetition: a cold synthesis must give the same policies.
                for model, solution in rec["solutions"].items():
                    outcome.checks.expect(
                        _solution_key(solution)
                        == _solution_key(first[rec["e"]]["solutions"][model]),
                        f"{model} e={rec['e']:.4f}: repeated synthesis differs",
                    )
                continue
            first[rec["e"]] = rec
            for model, (dist, clustering, _p, _g) in rec["solutions"].items():
                q = float(clustering.qom)
                # A battery that can never run dry: the analysis assumes
                # the energy budget, not a finite capacity.
                capacity = 4.0 * horizon * (DELTA1 + DELTA2)
                sim = simulate_single(
                    dist, clustering.policy, ConstantRecharge(rec["e"]),
                    capacity=capacity, delta1=DELTA1, delta2=DELTA2,
                    horizon=horizon, seed=[self.seed, i, len(model)],
                )
                n = max(int(sim.n_events), 1)
                bound = CLT_SIGMAS * math.sqrt(q * (1.0 - q) / n) + 2e-3
                outcome.checks.expect(
                    abs(sim.qom - q) <= bound,
                    f"{model} e={rec['e']:.4f}: simulated QoM {sim.qom:.5f} vs "
                    f"analysis {q:.5f} (bound {bound:.5f})",
                )
        # Theorem 1: the greedy optimum equals the LP optimum.
        e = float(records[0]["e"]) if records else 0.5
        dist = _build("weibull")
        greedy = solve_greedy(dist, e, DELTA1, DELTA2)
        lp = solve_linear_program(dist, e, DELTA1, DELTA2)
        outcome.checks.expect(
            abs(greedy.qom - lp.qom) <= 1e-7,
            f"greedy QoM {greedy.qom!r} != LP QoM {lp.qom!r} at e={e}",
        )

    # -- the two kinds of run ------------------------------------------
    def run(self, state: Dict[str, Any], seconds: float, outcome: Outcome) -> None:
        n = max(1, round(seconds / float(self.cfg["nominal_point_s"])))
        records = self.sweep(state, Tracer(), n)
        outcome.ops = len(records)
        # One pass over the distinct points, each synthesis timed by its
        # fastest repetition.
        point_s = sum(
            min(r["seconds"][m] for r in records if r["e"] == e)
            for e in {r["e"] for r in records} for m in MODELS)
        points = len({r["e"] for r in records})
        outcome.metrics["throughput"] = points / point_s
        outcome.metrics["latency_ms"] = 1000.0 * point_s / points
        outcome.report["solves_per_min"] = 60.0 * len(MODELS) * points / point_s
        outcome.report["point_seconds"] = [
            [round(r["e"], 4)] + [round(r["seconds"][m], 3) for m in MODELS] for r in records]
        self.check(records, outcome)

    def trace(self, state: Dict[str, Any], tracer: Tracer,
              outcome: Outcome) -> Tuple[float, float, Dict[str, int], Any]:
        n = int(self.cfg["trace_points"])
        untraced, traced, counters, records = untraced_then_traced(
            lambda t: self.sweep(state, t, n), tracer)
        outcome.ops = 2 * len(records)
        self.check(records, outcome)
        return untraced, traced, counters, records

    def layer_metrics(self, records: List[Dict[str, Any]], tracer: Tracer) -> Dict[str, float]:
        summary = tracer.summary()
        out: Dict[str, float] = {"trace.coverage": tracer.coverage(*tracer.extent())}
        self_total = 0.0
        n_solves = 0
        for model in MODELS:
            slot = summary.get(f"core.solve.{model}", {})
            count = slot.get("count", 0)
            out[f"core.solve_s.{model}"] = slot.get("total_s", 0.0) / max(count, 1)
            # Self time of a solve span: the solve minus its analyses.
            self_total += slot.get("self_s", 0.0)
            n_solves += count
        out["core.search_self_s"] = self_total / max(n_solves, 1)
        build = summary.get("events.build", {})
        out["events.build_s"] = build.get("total_s", 0.0) / max(build.get("count", 0), 1)
        return out


def _solution_key(solution: Tuple[Any, Any, Any, Any]) -> Tuple[Any, ...]:
    """What two syntheses of one point must agree on exactly."""
    _dist, clustering, periodic, greedy = solution
    p = clustering.policy
    return (p.n1, p.n2, p.n3, p.c_n1, p.c_n2, p.c_n3, float(clustering.qom),
            periodic.theta1, periodic.theta2, greedy.activation.tobytes(), float(greedy.qom))
