"""perfbench: end-to-end and per-layer benchmark of the repro package.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload solve_sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before
it are a readable report.  ``--all`` runs every workload both ways in
child processes and prints every metric, including the per-workload
names (``solves_per_min``, ``serve_p50_ms``, ...), in one table.

See ``perfbench/README.md`` for what each workload loads and why.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
from common import BenchError, Outcome  # noqa: E402

WORKLOADS = ("solve_sweep", "adaptive_pi", "sim_fleet", "serve_mix")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "ops/s",
    "latency_ms": "ms",
}

#: The per-workload figures of the readable report, with their units.
NAMED = {
    "solves_per_min": "solves/min",
    "adaptive_slots_per_s": "slots/s",
    "sim_slots_per_s": "sensor-slots/s",
    "sim_runs_per_s": "runs/s",
    "serve_p50_ms": "ms",
    "serve_rps": "req/s",
}

PER_LAYER = {
    "core.solve_s.weibull": "s",
    "core.solve_s.pareto": "s",
    "core.search_self_s": "s",
    "events.build_s": "s",
    "analysis.analyse_s": "s",
    "analysis.analyses": "count",
    "analysis.memo_hit_ratio": "ratio",
    "analysis.memo_evictions": "count",
    "analysis.prefix_hit_ratio": "ratio",
    "analysis.prefix_slots_reused": "count",
    "adaptive.resolves": "count",
    "adaptive.resolve_s": "s",
    "adaptive.estimate_s": "s",
    "sim.chunked_s": "s",
    "sim.single_slots_per_s": "slots/s",
    "sim.network_slots_per_s": "slots/s",
    "sim.batch_slots_per_s": "slots/s",
    "sim.chunked_slots_per_s": "slots/s",
    "sim.scan_s": "s",
    "events.draw_s": "s",
    "energy.draw_s": "s",
    "adaptive.fit_s": "s",
    "sim.short_call_us": "us",
    "sim.dispatch_self_s": "s",
    "sim.native_share": "ratio",
    "sim.reference_fallbacks": "count",
    "serve.validate_ms": "ms",
    "events.parse_ms": "ms",
    "serve.key_ms": "ms",
    "serve.http_self_ms": "ms",
    "store.lookup_ms": "ms",
    "store.put_ms": "ms",
    "store.memory_hit_ratio": "ratio",
    "store.disk_hit_ratio": "ratio",
    "store.miss_ratio": "ratio",
    "serve.coalesced_ratio": "ratio",
    "serve.batch_fill": "runs/batch",
    "serve.batch_wait_ms": "ms",
    "sim.batch_call_ms": "ms",
    "core.cold_solve_ms": "ms",
    "serve.p99_ms": "ms",
    "serve.p99_samples": "count",
    "serve.gen_late_ms": "ms",
    "serve.max_ok_rps": "req/s",
    "parallel.forked": "count",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
}


def layer_table(tracer: Any, counters: Dict[str, int],
                extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never reached reads 0."""
    summary = tracer.summary()

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    hits = counters.get("analysis.memo.hit", 0)
    misses = counters.get("analysis.memo.miss", 0)
    short_ids = {s[0] for s in tracer.spans if s[2] == "sim.short"}
    short_scan = sum(s[4] - s[3] for s in tracer.spans
                     if s[2] == "sim.scan" and s[1] in short_ids)
    short = summary.get("sim.short", {})
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "analysis.analyse_s": total("analysis.analyse"),
        "analysis.analyses": float(summary.get("analysis.analyse", {}).get("count", 0)),
        "analysis.memo_hit_ratio": common.ratio(hits, hits + misses),
        "analysis.memo_evictions": float(counters.get("analysis.memo.evict", 0)),
        "analysis.prefix_hit_ratio": common.ratio(counters.get("analysis.prefix.hit", 0), misses),
        "analysis.prefix_slots_reused": float(counters.get("analysis.prefix.slots_reused", 0)),
        "adaptive.resolves": float(counters.get("adaptive.resolve", 0)),
        "adaptive.resolve_s": total("adaptive.resolve"),
        "adaptive.estimate_s": total("adaptive.estimate"),
        "adaptive.fit_s": total("adaptive.fit"),
        "sim.chunked_s": total("sim.chunked"),
        "sim.scan_s": total("sim.scan"),
        "events.draw_s": total("events.draw"),
        "energy.draw_s": total("energy.draw"),
        "sim.short_call_us": 1e6 * common.ratio(short.get("total_s", 0.0), short.get("count", 0)),
        "sim.dispatch_self_s": short.get("self_s", 0.0),
        "sim.native_share": common.ratio(short_scan, short.get("total_s", 0.0)),
        "sim.reference_fallbacks": float(
            counters.get("sim.fallback.reference", 0)
            + counters.get("network.fallback.reference", 0)
            + counters.get("batch.dispatch.reference", 0)),
    })
    out.update(extra)
    return out


def make_workload(name: str, seed: int, cfg: Dict[str, Any], run_dir: str,
                  nproc: int) -> Any:
    if name == "solve_sweep":
        from solve_sweep import SolveSweep
        return SolveSweep(seed, cfg[name])
    if name == "adaptive_pi":
        from adaptive_pi import AdaptivePI
        return AdaptivePI(seed, cfg[name])
    if name == "sim_fleet":
        from sim_fleet import SimFleet
        return SimFleet(seed, cfg[name])
    from serve_mix import ServeMix
    return ServeMix(seed, cfg[name], run_dir, nproc)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 cfg: Dict[str, Any]) -> Dict[str, Any]:
    """One run; returns the result object (the last output line)."""
    record = common.prepare_environment()
    run_dir = common.fresh_run_dir(name, seed)
    import repro  # noqa: F401  (imports are part of set-up)
    from repro.devtools import telemetry
    from tracing import Tracer, install_layer_spans

    record.update(common.require_native())
    import_s = time.perf_counter() - _PROCESS_START
    workload = make_workload(name, seed, cfg, str(run_dir), record["nproc"])
    outcome = Outcome()
    state = None
    try:
        state, setups = common.timed_setup(workload.setup, int(cfg["setup_repeats"]))
        outcome.report["import_s"] = import_s
        outcome.report["setup_runs_s"] = setups
        if not trace:
            # No telemetry collector: the program runs as a user runs it.
            workload.run(state, seconds, outcome)
            mode = telemetry.last_dispatch_record()["mode"]
            common.forbid_forks(outcome, {f"parallel.dispatch.{mode}": 1})
            outcome.metrics["setup_s"] = import_s + common.median(setups)
            outcome.metrics.setdefault("peak_rss_mb", common.peak_rss_mb())
            metrics = {k: {"value": outcome.metrics[k], "unit": u} for k, u in END_TO_END.items()}
        else:
            tracer = Tracer()
            install_layer_spans(tracer)
            try:
                with telemetry.collect() as col:
                    untraced_s, traced_s, counters, records = workload.trace(
                        state, tracer, outcome)
            finally:
                tracer.restore()
            common.forbid_forks(outcome, col.counters)
            layers = layer_table(tracer, counters, workload.layer_metrics(records, tracer))
            layers["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
            layers["parallel.forked"] = float(col.counters.get("parallel.dispatch.parallel", 0))
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
            spans_path = common.WORK / "spans" / f"{name}-{seed}.json"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(str(spans_path), {"workload": name, "seed": seed})
            outcome.report["span_file"] = os.path.relpath(spans_path, common.ROOT)
    finally:
        if state is not None and hasattr(state, "close"):
            state.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    outcome.report.update(record)
    outcome.report["failures"] = outcome.report.get("failures", []) + outcome.checks.failures[:10]
    return {
        "report": outcome.report,
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }


def print_run(name: str, seed: int, trace: bool, out: Dict[str, Any]) -> None:
    report = out["report"]
    print(f"perfbench workload={name} seed={seed} trace={int(trace)}")
    print("environment: " + json.dumps({k: report.get(k) for k in
                                         ("nproc", "omp_num_threads", "env", "native", "openmp",
                                          "parallel_dispatch")}, sort_keys=True))
    for key, value in sorted(report.items()):
        if key in NAMED:
            print(f"named {key:26s} {value:>16.6g} {NAMED[key]}")
        elif key not in ("nproc", "omp_num_threads", "env", "native", "openmp",
                         "parallel_dispatch"):
            print(f"report {key}: {json.dumps(value)}")
    res = out["result"]
    print(f"operations attempted={res['attempted']} failed={res['failed']}")
    for key, metric in res["metrics"].items():
        print(f"  {key:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(res))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, in child processes; one table."""
    here = pathlib.Path(__file__).resolve()
    rows: List[str] = []
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(here), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=str(common.ROOT), capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                status = 1
                continue
            res = json.loads(lines[-1])
            named = [ln for ln in lines if ln.startswith("named ")]
            rows.append(f"== {name} trace={trace} attempted={res['attempted']} "
                        f"failed={res['failed']}")
            rows += ["  " + ln[len("named "):] for ln in named]
            rows += [f"  {k:32s} {m['value']:>16.6g} {m['unit']}"
                     for k, m in res["metrics"].items()]
            if res["failed"]:
                status = 1
    print("\n".join(rows))
    return status


def compile_outside_measurement() -> None:
    """Build the native scan before any measured process loads it.

    When the scan is not in the compile cache yet (the first run in a
    checkout, or the first after its C source changed), this process
    compiles it and then starts again as a fresh process, so
    ``setup_s`` only ever covers loading a cached shared object.
    """
    common.prepare_environment()
    before = common.native_objects()
    common.require_native()
    if common.native_objects() == before:
        return
    if os.environ.get("PERFBENCH_RESTARTED"):
        raise BenchError("the native scan was compiled again after a restart")
    os.environ["PERFBENCH_RESTARTED"] = "1"
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, str(pathlib.Path(__file__).resolve()),
                              *sys.argv[1:]])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    try:
        cfg = common.load_config()
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload is required without --all")
        compile_outside_measurement()
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), cfg)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_run(args.workload, args.seed, bool(args.trace), out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
