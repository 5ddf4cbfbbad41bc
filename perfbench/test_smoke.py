"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

It runs every workload untraced and traced, checks that every metric
named in ``BENCHMARK.json`` is reported with its unit, that no span's
self time exceeds its duration, and that a planted wrong expected
result is counted as a failed operation.
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402

common.prepare_environment()


def tiny_config() -> dict:
    cfg = copy.deepcopy(common.load_config())
    cfg["setup_repeats"] = 1
    cfg["solve_sweep"].update(grid=[0.72], nominal_point_s=0.25, clt_horizon=20000,
                              trace_points=1)
    cfg["adaptive_pi"].update(trace_chunks=2, regret_horizon=20000)
    cfg["sim_fleet"].update(single_horizon=4096, network_horizon=2048, batch_runs=16,
                            network_batch_runs=8, short_calls=10, chunked_chunks=40,
                            trace_cycles=1)
    cfg["serve_mix"].update(warm_keys=4, ladder_rps=[20], ladder_step_s=0.5,
                            trace_requests=20, trace_open_s=0.5, checks=2)
    return cfg


def _benchmark_json() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def results() -> dict:
    cfg = tiny_config()
    return {
        (name, trace): run.run_workload(name, 3, 0.5, trace, cfg)
        for name in run.WORKLOADS
        for trace in (False, True)
    }


def test_benchmark_json_matches_the_metric_tables() -> None:
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(results: dict, name: str, trace: bool) -> None:
    result = results[(name, trace)]["result"]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)
    assert result["failed"] == 0, results[(name, trace)]["report"]["failures"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_span_self_time_never_exceeds_duration(results: dict, name: str) -> None:
    from tracing import covered, load_spans

    path = common.ROOT / results[(name, True)]["report"]["span_file"]
    spans = load_spans(str(path)).spans
    assert spans
    children: dict = {}
    for _sid, parent, _name, start, end, _req in spans:
        children.setdefault(parent, []).append((start, end))
    for sid, _parent, _name, start, end, _req in spans:
        self_s = (end - start) - covered(children.get(sid, []), start, end)
        assert -1e-9 <= self_s <= end - start


def test_planted_mismatch_counts_as_failed_operation(monkeypatch: pytest.MonkeyPatch) -> None:
    import sim_fleet

    def wrong_reference(fn, args, kwargs):
        return None  # never equal to a SimulationResult

    monkeypatch.setattr(sim_fleet, "_reference", wrong_reference)
    out = run.run_workload("sim_fleet", 3, 0.5, False, tiny_config())
    assert out["result"]["failed"] >= 1
    assert out["result"]["correct"] is False
