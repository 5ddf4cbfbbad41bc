"""End-to-end contracts of the ``repro serve`` service and HTTP layer.

The load-bearing guarantees, asserted over a real socket where it
matters: served results are bit-identical to direct library calls for
every policy family; concurrent identical solves run the solver exactly
once; the tiered store serves warm requests from memory and survives a
process restart through the disk tier; and per-request telemetry
manifests validate against the PR-5 manifest schema.
"""

from __future__ import annotations

import asyncio
import glob
import http.client
import json

import numpy as np
import pytest

from repro.analysis.partial_info import clear_analysis_cache
from repro.core.baselines import (
    energy_balanced_period,
    solve_age_threshold,
    solve_ebcw,
)
from repro.core.clustering import optimize_clustering
from repro.core.greedy import solve_greedy
from repro.devtools import telemetry
from repro.energy.recharge import BernoulliRecharge, ConstantRecharge
from repro.events.spec import parse_distribution
from repro.serve import PolicyService, ServerThread
from repro.serve.policies import policy_from_payload
from repro.serve.schema import (
    ERROR_RESPONSE_SCHEMA,
    HEALTH_RESPONSE_SCHEMA,
    SIMULATE_RESPONSE_SCHEMA,
    SOLVE_RESPONSE_SCHEMA,
    SWEEP_RESPONSE_SCHEMA,
    validate,
)
from repro.sim.batch_kernel import RunSpec, simulate_batch
from repro.sim.engine import simulate_single
from repro.sim.rng import spawn_seeds

EVENTS = "geometric:0.1"
RATE = 0.2
DELTA1, DELTA2 = 1.0, 6.0
CAPACITY = 100.0
HORIZON = 4000


def _base_request(**overrides):
    request = {
        "events": EVENTS, "family": "greedy", "rate": RATE,
        "delta1": DELTA1, "delta2": DELTA2,
    }
    request.update(overrides)
    return request


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    service = PolicyService(
        cache_dir=str(root / "cache"),
        batch_window_ms=2.0,
        telemetry_dir=str(root / "telemetry"),
    )
    with ServerThread(service) as thread:
        yield thread


def _request(server, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if payload is None else {
            "Content-Type": "application/json"
        }
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()
    return response.status, data


class TestTransport:
    def test_healthz(self, server):
        status, body = _request(server, "GET", "/healthz")
        assert status == 200
        validate(body, HEALTH_RESPONSE_SCHEMA, "healthz")

    def test_unknown_path_is_404(self, server):
        status, body = _request(server, "GET", "/nope")
        assert status == 404
        validate(body, ERROR_RESPONSE_SCHEMA, "error")

    def test_wrong_method_is_405(self, server):
        status, body = _request(server, "GET", "/solve")
        assert status == 405
        status, body = _request(server, "POST", "/healthz", {})
        assert status == 405

    def test_invalid_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=60
        )
        try:
            conn.request("POST", "/solve", body="{not json")
            response = conn.getresponse()
            data = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert data["kind"] == "ServeError"

    def test_schema_violation_is_400(self, server):
        status, body = _request(server, "POST", "/solve", {"family": "x"})
        assert status == 400
        validate(body, ERROR_RESPONSE_SCHEMA, "error")
        assert body["kind"] == "ServeError"

    def test_solver_error_is_400(self, server):
        status, body = _request(
            server, "POST", "/solve", _base_request(events="nonsense:1")
        )
        assert status == 400
        assert body["kind"] == "DistributionError"


class TestSolve:
    def test_cold_then_warm_hits_memory(self, server):
        request = _base_request(delta2=7.0)  # key unique to this test
        status, cold = _request(server, "POST", "/solve", request)
        assert status == 200
        validate(cold, SOLVE_RESPONSE_SCHEMA, "solve")
        assert cold["cache"] == {"tier": "computed", "hit": False}

        computed = server.service.stats["solve.computed"]
        status, warm = _request(server, "POST", "/solve", request)
        assert status == 200
        assert warm["cache"] == {"tier": "memory", "hit": True}
        # The warm path never re-runs the solver.
        assert server.service.stats["solve.computed"] == computed
        assert warm["policy"] == cold["policy"]
        assert warm["address"] == cold["address"]

    def test_disk_tier_survives_restart(self, server):
        request = _base_request(delta2=8.0)
        _request(server, "POST", "/solve", request)
        # Same cache dir, fresh memory: a new service must hit disk.
        fresh = PolicyService(cache_dir=server.service.store._disk_dir)
        with ServerThread(fresh) as second:
            status, body = _request(second, "POST", "/solve", request)
        assert status == 200
        assert body["cache"] == {"tier": "disk", "hit": True}


#: Each family solved directly with the library entry point it wraps.
def _direct_policy(family, distribution):
    if family == "greedy":
        return solve_greedy(distribution, RATE, DELTA1, DELTA2).as_policy()
    if family == "clustering":
        return optimize_clustering(
            distribution, RATE, DELTA1, DELTA2
        ).policy
    if family == "ebcw":
        return solve_ebcw(distribution, RATE, DELTA1, DELTA2).policy
    if family == "age_threshold":
        return solve_age_threshold(
            distribution, RATE, DELTA1, DELTA2
        ).policy
    if family == "periodic":
        return energy_balanced_period(distribution, RATE, DELTA1, DELTA2)
    raise AssertionError(family)


class TestFamilies:
    @pytest.mark.parametrize(
        "family",
        ["greedy", "clustering", "ebcw", "age_threshold", "periodic",
         "aggressive"],
    )
    def test_served_simulation_bit_identical_to_direct(
        self, server, family
    ):
        """The acceptance gate: every family round-trips bit-for-bit."""
        request = _base_request(
            family=family, capacity=CAPACITY, horizon=HORIZON, seed=17
        )
        status, body = _request(server, "POST", "/simulate", request)
        assert status == 200
        validate(body, SIMULATE_RESPONSE_SCHEMA, "simulate")

        distribution = parse_distribution(EVENTS)
        if family == "aggressive":
            from repro.core.baselines import AggressivePolicy

            policy = AggressivePolicy()
        else:
            policy = _direct_policy(family, distribution)
        direct = simulate_single(
            distribution, policy, ConstantRecharge(RATE),
            capacity=CAPACITY, delta1=DELTA1, delta2=DELTA2,
            horizon=HORIZON, seed=17,
        )
        assert body["qom"] == direct.qom
        assert body["n_events"] == direct.n_events
        assert body["n_captures"] == direct.n_captures
        assert body["activations"] == direct.sensors[0].activations
        assert body["final_battery"] == direct.sensors[0].final_battery
        assert direct.aoi is not None
        assert body["aoi"]["time_average"] == direct.aoi.time_average
        assert body["aoi"]["max_age"] == direct.aoi.max_age

        # The payload itself rebuilds the same policy object.
        rebuilt = policy_from_payload(body["policy"])
        table_direct = policy.recency_probabilities(64)
        table_rebuilt = rebuilt.recency_probabilities(64)
        if table_direct is None:
            assert table_rebuilt is None
            probe = np.array(
                [policy.activation_probability(s, 1) for s in range(1, 65)]
            )
            probe_rebuilt = np.array(
                [rebuilt.activation_probability(s, 1) for s in range(1, 65)]
            )
            np.testing.assert_array_equal(probe, probe_rebuilt)
        else:
            np.testing.assert_array_equal(
                table_direct[0], table_rebuilt[0]
            )
            assert table_direct[1] == table_rebuilt[1]

    def test_bernoulli_recharge_round_trips(self, server):
        request = _base_request(
            capacity=CAPACITY, horizon=HORIZON, seed=5,
            recharge={"kind": "bernoulli", "q": 0.2, "c": 1.0},
        )
        status, body = _request(server, "POST", "/simulate", request)
        assert status == 200
        distribution = parse_distribution(EVENTS)
        policy = _direct_policy("greedy", distribution)
        direct = simulate_single(
            distribution, policy, BernoulliRecharge(0.2, 1.0),
            capacity=CAPACITY, delta1=DELTA1, delta2=DELTA2,
            horizon=HORIZON, seed=5,
        )
        assert body["qom"] == direct.qom
        assert body["n_captures"] == direct.n_captures


class TestSweep:
    def test_sweep_matches_direct_batch(self, server):
        request = _base_request(
            capacity=CAPACITY, horizon=2000, n_runs=5, base_seed=9
        )
        status, body = _request(server, "POST", "/sweep", request)
        assert status == 200
        validate(body, SWEEP_RESPONSE_SCHEMA, "sweep")

        distribution = parse_distribution(EVENTS)
        policy = _direct_policy("greedy", distribution)
        specs = [
            RunSpec(
                distribution=distribution, policy=policy,
                recharge=ConstantRecharge(RATE), capacity=CAPACITY,
                delta1=DELTA1, delta2=DELTA2, horizon=2000, seed=seed,
            )
            for seed in spawn_seeds(9, 5)
        ]
        direct = simulate_batch(specs)
        assert body["qom_values"] == [r.qom for r in direct]

    def test_single_run_summary_is_json_safe(self, server):
        request = _base_request(
            capacity=CAPACITY, horizon=500, n_runs=1, base_seed=2
        )
        status, body = _request(server, "POST", "/sweep", request)
        assert status == 200  # NaN CI fields must not leak into JSON
        assert body["qom"]["std_error"] == 0.0
        assert body["qom"]["ci_low"] == body["qom"]["mean"]


class TestCoalescing:
    def test_concurrent_identical_solves_compute_once(self, tmp_path):
        """Coalesced results are bit-identical to an uncached solve."""
        service = PolicyService(batch_window_ms=1.0)
        request = _base_request(family="clustering")

        async def burst():
            return await asyncio.gather(
                *(service.solve(dict(request)) for _ in range(8))
            )

        responses = asyncio.run(burst())
        service.close()
        assert service.stats["solve.computed"] == 1
        assert service.stats["solve.coalesced"] == 7
        tiers = sorted(r["cache"]["tier"] for r in responses)
        assert tiers == ["coalesced"] * 7 + ["computed"]

        # Bit-identity against a fresh, uncached, serial service.
        reference = PolicyService(batch_window_ms=1.0)
        serial = asyncio.run(reference.solve(dict(request)))
        reference.close()
        assert all(r["policy"] == serial["policy"] for r in responses)
        # ... and to a cold direct call of the library entry point.
        clear_analysis_cache()
        direct = optimize_clustering(
            parse_distribution(EVENTS), RATE, DELTA1, DELTA2
        )
        fields = ("n1", "n2", "n3", "c_n1", "c_n2", "c_n3")
        assert {f: serial["policy"][f] for f in fields} == {
            f: getattr(direct.policy, f) for f in fields
        }
        assert serial["qom"] == direct.qom

    def test_failed_solve_propagates_to_all_waiters(self):
        service = PolicyService(batch_window_ms=1.0)
        # Validates at the schema layer but fails inside the solver:
        # ebcw requires rate > 0 energy feasibility; an absurd delta
        # blows up in the solver thread instead.
        request = _base_request(family="greedy", rate=1e-300)

        async def burst():
            return await asyncio.gather(
                *(service.solve(dict(request)) for _ in range(3)),
                return_exceptions=True,
            )

        outcomes = asyncio.run(burst())
        service.close()
        # Either all succeed (solver tolerates the rate) or every
        # waiter observes the same exception type — never a hang or a
        # partial result.
        kinds = {type(o).__name__ for o in outcomes}
        assert len(kinds) == 1

    def test_simulate_microbatch_packs_concurrent_runs(self):
        service = PolicyService(batch_window_ms=20.0)
        requests = [
            _base_request(capacity=CAPACITY, horizon=800, seed=i)
            for i in range(5)
        ]

        async def burst():
            return await asyncio.gather(
                *(service.simulate(r) for r in requests)
            )

        responses = asyncio.run(burst())
        service.close()
        assert service.stats["simulate.runs"] == 5
        assert service.stats["simulate.batches"] < 5
        assert max(r["batch_size"] for r in responses) > 1

        distribution = parse_distribution(EVENTS)
        policy = _direct_policy("greedy", distribution)
        for request, response in zip(requests, responses):
            direct = simulate_single(
                distribution, policy, ConstantRecharge(RATE),
                capacity=CAPACITY, delta1=DELTA1, delta2=DELTA2,
                horizon=800, seed=request["seed"],
            )
            assert response["qom"] == direct.qom
            assert response["n_captures"] == direct.n_captures


class TestTelemetryManifests:
    def test_manifest_written_and_validates(self, tmp_path):
        service = PolicyService(telemetry_dir=str(tmp_path))
        request = _base_request(
            capacity=CAPACITY, horizon=500, seed=1
        )
        asyncio.run(service.simulate(request))
        service.close()
        manifests = sorted(glob.glob(str(tmp_path / "serve-*.json")))
        assert len(manifests) == 1
        with open(manifests[0]) as handle:
            manifest = json.load(handle)
        telemetry.validate_manifest(manifest)
        assert manifest["command"] == "serve:simulate"
        assert manifest["runs"][0]["entry"] == "serve.simulate"
        assert manifest["arguments"]["events"] == EVENTS
