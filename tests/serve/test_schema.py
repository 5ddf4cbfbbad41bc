"""Schema contracts of the ``repro serve`` request/response models.

Pins two things: requests that must validate do, and requests that
must be rejected are (with a path-bearing :class:`ServeError`).
"""

from __future__ import annotations

import jsonschema
import pytest

from repro.events.spec import FAMILIES, parse_distribution
from repro.exceptions import ServeError
from repro.serve.policies import canonical_solve_key
from repro.serve.schema import (
    POLICY_FAMILIES,
    SIMULATE_REQUEST_SCHEMA,
    SOLVE_REQUEST_SCHEMA,
    SWEEP_REQUEST_SCHEMA,
    validate,
)


def _solve_request(**overrides):
    request = {
        "events": "weibull:40,3",
        "family": "greedy",
        "rate": 0.5,
        "delta1": 1.0,
        "delta2": 6.0,
    }
    request.update(overrides)
    return request


VALID_REQUESTS = [
    (SOLVE_REQUEST_SCHEMA, _solve_request()),
    (SOLVE_REQUEST_SCHEMA, _solve_request(family="clustering",
                                          params={"top_k": 2})),
    (SOLVE_REQUEST_SCHEMA, {"events": "geometric:0.1",
                            "family": "aggressive",
                            "delta1": 0, "delta2": 0}),
    (SIMULATE_REQUEST_SCHEMA,
     _solve_request(capacity=100.0, horizon=1000, seed=3)),
    (SIMULATE_REQUEST_SCHEMA,
     _solve_request(capacity=100.0, horizon=0,
                    recharge={"kind": "bernoulli", "q": 0.5, "c": 1.0})),
    (SWEEP_REQUEST_SCHEMA,
     _solve_request(capacity=100.0, horizon=1000, n_runs=4, base_seed=1)),
]

INVALID_REQUESTS = [
    (SOLVE_REQUEST_SCHEMA, {}, "events"),
    (SOLVE_REQUEST_SCHEMA, _solve_request(family="nonsense"), "family"),
    (SOLVE_REQUEST_SCHEMA, _solve_request(rate=0.0), "rate"),
    (SOLVE_REQUEST_SCHEMA, _solve_request(delta1=-1.0), "delta1"),
    (SOLVE_REQUEST_SCHEMA, _solve_request(unknown_field=1), "unknown"),
    (SOLVE_REQUEST_SCHEMA, _solve_request(events=42), "events"),
    (SIMULATE_REQUEST_SCHEMA, _solve_request(capacity=100.0), "horizon"),
    (SIMULATE_REQUEST_SCHEMA,
     _solve_request(capacity=100.0, horizon=-1), "horizon"),
    (SIMULATE_REQUEST_SCHEMA,
     _solve_request(capacity=100.0, horizon=100,
                    recharge={"kind": "solar"}), "recharge"),
    (SWEEP_REQUEST_SCHEMA,
     _solve_request(capacity=100.0, horizon=100, n_runs=0), "n_runs"),
    (SWEEP_REQUEST_SCHEMA,
     _solve_request(capacity=100.0, horizon=100, n_runs=4, seed=1), "seed"),
]


@pytest.mark.parametrize("schema,request_body", VALID_REQUESTS)
def test_valid_requests_pass(schema, request_body):
    validate(request_body, schema)


@pytest.mark.parametrize("schema,request_body,hint", INVALID_REQUESTS)
def test_invalid_requests_rejected_with_path(schema, request_body, hint):
    with pytest.raises(ServeError) as excinfo:
        validate(request_body, schema)
    assert hint in str(excinfo.value)


@pytest.mark.parametrize("schema,request_body,hint", INVALID_REQUESTS)
def test_reports_the_error_jsonschema_validate_reports(
    schema, request_body, hint
):
    """Prebuilt validators pick the same error as ``jsonschema.validate``."""
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(instance=request_body, schema=schema)
    with pytest.raises(ServeError) as got:
        validate(request_body, schema)
    assert str(got.value).endswith(f": {expected.value.message}")


def test_every_parseable_family_is_solvable_via_requests():
    """Every distribution the CLI grammar ships validates in a request."""
    specs = {
        "weibull": "weibull:40,3",
        "pareto": "pareto:2,10",
        "geometric": "geometric:0.1",
        "markov": "markov:0.7,0.7",
        "deterministic": "deterministic:5",
        "uniform": "uniform:3,7",
        "lognormal": "lognormal:3,0.4",
        "gamma": "gamma:4,9",
    }
    assert set(specs) == set(FAMILIES)
    for spec in specs.values():
        validate(_solve_request(events=spec), SOLVE_REQUEST_SCHEMA)
        distribution = parse_distribution(spec)
        assert len(distribution.fingerprint) == 64


def test_canonical_key_normalises_spelling():
    """``3`` vs ``3.0`` parameters and spec spellings share one key."""
    d1 = parse_distribution("weibull:40,3")
    d2 = parse_distribution("weibull:40.0,3.0")
    key1 = canonical_solve_key(d1, "clustering", 0.5, 1, 6, {"top_k": 6})
    key2 = canonical_solve_key(d2, "clustering", 0.5, 1.0, 6.0,
                               {"top_k": 6.0})
    assert key1 == key2


def test_canonical_key_separates_distinct_requests():
    d = parse_distribution("weibull:40,3")
    base = canonical_solve_key(d, "clustering", 0.5, 1, 6, {})
    assert canonical_solve_key(d, "greedy", 0.5, 1, 6, {}) != base
    assert canonical_solve_key(d, "clustering", 0.6, 1, 6, {}) != base
    assert canonical_solve_key(d, "clustering", 0.5, 2, 6, {}) != base
    assert (
        canonical_solve_key(d, "clustering", 0.5, 1, 6, {"top_k": 2})
        != base
    )
    other = parse_distribution("weibull:41,3")
    assert canonical_solve_key(other, "clustering", 0.5, 1, 6, {}) != base


def test_unknown_solver_params_rejected():
    d = parse_distribution("weibull:40,3")
    with pytest.raises(ServeError, match="does not accept"):
        canonical_solve_key(d, "greedy", 0.5, 1, 6, {"top_k": 2})
    with pytest.raises(ServeError, match="unknown policy family"):
        canonical_solve_key(d, "dqn", 0.5, 1, 6, {})
    with pytest.raises(ServeError, match="positive recharge"):
        canonical_solve_key(d, "greedy", None, 1, 6, {})


def test_policy_families_constant_matches_rules():
    assert tuple(sorted(POLICY_FAMILIES)) == POLICY_FAMILIES
