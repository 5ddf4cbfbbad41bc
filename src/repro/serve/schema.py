"""Request/response JSON Schemas for the ``repro serve`` endpoints.

Every endpoint's body is validated against a JSON Schema before any
solver code runs, and every response the service emits round-trips the
same schemas (asserted in ``tests/serve``).  Validation uses the
``jsonschema`` package with one validator per schema, built (and the
schema itself checked) once at import, so a request pays only for the
instance check.

The schemas are data, not code: clients can fetch design intent from
this module (or DESIGN.md §15) without importing any solver machinery.
"""

from __future__ import annotations

from typing import Any, Dict, List

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from repro.exceptions import ServeError

__all__ = [
    "ERROR_RESPONSE_SCHEMA",
    "HEALTH_RESPONSE_SCHEMA",
    "POLICY_FAMILIES",
    "SIMULATE_REQUEST_SCHEMA",
    "SIMULATE_RESPONSE_SCHEMA",
    "SOLVE_REQUEST_SCHEMA",
    "SOLVE_RESPONSE_SCHEMA",
    "SWEEP_REQUEST_SCHEMA",
    "SWEEP_RESPONSE_SCHEMA",
    "validate",
]

#: Policy families a ``/solve`` request may name.  ``greedy`` is the
#: full-information Theorem 1 optimum; ``clustering`` the paper's
#: partial-information Eq. 11 search; the rest are the benchmark
#: baselines (Sec. VI-A / DESIGN.md §9).
POLICY_FAMILIES = (
    "age_threshold",
    "aggressive",
    "clustering",
    "ebcw",
    "greedy",
    "periodic",
)

_NON_NEGATIVE_NUMBER = {"type": "number", "minimum": 0}
_POSITIVE_NUMBER = {"type": "number", "exclusiveMinimum": 0}

#: Fields shared by every policy-producing request.
_SOLVE_FIELDS: Dict[str, Any] = {
    "events": {"type": "string"},
    "family": {"type": "string", "enum": list(POLICY_FAMILIES)},
    "rate": _POSITIVE_NUMBER,
    "delta1": _NON_NEGATIVE_NUMBER,
    "delta2": _NON_NEGATIVE_NUMBER,
    "params": {"type": "object"},
}

SOLVE_REQUEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": dict(_SOLVE_FIELDS),
    "required": ["events", "family", "delta1", "delta2"],
    "additionalProperties": False,
}

#: The JSON form of a served policy: enough constructor data to rebuild
#: the exact :class:`~repro.core.policy.ActivationPolicy` (JSON numbers
#: round-trip Python doubles exactly, so reconstruction is bit-identical).
_POLICY_PAYLOAD = {
    "type": "object",
    "properties": {
        "family": {"type": "string", "enum": list(POLICY_FAMILIES)},
    },
    "required": ["family"],
}

_EVENTS_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "spec": {"type": "string"},
        "family": {"type": "string"},
        "fingerprint": {"type": "string"},
    },
    "required": ["spec", "family", "fingerprint"],
    "additionalProperties": False,
}

_CACHE_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "tier": {
            "type": "string",
            "enum": ["memory", "disk", "computed", "coalesced"],
        },
        "hit": {"type": "boolean"},
    },
    "required": ["tier", "hit"],
    "additionalProperties": False,
}

SOLVE_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "address": {"type": "string"},
        "events": _EVENTS_DESCRIPTOR,
        "family": {"type": "string", "enum": list(POLICY_FAMILIES)},
        "rate": {"type": ["number", "null"]},
        "delta1": {"type": "number"},
        "delta2": {"type": "number"},
        "policy": _POLICY_PAYLOAD,
        "qom": {"type": ["number", "null"]},
        "energy_rate": {"type": ["number", "null"]},
        "cache": _CACHE_DESCRIPTOR,
        "elapsed_ms": _NON_NEGATIVE_NUMBER,
    },
    "required": [
        "address", "events", "family", "policy", "qom", "cache",
    ],
    "additionalProperties": False,
}

_RECHARGE_SPEC = {
    "type": "object",
    "properties": {
        "kind": {"type": "string", "enum": ["bernoulli", "constant"]},
        "q": {"type": "number", "minimum": 0, "maximum": 1},
        "c": _NON_NEGATIVE_NUMBER,
        "rate": _NON_NEGATIVE_NUMBER,
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_SIMULATE_FIELDS: Dict[str, Any] = dict(_SOLVE_FIELDS)
_SIMULATE_FIELDS.update(
    {
        "capacity": _POSITIVE_NUMBER,
        "horizon": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "recharge": _RECHARGE_SPEC,
        "initial_energy": _NON_NEGATIVE_NUMBER,
    }
)

SIMULATE_REQUEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": dict(_SIMULATE_FIELDS),
    "required": [
        "events", "family", "delta1", "delta2", "capacity", "horizon",
    ],
    "additionalProperties": False,
}

_AOI_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "time_average": {"type": "number"},
        "max_age": {"type": "integer"},
        "n_resets": {"type": "integer"},
        "variance": {"type": "number"},
    },
    "required": ["time_average", "max_age", "n_resets", "variance"],
    "additionalProperties": False,
}

SIMULATE_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "qom": {"type": "number"},
        "n_events": {"type": "integer", "minimum": 0},
        "n_captures": {"type": "integer", "minimum": 0},
        "horizon": {"type": "integer", "minimum": 0},
        "activations": {"type": "integer", "minimum": 0},
        "final_battery": {"type": "number"},
        "aoi": _AOI_DESCRIPTOR,
        "policy": _POLICY_PAYLOAD,
        "cache": _CACHE_DESCRIPTOR,
        "batch_size": {"type": "integer", "minimum": 1},
        "elapsed_ms": _NON_NEGATIVE_NUMBER,
    },
    "required": [
        "qom", "n_events", "n_captures", "horizon", "aoi", "policy",
        "cache", "batch_size",
    ],
    "additionalProperties": False,
}

_SWEEP_FIELDS: Dict[str, Any] = dict(_SIMULATE_FIELDS)
_SWEEP_FIELDS.update(
    {
        "n_runs": {"type": "integer", "minimum": 1, "maximum": 100000},
        "base_seed": {"type": "integer", "minimum": 0},
    }
)
_SWEEP_FIELDS.pop("seed")

SWEEP_REQUEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": dict(_SWEEP_FIELDS),
    "required": [
        "events", "family", "delta1", "delta2", "capacity", "horizon",
        "n_runs",
    ],
    "additionalProperties": False,
}

_SUMMARY_DESCRIPTOR = {
    "type": "object",
    "properties": {
        "mean": {"type": "number"},
        "std_error": {"type": "number"},
        "ci_low": {"type": "number"},
        "ci_high": {"type": "number"},
    },
    "required": ["mean", "std_error", "ci_low", "ci_high"],
    "additionalProperties": False,
}

SWEEP_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "n_runs": {"type": "integer", "minimum": 1},
        "qom": _SUMMARY_DESCRIPTOR,
        "aoi_time_average": _SUMMARY_DESCRIPTOR,
        "qom_values": {"type": "array", "items": {"type": "number"}},
        "policy": _POLICY_PAYLOAD,
        "cache": _CACHE_DESCRIPTOR,
        "elapsed_ms": _NON_NEGATIVE_NUMBER,
    },
    "required": ["n_runs", "qom", "aoi_time_average", "policy", "cache"],
    "additionalProperties": False,
}

HEALTH_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "status": {"type": "string", "enum": ["ok"]},
        "uptime_seconds": _NON_NEGATIVE_NUMBER,
        "stats": {"type": "object"},
    },
    "required": ["status", "uptime_seconds", "stats"],
    "additionalProperties": False,
}

ERROR_RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "properties": {
        "error": {"type": "string"},
        "kind": {"type": "string"},
    },
    "required": ["error", "kind"],
    "additionalProperties": False,
}

def _validator(schema: Dict[str, Any]) -> Any:
    """A ready validator for ``schema``, after checking the schema once."""
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


#: Validators for this module's schemas, keyed by schema identity.
_VALIDATORS: Dict[int, Any] = {
    id(schema): _validator(schema)
    for schema in (
        SOLVE_REQUEST_SCHEMA,
        SOLVE_RESPONSE_SCHEMA,
        SIMULATE_REQUEST_SCHEMA,
        SIMULATE_RESPONSE_SCHEMA,
        SWEEP_REQUEST_SCHEMA,
        SWEEP_RESPONSE_SCHEMA,
        HEALTH_RESPONSE_SCHEMA,
        ERROR_RESPONSE_SCHEMA,
    )
}


def validate(
    instance: Any, schema: Dict[str, Any], label: str = "request"
) -> None:
    """Validate ``instance`` against ``schema``.

    ``schema`` is one of this module's schemas.  Raises
    :class:`~repro.exceptions.ServeError` with a JSON-pointer style path
    on the most relevant violation (``jsonschema``'s ``best_match``, as
    :func:`jsonschema.validate` reports).
    """
    error = best_match(_VALIDATORS[id(schema)].iter_errors(instance))
    if error is not None:
        pointer: List[str] = [str(part) for part in error.absolute_path]
        where = ".".join([label] + pointer) if pointer else label
        raise ServeError(f"{where}: {error.message}")
