"""Solve-and-serialize layer for every policy family ``/solve`` ships.

Each family maps to one solver entry point from :mod:`repro.core`; the
result is flattened into a JSON-safe *payload* holding the exact
constructor arguments needed to rebuild the policy object.  Python
floats survive a JSON round-trip bit-for-bit (``json`` serialises via
``repr`` and parses back the same double), so a policy reconstructed by
:func:`policy_from_payload` simulates identically to the object the
solver returned — the bit-identity guarantee
``tests/serve/test_server.py`` asserts.

The *solver params* accepted per family (and folded into the store key)
are whitelisted here; unknown parameters are rejected before any solver
runs so typos cannot silently fork the cache keyspace.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.baselines import (
    AggressivePolicy,
    AgeThresholdPolicy,
    PeriodicPolicy,
    energy_balanced_period,
    solve_age_threshold,
    solve_ebcw,
)
from repro.core.clustering import ClusteringPolicy, optimize_clustering
from repro.core.greedy import solve_greedy
from repro.core.policy import ActivationPolicy, InfoModel, VectorPolicy
from repro.events.base import InterArrivalDistribution
from repro.exceptions import ServeError

__all__ = [
    "canonical_solve_key",
    "policy_from_payload",
    "solve_policy",
]

#: family -> (requires a recharge rate, allowed solver-param names).
_FAMILY_RULES: Dict[str, Tuple[bool, Tuple[str, ...]]] = {
    "greedy": (True, ()),
    "clustering": (True, ("max_candidates", "top_k", "refine")),
    "ebcw": (True, ("tail_rel_eps",)),
    "age_threshold": (True, ("max_threshold", "tail_rel_eps")),
    "periodic": (True, ("theta1", "theta2")),
    "aggressive": (False, ()),
}


def _check_params(family: str, params: Mapping[str, Any]) -> None:
    allowed = _FAMILY_RULES[family][1]
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ServeError(
            f"family {family!r} does not accept solver param(s) {unknown}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )


def _normalise_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """JSON-canonical copy: ints for integral floats, floats elsewhere.

    Keeps ``{"top_k": 6}`` and ``{"top_k": 6.0}`` on one cache key.
    """
    out: Dict[str, Any] = {}
    for name in sorted(params):
        value = params[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out[name] = value
        elif float(value).is_integer():
            out[name] = int(value)
        else:
            out[name] = float(value)
    return out


def canonical_solve_key(
    distribution: InterArrivalDistribution,
    family: str,
    rate: Optional[float],
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> bytes:
    """Canonical store key for one solve request.

    Keyed on the distribution's content fingerprint (not its textual
    spec, so ``weibull:40,3`` and ``weibull:40.0,3.0`` share an entry),
    the policy family, the energy/cost parameters and the normalised
    solver params.  The byte encoding is sorted-key JSON, so the key —
    and therefore the content address — is reproducible across
    processes and hosts.
    """
    if family not in _FAMILY_RULES:
        raise ServeError(
            f"unknown policy family {family!r}; "
            f"choose from {sorted(_FAMILY_RULES)}"
        )
    needs_rate = _FAMILY_RULES[family][0]
    if needs_rate and (rate is None or rate <= 0):
        raise ServeError(
            f"family {family!r} needs a positive recharge 'rate'"
        )
    _check_params(family, params)
    payload = {
        "kind": "solve",
        "fingerprint": distribution.fingerprint,
        "family": family,
        "rate": None if rate is None else float(rate),
        "delta1": float(delta1),
        "delta2": float(delta2),
        "params": _normalise_params(params),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _solve_greedy_payload(
    distribution: InterArrivalDistribution,
    rate: float,
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    solution = solve_greedy(distribution, rate, delta1, delta2)
    return {
        "family": "greedy",
        "vector": [float(v) for v in solution.activation],
        "tail": 1.0 if solution.saturated else 0.0,
        "info_model": InfoModel.FULL.value,
        "qom": float(solution.qom),
        "energy_rate": float(solution.energy_spent / distribution.mu),
    }


def _solve_clustering_payload(
    distribution: InterArrivalDistribution,
    rate: float,
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    solution = optimize_clustering(
        distribution, rate, delta1, delta2, **dict(params)
    )
    policy = solution.policy
    return {
        "family": "clustering",
        "n1": policy.n1,
        "n2": policy.n2,
        "n3": policy.n3,
        "c_n1": policy.c_n1,
        "c_n2": policy.c_n2,
        "c_n3": policy.c_n3,
        "qom": float(solution.qom),
        "energy_rate": float(solution.energy_rate),
    }


def _solve_ebcw_payload(
    distribution: InterArrivalDistribution,
    rate: float,
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    solution = solve_ebcw(distribution, rate, delta1, delta2, **dict(params))
    return {
        "family": "ebcw",
        "p1": float(solution.p1),
        "p0": float(solution.p0),
        "qom": float(solution.qom),
        "energy_rate": float(solution.analysis.energy_rate),
    }


def _solve_age_threshold_payload(
    distribution: InterArrivalDistribution,
    rate: float,
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    solution = solve_age_threshold(
        distribution, rate, delta1, delta2, **dict(params)
    )
    return {
        "family": "age_threshold",
        "threshold": int(solution.threshold),
        "qom": float(solution.qom),
        "energy_rate": float(solution.analysis.energy_rate),
    }


def _solve_periodic_payload(
    distribution: InterArrivalDistribution,
    rate: float,
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    theta1 = int(params.get("theta1", 3))
    if "theta2" in params:
        policy = PeriodicPolicy(theta1, int(params["theta2"]))
    else:
        policy = energy_balanced_period(
            distribution, rate, delta1, delta2, theta1=theta1
        )
    return {
        "family": "periodic",
        "theta1": policy.theta1,
        "theta2": policy.theta2,
        "qom": None,
        "energy_rate": None,
    }


def _solve_aggressive_payload(
    distribution: InterArrivalDistribution,
    rate: Optional[float],
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    return {"family": "aggressive", "qom": None, "energy_rate": None}


_SOLVERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "greedy": _solve_greedy_payload,
    "clustering": _solve_clustering_payload,
    "ebcw": _solve_ebcw_payload,
    "age_threshold": _solve_age_threshold_payload,
    "periodic": _solve_periodic_payload,
    "aggressive": _solve_aggressive_payload,
}


def solve_policy(
    distribution: InterArrivalDistribution,
    family: str,
    rate: Optional[float],
    delta1: float,
    delta2: float,
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    """Run the family's solver and return its JSON policy payload.

    The payload always carries ``family``, the constructor arguments
    :func:`policy_from_payload` needs, and ``qom`` / ``energy_rate``
    metadata (``None`` for the schedule-only families whose solvers
    compute neither).  Raises :class:`~repro.exceptions.ServeError` for
    unknown families, missing rates or unsupported solver params.
    """
    if family not in _SOLVERS:
        raise ServeError(
            f"unknown policy family {family!r}; "
            f"choose from {sorted(_SOLVERS)}"
        )
    if _FAMILY_RULES[family][0] and (rate is None or rate <= 0):
        raise ServeError(
            f"family {family!r} needs a positive recharge 'rate'"
        )
    _check_params(family, params)
    return _SOLVERS[family](distribution, rate, delta1, delta2, params)


def policy_from_payload(payload: Mapping[str, Any]) -> ActivationPolicy:
    """Rebuild the simulator-ready policy object from a JSON payload.

    Inverse of :func:`solve_policy`'s serialisation: the returned
    policy is numerically identical to the solver's original (floats
    round-trip JSON exactly), so simulations driven from a cached
    payload are bit-identical to simulations driven from a fresh solve.
    Raises :class:`~repro.exceptions.ServeError` on malformed payloads;
    out-of-range constructor values surface as
    :class:`~repro.exceptions.PolicyError`.
    """
    if not isinstance(payload, Mapping):
        raise ServeError(
            f"policy payload must be an object, "
            f"got {type(payload).__name__}"
        )
    family = payload.get("family")
    try:
        if family == "greedy":
            return VectorPolicy(
                payload["vector"],
                tail=float(payload["tail"]),
                info_model=InfoModel(payload["info_model"]),
            )
        if family == "clustering":
            return ClusteringPolicy(
                payload["n1"],
                payload["n2"],
                payload["n3"],
                c_n1=payload["c_n1"],
                c_n2=payload["c_n2"],
                c_n3=payload["c_n3"],
            )
        if family == "ebcw":
            return VectorPolicy(
                [float(payload["p1"])],
                tail=float(payload["p0"]),
                info_model=InfoModel.PARTIAL,
            )
        if family == "age_threshold":
            return AgeThresholdPolicy(int(payload["threshold"]))
        if family == "periodic":
            return PeriodicPolicy(
                int(payload["theta1"]), int(payload["theta2"])
            )
        if family == "aggressive":
            return AggressivePolicy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(
            f"malformed {family!r} policy payload: {exc!r}"
        ) from exc
    raise ServeError(f"unknown policy family in payload: {family!r}")
