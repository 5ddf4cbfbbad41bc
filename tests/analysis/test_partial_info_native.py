"""The C partial-information DP against the numpy reference and an exact chain.

``repro_pi_advance`` (C source in :mod:`repro.sim._native`) runs the
hazard DP of :mod:`repro.analysis.partial_info` when the library is
loaded; the numpy per-slot loop runs otherwise.  The two must agree
``==`` on every field of every analysis, and both must reproduce the
exact stationary law of the finite (slots since capture, event age)
chain whenever the DP runs to exhaustion instead of estimating a tail.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partial_info import (
    PartialInfoAnalysis,
    analyse_partial_info_policy,
    clear_analysis_cache,
)
from repro.core.clustering import optimize_clustering
from repro.events import (
    EmpiricalInterArrival,
    ParetoInterArrival,
    WeibullInterArrival,
)
from repro.mdp.solvers import stationary_distribution
from repro.sim import _native

DELTA1, DELTA2 = 1.0, 6.0


@pytest.fixture(autouse=True)
def _native_dp() -> None:
    """Every case here compares the C DP with the reference: it needs it."""
    assert _native.get_native_scan() is not None, "the C DP needs gcc/cc"


@contextmanager
def reference_only() -> Iterator[None]:
    """Run the numpy reference DP, as on a host without a C compiler."""
    saved = (_native._lib_tried, _native._lib_cache)
    _native._lib_tried, _native._lib_cache = True, None
    try:
        yield
    finally:
        _native._lib_tried, _native._lib_cache = saved


def both_paths(run: Callable[[], object]) -> Tuple[object, object]:
    """``(C result, reference result)`` of ``run()``, each computed cold."""
    clear_analysis_cache()
    native = run()
    clear_analysis_cache()
    with reference_only():
        reference = run()
    clear_analysis_cache()
    return native, reference


def assert_identical(a: PartialInfoAnalysis, b: PartialInfoAnalysis) -> None:
    assert np.array_equal(a.beta_hat, b.beta_hat)
    assert np.array_equal(a.survival, b.survival)
    assert np.array_equal(a.stationary, b.stationary)
    assert a.expected_cycle == b.expected_cycle
    assert a.qom == b.qom
    assert a.energy_rate == b.energy_rate
    assert a.truncated == b.truncated


def _empirical(weights) -> EmpiricalInterArrival:
    total = sum(weights)
    return EmpiricalInterArrival([w / total for w in weights])


probabilities = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
pmf_weights = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=40,
)
activation_vectors = st.lists(probabilities, min_size=1, max_size=20)


class TestNativeMatchesReference:
    @given(
        pmf_weights,
        activation_vectors,
        probabilities,
        st.sampled_from([1e-5, 1e-3, 0.0]),
        st.sampled_from([200_000, 40, 7]),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_field_is_equal(
        self, weights, activation, tail, tail_rel_eps, max_horizon
    ):
        distribution = _empirical(weights)
        vec = np.asarray(activation)
        native, reference = both_paths(
            lambda: analyse_partial_info_policy(
                distribution, vec, DELTA1, DELTA2, tail=tail,
                tail_rel_eps=tail_rel_eps, max_horizon=max_horizon,
            )
        )
        assert_identical(native, reference)

    @pytest.mark.parametrize(
        "distribution",
        [
            WeibullInterArrival(8, 3),
            WeibullInterArrival(40, 3),
            ParetoInterArrival(2, 10, max_support=400),
        ],
        ids=["W(8,3)", "W(40,3)", "P(2,10)/400"],
    )
    @pytest.mark.parametrize(
        "head",
        [[], [0.0] * 12, [0.0] * 5 + [0.3] * 4, [0.2, 0.0, 0.9, 0.0]],
        ids=["all-tail", "sleep", "sleep-partial", "mixed"],
    )
    def test_aggressive_tail(self, distribution, head):
        """Trailing c = 1 runs: no missed-event births, so the window only
        shifts and decays (the region a matrix fast path once served)."""
        vec = np.array(head + [1.0] * 30)
        native, reference = both_paths(
            lambda: analyse_partial_info_policy(
                distribution, vec, DELTA1, DELTA2, tail=1.0
            )
        )
        assert_identical(native, reference)


def _run_one_slot(a: np.ndarray, b: np.ndarray, lo: int) -> Tuple[float, float]:
    """Survival and beta_hat of one C DP slot over the window a[lo:]."""
    native = _native.get_native_scan()
    assert native is not None
    w = a.copy()
    w[:lo] = 0.0
    state_i = np.array([0, lo, a.size], dtype=np.int64)
    state_f = np.zeros(3)
    survival = np.empty(1)
    beta_hat = np.empty(1)
    advance = native.pi_advancer(
        b, 1.0 - b, np.empty(0), 0.5, DELTA1, DELTA2, 1 << 30, 1e-5,
        w, state_i, state_f,
    )
    assert advance(1, survival, beta_hat) == 0
    return float(survival[0]), float(beta_hat[0])


class TestPairwiseSummationPin:
    """The C DP reproduces numpy's float64 summation order exactly.

    If a numpy release sums in another order this fails here, by
    length, before any DP comparison does."""

    @pytest.mark.parametrize("lo", [0, 3])
    def test_sums_equal_np_sum(self, lo):
        rng = np.random.default_rng(20)
        for n in [*range(lo + 1, 301), 511, 1000, 4097, 16384]:
            a = rng.random(n)
            b = rng.random(n)
            mass, beta_hat = _run_one_slot(a, b, lo)
            assert mass == np.sum(a[lo:]), n
            assert beta_hat == min(np.sum(a[lo:] * b[lo:]) / mass, 1.0), n


def _exact_chain(
    distribution: EmpiricalInterArrival, activation: np.ndarray
) -> Tuple[float, float]:
    """Exact (qom, energy_rate) of the chain with an always-on tail.

    State ``(t, g)``: slot ``t`` since the last capture, last true event
    ``g`` slots old.  An event (probability ``beta_g``) is captured with
    probability ``c_t`` (restart at ``(1, 1)``) or missed (``(t+1, 1)``);
    no event moves to ``(t+1, g+1)``.  With ``c_t = 1`` past the vector
    the reachable states are finite.
    """
    beta = distribution.beta
    activation = np.asarray(activation, dtype=float)

    def c_at(t: int) -> float:
        return float(activation[t - 1]) if t <= activation.size else 1.0

    states = [(1, 1)]
    index = {(1, 1): 0}
    moves = []
    for t, g in states:  # grows while iterating: breadth-first search
        b, c = float(beta[g - 1]), c_at(t)
        for target, p in (
            ((1, 1), b * c), ((t + 1, 1), b * (1.0 - c)), ((t + 1, g + 1), 1.0 - b)
        ):
            if p > 0.0:
                if target not in index:
                    index[target] = len(states)
                    states.append(target)
                moves.append((index[(t, g)], index[target], p))
    matrix = np.zeros((len(states), len(states)))
    for i, j, p in moves:
        matrix[i, j] += p
    y = stationary_distribution(matrix)
    capture = sum(
        y[k] * beta[g - 1] * c_at(t) for k, (t, g) in enumerate(states)
    )
    energy = sum(
        y[k] * c_at(t) * (DELTA1 + beta[g - 1] * DELTA2)
        for k, (t, g) in enumerate(states)
    )
    return distribution.mu * capture, energy


class TestExactChainOracle:
    @given(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        st.lists(probabilities, min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_both_paths_match_exact_chain(self, weights, activation):
        distribution = _empirical(weights)
        vec = np.asarray(activation)
        qom, energy_rate = _exact_chain(distribution, vec)
        for result in both_paths(
            lambda: analyse_partial_info_policy(
                distribution, vec, DELTA1, DELTA2, tail=1.0, tail_rel_eps=0.0
            )
        ):
            assert not result.truncated
            assert abs(result.qom - qom) <= 1e-12
            assert abs(result.energy_rate - energy_rate) <= 1e-12


def _solution_key(solution) -> tuple:
    p = solution.policy
    return (
        p.n1, p.n2, p.n3, p.c_n1, p.c_n2, p.c_n3,
        solution.qom, solution.energy_rate,
        solution.analysis.survival.tobytes(),
        solution.analysis.beta_hat.tobytes(),
        solution.analysis.stationary.tobytes(),
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "model, e",
    [
        ("W(40,3)", 0.5975),
        ("W(40,3)", 0.6025),
        ("P(2,10)", 0.5975),
        ("P(2,10)", 0.6025),
        ("W(20,3)", 0.5),
        ("W(9,2)", 0.5),
    ],
)
def test_cold_solves_choose_the_same_policy(model, e):
    """The benchmark grid's cold clustering solves, on both paths."""
    distribution = {
        "W(40,3)": lambda: WeibullInterArrival(40, 3),
        "P(2,10)": lambda: ParetoInterArrival(2, 10),
        "W(20,3)": lambda: WeibullInterArrival(20, 3),
        "W(9,2)": lambda: WeibullInterArrival(9, 2),
    }[model]()
    native, reference = both_paths(
        lambda: optimize_clustering(distribution, e, DELTA1, DELTA2, n_jobs=1)
    )
    assert _solution_key(native) == _solution_key(reference)
