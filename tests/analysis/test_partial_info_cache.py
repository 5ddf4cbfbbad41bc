"""Memo and solver-reuse equivalence for the partial-information analysis.

No matter how a result is produced — streamed fresh, replayed from the
in-process memo, or computed on a solver that has run other analyses —
the returned numbers are bit-identical to a fresh, uncached analysis.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partial_info import (
    PartialInfoSolver,
    analyse_partial_info_policy,
    analysis_cache_size,
    clear_analysis_cache,
)
from repro.core.clustering import optimize_clustering
from repro.events import EmpiricalInterArrival, WeibullInterArrival
from repro.sim import _native

DELTA1, DELTA2 = 1.0, 6.0


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_analysis_cache()
    yield
    clear_analysis_cache()


def _assert_identical(a, b):
    """Bit-level equality of two PartialInfoAnalysis results."""
    assert np.array_equal(a.beta_hat, b.beta_hat)
    assert np.array_equal(a.survival, b.survival)
    assert np.array_equal(a.stationary, b.stationary)
    assert a.expected_cycle == b.expected_cycle
    assert a.qom == b.qom
    assert a.energy_rate == b.energy_rate
    assert a.truncated == b.truncated


def _vector(small_weibull):
    vec = np.zeros(12)
    vec[3] = 0.5
    vec[4:7] = 1.0
    vec[7] = 0.4
    vec[11] = 0.9
    return vec


class TestMemoEquivalence:
    def test_warm_hit_is_bit_identical(self, small_weibull):
        vec = _vector(small_weibull)
        cold = analyse_partial_info_policy(
            small_weibull, vec, DELTA1, DELTA2
        )
        assert analysis_cache_size() == 1
        warm = analyse_partial_info_policy(
            small_weibull, vec, DELTA1, DELTA2
        )
        assert warm is cold  # memo returns the cached instance

    def test_memo_key_separates_parameters(self, small_weibull):
        vec = _vector(small_weibull)
        analyse_partial_info_policy(small_weibull, vec, DELTA1, DELTA2)
        analyse_partial_info_policy(
            small_weibull, vec, DELTA1, DELTA2, tail=0.5
        )
        analyse_partial_info_policy(
            small_weibull, vec, DELTA1, DELTA2, tail_rel_eps=1e-3
        )
        assert analysis_cache_size() == 3

    def test_results_are_read_only(self, small_weibull):
        result = analyse_partial_info_policy(
            small_weibull, _vector(small_weibull), DELTA1, DELTA2
        )
        with pytest.raises(ValueError):
            result.survival[0] = 0.0

    def test_fingerprint_separates_distributions(self):
        a = WeibullInterArrival(40, 3)
        b = WeibullInterArrival(40, 3)
        c = WeibullInterArrival(8, 3)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint


class TestOptimizerEquivalence:
    def _key(self, sol):
        p = sol.policy
        return (
            p.n1, p.n2, p.n3, p.c_n1, p.c_n2, p.c_n3,
            sol.qom, sol.energy_rate,
            sol.analysis.survival.tobytes(),
            sol.analysis.beta_hat.tobytes(),
        )

    def test_cold_warm_identical(self, small_weibull):
        # n_jobs=2 == n_jobs=1 is tests/sim/test_forced_fork.py's.
        cold = optimize_clustering(small_weibull, 0.5, DELTA1, DELTA2)
        warm = optimize_clustering(small_weibull, 0.5, DELTA1, DELTA2)
        assert self._key(cold) == self._key(warm)


pmf_weights = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=2,
    max_size=10,
)

activation_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=2,
    max_size=14,
)


class TestSolverReuse:
    @given(pmf_weights, st.lists(activation_vectors, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_repeat_analysis_on_one_solver_is_stable(
        self, weights, activations
    ):
        """Interleaved analyses on one solver equal fresh analyses, on
        the C DP and on the numpy reference: the solver's shared
        ``beta``/``1 - beta`` arrays carry no state between analyses."""
        total = sum(weights)
        distribution = EmpiricalInterArrival([w / total for w in weights])
        vectors = [np.asarray(a, dtype=float) for a in activations]
        for native in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not native:  # the numpy reference, as without gcc
                    patch.setattr(_native, "_lib_tried", True)
                    patch.setattr(_native, "_lib_cache", None)
                solver = PartialInfoSolver(distribution, DELTA1, DELTA2)
                for vec in vectors + vectors[::-1]:
                    clear_analysis_cache()
                    reused = solver.analyse(vec)
                    clear_analysis_cache()
                    fresh = analyse_partial_info_policy(
                        distribution, vec, DELTA1, DELTA2
                    )
                    _assert_identical(reused, fresh)
