"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events import (
    DeterministicInterArrival,
    EmpiricalInterArrival,
    GeometricInterArrival,
    MarkovInterArrival,
    ParetoInterArrival,
    UniformInterArrival,
    WeibullInterArrival,
)
from repro.sim import _native

# Paper energy parameters, used throughout the tests.
DELTA1 = 1.0
DELTA2 = 6.0


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked @pytest.mark.slow",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list
) -> None:
    """Skip ``slow``-marked tests unless ``--runslow`` was given.

    Keeps the tier-1 run (``pytest -x -q``) under the CI time budget;
    CI runs the slow tier as a separate ``--runslow -m slow`` step.
    """
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(params=["native"])
def kernel_impl(request: pytest.FixtureRequest) -> str:
    """The fast path every bit-identity case compares with the reference.

    The C scan is the only one; without a C compiler the case fails
    here with that reason, not deep inside a ``vectorized`` call.
    """
    assert _native.get_native_scan() is not None, "the C scan needs gcc/cc"
    return str(request.param)


@pytest.fixture
def no_native(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make the C scan unavailable, as on a host without a C compiler."""
    monkeypatch.setattr(_native, "_lib_tried", True)
    monkeypatch.setattr(_native, "_lib_cache", None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def weibull() -> WeibullInterArrival:
    """The paper's primary event model W(40, 3)."""
    return WeibullInterArrival(40, 3)


@pytest.fixture
def small_weibull() -> WeibullInterArrival:
    """A compact Weibull for fast optimizer tests."""
    return WeibullInterArrival(8, 3)


@pytest.fixture
def pareto() -> ParetoInterArrival:
    """The paper's heavy-tailed event model P(2, 10)."""
    return ParetoInterArrival(2, 10)


@pytest.fixture
def geometric() -> GeometricInterArrival:
    return GeometricInterArrival(0.2)


@pytest.fixture
def deterministic() -> DeterministicInterArrival:
    return DeterministicInterArrival(5)


@pytest.fixture
def uniform_gap() -> UniformInterArrival:
    return UniformInterArrival(3, 7)


@pytest.fixture
def two_slot() -> EmpiricalInterArrival:
    """The paper's Theorem 1 example: alpha = (0.6, 0.4)."""
    return EmpiricalInterArrival([0.6, 0.4])


@pytest.fixture
def markov_clustered() -> MarkovInterArrival:
    """Positively correlated Markov events (a, b > 0.5)."""
    return MarkovInterArrival(0.7, 0.7)


@pytest.fixture
def markov_alternating() -> MarkovInterArrival:
    """Negatively correlated Markov events (a < 0.5)."""
    return MarkovInterArrival(0.2, 0.6)


ALL_DISTRIBUTION_FACTORIES = {
    "weibull": lambda: WeibullInterArrival(40, 3),
    "small-weibull": lambda: WeibullInterArrival(8, 3),
    "pareto": lambda: ParetoInterArrival(2, 10),
    "geometric": lambda: GeometricInterArrival(0.2),
    "deterministic": lambda: DeterministicInterArrival(5),
    "uniform": lambda: UniformInterArrival(3, 7),
    "two-slot": lambda: EmpiricalInterArrival([0.6, 0.4]),
    "markov-clustered": lambda: MarkovInterArrival(0.7, 0.7),
    "markov-alternating": lambda: MarkovInterArrival(0.2, 0.6),
}


@pytest.fixture(params=sorted(ALL_DISTRIBUTION_FACTORIES))
def any_distribution(request):
    """Parametrised fixture running a test over every event family."""
    return ALL_DISTRIBUTION_FACTORIES[request.param]()
