"""Smoke tests for the top-level public API surface."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        """Every ``__all__`` name of every ``repro`` module is bound."""
        modules = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name.rsplit(".", 1)[-1] != "__main__"
        ]
        assert "repro.sim.batch_kernel" in modules
        for module_name in modules:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert getattr(module, name, None) is not None, (
                    f"{module_name}.{name}"
                )

    def test_quickstart_flow(self):
        """The README quickstart must work verbatim."""
        events = repro.WeibullInterArrival(scale=40, shape=3)
        solution = repro.solve_greedy(events, e=0.5, delta1=1, delta2=6)
        result = repro.simulate_single(
            events,
            solution.as_policy(),
            repro.BernoulliRecharge(q=0.5, c=1.0),
            capacity=200,
            delta1=1,
            delta2=6,
            horizon=50_000,
            seed=7,
        )
        assert solution.qom == pytest.approx(0.804, abs=0.01)
        assert result.qom == pytest.approx(solution.qom, abs=0.05)

    def test_exception_hierarchy(self):
        for exc in (
            repro.DistributionError,
            repro.EnergyError,
            repro.PolicyError,
            repro.SimulationError,
            repro.SolverError,
        ):
            assert issubclass(exc, repro.ReproError)
        assert issubclass(repro.ReproError, Exception)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.energy
        import repro.events
        import repro.experiments
        import repro.mdp
        import repro.sim

        assert repro.mdp.BeliefState is not None
        assert repro.experiments.run_fig3 is not None
