"""Regret tests for the adaptive experiment driver (acceptance gates)."""

from __future__ import annotations

import math

import pytest

from repro.experiments.adaptive import (
    FINAL_WINDOW_FRACTION,
    run_adaptive,
)

#: Acceptance gate: final-window QoM within 5% of the known-distribution
#: optimum, at seed 1, horizon 60k and 2000-slot chunks.
REGRET_GATE = 0.05


def _final_window_mean(figure, label: str) -> float:
    ys = figure.get(label).y
    tail = max(int(len(ys) * FINAL_WINDOW_FRACTION), 1)
    window = [y for y in ys[-tail:] if not math.isnan(y)]
    return sum(window) / max(len(window), 1)


class TestValidation:
    def test_unknown_scenario_raises(self) -> None:
        with pytest.raises(ValueError):
            run_adaptive(scenario="seasonal", horizon=4000)

    def test_unknown_info_raises(self) -> None:
        with pytest.raises(ValueError):
            run_adaptive(info="oracle", horizon=4000)


class TestStructure:
    def test_series_layout(self) -> None:
        figure = run_adaptive(horizon=8000, chunk_slots=2000, seed=3)
        labels = [s.label for s in figure.series]
        assert labels == ["adaptive", "oracle", "automaton", "regret"]
        n = len(figure.get("adaptive").y)
        assert n == 4
        assert all(len(s.y) == n for s in figure.series)
        assert figure.figure == "adaptive-stationary-full"
        assert "final_oracle=" in figure.notes

    def test_regret_is_oracle_minus_adaptive(self) -> None:
        figure = run_adaptive(horizon=8000, chunk_slots=2000, seed=3)
        for adaptive, oracle, regret in zip(
            figure.get("adaptive").y,
            figure.get("oracle").y,
            figure.get("regret").y,
        ):
            assert regret == pytest.approx(oracle - adaptive)


class TestRegretGates:
    def test_stationary_converges_to_oracle(self) -> None:
        """The headline acceptance criterion: after learning online, the
        final-window QoM sits within 5% of the greedy optimum solved on
        the true (never revealed) distribution."""
        figure = run_adaptive(
            scenario="stationary", info="full",
            horizon=60_000, chunk_slots=2000, seed=1,
        )
        adaptive = _final_window_mean(figure, "adaptive")
        oracle = _final_window_mean(figure, "oracle")
        assert oracle > 0
        assert (oracle - adaptive) / oracle < REGRET_GATE

    def test_changepoint_reconverges(self) -> None:
        """After the truth switches mid-run the controller must detect
        the change-point and close the regret again — the final window
        lies entirely after the switch."""
        figure = run_adaptive(
            scenario="changepoint", info="full",
            horizon=60_000, chunk_slots=2000, seed=1,
        )
        assert "changepoints=0" not in figure.notes
        adaptive = _final_window_mean(figure, "adaptive")
        oracle = _final_window_mean(figure, "oracle")
        assert (oracle - adaptive) / oracle < REGRET_GATE
        # The switch itself must have cost something (the regret spike
        # proves the scenario actually changed the truth).
        assert max(figure.get("regret").y) > 0.1

    def test_automaton_trails_the_solved_policy(self) -> None:
        """The model-free L_R-I baseline learns a rate but no temporal
        structure, so the solved adaptive policy must beat it."""
        figure = run_adaptive(
            scenario="stationary", info="full",
            horizon=60_000, chunk_slots=2000, seed=1,
        )
        assert _final_window_mean(figure, "adaptive") > (
            _final_window_mean(figure, "automaton")
        )

    def test_drift_scenario_keeps_resolving(self) -> None:
        figure = run_adaptive(
            scenario="drift", info="full",
            horizon=60_000, chunk_slots=2000, seed=1,
        )
        meta = dict(
            part.split("=", 1)
            for part in figure.notes.split()
            if "=" in part
        )
        # A gliding truth must trigger more re-solves than the single
        # initial fit a stationary run needs.
        assert int(meta["resolves"]) >= 2
