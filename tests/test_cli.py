"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
from pathlib import Path

import pytest

from repro.cli import main, parse_events
from repro.events import MarkovInterArrival, WeibullInterArrival


class TestParseEvents:
    def test_weibull(self):
        d = parse_events("weibull:40,3")
        assert isinstance(d, WeibullInterArrival)
        assert d.scale == 40.0
        assert d.shape == 3.0

    def test_markov(self):
        d = parse_events("markov:0.7,0.6")
        assert isinstance(d, MarkovInterArrival)
        assert d.a == 0.7

    def test_integer_families(self):
        d = parse_events("deterministic:5")
        assert d.period == 5
        d = parse_events("uniform:3,7")
        assert d.low == 3 and d.high == 7

    def test_unknown_family(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_events("zipf:1.2")

    def test_wrong_arity(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_events("weibull:40")

    def test_invalid_parameters_surface_cleanly(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_events("weibull:-1,3")


class TestCommands:
    def test_solve_greedy(self, capsys):
        rc = main(
            ["solve", "--events", "weibull:12,3", "--rate", "0.5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "greedy pi*_FI" in out
        assert "QoM" in out

    def test_solve_clustering(self, capsys):
        rc = main(
            ["solve", "--events", "weibull:8,3", "--rate", "0.5",
             "--policy", "clustering"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "clustering pi'_PI" in out
        assert "recovery from" in out

    def test_solve_ebcw(self, capsys):
        rc = main(
            ["solve", "--events", "markov:0.7,0.7", "--rate", "1.0",
             "--policy", "ebcw"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "p1 =" in out

    def test_simulate(self, capsys):
        rc = main(
            ["simulate", "--events", "deterministic:5", "--rate", "1.4",
             "--policy", "greedy", "--horizon", "5000", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "QoM=" in out

    def test_simulate_bernoulli_recharge(self, capsys):
        rc = main(
            ["simulate", "--events", "geometric:0.2", "--rate", "0.5",
             "--policy", "aggressive", "--horizon", "2000",
             "--bernoulli-q", "0.5"]
        )
        assert rc == 0
        assert "QoM=" in capsys.readouterr().out

    def test_experiment_theorem1(self, capsys):
        rc = main(["experiment", "theorem1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "always slot 2" in out

    def test_experiment_fig3a_small(self, capsys):
        rc = main(
            ["experiment", "fig3a", "--horizon", "5000", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Upper Bound" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestErrorPaths:
    """Failures must exit non-zero with a message, never succeed silently."""

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_seed_not_an_integer(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--events", "geometric:0.2", "--rate", "0.5",
                  "--horizon", "100", "--seed", "banana"])
        assert excinfo.value.code != 0
        assert "invalid int value" in capsys.readouterr().err

    def test_malformed_distribution_spec(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--events", "weibull:abc,3", "--rate", "0.5"])
        assert excinfo.value.code != 0
        assert capsys.readouterr().err

    def test_unknown_event_family_exits_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--events", "zipf:1.2", "--rate", "0.5"])
        assert excinfo.value.code != 0
        assert "unknown event family" in capsys.readouterr().err

    def test_wrong_arity_exits_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--events", "weibull:40", "--rate", "0.5"])
        assert excinfo.value.code != 0
        assert "parameter" in capsys.readouterr().err

    def test_invalid_distribution_parameters(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--events", "markov:2,0.5", "--rate", "0.5"])
        assert excinfo.value.code != 0
        assert capsys.readouterr().err

    def test_bernoulli_q_zero_rejected(self, capsys):
        """Regression: --bernoulli-q 0 used to be silently ignored.

        The old truthiness check fell back to constant recharge, so the
        run succeeded while quietly simulating a different recharge
        process than the one requested.
        """
        rc = main(["simulate", "--events", "geometric:0.2", "--rate", "0.5",
                   "--horizon", "100", "--bernoulli-q", "0"])
        captured = capsys.readouterr()
        assert rc != 0
        assert "bernoulli-q" in captured.err

    def test_bernoulli_q_above_one_rejected(self, capsys):
        rc = main(["simulate", "--events", "geometric:0.2", "--rate", "0.5",
                   "--horizon", "100", "--bernoulli-q", "1.5"])
        assert rc != 0
        assert "bernoulli-q" in capsys.readouterr().err

    def test_clustering_zero_rate_rejected(self, capsys):
        """Regression: rate 0 used to ask the n3 search for ~1e10 slots."""
        rc = main(["solve", "--events", "weibull:40,3", "--policy",
                   "clustering", "--rate", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "must be > 0" in captured.err

    def test_reproerror_maps_to_exit_code_one(self, capsys):
        """Library errors surface as 'error: ...' on stderr with rc 1."""
        rc = main(["simulate", "--events", "deterministic:5", "--rate", "1.0",
                   "--horizon", "100", "--capacity", "-1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")


class TestLintSubcommand:
    def test_lint_clean_tree_exits_zero(self, capsys):
        package_dir = Path(__file__).resolve().parent.parent / "src" / "repro"
        rc = main(["lint", str(package_dir)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_forwards_flags(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RL001" in out and "RL008" in out


class TestBackendFlag:
    def test_vectorized_matches_reference(self, capsys):
        base = ["simulate", "--events", "weibull:40,3", "--rate", "0.5",
                "--policy", "aggressive", "--horizon", "3000",
                "--seed", "7", "--bernoulli-q", "0.5"]
        assert main(base + ["--backend", "reference"]) == 0
        ref_out = capsys.readouterr().out
        assert main(base + ["--backend", "vectorized"]) == 0
        vec_out = capsys.readouterr().out
        assert ref_out == vec_out
        assert "QoM=" in ref_out

    def test_unknown_backend_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--events", "weibull:40,3", "--rate", "0.5",
                  "--policy", "aggressive", "--horizon", "100",
                  "--backend", "numba"])


class TestJobsFlag:
    def test_experiment_jobs_matches_serial(self, capsys):
        args = ["experiment", "fig3a", "--horizon", "2000", "--seed", "3"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_experiment_fig6_backend_matches_reference(self, capsys):
        args = ["experiment", "fig6a", "--horizon", "1500", "--seed", "3"]
        assert main(args + ["--backend", "reference"]) == 0
        ref_out = capsys.readouterr().out
        assert main(args + ["--backend", "vectorized"]) == 0
        vec_out = capsys.readouterr().out
        assert ref_out == vec_out
        assert "Fig. 6(a)" in ref_out
