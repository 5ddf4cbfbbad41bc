"""Developer tooling for the :mod:`repro` reproduction.

Two independent pieces live here:

* :mod:`~repro.devtools.telemetry` (and :mod:`~repro.devtools.bench`)
  — the counters, spans and run manifests the simulation, solve and
  serve layers report through;
* ``repro lint`` (also ``python -m repro.lint``) — an AST-based
  static-analysis pass that enforces the reproducibility and
  numeric-safety invariants the paper reproduction depends on: seeded
  randomness threaded through :mod:`repro.sim.rng`, no float equality
  in numeric code, validated probability arrays, and an intact
  :class:`~repro.exceptions.ReproError` error channel.

This package ``__init__`` imports neither, so ``from repro.devtools
import telemetry`` loads telemetry alone.  The linter's surface lives in
its defining modules:

* :class:`~repro.devtools.rules.Finding` / :class:`~repro.devtools.rules.Rule`
  — the data model and extension point;
* :func:`~repro.devtools.rules.all_rules` — the rule registry;
* :func:`~repro.devtools.runner.lint_source` /
  :func:`~repro.devtools.runner.lint_paths` — the engine;
* :class:`~repro.devtools.config.LintConfig` /
  :func:`~repro.devtools.config.load_config` — ``[tool.repro-lint]``;
* :func:`~repro.devtools.cli.main` — the command line.
"""

from __future__ import annotations
