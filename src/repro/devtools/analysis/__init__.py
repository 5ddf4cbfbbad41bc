"""Whole-project analysis for the project-wide lint rules.

Subpackage layout:

* :mod:`~repro.devtools.analysis.project` — the import/symbol graph,
  function index and worker-reachability model built from one parse of
  the whole tree;
* :mod:`~repro.devtools.analysis.flow_rules` — rules RL013 and RL015 on
  top of the model;
* :mod:`~repro.devtools.analysis.sarif` — SARIF 2.1.0 emission.
"""

from __future__ import annotations

from repro.devtools.analysis.project import ProjectModel, module_name_for_path

__all__ = [
    "ProjectModel",
    "module_name_for_path",
]
