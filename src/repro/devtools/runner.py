"""Lint engine: walk files, run rules, filter suppressions, report.

The engine is importable (:func:`lint_source` / :func:`lint_paths`
return plain :class:`~repro.devtools.rules.Finding` lists) so the test
suite can lint fixture snippets without touching the filesystem, and the
CLI layer stays a thin argument-parsing shell.

Two rule families run over the collected files, both in-process:

* **local rules** (``requires_project`` False) see one module at a time;
* **project rules** (``requires_project`` True) run against the
  whole-tree :class:`~repro.devtools.analysis.project.ProjectModel`.

Output ordering is always ``(path, line, col, code)``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.devtools.analysis.project import ProjectModel
from repro.devtools.config import LintConfig
from repro.devtools.context import ModuleContext
from repro.devtools.rules import Finding, LintError, Rule, all_rules

__all__ = [
    "collect_files",
    "format_findings",
    "lint_paths",
    "lint_source",
]


def _finding_order(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.code)


def _split_rules(config: LintConfig) -> Tuple[List[Rule], List[Rule]]:
    """Enabled rules partitioned into (local, flow)."""
    enabled = set(config.enabled_codes())
    local: List[Rule] = []
    flow: List[Rule] = []
    for rule in all_rules():
        if rule.code not in enabled:
            continue
        (flow if rule.requires_project else local).append(rule)
    return local, flow


def _run_local_rules(
    module: ModuleContext, rules: Sequence[Rule]
) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(module):
            if not module.is_suppressed(finding.code, finding.line):
                findings.append(finding)
    findings.sort(key=_finding_order)
    return findings


def _run_flow_rules(
    modules: Sequence[ModuleContext],
    project: ProjectModel,
    rules: Sequence[Rule],
) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        for rule in rules:
            for finding in rule.check_project(module, project):
                if not module.is_suppressed(finding.code, finding.line):
                    findings.append(finding)
    findings.sort(key=_finding_order)
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one in-memory module and return its findings.

    Project rules see a single-module project, so snippet tests exercise
    RL013/RL015 without touching the filesystem; cross-module behaviour
    needs :func:`lint_paths` over a real tree.
    """
    cfg = config if config is not None else LintConfig()
    module = ModuleContext(
        source, path=path, rng_modules=cfg.rng_modules
    )
    local_rules, flow_rules = _split_rules(cfg)
    findings = _run_local_rules(module, local_rules)
    if flow_rules:
        project = ProjectModel([module], cfg)
        findings.extend(_run_flow_rules([module], project, flow_rules))
    findings.sort(key=_finding_order)
    return findings


def collect_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    seen = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            seen[candidate.resolve()] = candidate
    return sorted(seen.values())


def lint_paths(
    paths: Iterable[Union[str, Path]],
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` and return all findings."""
    cfg = config if config is not None else LintConfig()
    modules = [
        ModuleContext(
            path.read_text(encoding="utf-8"),
            path=path.as_posix(),
            display_path=path.as_posix(),
            rng_modules=cfg.rng_modules,
        )
        for path in collect_files(paths)
        if not cfg.is_excluded(path.as_posix())
    ]
    local_rules, flow_rules = _split_rules(cfg)
    findings: List[Finding] = []
    for module in modules:
        findings.extend(_run_local_rules(module, local_rules))
    if flow_rules:
        project = ProjectModel(modules, cfg)
        findings.extend(_run_flow_rules(modules, project, flow_rules))
    findings.sort(key=_finding_order)
    return findings


def format_findings(
    findings: Sequence[Finding], output_format: str = "text"
) -> str:
    """Render findings as ``text``, ``json`` or ``sarif``."""
    if output_format == "json":
        payload = {
            "count": len(findings),
            "findings": [f.to_dict() for f in findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if output_format == "sarif":
        from repro.devtools.analysis.sarif import format_sarif

        return format_sarif(findings)
    if output_format != "text":
        raise LintError(f"unknown output format {output_format!r}")
    lines = [
        f"{f.anchor()}: {f.code} {f.message}" for f in findings
    ]
    summary = (
        "repro lint: clean" if not findings
        else f"repro lint: {len(findings)} finding(s)"
    )
    lines.append(summary)
    return "\n".join(lines)
