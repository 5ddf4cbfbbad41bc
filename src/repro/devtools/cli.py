"""Command line for the lint pass.

Invoked as ``python -m repro.lint`` or ``repro lint`` (a subcommand of
:mod:`repro.cli`).  Exit codes follow the usual linter convention:
``0`` clean, ``1`` findings reported, ``2`` usage or configuration
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.devtools.config import LintConfig, load_config
from repro.devtools.rules import LintError, all_rules
from repro.devtools.runner import format_findings, lint_paths

#: Exit status when findings were reported.
EXIT_FINDINGS = 1
#: Exit status for usage/configuration errors.
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based reproducibility linter for the repro codebase "
            "(per-file rules RL001-RL010 and project-wide rules RL013 "
            "and RL015)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", dest="output_format",
        choices=("text", "json", "sarif"),
        default="text", help="output format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--config", metavar="PYPROJECT",
        help="explicit pyproject.toml to read [tool.repro-lint] from",
    )
    parser.add_argument(
        "--no-config", action="store_true",
        help="ignore pyproject.toml and use built-in defaults",
    )
    parser.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="additionally write findings as SARIF 2.1.0 to FILE",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[Sequence[str]]:
    if raw is None:
        return None
    return [c for c in (part.strip() for part in raw.split(",")) if c]


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    if args.no_config:
        base = LintConfig()
    else:
        base = load_config(pyproject=args.config)
    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    if select is None and ignore is None:
        return base
    return LintConfig(
        select=select if select is not None else base.select,
        ignore=ignore if ignore is not None else base.ignore,
        exclude=base.exclude,
        rng_modules=base.rng_modules,
        kernel_modules=base.kernel_modules,
        kernel_gates=base.kernel_gates,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code (0/1/2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:28s} {rule.description}")
        return 0
    try:
        config = _resolve_config(args)
        findings = lint_paths(args.paths, config)
    except LintError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.sarif is not None:
        from repro.devtools.analysis.sarif import format_sarif

        Path(args.sarif).write_text(
            format_sarif(findings) + "\n", encoding="utf-8"
        )
    print(format_findings(findings, args.output_format))
    return EXIT_FINDINGS if findings else 0
