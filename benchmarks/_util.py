"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table/figure of the paper, prints the
series (visible with ``pytest -s``) and archives them under
``benchmarks/results/`` so EXPERIMENTS.md can reference a concrete run.
Benchmarks use ``benchmark.pedantic(..., rounds=1)`` — the interesting
output is the figure data; wall-clock time is reported as a bonus.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(name: str, text: str) -> None:
    """Print a result block and archive it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
