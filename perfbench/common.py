"""Shared plumbing for the perfbench workloads.

Nothing here imports ``repro``: :func:`prepare_environment` must run
first, because it pins the environment variables the package reads at
import time and points the native-scan compile cache inside the
checkout.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Set

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under this directory.
WORK = ROOT / ".bench_build" / "perfbench"
CONFIG_PATH = BENCH_DIR / "config.json"

#: Program switches pinned for every run (value ``None`` = unset).
PINNED_ENV = {
    "REPRO_ANALYSIS_CACHE": None,
    "REPRO_ANALYSIS_MEMO": "1",
    "REPRO_NATIVE_SCAN": "1",
    "REPRO_BENCH_SLOTS": None,
}


class BenchError(RuntimeError):
    """The benchmark cannot produce trustworthy numbers."""


def load_config() -> Dict[str, Any]:
    with open(CONFIG_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def prepare_environment() -> Dict[str, Any]:
    """Pin the program's switches and thread counts; returns the record.

    Must run before ``repro`` is imported.  The native scan compiles
    into ``TMPDIR``, which is pointed at the checkout's build directory
    so the shared object is built once and reused by later runs.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    nproc = os.cpu_count() or 1
    native_tmp = WORK / "tmp"
    native_tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(native_tmp)
    os.environ["OMP_NUM_THREADS"] = str(nproc)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {
        "nproc": nproc,
        "omp_num_threads": nproc,
        "env": {k: os.environ.get(k, "unset") for k in PINNED_ENV},
    }


def require_native() -> Dict[str, Any]:
    """Load (compiling if needed) the native scan; fail without OpenMP."""
    from repro.sim._native import get_native_scan

    scan = get_native_scan()
    if scan is None:
        raise BenchError("native scan unavailable; refusing numpy-path numbers")
    if not getattr(scan, "openmp", False):
        raise BenchError("native scan built without OpenMP")
    return {"native": True, "openmp": True}


def native_objects() -> Set[pathlib.Path]:
    """The compiled native-scan objects in the benchmark's compile cache."""
    return set((WORK / "tmp").rglob("*.so"))


def fresh_run_dir(workload: str, seed: int) -> pathlib.Path:
    """A new empty scratch directory for one run (caches, sockets)."""
    path = WORK / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mean_ms(summary: Dict[str, Dict[str, float]], name: str) -> float:
    """Mean span duration of ``name`` in ms (0 when it never ran)."""
    slot = summary.get(name, {})
    return 1000.0 * ratio(slot.get("total_s", 0.0), slot.get("count", 0))


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def timed_setup(build: Callable[[], Any], repeats: int) -> "tuple[Any, List[float]]":
    """Run ``build`` ``repeats`` times; return (last state, seconds of each).

    The last state is the one the timed segment uses; earlier ones are
    closed (if they have a ``close``) before the next build starts.
    """
    durations: List[float] = []
    state: Optional[Any] = None
    for _ in range(max(repeats, 1)):
        if state is not None and hasattr(state, "close"):
            state.close()
        start = time.perf_counter()
        state = build()
        durations.append(time.perf_counter() - start)
    return state, durations


class Checks:
    """Correctness checks; every failed check counts as a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


class Outcome:
    """What one workload run hands back to run.py."""

    def __init__(self) -> None:
        self.ops = 0
        self.op_failures = 0
        self.checks = Checks()
        self.metrics: Dict[str, float] = {}
        self.report: Dict[str, Any] = {}

    @property
    def attempted(self) -> int:
        return self.ops + self.checks.attempted

    @property
    def failed(self) -> int:
        return self.op_failures + self.checks.failed


def forbid_forks(outcome: Outcome, counters: Dict[str, int]) -> None:
    """A run that forked a worker pool is not a single-process run.

    ``counters`` are the program's ``parallel.dispatch.*`` counters: all
    of them in a traced run, the mode of the last dispatch otherwise.
    """
    dispatch = {k: v for k, v in counters.items() if k.startswith("parallel.dispatch.")}
    outcome.report["parallel_dispatch"] = dispatch
    outcome.checks.expect(
        dispatch.get("parallel.dispatch.parallel", 0) == 0,
        f"worker pool forked: {dispatch}",
    )
