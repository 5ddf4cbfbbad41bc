"""Run telemetry: counters, timers and tagged events for every run.

The perf stack (vectorized kernels, the analysis memo, the
auto-serial parallel dispatch) makes decisions the user cannot see from
results alone — which backend ran, why a fallback fired, whether the
memo hit, whether ``parallel_map`` actually forked.  This module is the
single observability channel for all of them:

* **counters** — monotone named integers (``analysis.memo.hit``);
* **timers**   — named ``(count, total_seconds)`` accumulators;
* **events**   — tagged dicts in arrival order (backend dispatches,
  fallback reasons, fork-vs-serial decisions, simulation runs).

Collection is explicitly scoped::

    from repro.devtools import telemetry

    with telemetry.collect() as t:
        simulate_single(...)
    print(t.counters, t.events)

Outside a :func:`collect` block every instrumentation call is a no-op
behind a single truthiness check on a module-level list, so hot paths
pay effectively nothing when telemetry is off (asserted < 2% of the
simulation hot path by ``tests/devtools/test_telemetry.py``).  Telemetry
never touches the RNG or any numeric code path, so results are
bit-identical with collection enabled or disabled.

Process-merge safety
--------------------
``parallel_map`` forks workers.  When a collector is active at fork
time, each child item runs inside an *isolated frame*
(:func:`isolated_collect`): the frame captures only that item's
telemetry, the snapshot travels back over the existing result pipe, and
the parent merges it with :func:`absorb` — so serial and parallel runs
of the same workload report identical counter totals (asserted in
tests).  Nested :func:`collect` blocks merge into their parent on exit
for the same reason.

Dispatch records
----------------
:func:`record_dispatch` additionally stores the record in a
context-local slot *regardless* of whether a collector is active; read
it back with :func:`last_dispatch_record`.  Records are written when a
``parallel_map`` call *completes*, so nested or back-to-back calls no
longer clobber each other mid-flight and a failed call reports its own
failure rather than stale data from the previous run.

Manifests
---------
:func:`build_manifest` turns a snapshot into a JSON run manifest —
package versions, the recorded simulation runs with their parameters
and :func:`describe_seed` seed provenance, and the full telemetry
payload — validated by :func:`validate_manifest` (schema version
:data:`MANIFEST_SCHEMA_VERSION`).  The CLI exposes this as
``--telemetry out.json`` on ``solve`` / ``simulate`` /
``experiment``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import platform
import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ReproError

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "TelemetryCollection",
    "TelemetryError",
    "absorb",
    "build_manifest",
    "collect",
    "count",
    "describe_seed",
    "enabled",
    "event",
    "isolated_collect",
    "last_dispatch_record",
    "record_dispatch",
    "timed",
    "validate_manifest",
    "write_manifest",
]

#: Version stamp written into every run manifest; bump on shape changes.
MANIFEST_SCHEMA_VERSION = 1

#: Hard cap on buffered events per collection, so a long sweep cannot
#: grow memory without bound; overflow increments ``telemetry.dropped``.
_MAX_EVENTS = 10_000


class TelemetryError(ReproError):
    """Raised for malformed manifests or invalid telemetry payloads."""


class TelemetryCollection:
    """One collection frame: counters, timers and events.

    Instances are yielded by :func:`collect` and stay readable after the
    block exits.  ``counters`` maps name -> int, ``timers`` maps
    name -> ``{"count": int, "total_seconds": float}``, ``events`` is a
    list of tagged dicts (each has at least ``"kind"``).
    """

    __slots__ = ("counters", "timers", "events")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, Dict[str, float]] = {}
        self.events: List[Dict[str, Any]] = []

    # -- recording -----------------------------------------------------
    def add_count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_timing(self, name: str, seconds: float) -> None:
        """Fold one measured duration into timer ``name``."""
        slot = self.timers.get(name)
        if slot is None:
            self.timers[name] = {"count": 1, "total_seconds": float(seconds)}
        else:
            slot["count"] += 1
            slot["total_seconds"] += float(seconds)

    def add_event(self, record: Dict[str, Any]) -> None:
        """Append one tagged event, honouring the buffer cap."""
        if len(self.events) >= _MAX_EVENTS:
            self.add_count("telemetry.dropped")
            return
        self.events.append(record)

    # -- merge / export ------------------------------------------------
    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` payload into this collection.

        Counter values and timer accumulators add; events append in the
        snapshot's order.  Used both by nested :func:`collect` frames on
        exit and by the parent side of a ``parallel_map`` fork.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.add_count(name, int(value))
        for name, slot in snapshot.get("timers", {}).items():
            existing = self.timers.get(name)
            if existing is None:
                self.timers[name] = {
                    "count": int(slot["count"]),
                    "total_seconds": float(slot["total_seconds"]),
                }
            else:
                existing["count"] += int(slot["count"])
                existing["total_seconds"] += float(slot["total_seconds"])
        for record in snapshot.get("events", ()):
            self.add_event(dict(record))

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) copy of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "timers": {k: dict(v) for k, v in self.timers.items()},
            "events": [dict(e) for e in self.events],
        }


#: Active collection frames, innermost last.  Plain module state: forked
#: children inherit a copy (their writes stay child-local and travel
#: back explicitly as snapshots), and the library's execution model is
#: single-threaded per process.
_COLLECTORS: List[TelemetryCollection] = []

#: Most recent parallel-dispatch record of the calling context; written
#: on completion of every ``parallel_map`` call, collector or not.
_DISPATCH: ContextVar[Optional[Dict[str, Any]]] = ContextVar(
    "repro_telemetry_dispatch", default=None
)


def enabled() -> bool:
    """True while at least one :func:`collect` frame is active."""
    return bool(_COLLECTORS)


def count(name: str, n: int = 1) -> None:
    """Increment a named counter; no-op without an active collector."""
    if _COLLECTORS:
        _COLLECTORS[-1].add_count(name, n)


def event(kind: str, **tags: Any) -> None:
    """Record a tagged event; no-op without an active collector."""
    if _COLLECTORS:
        record: Dict[str, Any] = {"kind": kind}
        record.update(tags)
        _COLLECTORS[-1].add_event(record)


@contextlib.contextmanager
def timed(name: str) -> Iterator[None]:
    """Time the enclosed block into timer ``name`` when collecting.

    Without an active collector the body runs untimed — not even a
    clock read is paid.
    """
    if not _COLLECTORS:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        if _COLLECTORS:
            _COLLECTORS[-1].add_timing(name, elapsed)


def record_dispatch(record: Dict[str, Any]) -> None:
    """Store a completed ``parallel_map`` dispatch record.

    Always updates the context-local "most recent dispatch" slot (read
    by :func:`last_dispatch_record`); when a collector is
    active the record is additionally appended as a
    ``parallel_dispatch`` event and counted under
    ``parallel.dispatch.<mode>``.
    """
    _DISPATCH.set(dict(record))
    if _COLLECTORS:
        top = _COLLECTORS[-1]
        top.add_count(f"parallel.dispatch.{record.get('mode', 'unknown')}")
        tagged: Dict[str, Any] = {"kind": "parallel_dispatch"}
        tagged.update(record)
        top.add_event(tagged)


def last_dispatch_record() -> Dict[str, Any]:
    """Copy of the calling context's most recent dispatch record.

    ``{"mode": "none"}`` before any ``parallel_map`` call has completed
    in this context.
    """
    record = _DISPATCH.get()
    return dict(record) if record is not None else {"mode": "none"}


@contextlib.contextmanager
def collect() -> Iterator[TelemetryCollection]:
    """Activate telemetry collection for the enclosed block.

    Yields the live :class:`TelemetryCollection`; it remains readable
    after the block exits.  Frames nest: an inner frame sees only its
    own span and merges into the enclosing frame on exit, so outer
    totals always cover the whole block.
    """
    frame = TelemetryCollection()
    _COLLECTORS.append(frame)
    try:
        yield frame
    finally:
        popped = _COLLECTORS.pop()
        if _COLLECTORS:
            _COLLECTORS[-1].merge(popped.snapshot())


@contextlib.contextmanager
def isolated_collect() -> Iterator[TelemetryCollection]:
    """A collection frame that does *not* merge into its parent on exit.

    Used by forked ``parallel_map`` workers: the child records one
    item's telemetry into the isolated frame and ships the snapshot back
    to the parent, which merges it with :func:`absorb`.  Merging into
    the (fork-copied) parent frame as well would double-count once the
    snapshot lands.
    """
    frame = TelemetryCollection()
    _COLLECTORS.append(frame)
    try:
        yield frame
    finally:
        _COLLECTORS.pop()


def absorb(snapshot: Optional[Dict[str, Any]]) -> None:
    """Merge a child-process snapshot into the active collector, if any."""
    if snapshot and _COLLECTORS:
        _COLLECTORS[-1].merge(snapshot)


# ----------------------------------------------------------------------
# Seed provenance
# ----------------------------------------------------------------------
def describe_seed(seed: Any) -> Dict[str, Any]:
    """JSON-safe provenance of a ``SeedLike`` value.

    For a :class:`numpy.random.SeedSequence` the entropy and spawn key
    pin the exact stream; for an integer the value itself does.  A
    ready-made Generator carries no recoverable provenance and ``None``
    means OS entropy — both are reported as irreproducible.
    """
    import numpy as np

    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        return {
            "type": "seed_sequence",
            "entropy": int(entropy) if isinstance(entropy, int) else
            [int(x) for x in entropy] if entropy is not None else None,
            "spawn_key": [int(k) for k in seed.spawn_key],
        }
    if isinstance(seed, (int,)) and not isinstance(seed, bool):
        return {"type": "int", "entropy": int(seed)}
    if isinstance(seed, np.random.Generator):
        return {"type": "generator", "reproducible": False}
    if seed is None:
        return {"type": "os_entropy", "reproducible": False}
    return {"type": type(seed).__name__, "reproducible": False}


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
def _package_versions() -> Dict[str, str]:
    import numpy

    versions = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        import scipy

        versions["scipy"] = scipy.__version__
    except ImportError:  # pragma: no cover - scipy ships with the repo
        pass
    return versions


def build_manifest(
    snapshot: Dict[str, Any],
    command: Optional[str] = None,
    arguments: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a JSON run manifest from a telemetry snapshot.

    The manifest carries the schema version, the host package versions,
    the invoking command and its arguments, the ``simulation_run``
    events (each with parameters and seed provenance, recorded by every
    ``SimulationResult``-producing entry point) and the complete
    telemetry payload.
    """
    runs = [
        record for record in snapshot.get("events", ())
        if record.get("kind") == "simulation_run"
    ]
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "generated_unix": time.time(),
        "versions": _package_versions(),
        "command": command,
        "arguments": dict(arguments) if arguments else {},
        "runs": runs,
        "telemetry": {
            "counters": dict(snapshot.get("counters", {})),
            "timers": {
                k: dict(v) for k, v in snapshot.get("timers", {}).items()
            },
            "events": [dict(e) for e in snapshot.get("events", ())],
        },
    }


#: Required manifest keys and the types accepted for each.
_MANIFEST_FIELDS: Tuple[Tuple[str, Tuple[type, ...]], ...] = (
    ("schema_version", (int,)),
    ("generated_unix", (int, float)),
    ("versions", (dict,)),
    ("command", (str, type(None))),
    ("arguments", (dict,)),
    ("runs", (list,)),
    ("telemetry", (dict,)),
)


def validate_manifest(manifest: Any) -> None:
    """Structurally validate a run manifest; raises :class:`TelemetryError`.

    This is the same check the CI smoke step runs against the
    ``--telemetry`` output, so a manifest that loads and validates here
    is guaranteed to have the documented shape.
    """
    if not isinstance(manifest, dict):
        raise TelemetryError(
            f"manifest must be a JSON object, got {type(manifest).__name__}"
        )
    for name, types in _MANIFEST_FIELDS:
        if name not in manifest:
            raise TelemetryError(f"manifest missing required key {name!r}")
        if not isinstance(manifest[name], types):
            raise TelemetryError(
                f"manifest key {name!r} has type "
                f"{type(manifest[name]).__name__}, expected "
                f"{' or '.join(t.__name__ for t in types)}"
            )
    if manifest["schema_version"] != MANIFEST_SCHEMA_VERSION:
        raise TelemetryError(
            f"manifest schema_version {manifest['schema_version']} != "
            f"supported {MANIFEST_SCHEMA_VERSION}"
        )
    telemetry_section = manifest["telemetry"]
    for key, expected in (
        ("counters", dict), ("timers", dict), ("events", list)
    ):
        if not isinstance(telemetry_section.get(key), expected):
            raise TelemetryError(
                f"manifest telemetry.{key} missing or not a "
                f"{expected.__name__}"
            )
    for record in manifest["runs"]:
        if not isinstance(record, dict) or "entry" not in record:
            raise TelemetryError(
                "manifest runs entries must be objects with an 'entry' key"
            )


def write_manifest(
    path: str,
    snapshot: Dict[str, Any],
    command: Optional[str] = None,
    arguments: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build, validate and write a run manifest; returns the manifest."""
    manifest = build_manifest(snapshot, command=command, arguments=arguments)
    validate_manifest(manifest)
    pathlib.Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    )
    return manifest
