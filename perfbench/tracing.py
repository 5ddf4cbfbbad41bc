"""In-memory spans recorded around calls into the program's layers.

The program itself carries no spans yet, so the benchmark records them
from outside: :meth:`Tracer.patch` swaps a module attribute or method
for a wrapper that opens a span around each call, and
:meth:`Tracer.restore` puts the originals back.  Each span has a name,
start, end, parent span and request id (spans of one request share it).
Spans stay in memory until :meth:`Tracer.write`.

Self time of a span is its duration minus the part of its interval
covered by its child spans.  Spans of one name nested inside a span of
the same name (a wrapper calling another wrapped entry point of the
same layer) are folded into the outer one when totals are taken.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
_REQUEST: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Tracer:
    """Span recorder; ``enabled=False`` makes every wrapper a pass-through."""

    def __init__(self) -> None:
        self.enabled = False
        # (id, parent, name, start, end, request)
        self.spans: List[Tuple[int, Optional[int], str, float, float, Optional[int]]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, request: bool = False) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        with self._lock:
            sid = next(self._ids)
        parent = _CURRENT.get()
        req_token = _REQUEST.set(sid) if request else None
        req = _REQUEST.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            if req_token is not None:
                _REQUEST.reset(req_token)
            with self._lock:
                self.spans.append((sid, parent, name, start, end, req))

    def wrap(self, fn: Callable[..., Any], name: str,
             request: bool = False) -> Callable[..., Any]:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name, request):
                    return await fn(*args, **kwargs)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name, request):
                return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              request: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, request))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        by_id = {s[0]: s for s in self.spans}
        children: Dict[int, List[Tuple[float, float]]] = {}
        for sid, parent, _name, start, end, _req in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: Dict[str, Dict[str, float]] = {}
        for sid, parent, name, start, end, _req in self.spans:
            if _has_ancestor_named(by_id, parent, name):
                continue
            duration = end - start
            slot = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            slot["count"] += 1
            slot["total_s"] += duration
            slot["self_s"] += duration - covered(children.get(sid, []), start, end)
        return out

    def extent(self) -> Tuple[float, float]:
        """(first start, last end) over all spans."""
        if not self.spans:
            return 0.0, 0.0
        return min(s[3] for s in self.spans), max(s[4] for s in self.spans)

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by top-level spans."""
        roots = [(s[3], s[4]) for s in self.spans if s[1] is None]
        return covered(roots, start, end) / max(end - start, 1e-12)

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        spans = [
            {"id": sid, "parent": parent, "name": name, "start": start,
             "end": end, "request": req}
            for sid, parent, name, start, end, req in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)


def untraced_then_traced(run_pass: Callable[[Tracer], Any], tracer: Tracer
                         ) -> Tuple[float, float, Dict[str, int], Any]:
    """Run the same fixed work with spans off, then on.

    Returns ``(untraced_s, traced_s, counters, result)``: the wall time
    of each pass, the program's telemetry counters of the traced pass
    alone, and what the traced pass returned.
    """
    from repro.devtools import telemetry

    start = time.perf_counter()
    run_pass(Tracer())
    untraced = time.perf_counter() - start
    tracer.enabled = True
    try:
        with telemetry.collect() as col:
            start = time.perf_counter()
            result = run_pass(tracer)
            traced = time.perf_counter() - start
    finally:
        tracer.enabled = False
    return untraced, traced, dict(col.counters), result


def _has_ancestor_named(by_id: Dict[int, Tuple], parent: Optional[int],
                        name: str) -> bool:
    while parent is not None:
        node = by_id.get(parent)
        if node is None:
            return False
        if node[2] == name:
            return True
        parent = node[1]
    return False


def covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def load_spans(path: str) -> Tracer:
    """Rebuild a tracer from a span file (e.g. one written by the server)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    tracer = Tracer()
    tracer.spans = [
        (s["id"], s["parent"], s["name"], s["start"], s["end"], s["request"])
        for s in data["spans"]
    ]
    return tracer


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the inner entry points of every layer the workloads reach.

    Top-level calls (a solve, a simulation, a request) get their spans
    from the workload code itself; these wrappers add the layers below.
    """
    from repro.adaptive import controller
    from repro.analysis.partial_info import PartialInfoSolver
    from repro.energy import recharge
    from repro.sim import _native, batch_kernel, chunked, engine, network

    tracer.patch(PartialInfoSolver, "analyse", "analysis.analyse")
    for method in ("scan", "scan_batch", "scan_network", "scan_network_batch"):
        tracer.patch(_native.NativeScan, method, "sim.scan")
    tracer.patch(engine, "generate_event_flags", "events.draw")
    tracer.patch(network, "generate_event_flags", "events.draw")
    tracer.patch(batch_kernel, "generate_event_flags_bulk", "events.draw")
    for cls in (recharge.ConstantRecharge, recharge.BernoulliRecharge):
        for method in ("sequence", "sequence_bulk"):
            if method in cls.__dict__:
                tracer.patch(cls, method, "energy.draw")
    tracer.patch(batch_kernel, "_bulk_recharge_rows", "energy.draw")
    tracer.patch(chunked.ChunkedSimulator, "run_chunk", "sim.chunked")
    tracer.patch(controller.AdaptiveController, "_fit", "adaptive.fit")
    tracer.patch(controller.AdaptiveController, "_solve", "adaptive.resolve")
    tracer.patch(controller, "optimize_clustering", "core.solve")
    tracer.patch(controller, "estimate_true_pmf", "adaptive.estimate")
