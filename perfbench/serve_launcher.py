"""Run ``repro serve`` with spans around the server's entry points.

Usage: ``python serve_launcher.py SPAN_FILE serve --port ...`` — every
argument after the span file goes to the ``repro`` CLI unchanged.  The
spans are kept in memory and written to SPAN_FILE when the server stops
(SIGINT).  The untraced benchmark runs ``python -m repro serve``
directly; this launcher is used only by the traced run.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402


def _store_wrapper(tracer: Tracer, fn, name: str):
    """Span a TieredStore method only on the serve store, not the memo."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if getattr(self, "_prefix", "") != "serve.store":
            return fn(self, *args, **kwargs)
        with tracer.span(name):
            return fn(self, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    from repro.serve import schema, server, service
    from repro.store import tiered

    tracer.patch(server, "_handle_connection", "serve.http", request=True)
    for endpoint in ("solve", "simulate", "sweep"):
        tracer.patch(service.PolicyService, endpoint, "serve.endpoint")
    tracer.patch(schema, "validate", "serve.validate")
    tracer.patch(service, "parse_distribution", "events.parse")
    tracer.patch(service, "canonical_solve_key", "serve.key")
    tracer.patch(service, "solve_policy", "core.cold_solve")
    tracer.patch(service, "simulate_batch", "sim.batch_call")
    tracer.patch(service.PolicyService, "_submit_run", "serve.submit_run")
    tracer.patch(service.PolicyService, "_run_batch", "serve.run_batch")
    for method, name in (("lookup", "store.lookup"), ("put", "store.put")):
        original = tiered.TieredStore.__dict__[method]
        setattr(tiered.TieredStore, method, _store_wrapper(tracer, original, name))


def main(argv: list) -> int:
    span_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    from repro.cli import main as repro_main

    started = time.perf_counter()
    try:
        return repro_main(cli_args)
    finally:
        tracer.write(span_file, {"started": started, "stopped": time.perf_counter()})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
