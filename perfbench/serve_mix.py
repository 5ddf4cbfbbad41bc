"""serve_mix: seeded HTTP traffic against a live ``repro serve`` process.

The server runs in its own process with the CLI defaults, a fresh cache
directory and a ``--store-mb`` smaller than the warm key working set, so
a steady share of hits come from the disk tier.  Set-up boots it and
pre-solves the warm clustering keys.  The traffic is mostly warm
``/solve``, some micro-batched ``/simulate`` and ``/sweep``, and a small
share of cold ``/solve`` requests on cheap families (greedy, periodic),
which write to the store beside the reads.  This is the only workload
that reaches ``serve`` and ``store``.

Two phases share the timed window, both sent from this one process:

* open loop — Poisson arrivals at the fixed offered rate of
  ``config.json`` over at most ``nproc`` connections; each latency is
  timed from the request's due time, so a stall also counts against the
  requests queued behind it (``latency_ms``, the median);
* closed loop — ``nproc`` connections each sending the next request as
  soon as the previous one returns (``throughput``, requests/s).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (BENCH_DIR, ROOT, SRC, BenchError, Outcome, mean_ms, median, percentile,
                    pid_peak_rss_mb, ratio)
from tracing import Tracer, load_spans

DELTA1, DELTA2 = 1.0, 6.0
CHEAP_CLUSTERING = {"max_candidates": 3, "refine": False, "top_k": 2}
WARM_SPECS = ("weibull:8,2", "weibull:12,2")
#: Below the warm keys' working set, so some hits come from the disk tier.
STORE_MB = 0.006
#: Share of each kind of request in the traffic.
MIX = {"solve": 0.80, "simulate": 0.10, "sweep": 0.04, "cold_solve": 0.06}
SIMULATE_HORIZON = 2000
SWEEP_HORIZON = 1000
SWEEP_RUNS = 32
#: Share of the timed window given to the open loop; the rest is closed.
OPEN_SHARE = 0.6
#: Closed-loop requests per second assumed when sizing that phase.
NOMINAL_RPS = 200
#: A ladder step fails when the generator falls this much further behind.
BACKLOG_LIMIT_MS = 20.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` child process."""

    def __init__(self, cache_dir: str, store_mb: float, log_path: str,
                 span_file: Optional[str] = None) -> None:
        self.port = _free_port()
        args = ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                "--cache-dir", cache_dir, "--store-mb", str(store_mb)]
        if span_file is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"), span_file, *args]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        # stderr goes to a file: a pipe nobody drains could block the server.
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env,
                                     stdout=subprocess.DEVNULL, stderr=self.log)
        deadline = time.monotonic() + 60.0
        while True:
            if self.proc.poll() is not None:
                self.log.close()
                with open(log_path, "rb") as fh:
                    tail = fh.read()[-2000:].decode(errors="replace")
                raise BenchError(f"server exited: {tail}")
            try:
                status, _ = request(self.port, "GET", "/healthz", None)
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.close()
                raise BenchError("server did not come up within 60 s")
            time.sleep(0.02)

    def stats(self) -> Dict[str, Any]:
        status, body = request(self.port, "GET", "/healthz", None)
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
        return body["stats"]

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.log.close()


def request(port: int, method: str, path: str,
            body: Optional[Dict[str, Any]]) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        return response.status, data
    finally:
        conn.close()


class ServeMix:
    name = "serve_mix"

    def __init__(self, seed: int, cfg: Dict[str, Any], run_dir: str, nproc: int) -> None:
        self.seed = seed
        self.cfg = cfg
        self.run_dir = run_dir
        self.connections = nproc
        rng = np.random.default_rng([seed, 303])
        self.warm_keys = [
            {"events": spec, "family": "clustering", "rate": round(float(rate), 6),
             "delta1": DELTA1, "delta2": DELTA2, "params": dict(CHEAP_CLUSTERING)}
            for spec, rate in zip(
                rng.choice(WARM_SPECS, size=int(cfg["warm_keys"])),
                rng.uniform(0.3, 0.9, size=int(cfg["warm_keys"])),
            )
        ]
        self._boots = 0

    # -- set-up --------------------------------------------------------
    def boot(self, span_file: Optional[str] = None) -> Server:
        self._boots += 1
        cache_dir = os.path.join(self.run_dir, f"cache-{self._boots}")
        log_path = os.path.join(self.run_dir, f"server-{self._boots}.log")
        server = Server(cache_dir, STORE_MB, log_path, span_file)
        try:
            for key in self.warm_keys:
                status, body = request(server.port, "POST", "/solve", key)
                if status != 200:
                    raise BenchError(f"pre-solve failed: {status} {body}")
            # Prime the validator, the micro-batch and sweep paths.
            for kind in ("simulate", "sweep"):
                request(server.port, "POST", f"/{kind}",
                        self._body(kind, self.warm_keys[0], 0))
        except BaseException:
            server.close()
            raise
        return server

    def setup(self) -> Server:
        return self.boot()

    # -- traffic -------------------------------------------------------
    def _body(self, kind: str, key: Dict[str, Any], n: int) -> Dict[str, Any]:
        if kind == "simulate":
            return dict(key, capacity=200.0, horizon=SIMULATE_HORIZON, seed=n)
        if kind == "sweep":
            return dict(key, capacity=200.0, horizon=SWEEP_HORIZON,
                        n_runs=SWEEP_RUNS, base_seed=n)
        return key

    def traffic(self, stream: int, n: int) -> List[Tuple[str, Dict[str, Any]]]:
        """``n`` seeded requests: (path, body)."""
        rng = np.random.default_rng([self.seed, 404, stream])
        kinds = list(MIX)
        weights = np.array([MIX[k] for k in kinds], dtype=float)
        picks = rng.choice(len(kinds), size=n, p=weights / weights.sum())
        out = []
        for i, pick in enumerate(picks):
            kind = kinds[int(pick)]
            key = self.warm_keys[int(rng.integers(len(self.warm_keys)))]
            if kind == "cold_solve":
                family = "greedy" if rng.random() < 0.5 else "periodic"
                body = {"events": "weibull:40,3", "family": family,
                        "rate": float(rng.uniform(0.2, 0.9)),
                        "delta1": DELTA1, "delta2": DELTA2}
                out.append(("/solve", body))
            elif kind == "solve":
                out.append(("/solve", key))
            else:
                out.append((f"/{kind}", self._body(kind, key, stream * 1_000_000 + i)))
        return out

    def _send(self, port: int, path: str, body: Dict[str, Any],
              log: List[Tuple[str, Dict[str, Any], int, Dict[str, Any]]],
              failures: List[str]) -> int:
        try:
            status, data = request(port, "POST", path, body)
        except OSError as exc:
            failures.append(f"{path}: {exc!r}")
            return 0
        if status != 200:
            failures.append(f"{path}: HTTP {status} {data}")
        log.append((path, body, status, data))
        return status

    def open_loop(self, port: int, rate: float, seconds: float,
                  stream: int) -> Dict[str, Any]:
        """Poisson arrivals at ``rate``/s; latency from each due time."""
        rng = np.random.default_rng([self.seed, 505, stream])
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 10)
        due = np.cumsum(gaps)
        due = due[due < seconds]
        reqs = self.traffic(stream, len(due))
        latencies: List[float] = [0.0] * len(due)
        late: List[float] = [0.0] * len(due)
        log: List[Any] = []
        failures: List[str] = []
        lock = threading.Lock()
        cursor = [0]
        base = time.perf_counter() + 0.05

        def sender() -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(due):
                    return
                target = base + float(due[i])
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                path, body = reqs[i]
                status = self._send(port, path, body, log, failures)
                done = time.perf_counter()
                late[i] = sent - target
                # A failed request misses every latency limit.
                latencies[i] = done - target if status == 200 else float("inf")

        threads = [threading.Thread(target=sender) for _ in range(self.connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return {"latencies": latencies, "late": late, "log": log,
                "failures": failures, "n": len(due)}

    def closed_loop(self, port: int, stream: int, n_requests: int) -> Dict[str, Any]:
        """``connections`` clients, each sending as soon as it gets a reply."""
        reqs = self.traffic(stream, n_requests)
        log: List[Any] = []
        failures: List[str] = []
        lock = threading.Lock()
        cursor = [0]
        done_count = [0]
        start = time.perf_counter()

        def client() -> None:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(reqs):
                    return
                path, body = reqs[i]
                if self._send(port, path, body, log, failures) == 200:
                    with lock:
                        done_count[0] += 1

        threads = [threading.Thread(target=client) for _ in range(self.connections)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        return {"elapsed": elapsed, "completed": done_count[0], "log": log,
                "failures": failures, "n": len(reqs)}

    # -- checks --------------------------------------------------------
    def check(self, log: List[Any], outcome: Outcome) -> None:
        """Served bodies must equal direct calls for sampled requests."""
        from repro.energy.recharge import ConstantRecharge
        from repro.events.spec import parse_distribution
        from repro.serve.policies import policy_from_payload, solve_policy
        from repro.sim import simulate_single

        rng = np.random.default_rng([self.seed, 606])
        ok = [entry for entry in log if entry[2] == 200]
        n_checks = min(int(self.cfg["checks"]), len(ok))
        for j in rng.choice(len(ok), size=n_checks, replace=False):
            path, body, _status, data = ok[int(j)]
            dist = parse_distribution(body["events"])
            payload = solve_policy(dist, body["family"], body.get("rate"), DELTA1,
                                   DELTA2, dict(body.get("params", {})))
            outcome.checks.expect(
                data["policy"] == payload,
                f"{path} {body['events']} {body['family']} rate={body.get('rate')}: "
                "served policy != direct solve_policy",
            )
            if path == "/simulate":
                direct = simulate_single(
                    dist, policy_from_payload(payload), ConstantRecharge(body["rate"]),
                    capacity=body["capacity"], delta1=DELTA1, delta2=DELTA2,
                    horizon=body["horizon"], seed=body["seed"])
                outcome.checks.expect(
                    (data["qom"], data["n_events"], data["n_captures"],
                     data["aoi"]["time_average"])
                    == (direct.qom, direct.n_events, direct.n_captures,
                        direct.aoi.time_average),
                    f"/simulate seed={body['seed']}: served result != simulate_single",
                )

    def _account(self, phase: Dict[str, Any], outcome: Outcome) -> None:
        outcome.ops += phase["n"]
        outcome.op_failures += len(phase["failures"])
        outcome.report.setdefault("failures", []).extend(phase["failures"][:5])

    # -- the two kinds of run ------------------------------------------
    def run(self, server: Server, seconds: float, outcome: Outcome) -> None:
        cfg = self.cfg
        open_s = seconds * OPEN_SHARE
        opened = self.open_loop(server.port, float(cfg["offered_rps"]), open_s, stream=1)
        n_closed = max(1, round((seconds - open_s) * NOMINAL_RPS))
        closed = self.closed_loop(server.port, stream=2, n_requests=n_closed)
        outcome.metrics["peak_rss_mb"] = server.peak_rss_mb()
        self._account(opened, outcome)
        self._account(closed, outcome)
        outcome.metrics["throughput"] = closed["completed"] / closed["elapsed"]
        outcome.metrics["latency_ms"] = median(opened["latencies"]) * 1000.0
        outcome.report["serve_rps"] = outcome.metrics["throughput"]
        outcome.report["serve_p50_ms"] = outcome.metrics["latency_ms"]
        outcome.report["offered_rps"] = float(cfg["offered_rps"])
        outcome.report["open_requests"] = opened["n"]
        outcome.report["gen_late_ms_mean"] = 1000.0 * float(np.mean(opened["late"]))
        self.check(opened["log"] + closed["log"], outcome)

    def ladder(self, port: int) -> float:
        """Highest ladder rate meeting the p99 limit with no growing backlog."""
        cfg = self.cfg
        best = 0.0
        for step, rate in enumerate(cfg["ladder_rps"]):
            phase = self.open_loop(port, float(rate), float(cfg["ladder_step_s"]),
                                   stream=100 + step)
            p99 = percentile(phase["latencies"], 0.99) * 1000.0
            quarter = max(len(phase["late"]) // 4, 1)
            backlog = 1000.0 * (np.mean(phase["late"][-quarter:])
                                - np.mean(phase["late"][:quarter]))
            if phase["failures"] or p99 > float(cfg["p99_limit_ms"]) or \
                    backlog > BACKLOG_LIMIT_MS:
                break
            best = float(rate)
        return best

    def trace(self, server: Server, tracer: Tracer,
              outcome: Outcome) -> Tuple[float, float, Dict[str, int], Dict[str, Any]]:
        """Same closed-loop requests on an untraced and a traced server.

        The untraced server (the one set-up booted) also runs an open-loop
        phase for the tail figures and the rate ladder.  The traced server
        is started through ``serve_launcher.py``; its spans inside the
        traced window are loaded into ``tracer``.
        """
        cfg = self.cfg
        n = int(cfg["trace_requests"])
        untraced = self.closed_loop(server.port, stream=7, n_requests=n)
        opened = self.open_loop(server.port, float(cfg["offered_rps"]),
                                float(cfg["trace_open_s"]), stream=8)
        max_ok = self.ladder(server.port)
        server.close()
        span_file = os.path.join(self.run_dir, "server-spans.json")
        traced_server = self.boot(span_file)
        try:
            before = traced_server.stats()
            start = time.perf_counter()
            traced = self.closed_loop(traced_server.port, stream=7, n_requests=n)
            end = time.perf_counter()
            after = traced_server.stats()
        finally:
            traced_server.close()
        for phase in (untraced, opened, traced):
            self._account(phase, outcome)
        self.check(traced["log"], outcome)
        tracer.spans = [s for s in load_spans(span_file).spans if s[3] >= start]
        stats = {k: v - before.get(k, 0) for k, v in after.items()
                 if isinstance(v, int) and not isinstance(v, bool)}
        lat = opened["latencies"]
        result = {
            "window": (start, end), "stats": stats, "max_ok_rps": max_ok,
            "p99_ms": percentile(lat, 0.99) * 1000.0, "p99_samples": len(lat),
            "gen_late_ms": 1000.0 * float(np.mean(opened["late"])) if opened["late"] else 0.0,
        }
        return untraced["elapsed"], traced["elapsed"], {}, result

    def layer_metrics(self, result: Dict[str, Any], tracer: Tracer) -> Dict[str, float]:
        """Serve/store metrics from the traced server's spans and stats."""
        summary = tracer.summary()
        stats = result["stats"]
        lookups = (stats.get("store.memory.hit", 0) + stats.get("store.disk.hit", 0)
                   + stats.get("store.miss", 0))
        solves = stats.get("solve.computed", 0) + stats.get("solve.coalesced", 0)
        http = summary.get("serve.http", {})
        return {
            "serve.validate_ms": mean_ms(summary, "serve.validate"),
            "events.parse_ms": mean_ms(summary, "events.parse"),
            "serve.key_ms": mean_ms(summary, "serve.key"),
            "serve.http_self_ms": 1000.0 * ratio(http.get("self_s", 0.0), http.get("count", 0)),
            "store.lookup_ms": mean_ms(summary, "store.lookup"),
            "store.put_ms": mean_ms(summary, "store.put"),
            "store.memory_hit_ratio": ratio(stats.get("store.memory.hit", 0), lookups),
            "store.disk_hit_ratio": ratio(stats.get("store.disk.hit", 0), lookups),
            "store.miss_ratio": ratio(stats.get("store.miss", 0), lookups),
            "serve.coalesced_ratio": ratio(stats.get("solve.coalesced", 0), solves),
            "serve.batch_fill": ratio(stats.get("simulate.runs", 0),
                                      stats.get("simulate.batches", 0)),
            "serve.batch_wait_ms": max(mean_ms(summary, "serve.submit_run")
                                       - mean_ms(summary, "serve.run_batch"), 0.0),
            "sim.batch_call_ms": mean_ms(summary, "sim.batch_call"),
            "core.cold_solve_ms": mean_ms(summary, "core.cold_solve"),
            "serve.p99_ms": result["p99_ms"],
            "serve.p99_samples": float(result["p99_samples"]),
            "serve.gen_late_ms": result["gen_late_ms"],
            "serve.max_ok_rps": result["max_ok_rps"],
            "trace.coverage": tracer.coverage(*result["window"]),
        }
