"""Command-line interface: ``python -m repro <command> ...``.

Three commands cover the common workflows without writing Python:

* ``solve``      — compute a policy (greedy FI / clustering PI / EBCW)
  for a named event model and recharge rate, print its structure and
  theoretical QoM.
* ``simulate``   — run the slotted simulator for a policy/model pair and
  print the capture statistics.
* ``experiment`` — regenerate one of the paper's figures as a table.
* ``serve``      — run the cache-first solve/simulate HTTP service
  (request coalescing + tiered policy store; see DESIGN.md §15).

Event models are specified as ``family:param1,param2`` — e.g.
``weibull:40,3``, ``pareto:2,10``, ``geometric:0.1``, ``markov:0.7,0.7``,
``deterministic:5``, ``uniform:3,7``, ``lognormal:3,0.4``, ``gamma:4,9``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.core.baselines import (
    AggressivePolicy,
    energy_balanced_period,
    solve_ebcw,
)
from repro.core.clustering import optimize_clustering
from repro.core.greedy import solve_greedy
from repro.energy.recharge import (
    BernoulliRecharge,
    ConstantRecharge,
    RechargeProcess,
)
from repro.events import InterArrivalDistribution, parse_distribution
from repro.devtools import telemetry
from repro.exceptions import EnergyError, ReproError
from repro.sim.engine import simulate_single


def parse_events(spec: str) -> InterArrivalDistribution:
    """Parse ``family:p1,p2`` into a distribution instance.

    Thin argparse adapter over :func:`repro.events.parse_distribution`
    (the grammar shared with the ``repro serve`` request schemas).
    """
    try:
        return parse_distribution(spec)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dynamic activation policies for event capture with "
            "rechargeable sensors (ICDCS 2012 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_telemetry_flag(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--telemetry", metavar="OUT.json", default=None,
            help="collect run telemetry (backend dispatch, cache hits, "
                 "fork decisions, seed provenance) and write a JSON run "
                 "manifest here; results are bit-identical either way",
        )

    lint = sub.add_parser(
        "lint",
        help="run the reproducibility linter (see 'repro lint --help')",
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro.devtools.cli")

    solve = sub.add_parser("solve", help="compute a policy and its QoM")
    solve.add_argument("--events", type=parse_events, required=True,
                       help="event model, e.g. weibull:40,3")
    solve.add_argument("--policy", choices=("greedy", "clustering", "ebcw"),
                       default="greedy")
    solve.add_argument("--rate", type=float, required=True,
                       help="mean recharge rate e (energy/slot)")
    solve.add_argument("--delta1", type=float, default=1.0)
    solve.add_argument("--delta2", type=float, default=6.0)
    solve.add_argument("--jobs", type=int, default=None,
                       help="worker processes for the clustering policy "
                            "search (-1 = all cores); results are "
                            "identical to a serial run")
    add_telemetry_flag(solve)

    simulate = sub.add_parser("simulate", help="run the slotted simulator")
    simulate.add_argument("--events", type=parse_events, required=True)
    simulate.add_argument(
        "--policy",
        choices=("greedy", "clustering", "aggressive", "periodic"),
        default="greedy",
    )
    simulate.add_argument("--rate", type=float, required=True)
    simulate.add_argument("--bernoulli-q", type=float, default=None,
                          help="use Bernoulli recharge with this q "
                               "(amount = rate/q); default constant rate")
    simulate.add_argument("--capacity", type=float, default=1000.0)
    simulate.add_argument("--horizon", type=int, default=1_000_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--delta1", type=float, default=1.0)
    simulate.add_argument("--delta2", type=float, default=6.0)
    simulate.add_argument("--backend",
                          choices=("auto", "reference", "vectorized"),
                          default="auto",
                          help="simulation engine (all are bit-identical)")
    simulate.add_argument("--replicates", type=int, default=None,
                          help="run this many independent replicates "
                               "(seeds spawned from --seed) through one "
                               "batched scan call and report the mean QoM "
                               "with a 95%% confidence interval")
    add_telemetry_flag(simulate)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper figure as a table"
    )
    experiment.add_argument(
        "figure",
        choices=("fig3a", "fig3b", "fig4a", "fig4b", "fig5-b02",
                 "fig5-b07", "fig6a", "fig6b", "aoi", "adaptive",
                 "theorem1", "all"),
    )
    experiment.add_argument(
        "--scenario",
        choices=("stationary", "changepoint", "drift"),
        default="stationary",
        help="truth process for the 'adaptive' figure",
    )
    experiment.add_argument(
        "--info",
        choices=("full", "partial"),
        default="full",
        help="information model for the 'adaptive' figure "
             "(partial uses censored-gap deconvolution and "
             "clustering re-solves)",
    )
    experiment.add_argument("--horizon", type=int, default=None)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker processes per figure sweep "
                                 "(-1 = all cores); results are identical "
                                 "to a serial run")
    experiment.add_argument("--output", default=None,
                            help="with 'all': write the markdown report here")
    experiment.add_argument("--plot", action="store_true",
                            help="also render an ASCII chart of the figure")
    experiment.add_argument("--backend",
                            choices=("auto", "reference", "vectorized"),
                            default="auto",
                            help="simulation engine for the fig6 "
                                 "multi-sensor sweeps (all are "
                                 "bit-identical)")
    add_telemetry_flag(experiment)

    serve = sub.add_parser(
        "serve",
        help="run the cache-first solve/simulate HTTP service",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="TCP port (default 8750; 0 = ephemeral)")
    serve.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk policy-store tier "
                            "(default: memory-only)")
    serve.add_argument("--store-mb", type=float, default=32.0,
                       help="byte budget of the in-memory policy store")
    serve.add_argument("--batch-window-ms", type=float, default=5.0,
                       help="window for packing concurrent /simulate "
                            "requests into one batched kernel call "
                            "(0 = no batching)")
    serve.add_argument("--telemetry-dir", default=None,
                       help="write one telemetry run manifest per request "
                            "into this directory")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    events = args.events
    if args.policy == "greedy":
        solution = solve_greedy(events, args.rate, args.delta1, args.delta2)
        active = np.nonzero(solution.activation > 1e-9)[0] + 1
        print(f"greedy pi*_FI({args.rate}) on {events!r}")
        if active.size:
            print(f"  active slots: {active[0]}..{active[-1]} "
                  f"({active.size} slots, "
                  f"{'saturated' if solution.saturated else 'budget-bound'})")
        else:
            print("  never activates (budget too small)")
        print(f"  QoM (energy assumption): {solution.qom:.4f}")
        print(f"  energy per renewal: {solution.energy_spent:.3f} "
              f"of budget {solution.budget:.3f}")
    elif args.policy == "clustering":
        solution = optimize_clustering(
            events, args.rate, args.delta1, args.delta2, n_jobs=args.jobs
        )
        p = solution.policy
        print(f"clustering pi'_PI({args.rate}) on {events!r}")
        print(f"  cooling 1..{p.n1 - 1} | hot {p.n1}..{p.n2} "
              f"(c={p.c_n1:.3f}) | cooling | recovery from {p.n3}")
        print(f"  QoM: {solution.qom:.4f}  drain: {solution.energy_rate:.4f}")
    else:
        solution = solve_ebcw(events, args.rate, args.delta1, args.delta2)
        print(f"EBCW({args.rate}) on {events!r}")
        print(f"  p1 = {solution.p1:.3f}, p0 = {solution.p0:.4f}")
        print(f"  QoM: {solution.qom:.4f}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    events = args.events
    if args.policy == "greedy":
        policy = solve_greedy(
            events, args.rate, args.delta1, args.delta2
        ).as_policy()
    elif args.policy == "clustering":
        policy = optimize_clustering(
            events, args.rate, args.delta1, args.delta2
        ).policy
    elif args.policy == "aggressive":
        policy = AggressivePolicy()
    else:
        policy = energy_balanced_period(
            events, args.rate, args.delta1, args.delta2
        )
    if args.bernoulli_q is not None:
        # Truthiness would silently ignore --bernoulli-q 0 (and 0 would
        # divide by zero below); reject it loudly instead.
        if not 0 < args.bernoulli_q <= 1:
            raise EnergyError(
                f"--bernoulli-q must be in (0, 1], got {args.bernoulli_q}"
            )
        recharge: RechargeProcess = BernoulliRecharge(
            args.bernoulli_q, args.rate / args.bernoulli_q
        )
    else:
        recharge = ConstantRecharge(args.rate)
    if args.replicates is not None:
        import dataclasses

        from repro.sim.batch import summarize
        from repro.sim.batch_kernel import RunSpec, simulate_batch
        from repro.sim.rng import spawn_seeds

        spec = RunSpec(
            distribution=events, policy=policy, recharge=recharge,
            capacity=args.capacity, delta1=args.delta1,
            delta2=args.delta2, horizon=args.horizon,
        )
        results = simulate_batch(
            [
                dataclasses.replace(spec, seed=s)
                for s in spawn_seeds(args.seed, args.replicates)
            ],
            backend=args.backend,
        )
        qom = summarize([r.qom for r in results])
        age = summarize([r.aoi.time_average for r in results])
        print(f"QoM over {qom.n} replicates: {qom}")
        print(f"Time-average age over {age.n} replicates: {age}")
        return 0
    result = simulate_single(
        events, policy, recharge,
        capacity=args.capacity, delta1=args.delta1, delta2=args.delta2,
        horizon=args.horizon, seed=args.seed, backend=args.backend,
    )
    print(result.summary())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments as exp

    kwargs = {}
    if args.horizon is not None:
        kwargs["horizon"] = args.horizon
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.jobs is not None:
        kwargs["n_jobs"] = args.jobs
    if args.figure == "theorem1":
        print(exp.format_example(exp.run_theorem1_example()))
        return 0
    if args.figure == "all":
        seed = kwargs.get("seed", exp.DEFAULT_SEED)
        text = exp.generate_report(
            output_path=args.output,
            horizon=kwargs.get("horizon"),
            seed=seed,
            n_jobs=args.jobs,
        )
        if args.output is None:
            print(text)
        else:
            print(f"wrote {args.output}")
        return 0
    runners = {
        "fig3a": lambda: exp.run_fig3("full", **kwargs),
        "fig3b": lambda: exp.run_fig3("partial", **kwargs),
        "fig4a": lambda: exp.run_fig4("weibull", **kwargs),
        "fig4b": lambda: exp.run_fig4("pareto", **kwargs),
        "fig5-b02": lambda: exp.run_fig5(b=0.2, **kwargs),
        "fig5-b07": lambda: exp.run_fig5(b=0.7, **kwargs),
        "fig6a": lambda: exp.run_fig6a(backend=args.backend, **kwargs),
        "fig6b": lambda: exp.run_fig6b(backend=args.backend, **kwargs),
        "aoi": lambda: exp.run_aoi("weibull", **kwargs),
        "adaptive": lambda: exp.run_adaptive(
            scenario=args.scenario, info=args.info, **kwargs
        ),
    }
    result = runners[args.figure]()
    print(result.format_table())
    if args.plot:
        from repro.viz import ascii_chart

        print()
        print(ascii_chart(result))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import PolicyService, serve_forever

    service = PolicyService(
        cache_dir=args.cache_dir,
        store_mb=args.store_mb,
        batch_window_ms=args.batch_window_ms,
        telemetry_dir=args.telemetry_dir,
    )
    serve_forever(service, host=args.host, port=args.port)
    return 0


def _manifest_arguments(args: argparse.Namespace) -> dict:
    """JSON-safe view of the parsed CLI arguments for the run manifest."""
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "telemetry"):
            continue
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_experiment(args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        # Forward everything (including option flags) to the linter's own
        # parser; argparse.REMAINDER alone cannot pass leading options.
        from repro.devtools.cli import main as lint_main

        return lint_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    telemetry_path = getattr(args, "telemetry", None)
    try:
        if telemetry_path is None:
            return _dispatch(args)
        with telemetry.collect() as collection:
            code = _dispatch(args)
        telemetry.write_manifest(
            telemetry_path,
            collection.snapshot(),
            command=args.command,
            arguments=_manifest_arguments(args),
        )
        print(f"wrote telemetry manifest {telemetry_path}")
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
