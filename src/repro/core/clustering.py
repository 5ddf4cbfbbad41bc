"""The heuristic clustering policy for partial information (paper Eq. 11).

The clustering policy divides the sensor's operation — measured in slots
since the last *captured* event — into three regions:

* **cooling** (``i < n1`` and ``n2 < i < n3``): sleep and accumulate
  energy;
* **hot** (``n1 <= i <= n2``): activate with high priority where the
  event hazard concentrates, with fractional probabilities ``c_n1`` /
  ``c_n2`` at the boundaries;
* **recovery** (``i >= n3``): activate aggressively (whenever energy
  allows) until a capture renews the schedule, recovering from missed
  events that full information would have revealed.

Following the paper, the region boundaries are found by a truncated
search: enumerate ``(n1, n2, n3)``, and for each structure scale the
boundary probabilities by a common factor ``lambda`` (bisected) so the
stationary energy drain meets the recharge rate ``e`` — the larger the
feasible ``lambda``, the larger the QoM, so the bisection takes the
largest feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.analysis.partial_info import (
    PartialInfoAnalysis,
    PartialInfoSolver,
    analyse_partial_info_policy,
)
from repro.core.greedy import solve_greedy
from repro.core.policy import InfoModel, VectorPolicy
from repro.events.base import InterArrivalDistribution
from repro.exceptions import PolicyError


class ClusteringPolicy(VectorPolicy):
    """The cooling / hot / recovery activation policy of Eq. 11."""

    def __init__(
        self,
        n1: int,
        n2: int,
        n3: int,
        c_n1: float = 1.0,
        c_n2: float = 1.0,
        c_n3: float = 1.0,
    ) -> None:
        if not 1 <= n1 <= n2 <= n3:
            raise PolicyError(
                f"need 1 <= n1 <= n2 <= n3, got ({n1}, {n2}, {n3})"
            )
        for name, value in (("c_n1", c_n1), ("c_n2", c_n2), ("c_n3", c_n3)):
            if not 0.0 <= value <= 1.0:
                raise PolicyError(f"{name} must be in [0, 1], got {value}")
        self.n1, self.n2, self.n3 = int(n1), int(n2), int(n3)
        self.c_n1, self.c_n2, self.c_n3 = float(c_n1), float(c_n2), float(c_n3)

        vector = np.zeros(self.n3)
        if self.n1 == self.n2:
            # Degenerate hot region: the single hot slot is simultaneously
            # the n1 and n2 boundary, so the two boundary probabilities
            # must agree (the slot takes their common value).  Accepting
            # contradictory values and silently ignoring c_n2 — the old
            # behaviour — made the policy round-trip inconsistently
            # through scaled(), so contradictions are now rejected.
            # np.isclose(c_n1, c_n2, rtol=1e-9, atol=1e-12), in scalar form.
            if not abs(self.c_n1 - self.c_n2) <= 1e-12 + 1e-9 * abs(self.c_n2):
                raise PolicyError(
                    f"degenerate hot region (n1 == n2 == {self.n1}) needs "
                    f"c_n1 == c_n2; got c_n1={self.c_n1!r}, "
                    f"c_n2={self.c_n2!r}"
                )
            vector[self.n1 - 1] = self.c_n1
        else:
            vector[self.n1 - 1] = self.c_n1
            vector[self.n1 : self.n2 - 1] = 1.0
            vector[self.n2 - 1] = self.c_n2
        # Recovery entry; when n3 coincides with the hot region keep the
        # larger of the two boundary probabilities.
        vector[self.n3 - 1] = max(vector[self.n3 - 1], self.c_n3)
        super().__init__(vector, tail=1.0, info_model=InfoModel.PARTIAL)

    def scaled(self, factor: float) -> "ClusteringPolicy":
        """Copy with all three boundary probabilities scaled by ``factor``."""
        if not 0.0 <= factor <= 1.0:
            raise PolicyError(f"scale factor must be in [0, 1], got {factor}")
        return ClusteringPolicy(
            self.n1,
            self.n2,
            self.n3,
            c_n1=self.c_n1 * factor,
            c_n2=self.c_n2 * factor,
            c_n3=self.c_n3 * factor,
        )

    def __repr__(self) -> str:
        return (
            f"ClusteringPolicy(n1={self.n1}, n2={self.n2}, n3={self.n3}, "
            f"c_n1={self.c_n1:.3f}, c_n2={self.c_n2:.3f}, c_n3={self.c_n3:.3f})"
        )


@dataclass(frozen=True)
class ClusteringSolution:
    """An optimised clustering policy with its stationary analysis."""

    policy: ClusteringPolicy
    analysis: PartialInfoAnalysis

    @property
    def qom(self) -> float:
        """Energy-assumption QoM ``U(pi'_PI(e))``."""
        return self.analysis.qom

    @property
    def energy_rate(self) -> float:
        return self.analysis.energy_rate


def evaluate_clustering(
    distribution: InterArrivalDistribution,
    policy: ClusteringPolicy,
    delta1: float,
    delta2: float,
    **analysis_kwargs,
) -> PartialInfoAnalysis:
    """Stationary analysis of a clustering policy (QoM + energy rate)."""
    return analyse_partial_info_policy(
        distribution,
        policy.vector,
        delta1,
        delta2,
        tail=policy.tail,
        **analysis_kwargs,
    )


def _boundary_candidates(
    distribution: InterArrivalDistribution,
    e: float,
    delta1: float,
    delta2: float,
    max_candidates: int,
) -> tuple[list[int], list[int], list[int]]:
    """Candidate ``n1``/``n2``/``n3`` grids anchored on the FI optimum.

    The greedy full-information solution marks the slots worth paying
    for; its activation support is the natural hot region, which partial
    information can only shrink or shift slightly.  Quantile-based
    candidates cover distributions where the FI support is degenerate.
    """
    greedy = solve_greedy(distribution, e, delta1, delta2)
    # Only anchor on slots the renewal actually reaches with non-trivial
    # probability: the truncated tail's folded final slot has hazard 1 and
    # is picked up by the greedy solver, but it is reached with negligible
    # probability and would poison the grid.
    reachable = distribution.quantile(0.999)
    activation = greedy.activation.copy()
    activation[reachable:] = 0.0
    support = np.nonzero(activation > 1e-9)[0] + 1
    anchors: set[int] = set()
    if support.size:
        lo, hi = int(support[0]), int(support[-1])
        anchors.update({lo, hi})
        anchors.update(
            int(v)
            for v in np.linspace(lo, hi, num=min(6, hi - lo + 1), dtype=int)
        )
    for q in (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99):
        anchors.add(distribution.quantile(q))
    anchors = {a for a in anchors if 1 <= a <= reachable}
    base = sorted(anchors)
    if len(base) > max_candidates:
        idx = np.linspace(0, len(base) - 1, num=max_candidates, dtype=int)
        base = sorted({base[i] for i in idx})
    # Recovery entry offsets *relative to n2*.  Two scales matter: the
    # event time scale mu (how soon a missed event recurs) and the energy
    # replenish time (delta1 + delta2) / e (how long the cooling region
    # must bank to fund recovery activations) — for frequent events and
    # scarce energy the latter dominates.
    mu = distribution.mu
    replenish = (delta1 + delta2) / max(e, 1e-9)
    n3_offsets = sorted(
        {
            0,
            1,
            int(round(mu / 4)),
            int(round(mu / 2)),
            int(round(mu)),
            int(round(2 * mu)),
            int(round(replenish)),
            int(round(2 * replenish)),
            int(round(4 * replenish)),
            int(round(8 * replenish)),
        }
    )
    return base, base, n3_offsets


def optimize_clustering(
    distribution: InterArrivalDistribution,
    e: float,
    delta1: float,
    delta2: float,
    max_candidates: int = 10,
    refine: bool = True,
    tail_rel_eps: float = 1e-4,
    screen_eps: float = 3e-3,
    top_k: int = 6,
    n_jobs: Optional[int] = None,
) -> ClusteringSolution:
    """Search for the best clustering policy under the energy budget ``e``.

    Implements the paper's truncated search: enumerate region boundaries
    ``(n1, n2, n3)``; for each structure bisect the common boundary scale
    ``lambda`` to the largest value whose stationary energy drain stays
    within ``e``; keep the structure with the highest QoM.

    For speed the search runs in two fidelities: every structure is
    *screened* with a loose chain-analysis tolerance (``screen_eps``) and
    a short bisection, then the ``top_k`` structures — plus, with
    ``refine=True``, a neighbourhood of the winner — are re-optimised at
    full tolerance (``tail_rel_eps``).

    Structures are enumerated in ``(n1, n2, n3)`` order and analysed on a
    shared :class:`~repro.analysis.partial_info.PartialInfoSolver`.
    ``n_jobs`` fans the screening pass out over worker processes
    (contiguous structure blocks, one solver each); results are
    bit-identical for every ``n_jobs``.
    """
    if e <= 0:
        # e == 0 would stretch the n3 extension below to ~1e10 slots.
        raise PolicyError(f"mean recharge rate must be > 0, got {e}")

    solver = PartialInfoSolver(distribution, delta1, delta2)
    n1s, n2s, n3_offsets = _boundary_candidates(
        distribution, e, delta1, delta2, max_candidates
    )
    structures = list(_structures(n1s, n2s, n3_offsets))

    # With a very small recharge rate even an empty hot region plus the
    # aggressive recovery tail can exceed the budget for the enumerated
    # n3 values; stretching the cooling region (larger n3) always lowers
    # the long-run drain, so extend n3 geometrically until feasible.
    scored = _screen(
        distribution, e, delta1, delta2, structures, screen_eps,
        n_jobs=n_jobs, solver=solver,
    )
    k = 4.0
    scale = max(distribution.mu, (delta1 + delta2) / max(e, 1e-9))
    while not scored and k <= 4096:
        far_offset = [max(int(round(k * scale)), 1)]
        scored = _screen(
            distribution,
            e,
            delta1,
            delta2,
            list(_structures(n1s, n2s, far_offset)),
            screen_eps,
            n_jobs=n_jobs,
            solver=solver,
        )
        k *= 2.0
    if not scored:
        raise PolicyError(
            f"no feasible clustering policy for recharge rate e={e}; "
            "even a single fractional hot slot exceeds the budget"
        )

    scored.sort(key=lambda item: -item[0])
    if refine:
        # Explore the winner's neighbourhood, still at screening
        # fidelity, and merge it into the ranking.
        _, (n1, n2, n3) = scored[0]
        n1s = _around(n1, 1, distribution.support_max)
        n2s = _around(n2, 1, distribution.support_max)
        n3s = sorted({max(n3 + d, 1) for d in (-2, -1, 0, 1, 2, 5, 10)})
        seen = {s for _, s in scored}
        neighbourhood = [
            (a, b, c)
            for a in n1s
            for b in n2s
            for c in n3s
            if a <= b <= c and (a, b, c) not in seen
        ]
        scored.extend(
            _screen(
                distribution, e, delta1, delta2, neighbourhood, screen_eps,
                n_jobs=n_jobs, solver=solver,
            )
        )
        scored.sort(key=lambda item: -item[0])

    finalists = [s for _, s in scored[:top_k]]
    best = _search(
        distribution, e, delta1, delta2, finalists, None, tail_rel_eps,
        solver=solver,
    )
    if best is None:  # pragma: no cover - screening guarantees a finalist
        raise PolicyError("screened structures all became infeasible")
    return best


def _screen_group(
    task: tuple,
    solver: Optional[PartialInfoSolver] = None,
) -> list[tuple[float, tuple[int, int, int]]]:
    """Score one contiguous block of structures on one solver."""
    distribution, e, delta1, delta2, structures, screen_eps = task
    if solver is None:
        solver = PartialInfoSolver(distribution, delta1, delta2)
    scored: list[tuple[float, tuple[int, int, int]]] = []
    for structure in structures:
        candidate = _best_for_structure(
            distribution,
            e,
            delta1,
            delta2,
            *structure,
            tail_rel_eps=screen_eps,
            bisect_iters=6,
            solver=solver,
        )
        if candidate is not None:
            scored.append((candidate.qom, structure))
    return scored


def _screen(
    distribution: InterArrivalDistribution,
    e: float,
    delta1: float,
    delta2: float,
    structures: list[tuple[int, int, int]],
    screen_eps: float,
    n_jobs: Optional[int] = None,
    solver: Optional[PartialInfoSolver] = None,
) -> list[tuple[float, tuple[int, int, int]]]:
    """Loose-tolerance scoring pass; returns (qom, structure) pairs.

    With ``n_jobs > 1`` the structure list is split into contiguous
    blocks, one per worker.  Each structure's score depends
    only on the structure itself, so serial and parallel runs return
    bit-identical lists in the same order.
    """
    # Imported lazily: repro.sim's package init reaches back into
    # repro.core (network -> multi -> clustering), so a module-level
    # import here would be circular.
    from repro.sim.parallel import parallel_map, resolve_n_jobs

    jobs = min(resolve_n_jobs(n_jobs), len(structures)) if structures else 1
    if jobs <= 1:
        return _screen_group(
            (distribution, e, delta1, delta2, structures, screen_eps),
            solver=solver,
        )
    bounds = np.linspace(0, len(structures), num=jobs + 1, dtype=int)
    groups = [
        (distribution, e, delta1, delta2, structures[a:b], screen_eps)
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    results = parallel_map(_screen_group, groups, n_jobs=jobs, chunksize=1)
    return [item for group in results for item in group]


def _around(value: int, lo: int, hi: int) -> list[int]:
    return sorted({min(max(value + d, lo), hi) for d in range(-2, 3)})


def _structures(
    n1s: Sequence[int], n2s: Sequence[int], n3_offsets: Sequence[int]
) -> Iterable[tuple[int, int, int]]:
    """Enumerate (n1, n2, n2 + offset) region structures."""
    n2s = list(n2s)  # re-iterated per n1: materialize once
    n3_offsets = list(n3_offsets)
    for n1 in n1s:
        for n2 in n2s:
            if n2 < n1:
                continue
            for offset in n3_offsets:
                if offset < 0:
                    continue
                yield n1, n2, n2 + offset


def _search(
    distribution: InterArrivalDistribution,
    e: float,
    delta1: float,
    delta2: float,
    structures: Iterable[tuple[int, int, int]],
    best: Optional[ClusteringSolution],
    tail_rel_eps: float,
    solver: Optional[PartialInfoSolver] = None,
) -> Optional[ClusteringSolution]:
    for n1, n2, n3 in structures:
        candidate = _best_for_structure(
            distribution, e, delta1, delta2, n1, n2, n3, tail_rel_eps,
            solver=solver,
        )
        if candidate is None:
            continue
        if best is None or candidate.qom > best.qom + 1e-12:
            best = candidate
    return best


def _best_for_structure(
    distribution: InterArrivalDistribution,
    e: float,
    delta1: float,
    delta2: float,
    n1: int,
    n2: int,
    n3: int,
    tail_rel_eps: float,
    bisect_iters: int = 12,
    solver: Optional[PartialInfoSolver] = None,
) -> Optional[ClusteringSolution]:
    """Largest-``lambda`` feasible policy for one region structure.

    Every bisection step is one analysis on the shared
    :class:`PartialInfoSolver`; an activation vector that recurs in the
    search comes back from the analysis memo.
    """
    if solver is None:
        solver = PartialInfoSolver(distribution, delta1, delta2)

    def evaluate(factor: float) -> tuple[ClusteringPolicy, PartialInfoAnalysis]:
        policy = ClusteringPolicy(n1, n2, n3).scaled(factor)
        analysis = solver.analyse(
            policy.vector, tail=policy.tail, tail_rel_eps=tail_rel_eps
        )
        return policy, analysis

    policy_hi, analysis_hi = evaluate(1.0)
    if analysis_hi.energy_rate <= e * (1.0 + 1e-9):
        return ClusteringSolution(policy=policy_hi, analysis=analysis_hi)
    policy_lo, analysis_lo = evaluate(0.0)
    if analysis_lo.energy_rate > e * (1.0 + 1e-9):
        # The hot interior and recovery tail alone exceed the budget;
        # narrower structures in the enumeration cover this case.
        return None
    lo, hi = 0.0, 1.0
    best_policy, best_analysis = policy_lo, analysis_lo
    for _ in range(bisect_iters):
        mid = (lo + hi) / 2.0
        policy_mid, analysis_mid = evaluate(mid)
        if analysis_mid.energy_rate <= e * (1.0 + 1e-9):
            lo = mid
            best_policy, best_analysis = policy_mid, analysis_mid
        else:
            hi = mid
    return ClusteringSolution(policy=best_policy, analysis=best_analysis)
