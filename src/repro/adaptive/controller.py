"""The estimate -> re-solve -> act controller (adaptive loop core).

:class:`AdaptiveController` closes the loop the paper leaves open: it
runs the simulation in chunks (:class:`repro.sim.chunked.ChunkedSimulator`),
feeds each chunk's observed gaps to a :class:`~repro.adaptive.observer.GapObserver`,
maintains a sliding-window estimate of the gap distribution
(:func:`repro.events.fit_empirical_smoothed`, or a parametric fit with
empirical fallback when the fit degenerates —
:func:`repro.events.fit_is_degenerate`), and re-solves the activation
policy when the estimate drifts:

* **Full information** re-solves ride :func:`repro.core.solve_greedy`
  (Theorem 1's fractional knapsack — microseconds).
* **Partial information** re-solves ride
  :func:`repro.core.optimize_clustering`, which shares the
  process-wide analysis memo across solves.  The fitted pmf is *quantized* before solving, so successive
  fits that differ only by estimation noise produce byte-identical
  distributions — same fingerprint, warm memo hits, and a re-solve that
  recomputes nothing (asserted in tier-1 by the counters
  ``analysis.memo.hit`` / ``analysis.memo.miss``).

Re-solve triggers:

* **Drift**: total-variation distance between the current fit and the
  fit at the last solve exceeds ``drift_threshold``.
* **Change-point**: the latest chunk's mean gap deviates from the
  window mean by more than ``changepoint_ratio`` — the observer window
  is then *reset* (stale observations would otherwise bias the fit for
  a full window length) and a re-solve is forced.

Partial-information observations are censored (capture-to-capture
intervals); the controller inverts the censoring with the
model-predicted capture probability as the thinning hint (see
:mod:`repro.adaptive.observer` for why the data alone cannot supply it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.adaptive.observer import GapObserver, estimate_true_pmf
from repro.core import optimize_clustering, solve_greedy
from repro.core.baselines import AggressivePolicy
from repro.core.policy import ActivationPolicy, InfoModel
from repro.devtools import telemetry
from repro.events import (
    EmpiricalInterArrival,
    fit_empirical_smoothed,
    fit_is_degenerate,
    fit_weibull,
)
from repro.events.base import InterArrivalDistribution
from repro.exceptions import PolicyError
from repro.sim.chunked import ChunkedSimulator

__all__ = ["AdaptiveController", "AdaptiveRecord"]

#: Families the controller can fit each round.
FAMILIES = ("auto", "empirical", "weibull")


@dataclass(frozen=True)
class AdaptiveRecord:
    """One chunk of the adaptive loop, for regret trajectories."""

    chunk_index: int
    start_slot: int
    n_slots: int
    n_events: int
    n_captures: int
    qom: float
    resolved: bool
    changepoint: bool
    degenerate_fallback: bool
    family: str
    predicted_qom: float
    fit_distance: float


@dataclass
class _SolveState:
    """What the controller knew at its last re-solve."""

    distribution: InterArrivalDistribution
    pmf: np.ndarray
    predicted_qom: float


class AdaptiveController:
    """Streaming estimate -> re-solve -> act loop over one trajectory.

    Parameters
    ----------
    simulator:
        The chunked simulator to drive; its ``full_info`` flag fixes the
        information model (greedy vs. clustering re-solves).
    e:
        Mean recharge rate budget passed to the solvers (typically
        ``recharge.mean_rate``).
    chunk_slots:
        Slots simulated between estimation rounds.
    family:
        ``"empirical"`` (smoothed pmf), ``"weibull"`` (parametric with
        automatic empirical fallback on degenerate fits), or ``"auto"``
        (weibull-with-fallback under full information, empirical under
        partial information, where only a deconvolved pmf exists).
    drift_threshold:
        Total-variation distance between the current and last-solved
        fit that triggers a re-solve.
    changepoint_ratio:
        Chunk-mean/window-mean gap ratio (either direction) that
        declares a change-point and resets the observation window.
    quantization:
        Resolution to which fitted pmfs are snapped before solving;
        coarser values yield more byte-identical re-solve inputs (warm
        memo hits) at a small fidelity cost.  ``0`` disables snapping.
    min_observations:
        Gaps required before the first fit replaces the warm-up policy.
    warmup_policy:
        Policy used until the first fit (default: always-active, which
        both survives and observes at the maximum rate).
    """

    def __init__(
        self,
        simulator: ChunkedSimulator,
        e: float,
        chunk_slots: int = 2000,
        family: str = "auto",
        window: int = 4000,
        smoothing: float = 0.5,
        tail_slots: int = 2,
        drift_threshold: float = 0.08,
        changepoint_ratio: float = 1.6,
        changepoint_min_gaps: int = 8,
        quantization: float = 1.0 / 512.0,
        min_observations: int = 30,
        warmup_policy: Optional[ActivationPolicy] = None,
        n_jobs: Optional[int] = None,
        solve_kwargs: Optional[dict] = None,
    ) -> None:
        if family not in FAMILIES:
            raise PolicyError(
                f"family must be one of {FAMILIES}, got {family!r}"
            )
        if chunk_slots < 1:
            raise PolicyError(f"chunk_slots must be >= 1, got {chunk_slots}")
        if drift_threshold < 0:
            raise PolicyError(
                f"drift_threshold must be >= 0, got {drift_threshold}"
            )
        if changepoint_ratio <= 1.0:
            raise PolicyError(
                f"changepoint_ratio must be > 1, got {changepoint_ratio}"
            )
        if quantization < 0 or quantization >= 1:
            raise PolicyError(
                f"quantization must be in [0, 1), got {quantization}"
            )
        if e < 0:
            raise PolicyError(f"recharge budget e must be >= 0, got {e}")
        self.simulator = simulator
        self.e = float(e)
        self.chunk_slots = int(chunk_slots)
        self.family = family
        self.smoothing = float(smoothing)
        self.tail_slots = int(tail_slots)
        self.drift_threshold = float(drift_threshold)
        self.changepoint_ratio = float(changepoint_ratio)
        self.changepoint_min_gaps = int(changepoint_min_gaps)
        self.quantization = float(quantization)
        self.min_observations = int(min_observations)
        self.n_jobs = n_jobs
        #: Extra keyword arguments forwarded to the re-solver (e.g.
        #: ``max_candidates``/``tail_rel_eps`` for the clustering search
        #: — lets benches and tests trade solve fidelity for speed).
        self.solve_kwargs = dict(solve_kwargs or {})
        self.full_info = simulator.full_info

        self.observer = GapObserver(window=window)
        info = InfoModel.FULL if self.full_info else InfoModel.PARTIAL
        self._policy: ActivationPolicy = (
            warmup_policy
            if warmup_policy is not None
            else AggressivePolicy(info_model=info)
        )
        self._solved: Optional[_SolveState] = None
        self._chunk_index = 0
        self._changepoint_cooldown = 0
        self.n_resolves = 0
        self.n_changepoints = 0
        self.history: List[AdaptiveRecord] = []

    @property
    def policy(self) -> ActivationPolicy:
        """The policy the next chunk will run under."""
        return self._policy

    @property
    def current_distribution(
        self,
    ) -> Optional[InterArrivalDistribution]:
        """The model the current policy was solved against (None before
        the first solve)."""
        return None if self._solved is None else self._solved.distribution

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _capture_hint(self) -> float:
        if self._solved is not None:
            return self._solved.predicted_qom
        return 0.5  # warm-up: no model yet

    def _fit(self) -> tuple[InterArrivalDistribution, str, bool]:
        """Fit the window; returns (distribution, family_used, fallback)."""
        gaps = self.observer.gaps
        if self.full_info:
            if self.family in ("auto", "weibull"):
                fitted: InterArrivalDistribution = fit_weibull(gaps)
                if not fit_is_degenerate(fitted):
                    return fitted, "weibull", False
                # A degenerate parametric fit (all-equal sample proxy,
                # clamped shape) must not drive a solve: fall back to
                # the smoothed empirical family, which keeps tail mass.
                telemetry.count("adaptive.fit.degenerate")
                return self._fit_empirical(gaps), "empirical", True
            return self._fit_empirical(gaps), "empirical", False
        # Partial information: smooth the captured-gap pmf, then invert
        # the geometric thinning with the model-predicted capture
        # probability.  Only the empirical family makes sense here.
        captured = self._fit_empirical(gaps)
        true_pmf, _ = estimate_true_pmf(
            captured.alpha, self._capture_hint()
        )
        return EmpiricalInterArrival(true_pmf), "empirical", False

    def _fit_empirical(self, gaps: np.ndarray) -> EmpiricalInterArrival:
        return fit_empirical_smoothed(
            gaps, smoothing=self.smoothing, tail_slots=self.tail_slots
        )

    def _quantize(
        self, distribution: InterArrivalDistribution
    ) -> InterArrivalDistribution:
        """Snap a fitted model onto the quantization grid.

        Successive fits that differ only by sub-grid noise become
        byte-identical after snapping — identical fingerprints, so the
        analysis memo answers the re-solve from cache.
        """
        if self.quantization <= 0:
            return distribution
        if isinstance(distribution, EmpiricalInterArrival):
            ticks = np.round(distribution.alpha / self.quantization)
            if ticks.sum() <= 0:
                return distribution
            support = int(np.flatnonzero(ticks)[-1]) + 1
            pmf = ticks[:support] / ticks.sum()
            return EmpiricalInterArrival(pmf)
        # Parametric fits quantize in parameter space (2 decimals keeps
        # the induced pmf well inside the drift threshold).
        from repro.events import WeibullInterArrival

        if isinstance(distribution, WeibullInterArrival):
            return WeibullInterArrival(
                round(distribution.scale, 2), round(distribution.shape, 2)
            )
        return distribution

    # ------------------------------------------------------------------
    # Re-solve
    # ------------------------------------------------------------------
    @staticmethod
    def _pmf_distance(a: np.ndarray, b: np.ndarray) -> float:
        width = max(a.size, b.size)
        pa = np.zeros(width)
        pb = np.zeros(width)
        pa[: a.size] = a
        pb[: b.size] = b
        return 0.5 * float(np.abs(pa - pb).sum())

    def _solve(self, distribution: InterArrivalDistribution) -> None:
        telemetry.count("adaptive.resolve")
        with telemetry.timed("adaptive.resolve"):
            if self.full_info:
                solution = solve_greedy(
                    distribution, self.e, self.simulator.delta1,
                    self.simulator.delta2, **self.solve_kwargs,
                )
                self._policy = solution.as_policy()
                predicted = solution.qom
            else:
                clustering = optimize_clustering(
                    distribution, self.e, self.simulator.delta1,
                    self.simulator.delta2, n_jobs=self.n_jobs,
                    **self.solve_kwargs,
                )
                self._policy = clustering.policy
                predicted = clustering.qom
        self._solved = _SolveState(
            distribution=distribution,
            pmf=np.asarray(distribution.alpha, dtype=float),
            predicted_qom=float(predicted),
        )
        self.n_resolves += 1

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def step(self, n_slots: Optional[int] = None) -> AdaptiveRecord:
        """Simulate one chunk, update the estimate, maybe re-solve."""
        slots = self.chunk_slots if n_slots is None else int(n_slots)
        telemetry.count("adaptive.chunks")
        chunk = self.simulator.run_chunk(self._policy, slots)
        observed = (
            chunk.true_gaps if self.full_info else chunk.captured_gaps
        )

        # Change-point scan *before* ingesting: compare the fresh gaps
        # against the window they are about to join.  Skipped for one
        # chunk after each re-solve under partial information, where a
        # policy change alone shifts the captured-gap law.
        changepoint = False
        if (
            observed.size >= self.changepoint_min_gaps
            and len(self.observer) >= self.min_observations
            and self._changepoint_cooldown == 0
        ):
            ratio = float(np.mean(observed)) / self.observer.mean()
            if (
                ratio > self.changepoint_ratio
                or ratio < 1.0 / self.changepoint_ratio
            ):
                changepoint = True
                self.n_changepoints += 1
                telemetry.count("adaptive.changepoints")
                self.observer.reset()
        if self._changepoint_cooldown > 0:
            self._changepoint_cooldown -= 1
        self.observer.ingest(observed.tolist())

        resolved = False
        fallback = False
        family_used = "warmup" if self._solved is None else "held"
        distance = float("nan")
        if len(self.observer) >= self.min_observations:
            fitted, family_used, fallback = self._fit()
            if self._solved is None:
                distance = float("inf")
            else:
                distance = self._pmf_distance(
                    np.asarray(fitted.alpha, dtype=float),
                    self._solved.pmf,
                )
            if changepoint or distance > self.drift_threshold:
                self._solve(self._quantize(fitted))
                resolved = True
                if not self.full_info:
                    self._changepoint_cooldown = 1

        record = AdaptiveRecord(
            chunk_index=self._chunk_index,
            start_slot=self.simulator.total_horizon
            - self.simulator.slots_remaining
            - chunk.n_slots,
            n_slots=chunk.n_slots,
            n_events=chunk.n_events,
            n_captures=chunk.n_captures,
            qom=chunk.qom,
            resolved=resolved,
            changepoint=changepoint,
            degenerate_fallback=fallback,
            family=family_used,
            predicted_qom=(
                float("nan")
                if self._solved is None
                else self._solved.predicted_qom
            ),
            fit_distance=distance,
        )
        self._chunk_index += 1
        self.history.append(record)
        return record

    def run(self, n_chunks: int) -> List[AdaptiveRecord]:
        """Run ``n_chunks`` estimation rounds; returns their records."""
        if n_chunks < 1:
            raise PolicyError(f"n_chunks must be >= 1, got {n_chunks}")
        return [self.step() for _ in range(n_chunks)]
