"""Chunked single-sensor simulation with persistent state (adaptive loop).

The adaptive controller (:mod:`repro.adaptive`) runs the simulation in
*chunks*: simulate a block of slots, observe the gaps it produced,
re-estimate the event model, possibly re-solve the policy, and continue
— without restarting the trajectory.  :class:`ChunkedSimulator` supports
that loop without a slot loop of its own: every chunk runs on the
engine's one dispatch (:func:`repro.sim.engine._fallback_reason`) —
the C scan when the policy is table-driven and a compiler is present,
otherwise the reference loop :func:`repro.sim.engine._simulate_reference`
resumed from the carried :class:`~repro.sim.engine.LoopState`.

* **Battery, recency and event state persist across chunks.**  The
  battery stays in the engine's Skorokhod-reflected form
  (``cum``/``neg``/``shave``); ``cum`` is one ``np.cumsum`` over the
  whole pre-drawn recharge stream, sequential and therefore equal to
  the loop's running sum.
* **Recharge and activation coins are pre-generated** for the full
  horizon at construction.  Chunking therefore cannot perturb them:
  a :class:`~repro.energy.solar.DiurnalRecharge` keeps its phase and a
  :class:`~repro.energy.solar.MarkovRecharge` keeps its weather run
  across chunk boundaries (calling ``sequence`` per chunk would restart
  both).
* **Events are drawn chunk by chunk from the *current* truth** via a
  countdown to the next arrival, so the driver can inject distribution
  drift or change-points between chunks (:meth:`set_distribution`); the
  gap already in flight completes under the old truth, as it would
  physically.
* **Observations are returned per chunk**: completed true gaps (what a
  full-information sensor sees) and capture-to-capture gaps (all a
  partial-information sensor sees — each is a sum of >= 1 true gaps;
  see :mod:`repro.adaptive.observer` for the deconvolution), both read
  off the chunk's event and capture flags.
* **Learning hooks**: a policy exposing ``observe_outcome(active,
  captured)`` (duck-typed — e.g. the L_R-I automaton) is called once
  per slot after the outcome resolves, through the reference loop's
  per-slot callback; such policies never take the C scan.

The per-chunk event draw order differs from ``generate_event_flags``
(which batches over the whole horizon), so chunked trajectories are not
bit-identical to ``simulate_single`` runs; on stationary truth they
agree in distribution (tested statistically).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.core.policy import ActivationPolicy
from repro.devtools import telemetry
from repro.energy.recharge import RechargeProcess
from repro.events.base import InterArrivalDistribution
from repro.exceptions import SimulationError
from repro.sim import engine, kernel
from repro.sim._native import require_native_scan
from repro.sim.rng import SeedLike, spawn_substreams

__all__ = ["ChunkResult", "ChunkedSimulator"]

#: Gap draws per sampling batch while filling a chunk's event flags.
_GAP_BATCH = 64


@dataclass(frozen=True)
class ChunkResult:
    """Statistics and observations from one simulated chunk.

    ``true_gaps`` are the inter-event gaps *completed* during the chunk
    (full-information observations); ``captured_gaps`` the
    capture-to-capture intervals completed during the chunk (the
    censored partial-information observations).  ``qom`` is the in-chunk
    capture fraction (NaN when the chunk saw no events).
    """

    n_slots: int
    n_events: int
    n_captures: int
    activations: int
    blocked_slots: int
    true_gaps: np.ndarray
    captured_gaps: np.ndarray
    final_battery: float

    @property
    def qom(self) -> float:
        if self.n_events == 0:
            return float("nan")
        return self.n_captures / self.n_events


class ChunkedSimulator:
    """Single-sensor simulation that advances in caller-sized chunks.

    Parameters mirror :func:`repro.sim.engine.simulate_single`;
    ``total_horizon`` bounds the sum of all chunk lengths (recharge and
    coin streams are materialised up front for exactly that many slots).
    ``full_info`` fixes the recency semantics for the whole trajectory
    (the paper's h_i vs. f_i state); the policy may change between
    chunks but must share that information model.
    """

    def __init__(
        self,
        distribution: InterArrivalDistribution,
        recharge: RechargeProcess,
        capacity: float,
        delta1: float,
        delta2: float,
        total_horizon: int,
        seed: SeedLike = None,
        initial_energy: Optional[float] = None,
        full_info: bool = True,
    ) -> None:
        if total_horizon < 1:
            raise SimulationError(
                f"total_horizon must be >= 1, got {total_horizon}"
            )
        initial = engine._check_run(
            total_horizon, capacity, delta1, delta2, initial_energy
        )
        self.capacity = float(capacity)
        self.delta1 = float(delta1)
        self.delta2 = float(delta2)
        self.total_horizon = int(total_horizon)
        self.full_info = bool(full_info)

        if telemetry.enabled():
            # One chunked trajectory = one run in the --telemetry
            # manifest, mirroring engine._record_run's provenance.
            telemetry.event(
                "simulation_run",
                entry="chunked",
                backend="chunked",
                capacity=float(capacity),
                delta1=float(delta1),
                delta2=float(delta2),
                horizon=int(total_horizon),
                seed=telemetry.describe_seed(seed),
            )

        self._event_rng, recharge_rng, coin_rng = spawn_substreams(seed, 3)
        self._recharge = recharge.sequence(self.total_horizon, recharge_rng)
        self._cs = np.cumsum(self._recharge)  # cs[t] = cum after slot t+1
        self._coins = coin_rng.random(self.total_horizon)

        self._distribution = distribution
        # Reflected battery state (see sim.engine module docstring); cum
        # is read off self._cs.
        self._neg = initial
        self._shave = 0.0
        self._t = 0  # global slots simulated so far
        # Ages of the in-flight true and captured gaps (an event and a
        # capture are assumed at slot 0).  They are also the FI and PI
        # recency fed to the policy in the next slot.
        self._since_event = 1
        self._since_capture = 1
        # Countdown: the next event occurs this many slots from now.
        self._countdown = int(distribution.sample(self._event_rng, 1)[0])
        self.n_events = 0
        self.n_captures = 0

    @property
    def slots_remaining(self) -> int:
        return self.total_horizon - self._t

    @property
    def battery(self) -> float:
        """Battery level after the last simulated slot."""
        return (self._neg + self._cum()) - self._shave

    def _cum(self) -> float:
        """Cumulative recharge over the slots simulated so far."""
        return float(self._cs[self._t - 1]) if self._t else 0.0

    @property
    def distribution(self) -> InterArrivalDistribution:
        return self._distribution

    def set_distribution(
        self, distribution: InterArrivalDistribution
    ) -> None:
        """Change the event truth for gaps drawn from now on.

        The gap currently in flight (drawn from the old truth) still
        completes; only subsequent draws use the new distribution —
        matching a physical process whose law changes mid-gap-free
        period only for future arrivals.
        """
        self._distribution = distribution

    def _chunk_events(self, n: int) -> np.ndarray:
        """Event flags for the next ``n`` slots, advancing the countdown."""
        flags = np.zeros(n, dtype=bool)
        pos = self._countdown - 1  # chunk-relative slot of the next event
        while pos < n:
            gaps = self._distribution.sample(self._event_rng, _GAP_BATCH)
            for gap in gaps.tolist():
                if pos >= n:
                    break
                flags[pos] = True
                pos += int(gap)
        self._countdown = pos - n + 1
        return flags

    def run_chunk(
        self, policy: ActivationPolicy, n_slots: int
    ) -> ChunkResult:
        """Simulate ``n_slots`` more slots under ``policy``."""
        if n_slots < 1:
            raise SimulationError(f"n_slots must be >= 1, got {n_slots}")
        if n_slots > self.slots_remaining:
            raise SimulationError(
                f"chunk of {n_slots} slots exceeds the {self.slots_remaining}"
                f" remaining of total_horizon={self.total_horizon}"
            )
        start = self._t
        end = start + n_slots
        recency = self._since_event if self.full_info else self._since_capture
        # No recency in this chunk exceeds the carried one plus n_slots;
        # slot tables are indexed by global slot, so they run to `end`.
        fast = kernel.policy_fast_paths(
            policy, end, recency_reach=recency + n_slots
        )
        if fast.full_info != self.full_info:
            raise SimulationError(
                "policy info model does not match the simulator's "
                f"(policy={'full' if fast.full_info else 'partial'}, "
                f"simulator={'full' if self.full_info else 'partial'})"
            )
        if fast.slot_probs is not None:
            fast = replace(fast, slot_probs=fast.slot_probs[start:end])
        events = self._chunk_events(n_slots)
        recharge = self._recharge[start:end]
        coins = self._coins[start:end]
        captured = np.zeros(n_slots, dtype=np.uint8)

        if engine._fallback_reason("chunked", fast, recharge) is None:
            slot_mode = fast.slot_probs is not None
            activations, n_captures, blocked, neg, shave, _ = (
                require_native_scan().scan(
                    self._cs[start:end], events, coins,
                    fast.slot_probs if slot_mode else fast.table, fast.tail,
                    slot_mode, self.full_info, self.capacity, self.delta1,
                    self.delta2, self._neg, compute_aoi=False,
                    initial_shave=self._shave, initial_recency=recency,
                    out_captured=captured,
                )
            )
        else:
            observe = fast.observe

            def on_slot(
                t: int, recency: int, prob: float, active: bool,
                hit: bool, battery: float, after: float, shave: float,
            ) -> None:
                if hit:
                    captured[t - 1] = 1
                if observe is not None:
                    observe(active, hit)

            result, state = engine._simulate_reference(
                policy, fast, events, recharge, coins, self.capacity,
                self.delta1, self.delta2, n_slots, self._neg,
                collect_aoi=False,
                state=engine.LoopState(
                    self._cum(), self._neg, self._shave, recency, start
                ),
                on_slot=on_slot,
            )
            activations, n_captures = result.total_activations, result.n_captures
            blocked = result.sensors[0].blocked_slots
            neg, shave = state.neg, state.shave

        true_gaps, self._since_event = _closed_gaps(events, self._since_event)
        captured_gaps, self._since_capture = _closed_gaps(
            captured, self._since_capture
        )
        n_events = int(true_gaps.size)
        self._neg, self._shave, self._t = neg, shave, end
        self.n_events += n_events
        self.n_captures += n_captures
        return ChunkResult(
            n_slots=n_slots,
            n_events=n_events,
            n_captures=n_captures,
            activations=activations,
            blocked_slots=blocked,
            true_gaps=true_gaps,
            captured_gaps=captured_gaps,
            final_battery=self.battery,
        )


def _closed_gaps(flags: np.ndarray, age: int) -> Tuple[np.ndarray, int]:
    """Gaps closed at the flagged slots of a chunk, and the open gap's age.

    ``age`` is the length the open gap would have if the chunk's first
    slot closed it (1 right after a closing slot); the returned age
    continues it past the chunk.
    """
    slots = np.flatnonzero(flags).astype(np.int64)
    if slots.size == 0:
        return slots, age + flags.size
    gaps = slots - np.concatenate(([-age], slots[:-1]))
    return gaps, int(flags.size - slots[-1])
