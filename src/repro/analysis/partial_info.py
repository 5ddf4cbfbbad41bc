"""Exact partial-information hazard analysis (paper Sec. IV-B, Appendix B).

Under partial information the sensor only knows the time ``i`` since its
last *capture* (state ``f_i``).  The probability that an event occurs in
the current slot, conditioned on everything the sensor knows, is the
conditional hazard

    beta_hat_i = P(event in slot i | capture at slot 0,
                                     no capture in slots 1..i-1)

which Appendix B expresses through renewal-function integrals.  In slotted
time it is computed *exactly* by a forward dynamic program over the joint
law of (slots since capture, slots since the last true event):

Let ``w_t(g)`` be the probability that, at the beginning of slot ``t``
(measured from the last capture at slot 0), no capture has happened in
slots ``1..t-1`` and the most recent *true* event is ``g`` slots old.
With per-slot activation probabilities ``c_t`` (activation is decided
independently of the event),

    w_1(1)     = 1                                  (capture = event at 0)
    w_{t+1}(1)   = (1 - c_t) * sum_g w_t(g) beta_g    (event missed)
    w_{t+1}(g+1) = w_t(g) * (1 - beta_g)              (no event)

    beta_hat_t = sum_g w_t(g) beta_g / sum_g w_t(g)

The survival ``s_t = sum_g w_t(g) = P(no capture in 1..t-1)`` yields the
stationary distribution of the capture-recency chain ``{f_i}``:
``y_i = s_i / sum_j s_j``, the QoM ``U = y_1 * mu`` and the mean energy
drain ``E_out = sum_i y_i c_i (delta1 + beta_hat_i delta2)`` — the
quantities the clustering-policy optimiser needs (paper Sec. IV-B2).

Heavy-tailed gap distributions (Pareto) make the survival decay only
polynomially, so the analysis streams the DP and closes the cycle with an
explicit tail estimate instead of iterating until the survival underflows.

Performance architecture (see DESIGN.md §9):

* The DP's per-slot loop runs in C (``repro_pi_advance``, compiled into
  the one :mod:`repro.sim._native` library): one call advances a cycle
  from slot 1 to tail closure, exhaustion or ``max_horizon``, writing
  survival and ``beta_hat`` into buffers the caller owns (and grows,
  resuming the call, when they fill).  It reproduces numpy's pairwise
  summation order and the reference's operation order, so its results
  are ``==`` to the numpy reference (``_HazardStepper.step_block`` plus
  the accumulators of ``_CycleStream``).  Without a C compiler the reference runs and the
  fallback is recorded (``analysis.fallback.reference``).
* Both paths track the *live window* of ``w``: whenever a slot produces
  no missed-event birth (``c_t = 1`` — the aggressive recovery tail — or
  zero event mass), the age distribution only shifts, so the leading
  entries stay exactly zero and are skipped.  In the recovery region
  the per-slot cost drops from ``O(t)`` to ``O(window)``.
* :class:`PartialInfoSolver` computes the per-distribution inputs (the
  hazard ``beta``, ``1 - beta`` and the 0.999 quantile) once and shares
  them, read-only, across its analyses.
* Results are memoised in a process-wide, byte-budgeted LRU keyed on the
  distribution fingerprint, activation bytes, energy costs and
  tolerances (``analysis.memo.{hit,miss,evict}``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.devtools import telemetry
from repro.events.base import InterArrivalDistribution
from repro.exceptions import PolicyError
from repro.store import MemoryLRU

if TYPE_CHECKING:
    from repro.sim._native import NativeScan

#: Relative tail mass at which the capture cycle is considered resolved.
DEFAULT_TAIL_REL_EPS = 1e-5

#: Hard cap on the analysis horizon (slots since last capture).
DEFAULT_MAX_HORIZON = 200_000

#: Slots advanced per blocked call in the constant-activation tail.
_TAIL_BLOCK = 1024

#: Initial length of a streamed cycle's survival/beta_hat buffers
#: (doubled whenever the cycle runs past them).
_OUT_MIN = 1024

#: How one DP segment ended (the return codes of ``repro_pi_advance``):
#: the requested slot, tail closure, or an exhausted age mass.
_REACHED, _CLOSED, _EXHAUSTED = 0, 1, 2

#: Caps for the process-wide analysis memo (LRU eviction).  A full
#: optimizer search touches a few thousand distinct (policy, tolerance)
#: keys, so the cache is budgeted by bytes rather than a small entry
#: count — a small LRU would be thrashed to zero hits by the repeated
#: deterministic evaluation sequence of a warm search.
_MEMO_MAX_ENTRIES = 16_384
_MEMO_MAX_BYTES = 256 * 1024 * 1024


def expand_activation(
    activation: np.ndarray, horizon: int, tail: float = 0.0
) -> np.ndarray:
    """Pad/truncate an activation vector to ``horizon`` slots.

    ``activation[i - 1]`` is the activation probability in state ``f_i``
    (or ``h_i``); slots past the vector use the constant ``tail`` value
    (1.0 models the paper's "aggressive" recovery tail).
    """
    arr = np.asarray(activation, dtype=float)
    _check_activation(arr, tail)
    out = np.full(horizon, float(np.clip(tail, 0.0, 1.0)))
    n = min(arr.size, horizon)
    out[:n] = np.clip(arr[:n], 0.0, 1.0)
    return out


def _check_activation(arr: np.ndarray, tail: float) -> None:
    """Reject a vector that is not 1-D, or values (or a ``tail``) that are
    not finite or lie outside [0, 1] by more than 1e-12 (those within
    are clipped)."""
    if arr.ndim != 1:
        raise PolicyError("activation vector must be 1-D")
    low, high = -1e-12, 1 + 1e-12
    if not (np.all((arr >= low) & (arr <= high)) and low <= tail <= high):
        raise PolicyError(
            "activation probabilities must be finite and lie in [0, 1]"
        )


@dataclass(frozen=True)
class PartialInfoAnalysis:
    """Result of the capture-recency chain analysis for one policy.

    Attributes
    ----------
    beta_hat:
        ``beta_hat[i - 1]`` = conditional event probability in state f_i.
    survival:
        ``survival[i - 1] = P(no capture in slots 1..i-1)`` (s_1 = 1).
    stationary:
        Stationary distribution ``y_i`` of the capture-recency chain over
        the computed horizon (the estimated tail mass is folded into the
        normaliser, so the array sums to slightly less than 1 when a tail
        correction was applied).
    expected_cycle:
        Mean number of slots between consecutive captures (= mu / qom),
        including the tail correction.
    qom:
        Event capture probability ``U = y_1 * mu`` under the energy
        assumption.
    energy_rate:
        Mean energy drain per slot,
        ``sum_i y_i c_i (delta1 + beta_hat_i delta2)``.
    truncated:
        True when the horizon cap was hit before the tail estimate fell
        below tolerance — ``qom`` is then only an upper estimate.

    Instances may be shared through the analysis memo; the arrays are
    marked read-only and must not be mutated.
    """

    beta_hat: np.ndarray
    survival: np.ndarray
    stationary: np.ndarray
    expected_cycle: float
    qom: float
    energy_rate: float
    truncated: bool


def _hazard_arrays(
    distribution: InterArrivalDistribution,
) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only contiguous copies of ``beta`` and ``1 - beta``."""
    beta = np.array(distribution.beta, dtype=np.float64)
    decay = 1.0 - beta
    beta.flags.writeable = False
    decay.flags.writeable = False
    return beta, decay


def conditional_hazards(
    distribution: InterArrivalDistribution,
    activation: np.ndarray,
    horizon: int,
    tail: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute ``(beta_hat, survival)`` for slots ``1..horizon``.

    This is the discrete, fractional-activation generalisation of the
    Appendix B formulas (see module docstring for the DP).  Fixed-horizon
    variant; :func:`analyse_partial_info_policy` streams the same DP with
    adaptive stopping.
    """
    if horizon < 1:
        raise PolicyError(f"horizon must be >= 1, got {horizon}")
    c = expand_activation(activation, horizon, tail=tail)
    stepper = _HazardStepper(*_hazard_arrays(distribution))
    beta_hat = np.zeros(horizon)
    survival = np.zeros(horizon)
    for t in range(1, horizon + 1):
        s_t, bh_t = stepper.step(c[t - 1])
        survival[t - 1] = s_t
        beta_hat[t - 1] = bh_t
    return beta_hat, survival


class _HazardStepper:
    """Streams the (capture-recency x event-age) DP over slots.

    ``step(c_t)`` returns ``(s_t, beta_hat_t)`` for the next slot ``t``
    (starting at t = 1) and advances the internal age distribution using
    the supplied activation probability; ``step_block`` advances up to
    ``n`` slots at a constant activation probability per call.  This
    per-slot loop is the numpy reference the C DP
    (``repro_pi_advance`` in :mod:`repro.sim._native`) mirrors.

    The age distribution ``w`` (one double per age up to
    ``support_max``) is live only in the window ``w[lo:width]``: entries
    below ``lo`` are exactly zero because slots without a missed-event
    birth (``c_t = 1`` or zero event mass) only shift the window up.
    ``beta`` and ``decay = 1 - beta`` are shared, read-only inputs; ``w``
    is the stepper's own.
    """

    def __init__(self, beta: np.ndarray, decay: np.ndarray) -> None:
        self.beta = beta
        self.decay = decay
        self.support = beta.size
        self.w = np.zeros(self.support)
        self.w[0] = 1.0
        self.lo = 0
        self.width = 1

    def step(self, c_t: float) -> Tuple[float, float]:
        s_arr, bh_arr, _ = self.step_block(c_t, 1)
        return float(s_arr[0]), float(bh_arr[0])

    def step_block(
        self, c: float, n: int
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Advance up to ``n`` slots at activation probability ``c``.

        Returns ``(survival, beta_hat, exhausted)`` for the slots actually
        processed.  ``exhausted`` is True when the age mass hit zero; the
        zero-mass slot is reported as ``(0.0, 1.0)`` (matching the
        per-slot convention) and the state does not advance past it.
        """
        bg = self.beta
        decay = self.decay
        support = self.support
        w = self.w
        lo = self.lo
        width = self.width
        one_minus_c = 1.0 - float(c)
        s_out = np.empty(n)
        bh_out = np.empty(n)
        m = 0
        exhausted = False
        while m < n:
            live = w[lo:width]
            mass = float(live.sum())
            if mass <= 0.0:
                s_out[m] = 0.0
                bh_out[m] = 1.0
                m += 1
                exhausted = True
                break
            event_mass = float(np.sum(live * bg[lo:width]))
            beta_hat = event_mass / mass
            if beta_hat > 1.0:
                beta_hat = 1.0
            s_out[m] = mass
            bh_out[m] = beta_hat
            m += 1
            # Advance one slot: ages shift up (no event), missed events
            # reset the age to 1 without closing the cycle.
            new_width = width + 1 if width < support else support
            np.multiply(w[lo:width], decay[lo:width], out=w[lo:width])
            # Shift in place: w[lo+1:new_width] = old w[lo:new_width-1].
            w[lo + 1 : new_width] = w[lo : new_width - 1]
            # The shift copies w[lo] up but leaves the original behind.
            w[lo] = 0.0
            birth = event_mass * one_minus_c
            if birth > 0.0:
                w[0] = birth
                lo = 0
            else:
                # No birth: the window moves up wholesale.
                lo += 1
            width = new_width
        self.lo = lo
        self.width = width
        return s_out[:m], bh_out[:m], exhausted


def _activation_run_ends(c_vec: np.ndarray) -> np.ndarray:
    """End indices (exclusive) of maximal constant runs in ``c_vec``."""
    if c_vec.size == 0:
        return np.empty(0, dtype=np.intp)
    change = np.flatnonzero(np.diff(c_vec)) + 1
    return np.concatenate((change, [c_vec.size])).astype(np.intp)


def _native_dp() -> Optional["NativeScan"]:
    """The compiled DP, or None (recorded) to run the numpy reference."""
    # Imported here: repro.sim imports this module (through the policies),
    # so a module-level import would be circular.
    from repro.sim import _native

    native = _native.get_native_scan()
    if native is None:
        telemetry.count("analysis.fallback.reference")
        telemetry.event(
            "backend_fallback", entry="partial_info",
            reason=_native.NATIVE_UNAVAILABLE,
        )
    return native


class _CycleStream:
    """One capture cycle streamed through the DP.

    Holds the stepper window, the slot count ``t``, the sequential sums
    ``cycle_total``/``energy_total`` and the ``survival``/``beta_hat``
    buffers (slot ``t`` writes index ``t``; grown on demand).
    :meth:`advance` runs the C DP when ``native`` is loaded and the numpy
    reference otherwise; both stop at the same slot, on tail closure or
    exhaustion, with bit-identical state.
    """

    def __init__(
        self,
        beta: np.ndarray,
        decay: np.ndarray,
        c_vec: np.ndarray,
        tail_c: float,
        delta1: float,
        delta2: float,
        min_slots: int,
        tail_rel_eps: float,
        native: Optional["NativeScan"],
    ) -> None:
        self.stepper = _HazardStepper(beta, decay)
        self.c_vec = c_vec
        self.tail_c = tail_c
        self.delta1 = delta1
        self.delta2 = delta2
        self.min_slots = min_slots
        self.tail_rel_eps = tail_rel_eps
        self.t = 0
        self.cycle_total = 0.0
        self.energy_total = 0.0
        #: Estimated cycle length beyond ``t`` once the tail closed.
        self.remaining = 0.0
        self.survival = np.empty(0)
        self.beta_hat = np.empty(0)
        # The C DP's in/out state: (t, lo, width) and (cycle_total,
        # energy_total, remaining); its call is bound to these arrays and
        # to the stepper's window buffer.
        self._state_i = np.zeros(3, dtype=np.int64)
        self._state_f = np.zeros(3)
        self._native_call: Optional[Callable[[int, np.ndarray, np.ndarray], int]] = (
            None if native is None else native.pi_advancer(
                beta, decay, c_vec, tail_c,
                delta1, delta2, min_slots, tail_rel_eps,
                self.stepper.w, self._state_i, self._state_f,
            )
        )

    def _grow(self, need: int) -> None:
        size = self.survival.size
        if size >= need:
            return
        size = max(need, 2 * size, _OUT_MIN)
        for name in ("survival", "beta_hat"):
            grown = np.empty(size)
            grown[: self.t] = getattr(self, name)[: self.t]
            setattr(self, name, grown)

    def advance(self, stop: int) -> int:
        """Run slots ``t .. stop-1``; returns ``_REACHED``, ``_CLOSED`` or
        ``_EXHAUSTED`` (the last two consume the slot they stop at)."""
        while True:
            if self.t >= self.survival.size:
                self._grow(self.t + 1)
            upto = min(stop, self.survival.size)
            if self._native_call is None:
                status = self._advance_reference(upto)
            else:
                status = self._advance_native(self._native_call, upto)
            if status != _REACHED or self.t >= stop:
                return status

    def _advance_native(
        self, call: Callable[[int, np.ndarray, np.ndarray], int], stop: int
    ) -> int:
        stepper = self.stepper
        state_i, state_f = self._state_i, self._state_f
        state_i[0], state_i[1], state_i[2] = self.t, stepper.lo, stepper.width
        state_f[0], state_f[1] = self.cycle_total, self.energy_total
        status = call(stop, self.survival, self.beta_hat)
        self.t, stepper.lo, stepper.width = state_i.tolist()
        self.cycle_total, self.energy_total, self.remaining = state_f.tolist()
        return status

    def _advance_reference(self, stop: int) -> int:
        """The numpy reference: constant-activation blocks through
        ``step_block``, then vectorised accumulators and closure test."""
        c_vec = self.c_vec
        d1, d2 = self.delta1, self.delta2
        run_ends = _activation_run_ends(c_vec)
        while self.t < stop:
            t = self.t
            if t < c_vec.size:
                c = float(c_vec[t])
                end_idx = int(
                    run_ends[np.searchsorted(run_ends, t, side="right")]
                )
                block_end = min(end_idx, stop)
            else:
                c = self.tail_c
                block_end = min(t + _TAIL_BLOCK, stop)
            s_arr, bh_arr, exhausted = self.stepper.step_block(c, block_end - t)
            got = s_arr.size
            # Sequential prefix sums reproduce the scalar accumulation
            # chain exactly, independent of how slots are blocked.
            cyc = np.cumsum(np.concatenate(([self.cycle_total], s_arr)))[1:]
            contrib = s_arr * c * (d1 + bh_arr * d2)
            ene = np.cumsum(np.concatenate(([self.energy_total], contrib)))[1:]

            status = _EXHAUSTED if exhausted else _REACHED
            upto = got
            # Tail-closure check; never fires before min_slots, and the
            # zero-mass slot (if any) is never tested.
            limit = got - 1 if exhausted else got
            off = max(self.min_slots, t + 1) - (t + 1)
            if off < limit:
                r = c * bh_arr[off:limit]
                pos = np.flatnonzero(r > 0.0)
                if pos.size:
                    rr = r[pos]
                    ss = s_arr[off:limit][pos]
                    tt = (t + 1 + off + pos).astype(float)
                    geom = ss * (1.0 - rr) / rr
                    gamma = tt * rr
                    power = ss * tt / np.maximum(gamma - 1.0, 1e-3)
                    remaining = np.maximum(geom, power)
                    hit = np.flatnonzero(
                        remaining <= self.tail_rel_eps * (cyc[off:limit][pos] + remaining)
                    )
                    if hit.size:
                        upto = int(pos[hit[0]]) + off + 1
                        self.remaining = float(remaining[hit[0]])
                        status = _CLOSED
            self.survival[t : t + upto] = s_arr[:upto]
            self.beta_hat[t : t + upto] = bh_arr[:upto]
            self.cycle_total = float(cyc[upto - 1])
            self.energy_total = float(ene[upto - 1])
            self.t = t + upto
            if status != _REACHED:
                return status
        return _REACHED


class PartialInfoSolver:
    """Reusable partial-information analysis engine for one event model.

    Runs the streamed DP of :func:`analyse_partial_info_policy` through
    the analysis memo.  The per-distribution inputs (``beta``,
    ``1 - beta`` and the 0.999 quantile that bounds the earliest tail
    closure) are computed once here; the arrays are read-only, so every
    analysis on a solver equals a fresh one.  The clustering optimiser
    shares one solver across its whole search.
    """

    def __init__(
        self,
        distribution: InterArrivalDistribution,
        delta1: float,
        delta2: float,
    ) -> None:
        if not (0 <= delta1 < np.inf and 0 <= delta2 < np.inf):
            raise PolicyError(
                f"delta1/delta2 must be finite and >= 0, got {delta1}, {delta2}"
            )
        self.distribution = distribution
        self.delta1 = float(delta1)
        self.delta2 = float(delta2)
        self._beta, self._decay = _hazard_arrays(distribution)
        self._reach = distribution.quantile(0.999)

    def analyse(
        self,
        activation: np.ndarray,
        tail: float = 1.0,
        tail_rel_eps: float = DEFAULT_TAIL_REL_EPS,
        max_horizon: int = DEFAULT_MAX_HORIZON,
    ) -> PartialInfoAnalysis:
        """Analyse one activation vector (see module-level function)."""
        arr = np.asarray(activation, dtype=float)
        _check_activation(arr, tail)
        key = _memo_key(
            self.distribution,
            arr,
            self.delta1,
            self.delta2,
            tail,
            tail_rel_eps,
            max_horizon,
        )
        result = _MEMO.get(key)
        if result is not None:
            telemetry.count("analysis.memo.hit")
            return result
        telemetry.count("analysis.memo.miss")
        result = self._stream(arr, tail, tail_rel_eps, max_horizon)
        evicted = _MEMO.put(key, result)
        if evicted:
            telemetry.count("analysis.memo.evict", evicted)
        return result

    def _stream(
        self,
        arr: np.ndarray,
        tail: float,
        tail_rel_eps: float,
        max_horizon: int,
    ) -> PartialInfoAnalysis:
        d1, d2 = self.delta1, self.delta2
        c_vec = np.clip(arr, 0.0, 1.0)
        min_slots = max(arr.size + 1, self._reach, 32)
        cycle = _CycleStream(
            self._beta, self._decay, c_vec, float(np.clip(tail, 0.0, 1.0)),
            d1, d2, min_slots, tail_rel_eps, _native_dp(),
        )
        status = cycle.advance(max_horizon)

        tail_cycle = 0.0
        tail_energy = 0.0
        if status == _CLOSED:
            tail_cycle = cycle.remaining
            tail_energy = cycle.remaining * cycle.tail_c * (
                d1 + float(cycle.beta_hat[cycle.t - 1]) * d2
            )
        survival = cycle.survival[: cycle.t].copy()
        beta_hat = cycle.beta_hat[: cycle.t].copy()
        total = cycle.cycle_total + tail_cycle
        if total <= 0.0:
            raise PolicyError("degenerate policy: capture cycle has zero length")
        stationary = survival / total
        qom = min(self.distribution.mu / total, 1.0)
        energy_rate = (cycle.energy_total + tail_energy) / total
        for out in (beta_hat, survival, stationary):
            out.flags.writeable = False
        return PartialInfoAnalysis(
            beta_hat=beta_hat,
            survival=survival,
            stationary=stationary,
            expected_cycle=total,
            qom=qom,
            energy_rate=energy_rate,
            truncated=status == _REACHED,
        )


def analyse_partial_info_policy(
    distribution: InterArrivalDistribution,
    activation: np.ndarray,
    delta1: float,
    delta2: float,
    tail: float = 1.0,
    tail_rel_eps: float = DEFAULT_TAIL_REL_EPS,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> PartialInfoAnalysis:
    """Full stationary analysis of a partial-information recency policy.

    The DP streams until the *remaining* contribution of uncomputed slots
    to the expected capture cycle is below ``tail_rel_eps`` of the total
    (estimated from the current survival and its decay rate, covering
    both geometric and power-law tails), then closes the cycle with that
    estimate.  A policy that never captures in the tail (``tail`` and the
    trailing activation probabilities all zero) cannot close its cycle;
    it is reported ``truncated`` with the QoM upper estimate at the cap.

    Results are memoised (see module docstring); repeated calls with the
    same distribution, activation vector and tolerances return the cached
    analysis without recomputation.
    """
    solver = PartialInfoSolver(distribution, delta1, delta2)
    return solver.analyse(
        activation,
        tail=tail,
        tail_rel_eps=tail_rel_eps,
        max_horizon=max_horizon,
    )


# ----------------------------------------------------------------------
# Analysis memo: one process-wide repro.store MemoryLRU
# ----------------------------------------------------------------------
def _entry_nbytes(key: bytes, result: PartialInfoAnalysis) -> int:
    return (
        len(key)
        + result.beta_hat.nbytes
        + result.survival.nbytes
        + result.stationary.nbytes
        + 128
    )


_MEMO = MemoryLRU(_MEMO_MAX_ENTRIES, _MEMO_MAX_BYTES, nbytes=_entry_nbytes)


def clear_analysis_cache() -> None:
    """Drop every memoised analysis."""
    _MEMO.clear()


def analysis_cache_size() -> int:
    """Number of analyses currently memoised in this process."""
    return len(_MEMO)


def _memo_key(
    distribution: InterArrivalDistribution,
    arr: np.ndarray,
    delta1: float,
    delta2: float,
    tail: float,
    tail_rel_eps: float,
    max_horizon: int,
) -> bytes:
    header = struct.pack(
        "<ddddq", delta1, delta2, tail, tail_rel_eps, int(max_horizon)
    )
    return (
        distribution.fingerprint.encode("ascii") + header + arr.tobytes()
    )
