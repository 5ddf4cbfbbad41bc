"""Activation-policy interface shared by analysis and simulation.

A policy decides, at the beginning of each slot and after the recharge
has been applied (Fig. 1 ordering), the probability with which the sensor
activates.  Policies see two pieces of information:

* ``slot`` — the absolute 1-based slot index (used only by the periodic
  baseline, which ignores event dynamics);
* ``recency`` — the number of slots since the last *known* event.  Its
  semantics depend on the policy's information model: under full
  information it is the time since the last event occurrence (state
  ``h_i``); under partial information it is the time since the last
  captured event (state ``f_i``).

The simulator maintains the correct recency for each model and gates all
activation on the battery holding at least ``delta1 + delta2`` (paper
Sec. III-A).
"""

from __future__ import annotations

import abc
import enum
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import PolicyError


class InfoModel(str, enum.Enum):
    """Which event information the sensor can observe (paper Sec. III-B)."""

    FULL = "full"
    PARTIAL = "partial"


class ActivationPolicy(abc.ABC):
    """Base class for single-sensor activation policies."""

    #: Information model the policy is designed for; drives the recency
    #: semantics inside the simulator.
    info_model: InfoModel = InfoModel.FULL

    @abc.abstractmethod
    def activation_probability(self, slot: int, recency: int) -> float:
        """Probability of taking action a1 at ``slot`` with state ``recency``."""

    def recency_probabilities(
        self, horizon: int
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Optional fast path: ``(table, tail)`` for recency-only policies.

        ``table[i - 1]`` is the activation probability in state ``i`` for
        ``i <= horizon``; ``tail`` applies beyond the table.  Returns
        ``None`` when the policy also depends on the absolute slot.
        """
        return None

    def slot_probabilities(self, horizon: int) -> Optional[np.ndarray]:
        """Optional fast path for slot-indexed (recency-blind) policies."""
        return None


class VectorPolicy(ActivationPolicy):
    """A stationary policy given by a vector of per-state probabilities.

    ``vector[i - 1]`` is the activation probability in state ``i``
    (``h_i`` or ``f_i`` depending on ``info_model``); states beyond the
    vector use the constant ``tail``.
    """

    def __init__(
        self,
        vector: np.ndarray,
        tail: float = 0.0,
        info_model: InfoModel = InfoModel.FULL,
    ) -> None:
        arr = np.asarray(vector, dtype=float)
        if arr.ndim != 1:
            raise PolicyError("policy vector must be 1-D")
        # Written so that NaN (which fails every comparison) is rejected.
        if arr.size and not (arr.min() >= -1e-12 and arr.max() <= 1 + 1e-12):
            raise PolicyError(
                "activation probabilities must be finite and lie in [0, 1]"
            )
        if not -1e-12 <= tail <= 1 + 1e-12:
            raise PolicyError(f"tail probability must lie in [0, 1], got {tail}")
        self.vector = np.clip(arr, 0.0, 1.0)
        self.tail = float(np.clip(tail, 0.0, 1.0))
        self.info_model = info_model

    def activation_probability(self, slot: int, recency: int) -> float:
        if recency < 1:
            raise PolicyError(f"recency must be >= 1, got {recency}")
        if recency <= self.vector.size:
            return float(self.vector[recency - 1])
        return self.tail

    def recency_probabilities(self, horizon: int) -> Tuple[np.ndarray, float]:
        table = np.full(horizon, self.tail)
        n = min(self.vector.size, horizon)
        table[:n] = self.vector[:n]
        return table, self.tail

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_states={self.vector.size}, "
            f"tail={self.tail}, info_model={self.info_model.value})"
        )
