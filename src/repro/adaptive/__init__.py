"""Online adaptive activation: estimate -> re-solve -> act (extension).

The paper designs pi_FI/pi_PI for a *known* gap distribution; this
package learns it online.  :class:`~repro.adaptive.controller.AdaptiveController`
drives a chunked simulation, estimates the distribution from observed
gaps (with censoring-aware deconvolution under partial information —
:mod:`repro.adaptive.observer`), and re-solves the activation policy on
drift or change-points, reusing the analysis memo for warm re-solves.  :class:`~repro.adaptive.automaton.LinearRewardInactionPolicy`
is the model-free learning-automaton baseline.
"""

from __future__ import annotations

from repro.adaptive.automaton import LinearRewardInactionPolicy
from repro.adaptive.controller import AdaptiveController, AdaptiveRecord
from repro.adaptive.observer import (
    GapObserver,
    deconvolve_captured_gaps,
    estimate_true_pmf,
)

__all__ = [
    "AdaptiveController",
    "AdaptiveRecord",
    "GapObserver",
    "LinearRewardInactionPolicy",
    "deconvolve_captured_gaps",
    "estimate_true_pmf",
]
