"""Feasibility thresholds of the four scenarios.

The paper's feasibility map:

* node-omission, both models — feasible for every ``p < 1``;
* malicious, message passing — feasible iff ``p < 1/2`` (Thms 2.2/2.3);
* malicious, radio — feasible iff ``p < (1-p)^{Δ+1}`` (Thm 2.4).

The radio condition defines a degree-dependent threshold ``p*(Δ)``:
the unique root of ``p = (1-p)^{Δ+1}`` in ``(0, 1)`` (the left side is
increasing and the right side decreasing in ``p``, so the root exists
and is unique).  ``p*(1) ≈ 0.3177`` and ``p*(Δ) → ln? no — behaves like
``ln``-free ``Θ(log Δ / Δ)`` asymptotics, verified in tests.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro._validation import check_non_negative_int, check_probability

__all__ = [
    "MP_MALICIOUS_THRESHOLD",
    "radio_malicious_threshold",
    "radio_feasible",
    "mp_malicious_feasible",
    "omission_feasible",
    "radio_threshold_table",
    "radio_threshold_asymptote",
]

MP_MALICIOUS_THRESHOLD = 0.5
"""Theorems 2.2/2.3: message-passing malicious broadcast threshold."""


def radio_malicious_threshold(max_degree: int) -> float:
    """The root ``p*`` of ``p = (1-p)^{Δ+1}`` for ``Δ = max_degree``.

    Almost-safe radio broadcast with malicious transmission failures is
    feasible iff ``p < p*`` (Theorem 2.4).
    """
    delta = check_non_negative_int(max_degree, "max_degree")
    exponent = delta + 1

    def gap(p: float) -> float:
        return p - (1.0 - p) ** exponent

    from scipy import optimize
    # gap(0) = -1 < 0 and gap(1) = 1 > 0: brentq bracket is valid.
    root = optimize.brentq(gap, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    return float(root)


def radio_feasible(p: float, max_degree: int) -> bool:
    """Whether ``p < (1-p)^{Δ+1}`` — Theorem 2.4 feasibility."""
    p = check_probability(p, "p", allow_zero=True)
    delta = check_non_negative_int(max_degree, "max_degree")
    return p < (1.0 - p) ** (delta + 1)


def mp_malicious_feasible(p: float) -> bool:
    """Whether ``p < 1/2`` — Theorem 2.2 feasibility."""
    p = check_probability(p, "p", allow_zero=True)
    return p < MP_MALICIOUS_THRESHOLD


def omission_feasible(p: float) -> bool:
    """Whether ``p < 1`` — Theorem 2.1 feasibility (always true here)."""
    check_probability(p, "p", allow_zero=True)
    return True


def radio_threshold_table(degrees: List[int]) -> Dict[int, float]:
    """``{Δ: p*(Δ)}`` for a list of maximum degrees."""
    return {delta: radio_malicious_threshold(delta) for delta in degrees}


def radio_threshold_asymptote(max_degree: int) -> float:
    """First-order asymptotic ``p*(Δ) ≈ ln(Δ) / Δ`` for large ``Δ``.

    From ``p = (1-p)^{Δ+1} ≈ e^{-pΔ}``: taking logs, ``ln(1/p) = pΔ``,
    whose solution is ``p = W(Δ)/Δ ≈ ln(Δ)/Δ``.  Exposed so tests and
    the E05 bench can check the shape of the exact threshold curve.
    """
    delta = check_non_negative_int(max_degree, "max_degree")
    if delta < 2:
        return radio_malicious_threshold(delta)
    return math.log(delta) / delta
