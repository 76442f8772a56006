"""Choosing Kučera plan parameters.

The paper constructs its Theorem 3.2 algorithm "by carefully combining
the two composition rules using suitable choices for the parameters
``ρ`` and ``κ``".  This planner makes those choices numerically:

1. **Boost** the raw edge (failure ``p``) with one [CO2] repetition to
   a working failure level ``q_work`` chosen so the level recurrence
   contracts (for the default ``ρ = 4, κ = 3``:
   ``Q ↦ tail₃(1-(1-Q)⁴) ≈ 12·Q²`` contracts below ``1/48``).
2. **Grow** the line geometrically: alternate ``Serial(ρ)`` and
   ``Repeat(κ)`` until the plan covers the requested length.  Because
   ``ρ > κ``, total time stays ``O(length)`` while the failure bound
   *squares* every level — the ``e^{-Ω(L^c)}`` of Lemma 3.2 with
   ``c = log(κ/2)/log(ρ)``; picking larger ``κ, ρ = κ+1`` pushes ``c``
   toward 1, i.e. ``α = 1/c`` toward 1 in Theorem 3.2.
3. **Final boost**: extra [CO2] repetitions until the exact computed
   failure clears the caller's target (rarely needed — the squaring
   usually lands far below it).

Everything is evaluated with the exact algebra of
:mod:`repro.core.kucera.plan`, so the returned plan's guarantee is a
certificate, not an asymptotic promise.
"""

from __future__ import annotations

import math
from typing import Optional

from repro._validation import check_positive_int, check_probability
from repro.analysis.chernoff import majority_error_probability
from repro.core.kucera.plan import Edge, Plan, PlanGuarantee, Repeat, Serial, guarantee

__all__ = ["build_plan", "edge_boost", "working_failure_level",
           "alpha_exponent"]


def alpha_exponent(rho: int, kappa: int) -> float:
    """The ``α`` of Theorem 3.2 achieved by constants ``(ρ, κ)``.

    The per-level failure exponent grows by ``κ/2`` while length grows
    by ``ρ``, giving failure ``e^{-Ω(L^c)}`` with
    ``c = log(κ/2)/log(ρ)`` and hence time ``O(D + log^α n)`` for
    ``α = 1/c``.
    """
    check_positive_int(rho, "rho")
    check_positive_int(kappa, "kappa")
    if kappa <= 2:
        raise ValueError(f"kappa must exceed 2 for a contracting level, got {kappa}")
    return math.log(rho) / math.log(kappa / 2.0)


def working_failure_level(rho: int, kappa: int) -> float:
    """A failure level at which the ``(ρ, κ)`` level map contracts.

    The level map is ``Q ↦ tailκ(1-(1-Q)^ρ) <= C(κ,⌈κ/2⌉)·(ρQ)^{κ/2}``;
    requiring the image to be at most ``Q/2`` at the working level gives
    a safe (conservative) closed form.
    """
    check_positive_int(rho, "rho")
    check_positive_int(kappa, "kappa")
    binom = math.comb(kappa, math.ceil(kappa / 2))
    half = math.ceil(kappa / 2)
    # Solve binom * (rho*q)^half <= q/2  =>  q^(half-1) <= 1/(2*binom*rho^half)
    if half < 2:
        raise ValueError(f"kappa {kappa} too small for a contracting level")
    level = (1.0 / (2.0 * binom * rho ** half)) ** (1.0 / (half - 1))
    return min(level, 0.05)


def edge_boost(p: float, rho: int = 4, kappa: int = 3) -> int:
    """Minimal odd ``κ0`` whose [CO2] boost takes edge failure ``p`` to
    the ``(ρ, κ)`` working level (step 1 above); ``ValueError`` unless
    ``p < 1/2`` and some ``κ0 <= 2**14`` does."""
    if p >= 0.5:
        raise ValueError(
            f"Kučera plans require p < 1/2 (Theorem 3.2 feasibility), got {p}"
        )
    target = working_failure_level(rho, kappa)
    if p <= target:
        return 1
    kappa0 = 1
    while majority_error_probability(kappa0, p) > target:
        kappa0 += 2
        if kappa0 > 1 << 14:
            raise ValueError(
                f"cannot boost edge failure {p} to {target}; p too close to 1/2"
            )
    return kappa0


def build_plan(min_length: int, p: float, failure_target: float,
               rho: int = 4, kappa: int = 3) -> Plan:
    """Build a plan of length >= ``min_length`` with failure <= target.

    Parameters
    ----------
    min_length:
        The line length (tree height) the plan must cover.
    p:
        Per-transmission failure probability; must be below 1/2
        (Theorem 3.2's feasibility constraint).
    failure_target:
        Required bound on the plan's end-to-end failure probability.
    rho, kappa:
        The [CO1]/[CO2] constants; ``rho > kappa`` keeps time linear,
        larger values trade constant factors for a smaller Theorem 3.2
        exponent ``α`` (see :func:`alpha_exponent`).
    """
    min_length = check_positive_int(min_length, "min_length")
    p = check_probability(p, "p", allow_zero=True)
    failure_target = check_probability(failure_target, "failure_target",
                                       allow_zero=False)
    if rho <= kappa:
        raise ValueError(
            f"need rho > kappa for linear time, got rho={rho}, kappa={kappa}"
        )
    kappa0 = edge_boost(p, rho, kappa)
    plan: Plan = Edge() if kappa0 == 1 else Repeat(Edge(), kappa0)
    while guarantee(plan, p).length < min_length:
        plan = Repeat(Serial(plan, rho), kappa)
    while guarantee(plan, p).failure > failure_target:
        plan = Repeat(plan, 3)
    return plan
