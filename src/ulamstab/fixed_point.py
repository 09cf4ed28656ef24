"""Contraction fixed-point iteration with certified a-posteriori bounds.

The engine iterates a self-map T with contraction constant L in [0, 1)
on a (generalized) b-metric space, asserting the contraction inequality
D(Tx, Ty) <= L * D(x, y) + 1e-9 on every consecutive iterate pair it
actually observes instead of trusting the declared L.

Three outcomes are possible:

* Converged: the step residual D(x_N, x_{N+1}) dropped to ``tol``.  The
  distance from x_N to the fixed point is then certified by
  C * residual with C = (4 / (1 - L**p))**(1/p), the headline bound; in
  the metric case (p = 1) the sharper residual / (1 - L) is reported
  alongside.
* DivergentInfinite: the residual is +inf and stays +inf for one further
  full step.  On a generalized space this certifies that the whole orbit
  keeps infinite step distances and no fixed point is approached.
* BudgetExhausted: ``max_iter`` steps without meeting either condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .core_spaces import _check_L, _check_count, _check_p, _check_tol, _fields_dict, as_extended
from .errors import HypothesisViolation, InputError

__all__ = ["Outcome", "ContractionMap", "FixedPointResult", "bound_factors", "iterate"]

# Additive slack on the observed contraction inequality.
CONTRACTION_SLACK = 1e-9


class Outcome(str, Enum):
    CONVERGED = "Converged"
    DIVERGENT_INFINITE = "DivergentInfinite"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class ContractionMap:
    """A self-map together with its declared contraction constant."""

    apply: Callable[[Any], Any]
    L: float

    def __post_init__(self):
        _check_L(self.L, "contraction constant")


@dataclass(frozen=True)
class FixedPointResult:
    """Result of a fixed-point run.

    ``iterate`` is T**iterations applied to x0 and ``residual`` is the
    step distance from it to the next iterate.  ``error_bound`` certifies
    the distance from ``iterate`` to the fixed point when the outcome is
    Converged (it is +inf for DivergentInfinite).  ``bounds`` carries the
    individual bound variants; ``residual_history`` has entry k equal to
    the residual after k applications of T.
    """

    outcome: Outcome
    iterate: Any
    iterations: int
    residual: float
    error_bound: float
    bounds: dict
    residual_history: tuple

    def to_dict(self) -> dict:
        return {**_fields_dict(self), "outcome": self.outcome.value}


def bound_factors(L: float, p: float) -> dict:
    """The certified-bound multipliers for constant L and exponent p.

    ``from_L_pow_p`` is (4 / (1 - L**p))**(1/p), the certified factor.
    ``metric`` is 1 / (1 - L), present only when p = 1.  L**p rounding to 1
    and a factor beyond the float range are input errors.
    """
    _check_p(p)
    _check_L(L)
    Lp = L**p
    if not Lp < 1.0:
        raise InputError(f"L**p must stay below 1, got {Lp!r}")
    try:
        factor = (4.0 / (1.0 - Lp)) ** (1.0 / p)
    except OverflowError:
        factor = math.inf
    if math.isinf(factor):  # a subnormal p makes 1/p = inf, and x**inf does not raise
        raise InputError(f"the bound factor (4 / (1 - L**p))**(1/p) overflows at "
                         f"L = {L!r}, p = {p!r}")
    factors = {"from_L_pow_p": factor}
    if p == 1.0:
        factors["metric"] = 1.0 / (1.0 - L)
    return factors


def _check_contraction(L, prev_pair, prev_residual, residual):
    if math.isinf(prev_residual):
        return  # no constraint through an infinite-distance pair
    allowed = L * prev_residual + CONTRACTION_SLACK
    if residual > allowed:
        raise HypothesisViolation(
            f"contraction with L={L!r} fails: step distance {residual!r} "
            f"exceeds allowed {allowed!r}",
            witness=prev_pair, observed=residual, allowed=allowed)


def iterate(map: ContractionMap, x0, distance, p: float, tol: float,
            max_iter: int) -> FixedPointResult:
    """Run the certified fixed-point iteration from ``x0``.

    ``distance`` is a callback returning values in [0, +inf]; NaN from it
    is a hard error.  ``p`` is the exponent of the ambient space (use 1
    for a plain metric).  Raises ``HypothesisViolation`` the moment two
    consecutive iterates at finite distance contract worse than the
    declared L allows.
    """
    _check_tol(tol, positive=True)
    _check_count(max_iter, 1, "max_iter")
    factors = bound_factors(map.L, p)

    def result(outcome, point, n, residual, history):
        bounds = {name: f * residual for name, f in factors.items()}
        return FixedPointResult(
            outcome=outcome, iterate=point, iterations=n, residual=residual,
            error_bound=bounds["from_L_pow_p"], bounds=bounds,
            residual_history=tuple(history))

    current, history = x0, []
    for n in range(max_iter + 1):
        nxt = map.apply(current)
        residual = as_extended(distance(current, nxt), name="distance")
        history.append(residual)
        if n:
            _check_contraction(map.L, pair, history[-2], residual)
        if residual <= tol:
            return result(Outcome.CONVERGED, current, n, residual, history)
        if n and math.isinf(residual) and math.isinf(history[-2]):
            # The orbit keeps infinite step distances: the divergent branch.
            return result(Outcome.DIVERGENT_INFINITE, current, n, residual, history)
        if n == max_iter:
            return result(Outcome.BUDGET_EXHAUSTED, current, n, residual, history)
        pair, current = (current, nxt), nxt
