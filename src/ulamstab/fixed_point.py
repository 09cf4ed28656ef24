"""Contraction fixed-point iteration with certified a-posteriori bounds.

The engine iterates a self-map T with contraction constant L in [0, 1)
on a (generalized) b-metric space, asserting the contraction inequality
D(Tx, Ty) <= L * D(x, y) + 1e-9 on every consecutive iterate pair it
actually observes instead of trusting the declared L.

Three outcomes are possible:

* Converged: the step residual D(x_N, x_{N+1}) dropped to ``tol``.  The
  distance from x_N to the fixed point is then certified by
  C * residual with C = max((4 / (1 - L))**(1/p), (4 / (1 - L**p))**(1/p));
  both constants are reported, the larger one is the headline bound, and
  in the metric case (p = 1) the sharper residual / (1 - L) is reported
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

from .core_spaces import _check_L, _check_p, _fields_dict, as_extended
from .errors import HypothesisViolation, InputError

__all__ = ["Outcome", "ContractionMap", "FixedPointResult", "iterate", "estimate_lipschitz"]

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

    ``from_L`` is (4 / (1 - L))**(1/p); ``from_L_pow_p`` is
    (4 / (1 - L**p))**(1/p), which dominates because L**p >= L on [0, 1).
    ``metric`` is 1 / (1 - L), meaningful only when p = 1.
    """
    _check_p(p)
    _check_L(L)
    Lp = L**p
    if not Lp < 1.0:
        raise InputError(f"L**p must stay below 1, got {Lp!r}")
    factors = {
        "from_L": (4.0 / (1.0 - L)) ** (1.0 / p),
        "from_L_pow_p": (4.0 / (1.0 - Lp)) ** (1.0 / p),
    }
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
    if math.isnan(tol) or tol <= 0.0:
        raise InputError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter!r}")
    factors = bound_factors(map.L, p)
    headline = max(factors["from_L"], factors["from_L_pow_p"])

    def result(outcome, point, n, residual, history):
        bounds = {name: f * residual for name, f in factors.items()}
        return FixedPointResult(
            outcome=outcome, iterate=point, iterations=n, residual=residual,
            error_bound=headline * residual, bounds=bounds,
            residual_history=tuple(history))

    current = x0
    nxt = map.apply(current)
    residual = as_extended(distance(current, nxt), name="distance")
    history = [residual]
    if residual <= tol:
        return result(Outcome.CONVERGED, current, 0, residual, history)

    for n in range(1, max_iter + 1):
        prev_pair = (current, nxt)
        prev_residual = residual
        current = nxt
        nxt = map.apply(current)
        residual = as_extended(distance(current, nxt), name="distance")
        history.append(residual)
        _check_contraction(map.L, prev_pair, prev_residual, residual)
        if residual <= tol:
            return result(Outcome.CONVERGED, current, n, residual, history)
        if math.isinf(residual) and math.isinf(prev_residual):
            # The orbit keeps infinite step distances: the divergent branch.
            return result(Outcome.DIVERGENT_INFINITE, current, n, residual, history)

    return result(Outcome.BUDGET_EXHAUSTED, current, max_iter, residual, history)


def estimate_lipschitz(map: ContractionMap, sample_pairs, distance) -> float:
    """Largest observed ratio distance(Tx, Ty) / distance(x, y).

    Pairs whose distance is zero or +inf carry no information and are
    skipped; if nothing usable remains that is an input error.  A +inf
    ratio (finite pair mapped to an infinite-distance pair) is reported
    as is, signalling that the map is no contraction.
    """
    worst = None
    for x, y in sample_pairs:
        denom = as_extended(distance(x, y), name="distance")
        if denom == 0.0 or math.isinf(denom):
            continue
        num = as_extended(distance(map.apply(x), map.apply(y)), name="distance")
        ratio = num / denom
        if worst is None or ratio > worst:
            worst = ratio
    if worst is None:
        raise InputError("no sample pair with finite nonzero distance")
    return worst
