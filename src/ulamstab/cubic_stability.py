"""Stability certification for the Euler-Lagrange cubic functional equation.

For a fixed scalar m with |m| > 1 the equation reads

    2 m f(x + m y) + 2 f(m x - y)
        = (m**3 + m) * (f(x + y) + f(x - y)) + 2 (m**4 - 1) f(y).

Exact solutions are the cubic maps: they vanish at 0 and scale as
f(m x) = m**3 f(x).  Given an approximate solution f whose equation
defect is dominated by a control function phi that contracts along m
(phi(m x, m y) <= L |m|**3 phi(x, y) with L < 1), the map

    q(x) = lim_n f(m**n x) / m**(3 n)

is an exact solution with the certified per-point bound

    |f(x) - q(x)| <= (4 / (1 - L**p))**(1/p) * phi(x, 0) / (2 |m|**3),

where p is the exponent of the codomain quasi-norm.  ``verify_stability``
checks the two hypotheses on concrete samples, extracts q, evaluates the
bound pointwise, and returns everything as a machine-checkable
certificate; hypothesis failures yield a failing certificate with
witnesses, never an exception.

The independent cubicity witness used on the recovered q is the defect
of the Jun-Kim cubic equation

    f(2x + y) + f(2x - y) = 2 f(x + y) + 2 f(x - y) + 12 f(x),

which cubic maps also satisfy identically.  Each equation is written once,
as data: its points, maps (x, y) -> a x + b y, and its residual with exact
coefficients (``_euler_lagrange(m)``, ``_JUN_KIM``).  The defect check,
the one-point defects and the solution-defect lookups derive from it.

Points travel as blocks: one point per leading index, 1-d for numbers
and 2-d for vectors, so a grid is a block.  The checks, the control
functions, the norms and the equation defects work on whole blocks; a
one-point form is a call on a one-point block.  Single points go only to
an f, a control function or a norm without a block form, and into
witnesses: Python floats for numbers, rows otherwise.

Each rule has one owner: |m| > 1 is ``_check_m``, an overflowing m**4
``_euler_lagrange``, the one-step divisor 2 |m|**3 ``_step_divisor``,
f(0) = 0 ``hypothesis_defect_check``, the slack lhs <= rhs + tol *
max(1, rhs) ``_exceeds``, the pairs the hypothesis checks walk (with or
without zero arguments) ``_Pairs``, a worst ratio (the running maximum)
``_worst_ratio``, the bound factor (4 / (1 - L**p))**(1/p) and the rules
on L and p ``fixed_point.bound_factors`` (L alone:
``core_spaces._check_L``), the control-function parameters
``_check_parameters``; in ``core_spaces``: tolerances ``_check_tol``,
counts ``_check_count``, grid-point matching ``_RowIndex``, distinctness
``_distinct``, tiles ``_rows_per_tile``, the single points a per-point
callable gets ``_points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core_spaces import (
    AXIOM_SLACK,
    QuasiNormedSpace,
    SampledMap,
    _block,
    _check_L,
    _check_count,
    _check_tol,
    _distinct,
    _fields_dict,
    _points,
    _row_norm,
    _rows_per_tile,
    _scalar_pow,
    euclidean_norm,
    real_line,
)
from .errors import HypothesisViolation, InputError, OverflowGuardError
from .fixed_point import bound_factors

__all__ = [
    "DEFAULT_TOL",
    "PowerLaw",
    "ShiftNorm",
    "ConstantBound",
    "el_defect",
    "junkim_defect",
    "CheckReport",
    "phi_contractivity_check",
    "hypothesis_defect_check",
    "cubic_approximant",
    "stability_bound",
    "sup_weighted_distance",
    "m_closed_grid",
    "StabilityConfig",
    "StabilityCertificate",
    "verify_stability",
]

DEFAULT_TOL = 1e-9

# Forward orbits are cut off well inside the representable range so that
# f(m**n x) stays finite even for cubic growth.
_ORBIT_LIMIT = 1e100

# The stages of the approximant that ``verify_stability`` runs at most.
_MAX_STAGES = 80


def _zero_like(x):
    a = np.asarray(x, dtype=float)
    return 0.0 if a.ndim == 0 else np.zeros_like(a)


def _as_block(grid) -> np.ndarray:
    """A grid as a block of points, one per leading index: a 1-d block
    holds numbers (the real line), a 2-d block one vector per row."""
    g = np.asarray(grid, dtype=float)
    if not np.isfinite(g).all():
        raise InputError("grid must be finite")
    if g.ndim == 2 and g.shape[1] == 0:
        raise InputError("grid points must have at least one coordinate")
    return g


def _nonzero(P) -> np.ndarray:
    """Whether each point of a block has a nonzero coordinate."""
    return np.any(P != 0.0, axis=tuple(range(1, P.ndim)))


def _f_rows(f, P) -> np.ndarray:
    """f at each point of P, stacked: ``f.rows(P)`` when f has a block form,
    else one call per point."""
    if hasattr(f, "rows"):
        return np.asarray(f.rows(P), dtype=float)
    return np.array([f(p) for p in _points(P)], dtype=float)


def _ratios(num, denom) -> np.ndarray:
    """num / denom elementwise with the conventions 0/0 = 0 and pos/0 = +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / denom
    return np.where(denom == 0.0, np.where(num == 0.0, 0.0, math.inf), r)


def _first_max(r) -> int:
    """Index where a left-to-right running maximum of r ends: the first
    largest value, with NaN never winning unless it comes first."""
    if np.isnan(r[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(r), -math.inf, r)))


def _worst_ratio(num, denom) -> float:
    """The running maximum of the ratios num / denom (``_ratios``,
    ``_first_max``): NaN when the first ratio is NaN, a later NaN never wins."""
    r = _ratios(num, denom)
    return float(r[_first_max(r)])


# =========================================================================
# Control functions (perturbation bounds)
# =========================================================================

def _check_parameters(phi, **ranges):
    """Reject a control function unless each named parameter is a finite
    number in its range [low, high)."""
    for name, (low, high) in ranges.items():
        v = getattr(phi, name)
        if not (math.isfinite(v) and low <= v < high):
            raise InputError(f"{type(phi).__name__}.{name} must be finite and in "
                             f"[{low!r}, {high!r}), got {v!r}")


@dataclass(frozen=True)
class PowerLaw:
    """phi(x, y) = lam * (|x|**s + |y|**s) away from zero arguments.

    At x = 0 or y = 0 the value is 0 by convention, which keeps negative
    exponents s meaningful; the hypothesis checks therefore exclude zero
    arguments for this family (``excludes_zero``, read by ``_Pairs``).
    Contracts along m with L = |m|**(s - 3), so s < 3 is required.
    """

    lam: float
    s: float
    norm: Callable[..., float] = euclidean_norm
    excludes_zero = True

    def __post_init__(self):
        _check_parameters(self, lam=(0.0, math.inf), s=(-math.inf, 3.0))

    def __call__(self, x, y) -> float:
        return float(self.rows(_block(x), _block(y))[0])

    def at_zero(self, x) -> float:
        """The bound-effective phi(x, 0) = lam * |x|**s."""
        return float(self.at_zero_rows(_block(x))[0])

    def _pow(self, nx) -> np.ndarray:
        # Zero norms are masked by the callers; 0**s may not exist.
        return _scalar_pow(np.where(nx == 0.0, 1.0, nx), self.s)

    def rows(self, X, Y) -> np.ndarray:
        """phi over matching points of two blocks (a single point broadcasts)."""
        norm = _row_norm(self.norm)
        nx, ny = norm(X), norm(Y)
        v = self.lam * (self._pow(nx) + self._pow(ny))
        return np.where((nx == 0.0) | (ny == 0.0), 0.0, v)

    def at_zero_rows(self, X) -> np.ndarray:
        nx = _row_norm(self.norm)(X)
        at_origin = 0.0 if self.s > 0 else (self.lam if self.s == 0 else math.inf)
        return np.where(nx == 0.0, at_origin, self.lam * self._pow(nx))

    def lipschitz(self, m) -> float:
        return abs(m) ** (self.s - 3.0)


@dataclass(frozen=True)
class ShiftNorm:
    """phi(x, y) = c * |x + m y|; contracts along m with L = 1 / m**2."""

    c: float
    m: float
    norm: Callable[..., float] = euclidean_norm
    excludes_zero = False

    def __post_init__(self):
        _check_parameters(self, c=(0.0, math.inf), m=(-math.inf, math.inf))

    def __call__(self, x, y) -> float:
        return float(self.rows(_block(x), _block(y))[0])

    def at_zero(self, x) -> float:
        return float(self.at_zero_rows(_block(x))[0])

    def rows(self, X, Y) -> np.ndarray:
        """phi over matching points of two blocks (a single point broadcasts)."""
        return self.c * _row_norm(self.norm)(X + self.m * Y)

    def at_zero_rows(self, X) -> np.ndarray:
        return self.c * _row_norm(self.norm)(X)

    def lipschitz(self, m) -> float:
        return abs(m) ** -2.0


@dataclass(frozen=True)
class ConstantBound:
    """phi(x, y) = value; contracts along m with L = 1 / |m|**3."""

    value: float
    excludes_zero = False

    def __post_init__(self):
        _check_parameters(self, value=(0.0, math.inf))

    def __call__(self, x, y) -> float:
        return float(self.rows(_block(x), _block(y))[0])

    def at_zero(self, x) -> float:
        return float(self.at_zero_rows(_block(x))[0])

    def rows(self, X, Y) -> np.ndarray:
        return np.full(np.broadcast(X, Y).shape[0], float(self.value))

    def at_zero_rows(self, X) -> np.ndarray:
        return np.full(len(X), float(self.value))

    def lipschitz(self, m) -> float:
        return abs(m) ** -3.0


def _phi_rows(phi, X, Y) -> np.ndarray:
    """phi over matching points of two blocks; a phi with no block form is
    called pair by pair, on numbers when the blocks hold numbers."""
    if not hasattr(phi, "rows"):
        X, Y = np.broadcast_arrays(X, Y)
        return np.array([phi(x, y) for x, y in zip(_points(X), _points(Y))], dtype=float)
    return phi.rows(X, Y)


def _phi_at_zero_rows(phi, X) -> np.ndarray:
    """The weights phi(x, 0) of a block; without ``at_zero_rows``, phi is
    called point by point: ``phi.at_zero(x)`` if it has one, else phi(x, 0)."""
    if hasattr(phi, "at_zero_rows"):
        return phi.at_zero_rows(X)
    at_zero = getattr(phi, "at_zero", None) or (lambda x: phi(x, _zero_like(x)))
    return np.array([at_zero(x) for x in _points(X)], dtype=float)


# =========================================================================
# Equation defects
# =========================================================================

def _check_m(m) -> float:
    """m as a float, if it is finite with |m| > 1, where the forward rescaling
    contracts.  An int too large for a float is not finite, like m = inf."""
    try:
        v = float(m)
    except OverflowError:
        raise InputError("m must be finite, got an int too large for a float") from None
    if not abs(v) > 1.0:
        raise InputError(f"m must satisfy |m| > 1 (0 and +-1 are degenerate; the forward "
                         f"rescaling diverges for 0 < |m| <= 1), got {m!r}")
    if math.isinf(v):
        raise InputError(f"m must be finite, got {m!r}")
    return v


# An equation is its points, maps (X, Y) -> a X + b Y, and its residual from
# f at those points, in order, with exact coefficients: it evaluates on float
# blocks, Fractions and symbols alike.  x, y, x + y and x - y are one object each.
_x, _y = (lambda X, Y: X), (lambda X, Y: Y)
_sum, _diff = (lambda X, Y: X + Y), (lambda X, Y: X - Y)


class _Equation(NamedTuple):
    points: tuple
    residual: Callable


def _euler_lagrange(m) -> _Equation:
    """The paper's equation at m; an overflowing m**4 is a certified failure."""
    try:
        c4 = 2 * (m**4 - 1)
    except OverflowError:
        raise OverflowGuardError(f"the equation coefficient m**4 overflows at m = {m!r}") from None
    return _Equation((lambda X, Y: X + m * Y, lambda X, Y: m * X - Y, _sum, _diff, _y),
                     lambda a, b, c, d, e: 2 * m * a + 2 * b - (m**3 + m) * (c + d) - c4 * e)


_JUN_KIM = _Equation((lambda X, Y: 2 * X + Y, lambda X, Y: 2 * X - Y, _sum, _diff, _x),
                     lambda a, b, c, d, e: a + b - 2 * c - 2 * d - 12 * e)


def _step_divisor(m) -> float:
    """2 |m|**3: with f(0) = 0 the residual at (x, 0) is 2 m**3 (f(m x)/m**3 - f(x))."""
    return 2.0 * abs(m) ** 3


def _residual_rows(eq: _Equation, f, X, Y, FY=None) -> np.ndarray:
    """eq's residual over matching points of the blocks X and Y (a one-point
    block pairs with every point of the other); FY, if given, is f at Y."""
    return eq.residual(*(FY if p is _y and FY is not None else _f_rows(f, p(X, Y))
                         for p in eq.points))


def el_defect(f, m, x, y, norm: Callable[..., float] = euclidean_norm) -> float:
    """Codomain norm of the Euler-Lagrange residual; 0 for exact solutions."""
    return float(_row_norm(norm)(_residual_rows(_euler_lagrange(m), f, _block(x), _block(y)))[0])


def junkim_defect(f, x, y, norm: Callable[..., float] = euclidean_norm) -> float:
    """Codomain norm of the Jun-Kim residual; an independent cubicity witness."""
    return float(_row_norm(norm)(_residual_rows(_JUN_KIM, f, _block(x), _block(y)))[0])


# =========================================================================
# Hypothesis checks
# =========================================================================

@dataclass(frozen=True)
class CheckReport:
    """Outcome of a sampled inequality check.

    ``worst_ratio`` is the largest observed lhs/rhs (conventions 0/0 = 0,
    pos/0 = +inf); ``witness`` is the sample pair realizing it, or the
    first violating pair when ``passed`` is False.
    """

    passed: bool
    worst_ratio: float
    witness: tuple | None
    n_samples: int
    detail: str = ""


class _Pairs:
    """The ordered pairs (x, y) of a grid that the hypothesis checks walk.

    ``_Pairs(grid, phi, values)`` is the one place that decides which
    pairs are checked: every pair of the grid, or, for a phi that
    ``excludes_zero`` (the power law), every pair with no zero argument,
    in lexicographic order.  ``values``, f at the grid points in grid
    order, spares the defect check from calling f there, f(0) included.
    The pairs are never stored: a block is a tile, a run of x-points each
    against every y, with about 1/16 of a tile of coordinates of pairs and
    at least one x-point; a tile of one x-point holds it as a one-point
    block.  phi(x, y) is kept block by block (``phi_rows``), so that two
    checks of one ``_Pairs`` evaluate it once.  ``len()`` counts the pairs.
    """

    def __init__(self, grid, phi, values=None):
        g = _as_block(grid)
        nonzero = _nonzero(g)
        values = None if values is None else np.asarray(values, dtype=float)
        z = np.flatnonzero(~nonzero)[:1]  # the grid's own zero point, if any
        self.zero = _points(g[z] if len(z) else np.zeros((1,) + g.shape[1:]))[0]
        self.f0 = values[z[0]] if len(z) and values is not None else None
        if getattr(phi, "excludes_zero", False):
            g = g[nonzero]
            values = None if values is None else values[nonzero]
        self.points, self.values = g, values
        self._phi, self._phi_blocks = None, {}

    @classmethod
    def of(cls, samples, phi):
        """The pairs of a grid for phi; pairs already walkable come back as they are."""
        return samples if isinstance(samples, cls) else cls(samples, phi)

    def __len__(self) -> int:
        return len(self.points) ** 2

    def blocks(self, f=None):
        """(index of the first pair, x block, y block, f at the y block if f is given).

        f is called on the points once, unless their values came with the
        pairs.  A tile of one x-point holds it as a one-point block, which
        broadcasts against the y block.
        """
        P = self.points
        fy = self.values if self.values is not None or f is None else _f_rows(f, P)
        n = len(P)
        # A check keeps about 16 float temporaries per pair coordinate alive
        # (X, Y, FY, four evaluation points, their f values, the residual
        # and its norm), so 1/16 of a tile of coordinates keeps the 512 KiB
        # of one tile, which fits a 2 MiB cache.  One x-point of a 21-point
        # grid of 1024-sample signals fills a tile alone.
        rows = _rows_per_tile(P.size, share=16)
        for i0 in range(0, n, rows):
            X = P[i0:i0 + rows]
            yield (i0 * n, X if len(X) == 1 else _repeat_rows(X, n),
                   _tile_rows(P, len(X)), None if f is None else _tile_rows(fy, len(X)))

    def phi_rows(self, phi, start, X, Y) -> np.ndarray:
        """phi over the block of pairs from index ``start``, kept, so that a
        second check of the same pairs with the same phi reads it instead
        of evaluating phi again."""
        if phi is not self._phi:
            self._phi, self._phi_blocks = phi, {}
        key = (start, len(Y))
        if key not in self._phi_blocks:
            self._phi_blocks[key] = _phi_rows(phi, X, Y)
        return self._phi_blocks[key]

    def pair(self, k) -> tuple:
        i, j = divmod(k, len(self.points))
        return _points(self.points[i:i + 1])[0], _points(self.points[j:j + 1])[0]


def _repeat_rows(A, n) -> np.ndarray:
    """Each point of the block A n times in a row."""
    return np.broadcast_to(A[:, None], (len(A), n) + A.shape[1:]).reshape((-1,) + A.shape[1:])


def _tile_rows(A, k) -> np.ndarray:
    """The block A k times over; k = 1 is a view, not a copy."""
    return np.broadcast_to(A, (k,) + A.shape).reshape((-1,) + A.shape[1:])


def _exceeds(lhs, rhs, tol) -> np.ndarray:
    """lhs > rhs + tol * max(1, rhs): the slack rule of every sampled check."""
    with np.errstate(invalid="ignore"):
        return lhs > rhs + tol * np.maximum(1.0, rhs)


def _scan(pairs, sides, tol, exceeds, holds, f=None) -> CheckReport:
    """Check lhs <= rhs + tol * max(1, rhs) block by block.

    ``sides(start, X, Y, FY)`` gives both sides for the block of pairs from
    index ``start``, FY being f at the y block when f is given.  The first
    violating pair fails the check; otherwise the witness is the first pair
    of largest lhs/rhs.
    """
    worst, witness = 0.0, None
    for start, X, Y, FY in pairs.blocks(f):
        lhs, rhs = sides(start, X, Y, FY)
        ratio = _ratios(lhs, rhs)
        bad = _exceeds(lhs, rhs, tol)
        if bad.any():
            k = int(np.argmax(bad))
            return CheckReport(False, float(ratio[k]), pairs.pair(start + k), len(pairs),
                               exceeds(float(lhs[k]), float(rhs[k])))
        # The running maximum starts on the very first pair, NaN or not.
        k = _first_max(ratio if witness is None else np.where(np.isnan(ratio), -math.inf, ratio))
        if witness is None or ratio[k] > worst:
            worst, witness = float(ratio[k]), pairs.pair(start + k)
    return CheckReport(True, worst, witness, len(pairs), holds)


def phi_contractivity_check(phi, m, L, samples, tol=AXIOM_SLACK) -> CheckReport:
    """Check phi(m x, m y) <= L * |m|**3 * phi(x, y) on the pairs of a grid.

    ``samples`` is a grid, or its ``_Pairs`` as ``verify_stability``
    passes them; a phi that excludes zero arguments is checked on the
    pairs without one.  The slack is tol * max(1, rhs): purely absolute
    near unit scale, relative for large values, so that families whose
    ratio is exactly 1 survive float rounding at any magnitude.
    """
    _check_L(L)
    _check_tol(tol)
    pairs = _Pairs.of(samples, phi)
    scale = L * abs(m) ** 3

    def sides(start, X, Y, FY):
        return _phi_rows(phi, m * X, m * Y), scale * pairs.phi_rows(phi, start, X, Y)

    return _scan(pairs, sides, tol,
                 lambda lhs, rhs: f"phi(m x, m y) = {lhs!r} exceeds L |m|^3 phi(x, y) = {rhs!r}",
                 f"contractive on {len(pairs)} pairs")


def hypothesis_defect_check(f, phi, m, samples, norm: Callable[..., float] = euclidean_norm,
                            tol=DEFAULT_TOL) -> CheckReport:
    """Check el_defect(f, m, x, y) <= phi(x, y) + tol * max(1, phi) on the
    pairs of a grid.

    ``samples`` is a grid, or its ``_Pairs`` as ``verify_stability``
    passes them; a phi that excludes zero arguments is checked on the
    pairs without one.  ``f(0) = 0`` is verified first; its failure
    invalidates the whole construction and raises ``HypothesisViolation``.
    A residual that is not finite (an equation point or f overflows)
    raises ``OverflowGuardError`` naming its pair, unless a violating pair
    comes before it.
    """
    _check_tol(tol)
    pairs = _Pairs.of(samples, phi)
    norm_rows = _row_norm(norm)
    f0 = float(norm_rows(_block(f(pairs.zero) if pairs.f0 is None else pairs.f0))[0])
    if f0 > tol:
        raise HypothesisViolation(
            f"f(0) has norm {f0!r}, expected 0", witness=(pairs.zero,), observed=f0, allowed=tol)

    def sides(start, X, Y, FY):
        with np.errstate(over="ignore", invalid="ignore"):
            R = _residual_rows(_euler_lagrange(m), f, X, Y, FY)
        if np.isfinite(R).all():
            return norm_rows(R), pairs.phi_rows(phi, start, X, Y)
        # The first pair whose residual is not finite.
        X, Y = np.broadcast_arrays(X, Y)
        k = int(np.argmin(np.isfinite(R.reshape(len(R), -1)).all(axis=1)))
        if k:  # a violating pair before it decides the check
            lhs, rhs = norm_rows(R[:k]), _phi_rows(phi, X[:k], Y[:k])
            if _exceeds(lhs, rhs, tol).any():
                return lhs, rhs
        raise OverflowGuardError(f"the equation residual is not finite at the pair "
                                 f"{(_points(X[k:k + 1])[0], _points(Y[k:k + 1])[0])!r}")

    return _scan(pairs, sides, tol,
                 lambda defect, bound: f"defect {defect!r} exceeds phi {bound!r}",
                 f"defect dominated by phi on {len(pairs)} pairs", f)


# =========================================================================
# Cubic approximant extraction
# =========================================================================

def cubic_approximant(f, m, grid, n_max=_MAX_STAGES, tol=DEFAULT_TOL,
                      codomain: QuasiNormedSpace | None = None) -> SampledMap:
    """Extract q(x) = lim f(m**n x) / m**(3 n) on a finite grid.

    Stops once the sup over the grid of the codomain-norm change between
    successive stages drops to ``tol``, or at ``n_max`` stages.  The
    stage count and final change land in the result's ``meta``.
    Requires |m| > 1; an orbit or denominator leaving the safe floating
    range raises ``OverflowGuardError`` carrying the last safe stage.
    """
    m = _check_m(m)
    _check_tol(tol)
    _check_count(n_max, 1, "n_max")
    g = _as_block(grid)
    return _approximant(f, m, g, _f_rows(f, g), n_max, tol, codomain or real_line())[0]


def _approximant(f, m, g, vals, n_max, tol, codomain):
    """``cubic_approximant`` from stage 0, the values of f on the grid g.

    Also returns the per-point change from stage 0 to stage 1, the norm of
    f(m x)/m**3 - f(x).
    """
    points = g
    denom = 1.0
    n_used = 0
    change = math.inf
    for n in range(1, n_max + 1):
        points = points * m
        denom = denom * m**3
        escaped = np.max(np.abs(points)) > _ORBIT_LIMIT or abs(denom) > _ORBIT_LIMIT
        new_vals = None if escaped else _f_rows(f, points) / denom
        if escaped or not np.isfinite(new_vals).all():
            raise OverflowGuardError(
                f"forward orbit left the safe range at stage {n} (|m| = {abs(m)!r})" if escaped
                else f"f overflowed along the orbit at stage {n}",
                last_safe=SampledMap(g, vals, codomain,
                                     meta={"iterations": n - 1, "final_change": change}),
                iterations=n - 1)
        step = codomain.norm_rows(new_vals - vals)
        if n == 1:
            step1 = step
        change = float(np.max(step, initial=0.0))
        vals = new_vals
        n_used = n
        if change <= tol:
            break
    return SampledMap(g, vals, codomain,
                      meta={"iterations": n_used, "final_change": change}), step1


# =========================================================================
# Bounds and distances
# =========================================================================

def _bounds(config: StabilityConfig, weights):
    """The certified bounds from the weights phi(x, 0) of a block of points."""
    factor = bound_factors(config.L, config.p)["from_L_pow_p"]
    return factor * weights / _step_divisor(config.m)


def stability_bound(config: StabilityConfig, phi, x) -> float:
    """Certified per-point bound (4/(1 - L**p))**(1/p) * phi(x, 0) / (2 |m|**3)."""
    return float(_bounds(config, _phi_at_zero_rows(phi, _block(x))[0]))


def sup_weighted_distance(g: SampledMap, h: SampledMap, phi) -> float:
    """sup over the grid of |g(x) - h(x)| / phi(x, 0).

    The weight is the bound-effective phi(x, 0).  Conventions: 0/0 = 0
    and pos/0 = +inf (the sup of an empty admissible constant set).  The
    sup is ``_worst_ratio``, a running maximum in grid order.
    Both maps must live on the identical grid.
    """
    if not np.array_equal(g.domain_grid, h.domain_grid):
        raise InputError("sampled maps live on different grids")
    num = g.codomain.norm_rows(g.values - h.values)
    return _worst_ratio(num, _phi_at_zero_rows(phi, g.domain_grid))


def m_closed_grid(base, m, levels=2, symmetric=True) -> np.ndarray:
    """Build the grid {0} and {m**k * b : b in base, 0 <= k <= levels}.

    Scaling is by successive multiplication so that later lookups of
    m * x match grid rows bit for bit.  The zero point comes first, as
    ``verify_stability`` requires; then the points come base point by base
    point, each level by level and, when ``symmetric``, followed by its
    mirror image through the origin.  A point within the match tolerance of
    an earlier kept point is dropped, so the first occurrence stays.  A
    level that is not finite (m**k * b overflows) is an input error.
    """
    m = _check_m(m)
    _check_count(levels, 0, "levels")
    items = [np.asarray(b, dtype=float) for b in base]
    if not items:
        raise InputError("base must contain at least one point")
    d = items[0].shape
    if any(b.shape != d for b in items) or not items[0].size:
        raise InputError("base points must share one shape with at least one coordinate")
    scaled = [np.array(items)]
    for k in range(levels + 1):
        if k:
            with np.errstate(over="ignore"):
                scaled.append(scaled[-1] * m)
        if not np.isfinite(scaled[-1]).all():
            raise InputError(f"grid level {k} (m**{k} times the base) is not finite")
    R = np.stack(scaled, axis=1)  # (base point, level) + point shape
    if symmetric:
        R = np.stack([R, -R], axis=2)
    R = np.concatenate([np.zeros((1,) + d), R.reshape((-1,) + d)])
    return R[_distinct(R.reshape(len(R), -1))]


# =========================================================================
# Configuration and certificate
# =========================================================================

@dataclass(frozen=True)
class StabilityConfig:
    """Parameters of one stability verification run.

    ``m`` is the equation scalar (|m| > 1 so the forward rescaling
    contracts; 0 and +-1 are degenerate), ``L`` the contraction constant
    of the control function, ``p`` the codomain exponent, ``tol`` the
    certification tolerance.  ``codomain`` defaults to the real line and
    must agree with ``p``.
    """

    m: float
    L: float
    p: float = 1.0
    tol: float = DEFAULT_TOL
    codomain: QuasiNormedSpace | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", _check_m(self.m))
        bound_factors(self.L, self.p)  # the owner of the rules on L and p
        _check_tol(self.tol, positive=True)
        if self.codomain is None:
            object.__setattr__(self, "codomain", real_line())
        if abs(self.codomain.p - self.p) > 1e-9:
            raise InputError(
                f"p = {self.p!r} disagrees with the codomain exponent {self.codomain.p!r}")


@dataclass(frozen=True)
class StabilityCertificate:
    """Machine-checkable outcome of a verification run.

    ``passed`` requires: both hypothesis flags, max_error_ratio <= 1 + tol,
    homogeneity_defect <= tol * scale, and el_defect_of_q <= tol * scale,
    where ``scale`` = max(1, sup |q| over the grid).  All raw numbers stay
    available so a failing certificate still explains itself.
    """

    m: float
    L: float
    p: float
    tol: float
    grid_size: int
    hypothesis_defect_ok: bool
    defect_worst_ratio: float
    defect_witness: tuple | None
    hypothesis_phi_ok: bool
    phi_worst_ratio: float
    phi_witness: tuple | None
    one_step_ok: bool
    one_step_worst_ratio: float
    q: SampledMap | None
    approximant_iterations: int
    scale: float
    bound_per_point: tuple
    error_per_point: tuple
    max_error_ratio: float
    homogeneity_defect: float
    homogeneity_points: int
    el_defect_of_q: float
    junkim_defect_of_q: float
    defect_pairs_checked: int
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return (self.hypothesis_defect_ok
                and self.hypothesis_phi_ok
                and self.max_error_ratio <= 1.0 + self.tol
                and self.homogeneity_defect <= self.tol * self.scale
                and self.el_defect_of_q <= self.tol * self.scale)

    def to_dict(self) -> dict:
        doc = {**_fields_dict(self), "passed": self.passed, "q": None}
        if self.q is not None:
            doc["q"] = {
                "n_points": len(self.q),
                "iterations": self.q.meta.get("iterations"),
                "final_change": self.q.meta.get("final_change"),
            }
            if self.q.domain_grid.ndim == 1 and len(self.q) <= 256:
                doc["q"]["domain"] = self.q.domain_grid.tolist()
                doc["q"]["values"] = self.q.values.tolist()
        return doc


# =========================================================================
# The verification pipeline
# =========================================================================

def _failing_certificate(config, grid_size, detail, witness):
    return StabilityCertificate(
        m=config.m, L=config.L, p=config.p, tol=config.tol, grid_size=grid_size,
        hypothesis_defect_ok=False, defect_worst_ratio=math.inf, defect_witness=witness,
        hypothesis_phi_ok=False, phi_worst_ratio=math.nan, phi_witness=None,
        one_step_ok=False, one_step_worst_ratio=math.nan,
        q=None, approximant_iterations=0, scale=1.0,
        bound_per_point=(), error_per_point=(), max_error_ratio=math.inf,
        homogeneity_defect=math.inf, homogeneity_points=0,
        el_defect_of_q=math.inf, junkim_defect_of_q=math.inf, defect_pairs_checked=0,
        notes=(detail,))


def verify_stability(f, phi, config: StabilityConfig, grid) -> StabilityCertificate:
    """Run every check and assemble the stability certificate.

    ``grid`` must be finite, contain the zero point, and be m-closed
    enough for the homogeneity check to see at least one pair (x, m x).
    Hypothesis violations produce a failing certificate with witnesses;
    only malformed inputs and numerical overflow raise.

    An f with a block form ``f.rows(P)``, giving f at each point of the
    block P with the bits of one call per point, is evaluated on blocks;
    any other f is called once per evaluation point.  f at the grid points
    is computed once and serves the f(y) term of the defect check, the
    one-step check, the errors and stage 0 of the approximant.  Both
    checks walk one ``_Pairs``, the grid pairs phi is checked on, in tiles
    of x-points against every y; a failing check stops after the tile
    holding the first violating pair.  phi(x, y) is evaluated once per
    checked pair: the contractivity check reads it from the defect check,
    unless the defect check stopped early.  The one-step estimate reads f
    at m x from stage 1 of the approximant.
    The equation defects of q are taken over every ordered grid pair whose
    equation points all lie on the grid, at every grid size;
    ``defect_pairs_checked`` counts those pairs.
    """
    g = _as_block(grid)
    n_pts = len(g)
    codomain = config.codomain
    if _nonzero(g).all():
        raise InputError("grid must contain the zero point")
    _euler_lagrange(config.m)  # an overflowing m**4 is reported before an overflowing f
    F = _f_rows(f, g)
    finite = np.isfinite(F.reshape(n_pts, -1)).all(axis=1)
    if not finite.all():
        raise OverflowGuardError(
            f"f overflowed on the grid: f is not finite at grid point {int(np.argmin(finite))}")

    pairs = _Pairs(g, phi, F)
    try:
        defect_report = hypothesis_defect_check(f, phi, config.m, pairs,
                                                norm=codomain.norm, tol=config.tol)
    except HypothesisViolation as exc:
        # f(0) = 0 is the ground everything else stands on.
        return _failing_certificate(config, n_pts, str(exc), exc.witness)
    phi_report = phi_contractivity_check(phi, config.m, config.L, pairs)
    q, step = _approximant(f, config.m, g, F, _MAX_STAGES, config.tol, codomain)

    # One-step estimate: |f(m x)/m^3 - f(x)| <= phi(x, 0) / (2 |m|^3).
    weights = _phi_at_zero_rows(phi, g)
    rhs = weights / _step_divisor(config.m)
    one_step_worst = _worst_ratio(step, rhs)
    one_step_ok = not _exceeds(step, rhs, config.tol).any()
    scale = max(1.0, float(np.max(codomain.norm_rows(q.values))))

    bounds = _bounds(config, weights)
    errors = codomain.norm_rows(F - q.values)
    max_error_ratio = _worst_ratio(errors, bounds)

    image = q.index_rows(config.m * g)
    on_grid = np.flatnonzero(image >= 0)
    homo_points = len(on_grid)
    homo_defect = float(np.max(codomain.norm_rows(q.values[image[on_grid]]
                                                  - config.m**3 * q.values[on_grid]),
                               initial=0.0))

    el_q, jk_q, n_checked = _solution_defects(q, config.m, codomain.norm, n_pts)

    notes = []
    if not defect_report.passed:
        notes.append(f"hypothesis defect check failed: {defect_report.detail}")
    if not phi_report.passed:
        notes.append(f"phi contractivity check failed: {phi_report.detail}")

    return StabilityCertificate(
        m=config.m, L=config.L, p=config.p, tol=config.tol, grid_size=n_pts,
        hypothesis_defect_ok=defect_report.passed,
        defect_worst_ratio=defect_report.worst_ratio,
        defect_witness=defect_report.witness,
        hypothesis_phi_ok=phi_report.passed,
        phi_worst_ratio=phi_report.worst_ratio,
        phi_witness=phi_report.witness,
        one_step_ok=one_step_ok,
        one_step_worst_ratio=one_step_worst,
        q=q,
        approximant_iterations=q.meta.get("iterations", 0),
        scale=scale,
        bound_per_point=tuple(bounds.tolist()),
        error_per_point=tuple(errors.tolist()),
        max_error_ratio=max_error_ratio,
        homogeneity_defect=homo_defect,
        homogeneity_points=homo_points,
        el_defect_of_q=el_q,
        junkim_defect_of_q=jk_q,
        defect_pairs_checked=n_checked,
        notes=tuple(notes))


def _solution_defects(q: SampledMap, m, norm, n_pts):
    """Equation defects of the recovered q over the in-range grid pairs.

    A pair is in range for an equation when every point it touches lands
    on the grid.  Every ordered pair of the ``n_pts`` grid points is a
    candidate, walked in tiles: a run of x-points against every y, one tile
    of pairs and at least one x-point.  A tile is looked up in stages:
    x + y, then x - y where it landed (the points both equations share),
    then each equation's own points where both did; x and y are grid rows.
    A stage computes the first coordinate of its point for every pair (the
    point maps act coordinate by coordinate, so it is the point's first
    coordinate bit for bit) and builds a point in full only where that
    coordinate can match a grid row, at most one tile of coordinates at a
    time (``_RowIndex.lookup``).  A grid of up to 256 points is one tile.
    Returns the worst Euler-Lagrange and Jun-Kim defects and the pairs in
    range for either.
    """
    index = q._index
    rows = index.rows
    first = rows[:, 0]
    equations = (_euler_lagrange(m), _JUN_KIM)
    shared = [p for p in equations[0].points if p in equations[1].points and p not in (_x, _y)]

    def at(p, xi, yi):
        """The grid index of p(x, y) for the pairs of grid rows xi, yi, or -1."""
        return index.lookup(p(first[xi], first[yi]), lambda k: p(rows[xi[k]], rows[yi[k]]))

    ys = np.arange(n_pts)
    step = _rows_per_tile(n_pts)  # x-points per tile
    worst = [0.0] * len(equations)
    checked = 0
    for start in range(0, n_pts, step):
        xs = np.arange(start, min(start + step, n_pts))
        found = {_x: np.repeat(xs, n_pts), _y: np.tile(ys, len(xs))}
        # A point that overflows is compared with every row.
        with np.errstate(over="ignore", invalid="ignore"):
            for p in shared:
                found[p] = at(p, found[_x], found[_y])
                found = {r: v[found[p] >= 0] for r, v in found.items()}
            idx = [np.stack([found[p] if p in found else at(p, found[_x], found[_y])
                             for p in eq.points]) for eq in equations]
        in_range = np.zeros(len(found[_x]), dtype=bool)
        for e, eq in enumerate(equations):
            ok = (idx[e] >= 0).all(axis=0)
            in_range |= ok
            if ok.any():
                R = eq.residual(*(q.values[k] for k in idx[e][:, ok]))
                worst[e] = max(worst[e], float(np.max(_row_norm(norm)(R))))
        checked += int(np.count_nonzero(in_range))
    return worst[0], worst[1], checked
