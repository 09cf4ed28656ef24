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

which cubic maps also satisfy identically.

Points travel as blocks: arrays with one point per leading index, 1-d
for numbers (the real line) and 2-d for vectors, so a grid is a block.
The checks, the control functions and the norms work on whole blocks.
Single points are handed out in three places only: to f, to a control
function or norm without a block form, and in reported witnesses; they
are Python floats when the block holds numbers, rows otherwise.

Each rule of the pipeline has one owner: |m| > 1 is ``_check_m``, f(0) = 0
is tested by ``hypothesis_defect_check`` alone, the slack
lhs <= rhs + tol * max(1, rhs) of every sampled check is ``_exceeds``, and
the bound factor (4 / (1 - L**p))**(1/p) is ``fixed_point.bound_factors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core_spaces import (
    _MATCH_ATOL,
    _MATCH_RTOL,
    AXIOM_SLACK,
    QuasiNormedSpace,
    SampledMap,
    _block,
    _check_L,
    _check_p,
    _fields_dict,
    _row_norm,
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
    "phi_at_zero",
    "el_residual",
    "el_defect",
    "junkim_residual",
    "junkim_defect",
    "CheckReport",
    "phi_contractivity_check",
    "hypothesis_defect_check",
    "cubic_approximant",
    "stability_bound",
    "power_law_bound",
    "sup_weighted_distance",
    "cubic_rescale",
    "m_closed_grid",
    "StabilityConfig",
    "StabilityCertificate",
    "verify_stability",
]

DEFAULT_TOL = 1e-9

# Forward orbits are cut off well inside the representable range so that
# f(m**n x) stays finite even for cubic growth.
_ORBIT_LIMIT = 1e100


def _zero_like(x):
    a = np.asarray(x, dtype=float)
    return 0.0 if a.ndim == 0 else np.zeros_like(a)


def _as_block(grid) -> np.ndarray:
    """A grid as a block of points, one per leading index: a 1-d block
    holds numbers (the real line), a 2-d block one vector per row."""
    g = np.asarray(grid, dtype=float)
    if not np.isfinite(g).all():
        raise InputError("grid must be finite")
    return g


def _nonzero(P) -> np.ndarray:
    """Whether each point of a block has a nonzero coordinate."""
    return np.any(P != 0.0, axis=tuple(range(1, P.ndim)))


def _points(P):
    """A block's points one by one: Python floats from a 1-d block, else rows."""
    return P.tolist() if P.ndim == 1 else P


def _f_rows(f, P) -> np.ndarray:
    """f at each point of P, stacked: one call per point, never on a batch."""
    return np.array([f(p) for p in _points(P)], dtype=float)


def _ratios(num, denom) -> np.ndarray:
    """num / denom elementwise with the conventions 0/0 = 0 and pos/0 = +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / denom
    return np.where(denom == 0.0, np.where(num == 0.0, 0.0, math.inf), r)


def _max_ratio(num, denom) -> float:
    """The largest num / denom, at least 0; NaN ratios are ignored."""
    r = _ratios(num, denom)
    return float(np.max(np.where(np.isnan(r), 0.0, r), initial=0.0))


def _first_max(r) -> int:
    """Index where a left-to-right running maximum of r ends: the first
    largest value, with NaN never winning unless it comes first."""
    if np.isnan(r[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(r), -math.inf, r)))


# =========================================================================
# Control functions (perturbation bounds)
# =========================================================================

@dataclass(frozen=True)
class PowerLaw:
    """phi(x, y) = lam * (|x|**s + |y|**s) away from zero arguments.

    At x = 0 or y = 0 the value is 0 by convention, which keeps negative
    exponents s meaningful; the hypothesis checks therefore exclude zero
    arguments for this family.  Contracts along m with
    L = |m|**(s - 3), so s < 3 is required.
    """

    lam: float
    s: float
    norm: Callable[..., float] = euclidean_norm
    excludes_zero = True

    def __post_init__(self):
        if self.lam < 0:
            raise InputError(f"lam must be nonnegative, got {self.lam!r}")
        if not self.s < 3:
            raise InputError(f"power-law exponent must satisfy s < 3, got {self.s!r}")

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
        if self.c < 0:
            raise InputError(f"c must be nonnegative, got {self.c!r}")

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
        if self.value < 0:
            raise InputError(f"value must be nonnegative, got {self.value!r}")

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


def phi_at_zero(phi, x) -> float:
    """The weight phi(x, 0) used by bounds and the weighted sup distance."""
    if hasattr(phi, "at_zero"):
        return phi.at_zero(x)
    return phi(x, _zero_like(x))


def _phi_rows(phi, X, Y) -> np.ndarray:
    """phi over matching points of two blocks; a phi with no block form is
    called pair by pair, on numbers when the blocks hold numbers."""
    if not hasattr(phi, "rows"):
        X, Y = np.broadcast_arrays(X, Y)
        return np.array([phi(x, y) for x, y in zip(_points(X), _points(Y))], dtype=float)
    return phi.rows(X, Y)


def _phi_at_zero_rows(phi, X) -> np.ndarray:
    if not hasattr(phi, "at_zero_rows"):
        return np.array([phi_at_zero(phi, x) for x in _points(X)], dtype=float)
    return phi.at_zero_rows(X)


# =========================================================================
# Equation defects
# =========================================================================

def _check_m(m):
    """Reject m unless |m| > 1, where the forward rescaling contracts."""
    if not abs(m) > 1.0:
        raise InputError(f"m must satisfy |m| > 1 (0 and +-1 are degenerate; the forward "
                         f"rescaling diverges for 0 < |m| <= 1), got {m!r}")


def _m4(m):
    """m**4, the largest coefficient of the equation; its overflow is a
    certified failure."""
    try:
        return m**4
    except OverflowError:
        raise OverflowGuardError(f"the equation coefficient m**4 overflows at m = {m!r}") from None


def _el_combine(m, a, b, c, d, e):
    """The Euler-Lagrange residual from f at x + m y, m x - y, x + y, x - y, y."""
    return (2.0 * m * a + 2.0 * b - (m**3 + m) * (c + d) - 2.0 * (_m4(m) - 1.0) * e)


def _junkim_combine(a, b, c, d, e):
    """The Jun-Kim residual from f at 2x + y, 2x - y, x + y, x - y, x."""
    return a + b - 2.0 * c - 2.0 * d - 12.0 * e


def el_residual(f, m, x, y):
    """Pointwise residual of the Euler-Lagrange cubic equation at (x, y)."""
    return _el_combine(m, np.asarray(f(x + m * y), dtype=float),
                       np.asarray(f(m * x - y), dtype=float),
                       np.asarray(f(x + y), dtype=float),
                       np.asarray(f(x - y), dtype=float),
                       np.asarray(f(y), dtype=float))


def el_defect(f, m, x, y, norm: Callable[..., float] = euclidean_norm) -> float:
    """Codomain norm of the Euler-Lagrange residual; 0 for exact solutions."""
    return norm(el_residual(f, m, x, y))


def _el_residual_rows(f, m, X, Y, FY) -> np.ndarray:
    """el_residual over matching points of the blocks X and Y, with f at Y given."""
    return _el_combine(m, _f_rows(f, X + m * Y), _f_rows(f, m * X - Y),
                       _f_rows(f, X + Y), _f_rows(f, X - Y), FY)


def _el_defect_rows(f, m, xs, ys, norm) -> np.ndarray:
    """``el_defect`` at each pair of matching points of two grids, bit for bit.

    ``xs`` and ``ys`` are blocks; either may hold a single point, which
    pairs with every point of the other.  f is still called once per point.
    """
    X, Y = _as_block(xs), _as_block(ys)
    return _row_norm(norm)(_el_residual_rows(f, m, X, Y, _f_rows(f, Y)))


def junkim_residual(f, x, y):
    """Pointwise residual of the Jun-Kim cubic equation at (x, y)."""
    return _junkim_combine(np.asarray(f(2.0 * x + y), dtype=float),
                           np.asarray(f(2.0 * x - y), dtype=float),
                           np.asarray(f(x + y), dtype=float),
                           np.asarray(f(x - y), dtype=float),
                           np.asarray(f(x), dtype=float))


def junkim_defect(f, x, y, norm: Callable[..., float] = euclidean_norm) -> float:
    """Codomain norm of the Jun-Kim residual; an independent cubicity witness."""
    return norm(junkim_residual(f, x, y))


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
    """Ordered pairs (x, y) of points, walked by the checks in blocks.

    ``_Pairs.grid`` holds every pair of a grid in lexicographic order; the
    pairs are never stored, and a block is one x-point against every y.
    ``_Pairs.of`` holds a sequence of pairs, walked in consecutive blocks
    of ``BLOCK``.  ``len()`` counts the pairs.
    """

    BLOCK = 64

    def __init__(self, xs, ys, zero, values=None, f0=None, samples=None):
        self.xs, self.ys, self.zero = xs, ys, zero
        self.values, self.f0, self.samples = values, f0, samples

    @classmethod
    def grid(cls, grid, exclude_zero=False, values=None):
        """Every pair of a grid.  ``exclude_zero`` leaves out the pairs with a
        zero argument.  ``values``, f at the grid points in grid order,
        spares the defect check from calling f there, f(0) included."""
        g = _as_block(grid)
        nonzero = _nonzero(g)
        values = None if values is None else np.asarray(values, dtype=float)
        z = np.flatnonzero(~nonzero)[:1]  # the grid's own zero point, if any
        zero = _points(g[z] if len(z) else np.zeros((1,) + g.shape[1:]))[0]
        f0 = values[z[0]] if len(z) and values is not None else None
        if exclude_zero:
            g = g[nonzero]
            values = None if values is None else values[nonzero]
        return cls(g, g, zero, values, f0)

    @classmethod
    def of(cls, samples):
        """A sequence of (x, y) pairs; pairs already walkable are returned as they are."""
        if isinstance(samples, cls):
            return samples
        both = np.asarray(samples, dtype=float) if len(samples) else np.empty((0, 2))
        x0 = samples[0][0] if len(samples) else 0.0
        return cls(both[:, 0], both[:, 1], _zero_like(x0), samples=samples)

    def __len__(self) -> int:
        return len(self.xs) * len(self.ys) if self.samples is None else len(self.samples)

    def blocks(self, f=None):
        """(index of the first pair, x block, y block, f at the y block if f is given).

        A grid calls f on its points once, unless their values came with
        it; a sequence calls f block by block, so that a check stopping
        early calls f on no later pair.
        """
        if self.samples is None:
            fy = self.values if self.values is not None or f is None else _f_rows(f, self.ys)
            for i in range(len(self.xs)):
                yield i * len(self.ys), self.xs[i:i + 1], self.ys, fy
            return
        for start in range(0, len(self.xs), self.BLOCK):
            X, Y = self.xs[start:start + self.BLOCK], self.ys[start:start + self.BLOCK]
            yield start, X, Y, None if f is None else _f_rows(f, Y)

    def pair(self, k) -> tuple:
        if self.samples is not None:
            return tuple(self.samples[k])
        i, j = divmod(k, len(self.ys))
        return _points(self.xs[i:i + 1])[0], _points(self.ys[j:j + 1])[0]


def _exceeds(lhs, rhs, tol) -> np.ndarray:
    """lhs > rhs + tol * max(1, rhs): the slack rule of every sampled check."""
    with np.errstate(invalid="ignore"):
        return lhs > rhs + tol * np.maximum(1.0, rhs)


def _scan(pairs, sides, tol, exceeds, holds, f=None) -> CheckReport:
    """Check lhs <= rhs + tol * max(1, rhs) block by block.

    ``sides(X, Y, FY)`` gives both sides for one block, FY being f at the
    y block when f is given.  The first violating pair fails the check;
    otherwise the witness is the first pair of largest lhs/rhs.
    """
    worst, witness = 0.0, None
    for start, X, Y, FY in pairs.blocks(f):
        lhs, rhs = sides(X, Y, FY)
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
    """Check phi(m x, m y) <= L * |m|**3 * phi(x, y) on sample pairs.

    ``samples`` is a sequence of (x, y) pairs, or every pair of a grid
    as ``verify_stability`` passes them.  The slack is tol * max(1, rhs):
    purely absolute near unit scale, relative for large values, so that
    families whose ratio is exactly 1 survive float rounding at any
    magnitude.
    """
    if math.isnan(L) or L < 0:
        raise InputError(f"L must be nonnegative, got {L!r}")
    pairs = _Pairs.of(samples)
    scale = L * abs(m) ** 3

    def sides(X, Y, FY):
        return _phi_rows(phi, m * X, m * Y), scale * _phi_rows(phi, X, Y)

    return _scan(pairs, sides, tol,
                 lambda lhs, rhs: f"phi(m x, m y) = {lhs!r} exceeds L |m|^3 phi(x, y) = {rhs!r}",
                 f"contractive on {len(pairs)} pairs")


def hypothesis_defect_check(f, phi, m, samples, norm: Callable[..., float] = euclidean_norm,
                            tol=DEFAULT_TOL) -> CheckReport:
    """Check el_defect(f, m, x, y) <= phi(x, y) + tol * max(1, phi) on samples.

    ``samples`` is a sequence of (x, y) pairs, or every pair of a grid
    as ``verify_stability`` passes them.  ``f(0) = 0`` is verified first;
    its failure invalidates the whole construction and raises
    ``HypothesisViolation``.
    """
    pairs = _Pairs.of(samples)
    f0 = norm(np.asarray(f(pairs.zero) if pairs.f0 is None else pairs.f0, dtype=float))
    if f0 > tol:
        raise HypothesisViolation(
            f"f(0) has norm {f0!r}, expected 0", witness=(pairs.zero,), observed=f0, allowed=tol)
    norm_rows = _row_norm(norm)

    def sides(X, Y, FY):
        R = _el_residual_rows(f, m, X, Y, FY)
        return norm_rows(R), _phi_rows(phi, X, Y)

    return _scan(pairs, sides, tol,
                 lambda defect, bound: f"defect {defect!r} exceeds phi {bound!r}",
                 f"defect dominated by phi on {len(pairs)} pairs", f)


# =========================================================================
# Cubic approximant extraction
# =========================================================================

def cubic_approximant(f, m, grid, n_max=80, tol=DEFAULT_TOL,
                      codomain: QuasiNormedSpace | None = None) -> SampledMap:
    """Extract q(x) = lim f(m**n x) / m**(3 n) on a finite grid.

    Stops once the sup over the grid of the codomain-norm change between
    successive stages drops to ``tol``, or at ``n_max`` stages.  The
    stage count and final change land in the result's ``meta``.
    Requires |m| > 1; an orbit or denominator leaving the safe floating
    range raises ``OverflowGuardError`` carrying the last safe stage.
    """
    _check_m(m)
    if math.isnan(tol) or tol < 0.0:
        raise InputError(f"tol must be nonnegative, got {tol!r}")
    g = _as_block(grid)
    return _approximant(f, m, g, _f_rows(f, g), n_max, tol, codomain or real_line())[0]


def _approximant(f, m, g, vals, n_max, tol, codomain):
    """``cubic_approximant`` from stage 0, the values of f on the grid g.

    Also returns the per-point change from stage 0 to stage 1, the norm of
    f(m x)/m**3 - f(x).
    """
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max!r}")
    points = g
    denom = 1.0
    n_used = 0
    change = math.inf
    for n in range(1, n_max + 1):
        points = points * m
        denom = denom * m**3
        if np.max(np.abs(points)) > _ORBIT_LIMIT or abs(denom) > _ORBIT_LIMIT:
            raise OverflowGuardError(
                f"forward orbit left the safe range at stage {n} (|m| = {abs(m)!r})",
                last_safe=SampledMap(g, vals, codomain,
                                     meta={"iterations": n - 1, "final_change": change}),
                iterations=n - 1)
        new_vals = _f_rows(f, points) / denom
        if not np.isfinite(new_vals).all():
            raise OverflowGuardError(
                f"f overflowed along the orbit at stage {n}",
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
    return factor * weights / (2.0 * abs(config.m) ** 3)


def stability_bound(config: StabilityConfig, phi, x) -> float:
    """Certified per-point bound (4/(1 - L**p))**(1/p) * phi(x, 0) / (2 |m|**3)."""
    return float(_bounds(config, phi_at_zero(phi, x)))


def power_law_bound(phi: PowerLaw, m, p, x) -> float:
    """Closed-form bound for the power-law family:

    (4 / (1 - |m|**(s-3)))**(1/p) * lam * |x|**s / (2 |m|**3).

    Coincides with ``stability_bound`` at L = |m|**(s-3) when p = 1.
    """
    L = phi.lipschitz(m)
    if not L < 1.0:
        raise InputError(f"|m|**(s-3) must stay below 1, got {L!r}")
    factor = (4.0 / (1.0 - L)) ** (1.0 / p)
    return factor * phi.at_zero(x) / (2.0 * abs(m) ** 3)


def sup_weighted_distance(g: SampledMap, h: SampledMap, phi) -> float:
    """sup over the grid of |g(x) - h(x)| / phi(x, 0).

    The weight is the bound-effective phi(x, 0).  Conventions: 0/0 = 0
    and pos/0 = +inf (the sup of an empty admissible constant set).
    Both maps must live on the identical grid.
    """
    if not np.array_equal(g.domain_grid, h.domain_grid):
        raise InputError("sampled maps live on different grids")
    num = g.codomain.norm_rows(g.values - h.values)
    return _max_ratio(num, _phi_at_zero_rows(phi, g.domain_grid))


def cubic_rescale(g: SampledMap, m) -> SampledMap:
    """The iteration operator (T g)(x) = g(m x) / m**3 on sampled maps.

    Defined on the sub-grid of points whose m-multiple is still on g's
    grid; empty sub-grids are an input error.
    """
    j = g.index_rows(m * g.domain_grid)
    keep = np.flatnonzero(j >= 0)
    if not len(keep):
        raise InputError("no grid point has its m-multiple on the grid")
    return SampledMap(g.domain_grid[keep], g.values[j[keep]] / m**3, g.codomain)


def m_closed_grid(base, m, levels=2, symmetric=True, include_zero=True) -> np.ndarray:
    """Build the grid {m**k * b : b in base, 0 <= k <= levels}.

    Scaling is by successive multiplication so that later lookups of
    m * x match grid rows bit for bit.  Optionally mirrored through the
    origin and including the zero point (listed first).  Duplicates are
    dropped, keeping the first occurrence.
    """
    _check_m(m)
    if levels < 0:
        raise InputError(f"levels must be >= 0, got {levels!r}")
    items = [np.asarray(b, dtype=float) for b in base]
    if not items:
        raise InputError("base must contain at least one point")
    d = items[0].shape
    rows = []
    if include_zero:
        rows.append(np.zeros(d))
    for b in items:
        if b.shape != d:
            raise InputError("base points must share one shape")
        cur = b.copy()
        for _ in range(levels + 1):
            rows.append(cur)
            if symmetric:
                rows.append(-cur)
            cur = cur * m
    R = np.array(rows)
    flat = R.reshape(len(R), -1)
    keep = []
    for i, r in enumerate(flat):
        near = np.abs(r - flat[keep]) <= _MATCH_ATOL + _MATCH_RTOL * np.abs(r)
        if not near.all(axis=1).any():
            keep.append(i)
    return R[keep]


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
        _check_m(self.m)
        _check_L(self.L)
        _check_p(self.p)
        if math.isnan(self.tol) or self.tol <= 0.0:
            raise InputError(f"tol must be positive, got {self.tol!r}")
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

# Full defect-pair enumeration is quadratic with grid lookups; above this
# grid size only pairs through the origin are enumerated.  Those are only
# part of the in-range pairs, even on geometric grids: 481 of 545 to 617 on
# 257-point dyadic grids with m = 2.
_FULL_PAIR_LIMIT = 48


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


def verify_stability(f, phi, config: StabilityConfig, grid, n_max=80) -> StabilityCertificate:
    """Run every check and assemble the stability certificate.

    ``grid`` must be finite, contain the zero point, and be m-closed
    enough for the homogeneity check to see at least one pair (x, m x).
    Hypothesis violations produce a failing certificate with witnesses;
    only malformed inputs and numerical overflow raise.

    f is called once per evaluation point, never on a batch: f at the
    grid points is computed once and serves the f(y) term of the defect
    check, the one-step check, the errors and stage 0 of the approximant.
    The n**2 grid pairs are processed one x-row at a time.  The one-step
    estimate reads f at m x from stage 1 of the approximant.
    """
    g = _as_block(grid)
    n_pts = len(g)
    codomain = config.codomain
    nonzero = _nonzero(g)
    if nonzero.all():
        raise InputError("grid must contain the zero point")
    zero_idx = int(np.argmin(nonzero))
    _m4(config.m)  # an overflowing m**4 is reported before an overflowing f
    F = _f_rows(f, g)
    finite = np.isfinite(F.reshape(n_pts, -1)).all(axis=1)
    if not finite.all():
        raise OverflowGuardError(
            f"f overflowed on the grid: f is not finite at grid point {int(np.argmin(finite))}")

    # The power-law hypotheses are stated away from the origin only.
    try:
        defect_report = hypothesis_defect_check(
            f, phi, config.m, _Pairs.grid(g, getattr(phi, "excludes_zero", False), values=F),
            norm=codomain.norm, tol=config.tol)
    except HypothesisViolation as exc:
        # f(0) = 0 is the ground everything else stands on.
        return _failing_certificate(config, n_pts, str(exc), exc.witness)
    phi_report = phi_contractivity_check(phi, config.m, config.L, _Pairs.grid(g))
    q, step = _approximant(f, config.m, g, F, n_max, config.tol, codomain)

    # One-step estimate: |f(m x)/m^3 - f(x)| <= phi(x, 0) / (2 |m|^3).
    weights = _phi_at_zero_rows(phi, g)
    rhs = weights / (2.0 * abs(config.m) ** 3)
    one_step_worst = _max_ratio(step, rhs)
    one_step_ok = not _exceeds(step, rhs, config.tol).any()
    scale = max(1.0, float(np.max(codomain.norm_rows(q.values))))

    bounds = _bounds(config, weights)
    errors = codomain.norm_rows(F - q.values)
    ratios = _ratios(errors, bounds)
    max_error_ratio = float(ratios[_first_max(ratios)])

    image = q.index_rows(config.m * g)
    on_grid = np.flatnonzero(image >= 0)
    homo_points = len(on_grid)
    homo_defect = float(np.max(codomain.norm_rows(q.values[image[on_grid]]
                                                  - config.m**3 * q.values[on_grid]),
                               initial=0.0))

    el_q, jk_q, n_checked = _solution_defects(q, config.m, codomain.norm, n_pts, zero_idx)

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


def _solution_defects(q: SampledMap, m, norm, n_pts, zero_idx):
    """Equation defects of the recovered q over the in-range grid pairs.

    A pair is in range when every point the equations touch lands on the
    grid.  Grids above ``_FULL_PAIR_LIMIT`` points enumerate only the pairs
    through the origin, so the defects there cover only part of the
    in-range pairs.  Pairs are looked up and evaluated one block at a time:
    an x-point against every y, or the origin against every point.
    """
    rows = q.domain_grid
    V = q.values
    norm_rows = _row_norm(norm)
    at = q.index_rows
    own = at(rows)
    origin = slice(zero_idx, zero_idx + 1)
    if n_pts <= _FULL_PAIR_LIMIT:
        blocks = [(slice(i, i + 1), slice(None)) for i in range(n_pts)]
    else:
        blocks = [(origin, slice(None)), (np.flatnonzero(np.arange(n_pts) != zero_idx), origin)]
    el_worst = 0.0
    jk_worst = 0.0
    checked = 0
    for i, j in blocks:
        X, Y = rows[i], rows[j]
        ix, iy = np.broadcast_arrays(own[i], own[j])
        sum_, diff = at(X + Y), at(X - Y)
        el = np.stack([at(X + m * Y), at(m * X - Y), sum_, diff, iy])
        jk = np.stack([at(2.0 * X + Y), at(2.0 * X - Y), sum_, diff, ix])
        el_ok = (el >= 0).all(axis=0)
        jk_ok = (jk >= 0).all(axis=0)
        checked += int(np.count_nonzero(el_ok | jk_ok))
        if el_ok.any():
            R = _el_combine(m, *(V[k] for k in el[:, el_ok]))
            el_worst = max(el_worst, float(np.max(norm_rows(R))))
        if jk_ok.any():
            R = _junkim_combine(*(V[k] for k in jk[:, jk_ok]))
            jk_worst = max(jk_worst, float(np.max(norm_rows(R))))
    return el_worst, jk_worst, checked
