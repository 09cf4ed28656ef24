"""Core value types: extended reals, quasi-normed spaces, b-metric spaces.

Distances here live in [0, +inf].  +inf is a first-class value with the
usual absorbing arithmetic (x + inf = inf, inf**p = inf for p > 0) and is
carried by IEEE float infinities.  NaN is never a value: any NaN appearing
in an input is a hard error, never propagated.

A quasi-norm satisfies the relaxed triangle inequality
``|x + y| <= kappa * (|x| + |y|)`` with modulus kappa >= 1, and every such
space carries the derived exponent ``p = log_{2 kappa} 2``, the unique
p in (0, 1] with (2 kappa)**p = 2.  A (generalized) b-metric satisfies
``D(x, y) <= kappa * (D(x, z) + D(z, y))`` and may take the value +inf.

All axiom checks written with ``<=`` are evaluated with an absolute slack
of ``AXIOM_SLACK`` so that exact mathematical identities survive float
rounding without admitting real violations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import EvaluationError, InputError

__all__ = [
    "AXIOM_SLACK",
    "as_extended",
    "as_extended_matrix",
    "p_exponent",
    "euclidean_norm",
    "QuasiNormedSpace",
    "real_line",
    "GeneralizedBMetricSpace",
    "SampledMap",
    "BMetricReport",
    "validate_b_metric",
    "load_distance_csv",
    "save_distance_csv",
    "load_distance_json",
]

# Absolute slack applied to every <= axiom check.
AXIOM_SLACK = 1e-12


# =========================================================================
# Extended nonnegative reals
# =========================================================================

def as_extended(value, name="value") -> float:
    """Coerce one extended nonnegative real, rejecting NaN and negatives."""
    v = float(value)
    if math.isnan(v):
        raise InputError(f"{name} is NaN; distances must be in [0, +inf]")
    if v < 0.0:
        raise InputError(f"{name} is negative ({v!r}); distances must be in [0, +inf]")
    return v


def as_extended_matrix(D) -> np.ndarray:
    """Coerce a square matrix of extended nonnegative reals.

    Returns a float copy with the write flag cleared.  Entries that are not
    numbers, ragged rows, non-square shape, NaN entries, and negative entries
    are input errors.
    """
    try:
        A = np.array(D, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"distance matrix is not a matrix of numbers: {exc}") from exc
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"distance matrix must be square, got shape {A.shape}")
    if np.isnan(A).any():
        i, j = map(int, np.argwhere(np.isnan(A))[0])
        raise InputError(f"distance matrix has NaN at ({i}, {j})")
    if (A < 0).any():
        i, j = map(int, np.argwhere(A < 0)[0])
        raise InputError(f"distance matrix has negative entry {A[i, j]!r} at ({i}, {j})")
    A.setflags(write=False)
    return A


def p_exponent(kappa) -> float:
    """The exponent p = log_{2 kappa} 2, i.e. the solution of (2 kappa)**p = 2.

    kappa = 1 gives p = 1, kappa = 2 gives p = 1/2, kappa = 4 gives p = 1/3.
    Strictly decreasing in kappa; kappa outside [1, 2**1023) is an input error.
    """
    return math.log(2.0) / math.log(2.0 * _check_kappa(kappa))


def _real(value, name) -> float:
    """value as ``float`` reads it; an int too large for a float is not finite."""
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{name} must be finite, got an int too large for a float") from None


def _check_kappa(kappa) -> float:
    """kappa as a float, if it is a modulus with 2 kappa finite: 1 <= kappa < 2**1023."""
    k = _real(kappa, "kappa")
    if math.isnan(k) or k < 1.0:
        raise InputError(f"kappa must be >= 1, got {kappa!r}")
    if math.isinf(2.0 * k):  # p = log_{2 kappa} 2 would be 0
        raise InputError(f"kappa must be finite, got {kappa!r}" if math.isinf(k) else
                         f"kappa must be below 2**1023, where 2 kappa is finite, got {kappa!r}")
    return k


def _check_p(p):
    """p, if it is an exponent of a quasi-norm: p in (0, 1]."""
    if math.isnan(p) or not 0.0 < p <= 1.0:
        raise InputError(f"p must lie in (0, 1], got {p!r}")
    return p


def _check_tol(tol, positive=False):
    """tol, if it is a tolerance: finite and >= 0, or > 0 when ``positive``."""
    if not (math.isfinite(tol) and (tol > 0.0 if positive else tol >= 0.0)):
        raise InputError(f"tol must be finite and {'positive' if positive else 'nonnegative'}, "
                         f"got {tol!r}")
    return tol


def _check_count(n, low, name):
    """n, if it is a count: an integer (numpy integers too) >= low."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < low:
        raise InputError(f"{name} must be an integer >= {low}, got {n!r}")


def _check_L(L, name="L"):
    """Reject L unless it is a contraction constant: L in [0, 1)."""
    if math.isnan(L) or not 0.0 <= L < 1.0:
        raise InputError(f"{name} must lie in [0, 1), got {L!r}")


def _jsonable(v):
    """v with numpy values, tuples and dicts made plain JSON values."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, (tuple, list)):
        return [_jsonable(t) for t in v]
    if isinstance(v, dict):
        return {k: _jsonable(t) for k, t in v.items()}
    return v


def _fields_dict(report) -> dict:
    """The fields of a dataclass report by name, as plain JSON values."""
    return {f.name: _jsonable(getattr(report, f.name)) for f in fields(report)}


# =========================================================================
# Quasi-normed spaces
# =========================================================================

def euclidean_norm(x) -> float:
    """Euclidean norm; reduces to abs() for scalars."""
    return float(_euclidean_norm_rows(_block(x))[0])


def _block(x) -> np.ndarray:
    """A block of one point: a number on the real line, one row otherwise."""
    return np.asarray(x, dtype=float)[None]


def _points(P):
    """A block's points one by one, as a per-point callable gets them:
    Python floats from a 1-d block, else rows."""
    return P.tolist() if P.ndim == 1 else P


def _squares(X) -> np.ndarray:
    """One dot product per row, as ``np.linalg.norm`` takes it."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def _euclidean_norm_rows(X) -> np.ndarray:
    """The Euclidean norm of each point of a block, with the bits of
    ``np.linalg.norm`` where the sum of squares is a normal float.  A row of
    finite entries whose sum overflows is divided by its largest entry
    first; a nonzero row whose sum is subnormal or 0 is scaled, exactly, by
    the power of two of its largest entry.  A number takes its absolute
    value: sqrt(x * x) rounds to |x| in binary floats unless x * x
    overflows or underflows, and |x| is exact there too."""
    X = np.asarray(X, dtype=float)
    X = X.reshape(len(X), -1)
    if X.shape[1] == 1:
        return np.abs(X[:, 0])
    with np.errstate(over="ignore", invalid="ignore"):  # as quiet as the BLAS dot
        s = _squares(X)
        v = np.sqrt(s)
        if not math.isfinite(v.sum()):  # one test per block; norms are never negative
            big = np.isinf(v) & np.isfinite(X).all(axis=1)
            top = np.max(np.abs(X[big]), axis=1, initial=0.0)
            v[big] = top * np.sqrt(_squares(X[big] / top[:, None]))
        small = s < 2.2250738585072014e-308  # the least normal float
        if small.any():
            small &= (X != 0.0).any(axis=1)
            e = np.frexp(np.max(np.abs(X[small]), axis=1, initial=0.0))[1]
            v[small] = np.ldexp(np.sqrt(_squares(np.ldexp(X[small], -e[:, None]))), e)
    return v


def _scalar_pow(values, e) -> np.ndarray:
    """values**e element by element through the scalar pow, so that a row
    form matches its one-point form bit for bit (the array power may round
    the last bit differently); a power past the float range is +inf."""
    xs = values.tolist()
    try:
        return np.array([v ** e for v in xs], dtype=float)
    except OverflowError:  # numpy's scalar pow calls the same C pow, but gives +inf
        with np.errstate(over="ignore"):
            return np.array([np.float64(v) ** e for v in xs], dtype=float)


def _row_norm(norm) -> Callable[[np.ndarray], np.ndarray]:
    """The block form of a norm callable: one value per point of a block.

    A block holds one point per leading index: a 1-d block holds real
    numbers, a 2-d block one vector per row.  ``euclidean_norm`` and a
    bound ``norm`` method whose owner also has ``norm_rows``
    (``QuasiNormedSpace``, ``LHalfSpace``) have a block form; any other
    norm is called on each point as ``_points`` gives it, a Python float
    or a row.
    """
    if norm is euclidean_norm:
        return _euclidean_norm_rows
    owner = getattr(norm, "__self__", None)
    if hasattr(owner, "norm_rows") and norm == getattr(owner, "norm", None):
        return owner.norm_rows
    return lambda X: np.array([norm(x) for x in _points(X)], dtype=float).reshape(len(X))


@dataclass(frozen=True)
class QuasiNormedSpace:
    """A finite-dimensional real vector space with a quasi-norm.

    ``norm_eval`` must be absolutely homogeneous and satisfy the kappa-relaxed
    triangle inequality; both are assumed, not checked.  The builtin norms
    (the real line, L^{1/2}) are p-normed,
    |x + y|**p <= |x|**p + |y|**p, which implies that triangle.
    ``kappa`` is kept as the float ``_check_kappa`` gives, and the exponent
    ``p = p_exponent(kappa)`` is derived from it at construction.
    """

    dim: int
    norm_eval: Callable[..., float]
    kappa: float
    p: float = field(init=False)

    def __post_init__(self):
        _check_count(self.dim, 1, "dim")
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))
        object.__setattr__(self, "p", p_exponent(self.kappa))

    def norm(self, x) -> float:
        """Evaluate the quasi-norm, rejecting NaN results."""
        return float(self.norm_rows(_block(x))[0])

    def norm_rows(self, X) -> np.ndarray:
        """The quasi-norm of each point of a block (one point per leading
        index), rejecting NaN and negative values."""
        v = _row_norm(self.norm_eval)(np.asarray(X, dtype=float))
        if np.isnan(v).any():
            raise InputError("norm value is NaN; distances must be in [0, +inf]")
        if (v < 0.0).any():
            raise InputError(f"norm value is negative ({float(v.min())!r}); "
                             f"distances must be in [0, +inf]")
        return v


def real_line() -> QuasiNormedSpace:
    """The real line with the absolute value (kappa = 1, p = 1)."""
    return QuasiNormedSpace(dim=1, norm_eval=euclidean_norm, kappa=1.0)


# =========================================================================
# Generalized b-metric spaces on finite point sets
# =========================================================================

@dataclass(frozen=True)
class GeneralizedBMetricSpace:
    """A finite point set with a (possibly +inf valued) b-metric matrix.

    Construction validates shape and entry range only; the axioms are
    checked by ``validate_b_metric`` so that deliberately broken matrices
    can still be represented and reported on.
    """

    D: np.ndarray
    kappa: float

    def __post_init__(self):
        object.__setattr__(self, "D", as_extended_matrix(self.D))
        object.__setattr__(self, "kappa", _check_kappa(self.kappa))

    @property
    def n(self) -> int:
        return self.D.shape[0]


@dataclass(frozen=True)
class BMetricReport:
    """Outcome of a b-metric axiom check.

    ``axiom`` is one of "identity", "separation", "symmetry",
    "relaxed_triangle" when ``passed`` is False; ``witness`` carries the
    offending indices ((i, j) or (i, j, k))."""

    passed: bool
    axiom: str | None = None
    witness: tuple | None = None
    detail: str = "ok"

    def to_dict(self) -> dict:
        return _fields_dict(self)


def validate_b_metric(D, kappa, tol=AXIOM_SLACK) -> BMetricReport:
    """Check the generalized b-metric axioms on a distance matrix.

    Axioms, in the order checked: zero diagonal, positivity off the
    diagonal, symmetry, and the relaxed triangle inequality
    D(i,j) <= kappa * (D(i,k) + D(k,j)) + tol.  The first violating pair
    or triple in lexicographic index order is reported.

    The triangle check compares D(i,j) with the least sum
    s = min_k (D(i,k) + D(k,j)) only: the rounded right-hand side
    kappa * (D(i,k) + D(k,j)) + tol is monotone in the rounded sum, so
    some k violates exactly when the least one does.  The first k is then
    found by rescanning that one pair.  A triple that leaves a component
    of the graph of finite entries has an infinite right-hand side and
    cannot violate, so each component is checked on its own and the
    least violating row wins.  When D is bitwise symmetric only the pairs
    i <= j are checked: float addition commutes, so the least sums of
    (i, j) and (j, i) are the same float and the first violation (never on
    the diagonal, where D <= tol) has i < j.  The report is the one a scan
    of every triple in (i, j, k) order gives, down to the value in
    ``detail``.
    """
    A = as_extended_matrix(D)
    k = _check_kappa(kappa)
    _check_tol(tol)
    n = A.shape[0]

    diag = np.diagonal(A)
    bad = np.argwhere(diag > tol)
    if bad.size:
        i = int(bad[0, 0])
        return BMetricReport(False, "identity", (i, i),
                             f"D({i},{i}) = {diag[i]!r} != 0")

    off = ~np.eye(n, dtype=bool)
    bad = np.argwhere(off & (A <= tol))
    if bad.size:
        i, j = map(int, bad[0])
        return BMetricReport(False, "separation", (i, j),
                             f"D({i},{j}) = {A[i, j]!r} vanishes for distinct points")

    # isclose handles inf == inf; rtol stays 0 so the slack is purely absolute.
    sym = np.isclose(A, A.T, rtol=0.0, atol=tol)
    bad = np.argwhere(~sym)
    if bad.size:
        i, j = map(int, bad[0])
        return BMetricReport(False, "symmetry", (i, j),
                             f"D({i},{j}) = {A[i, j]!r} but D({j},{i}) = {A[j, i]!r}")

    first = None
    for c in _finite_components(A):
        if first is not None and c[0] > first[0]:
            break  # components come by least index: none of the rest can win
        sub = A if len(c) == n else A[np.ix_(c, c)]
        hit = _first_triangle_violation(sub, k, tol)
        if hit is not None and (first is None or c[hit[0]] < first[0]):
            first = (int(c[hit[0]]), int(c[hit[1]]), int(c[hit[2]]), hit[3])
    if first is not None:
        i, j, kk, rhs = first
        return BMetricReport(
            False, "relaxed_triangle", (i, j, kk),
            f"D({i},{j}) = {A[i, j]!r} > kappa*(D({i},{kk}) + D({kk},{j})) = {rhs!r}")

    return BMetricReport(True, detail=f"all axioms hold for n={n}, kappa={k!r}")


# Floats per numpy call in every tiled kernel (512 KiB).  Beside a
# 400-point matrix (1.25 MiB) a tile fits a 2 MiB cache, where all n^2 sums
# of one row would not; a small matrix still takes many rows per call.
_TILE_ELEMENTS = 1 << 16
# The most floats one point may hold: a point must fit one tile.  Bound
# once, so a test that shrinks the tiles does not shrink the spaces.
_POINT_FLOATS_MAX = _TILE_ELEMENTS


def _rows_per_tile(row_elements, share=1) -> int:
    """Rows of ``row_elements`` floats that fill 1/``share`` of a tile, at least 1."""
    return max(1, (_TILE_ELEMENTS // share) // max(1, row_elements))


def _finite_components(A) -> list[np.ndarray]:
    """The components of the graph on the indices of A with an edge where
    A is finite, each as an ascending index array, ordered by least index.

    A must have a symmetric pattern of finite entries.  Breadth-first, one
    row of the pattern per visited index: O(n^2).
    """
    finite = np.isfinite(A)
    if finite.all():
        return [np.arange(len(A))] if len(A) else []
    label = np.full(len(A), -1)
    comps = []
    for s in range(len(A)):
        if label[s] >= 0:
            continue
        label[s] = len(comps)
        front = np.array([s])
        while front.size:
            front = np.flatnonzero(finite[front].any(axis=0) & (label < 0))
            label[front] = len(comps)
        comps.append(np.flatnonzero(label == len(comps)))
    return comps


def _bitwise_symmetric(A) -> bool:
    """Whether A equals its transpose entry by entry, with +inf equal to +inf.

    The comparison is ``==``, so +0 and -0 count as equal.  That cannot
    matter where the answer is used: validation rejects every off-diagonal
    entry <= tol, so no zero lies off the diagonal, and the diagonal is
    never mirrored.
    """
    return bool(np.array_equal(A, A.T))


def _first_triangle_violation(A, k, tol):
    """(i, j, kk, rhs) of the lexicographically first (i, j, kk) with
    A[i, j] > k * (A[i, kk] + A[kk, j]) + tol, or None.

    Tiles of rows i and columns j take the least sum over kk for each
    (i, j); the first failing (i, j) is rescanned with the full expression
    for its first kk and the right-hand side there.  A bitwise symmetric A
    is scanned on columns j >= i0 of each row tile only (see
    ``validate_b_metric``); any other A on every column.
    """
    n = len(A)
    symmetric = _bitwise_symmetric(A)
    AT = A if symmetric else np.ascontiguousarray(A.T)
    cols = min(n, _rows_per_tile(n))
    rows = _rows_per_tile(cols * n)
    sums = np.empty((rows, cols, n))
    least = np.empty((rows, n))
    with np.errstate(over="ignore"):  # a sum past the float range is +inf
        for i0 in range(0, n, rows):
            block = A[i0:i0 + rows]
            lo = i0 if symmetric else 0
            for j0 in range(lo, n, cols):
                part = AT[j0:j0 + cols]
                tile = sums[:len(block), :len(part)]
                np.add(block[:, None, :], part[None], out=tile)
                tile.min(axis=2, out=least[:len(block), j0:j0 + len(part)])
            bad = block[:, lo:] > k * least[:len(block), lo:] + tol
            if bad.any():
                r, j = map(int, np.argwhere(bad)[0])
                i, j = i0 + r, lo + j
                rhs = k * (A[i] + AT[j])
                kk = int(np.argmax(A[i, j] > rhs + tol))
                return i, j, kk, rhs[kk]
    return None


# =========================================================================
# Sampled maps on finite grids
# =========================================================================

# Grid-point matching: absolute floor plus a relative term per coordinate.
_MATCH_ATOL = 1e-12
_MATCH_RTOL = 1e-9


def _grid(grid, dim=None) -> np.ndarray:
    """A grid as a block of points: numbers (1-d) or vectors of at least one
    coordinate (2-d), all finite; with ``dim``, points of a space of that
    dimension, numbers for 1.  Anything else is an input error."""
    try:
        g = np.asarray(grid, dtype=float)
    except OverflowError:  # an int too large for a float is not finite
        raise InputError("grid must be finite") from None
    except (TypeError, ValueError):  # ragged points, or an entry that is no number
        raise InputError("grid points must be numbers, or vectors that share one shape") from None
    if g.ndim not in (1, 2):
        raise InputError(f"grid points must be numbers or vectors, got a grid of shape {g.shape}")
    if g.ndim == 2 and not g.shape[1]:
        raise InputError("grid points must have at least one coordinate")
    if dim is not None and g.shape[1:] != ((dim,) if dim > 1 else ()):
        want = "numbers" if dim == 1 else f"vectors of {dim} coordinates"
        raise InputError(f"grid points must be {want} to be points of the space; "
                         f"got a grid of shape {g.shape}")
    if not np.isfinite(g).all():
        raise InputError("grid must be finite")
    return g


class _RowIndex:
    """The one grid-point matcher: rows sorted by their first coordinate.

    Row k matches a query q when |row_k - q| <= _MATCH_ATOL + _MATCH_RTOL
    max(|row_k|, |q|) in every coordinate, a rule symmetric in the two.  A
    query is sought by its first coordinate: only a query whose window of
    first coordinates that can match holds a row is built in full, and the
    full tolerance is applied to the rows in its window, so it finds the
    same (lowest) index a scan of every row would find.
    """

    def __init__(self, rows):
        self.rows = rows
        self.order = np.argsort(rows[:, 0], kind="stable")
        self.keys = rows[self.order, 0]

    def match(self, P, allow=None) -> np.ndarray:
        """Lowest index of a row matching each row of P, or -1.  With
        ``allow(i, k)``, only the rows k it accepts for query i count."""
        return self.lookup(P[:, 0], lambda i: P if len(i) == len(P) else P[i], allow)

    def lookup(self, first, build, allow=None) -> np.ndarray:
        """``match`` of the queries whose first coordinates are ``first``.

        ``build(i)`` gives the full queries at the indices i.  It is called
        only for the queries whose window holds a row, in equal chunks of at
        most one tile of coordinates.  The rows are finite, so a query that is
        not finite matches none.  On a grid of numbers the first coordinate is
        the whole query, and ``build`` is not called.
        """
        n, d = self.rows.shape
        # A matching row is within (atol + rtol |p0|) / (1 - rtol) of p0.
        reach = 2.0 * (_MATCH_ATOL + _MATCH_RTOL * np.abs(first))
        found = np.full(len(first), n)
        # A gap that overflows is no match.
        with np.errstate(over="ignore", invalid="ignore"):
            lo = np.searchsorted(self.keys, first - reach, side="left")
            width = np.searchsorted(self.keys, first + reach, side="right") - lo
            width[~np.isfinite(first)] = 0
            live = np.flatnonzero(width > 0)
            # As few chunks as the budget allows, of equal size.
            chunks = -(-len(live) // _rows_per_tile(d))
            for c in range(chunks):
                i = live[c * len(live) // chunks:(c + 1) * len(live) // chunks]
                q = first[i, None] if d == 1 else build(i)
                ids, start = i, lo[i]
                w = width[i] if d == 1 else np.where(np.isfinite(q).all(axis=1), width[i], 0)
                for t in range(int(w.max())):
                    k = np.flatnonzero(w > t)  # the queries whose window holds a row t
                    if len(k) < len(ids):
                        ids, start, w, q = ids[k], start[k], w[k], q[k]
                    cand = self.order[start + t]
                    # |row - q| <= atol + rtol max(|row|, |q|), computed in place.
                    tol = self.rows[cand]
                    gap = tol - q
                    np.abs(gap, out=gap)
                    np.maximum(np.abs(tol, out=tol), np.abs(q), out=tol)
                    tol *= _MATCH_RTOL
                    tol += _MATCH_ATOL
                    hit = np.all(gap <= tol, axis=1)
                    if allow is not None:
                        hit &= allow(ids, cand)
                    found[ids[hit]] = np.minimum(found[ids[hit]], cand[hit])
        found[found == n] = -1
        return found


def _distinct(rows) -> np.ndarray:
    """Whether each row is kept when the rows are taken in order and a row
    that matches an earlier kept row is dropped."""
    index = _RowIndex(rows)
    keep = np.ones(len(rows), dtype=bool)
    while True:
        # The answer is the one fixed point of this round; from "keep all",
        # the rounds reach it after the longest chain of matching rows.
        new = index.match(rows, lambda i, k: (k < i) & keep[k]) < 0
        if np.array_equal(new, keep):
            return keep
        keep = new


@dataclass(frozen=True)
class SampledMap:
    """A map known only on a finite grid of domain points.

    ``domain_grid`` has one row per point (scalars allowed, stored 1-d);
    ``values`` holds the image of each row in the codomain quasi-normed
    space.  Lookup is by exact grid membership within a tight float
    tolerance, through a ``_RowIndex`` built once; there is no
    interpolation.  If the zero vector is on the grid its image is part of
    ``values`` like any other point.
    """

    domain_grid: np.ndarray
    values: np.ndarray
    codomain: QuasiNormedSpace
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        g = _grid(self.domain_grid).copy()
        v = np.array(self.values, dtype=float)
        if len(g) != len(v):
            raise InputError(f"grid has {len(g)} points but {len(v)} values")
        if len(g) == 0:
            raise InputError("grid must contain at least one point")
        if np.isnan(v).any():
            raise InputError("values contain NaN")
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "domain_grid", g)
        object.__setattr__(self, "values", v)
        index = _RowIndex(g.reshape(len(g), -1))
        object.__setattr__(self, "_index", index)
        # A row that matches an earlier row: ``_distinct``'s rule.
        dup = index.match(index.rows, lambda i, k: k < i)
        if (dup >= 0).any():
            i = int(np.argmax(dup >= 0))
            raise InputError(f"duplicate domain points at indices {int(dup[i])} and {i}")

    def __len__(self) -> int:
        return len(self.domain_grid)

    def index_rows(self, points) -> np.ndarray:
        """The grid index of each point of a block, flattened to rows; -1 if off the grid."""
        P = np.asarray(points, dtype=float)
        P = P.reshape(len(P), math.prod(P.shape[1:]))
        if P.shape[1] != self._index.rows.shape[1]:
            return np.full(len(P), -1)
        return self._index.match(P)

    def try_index(self, point) -> int | None:
        """Index of ``point`` on the grid, or None if it is not a grid point."""
        idx = int(self.index_rows(_block(point))[0])
        return None if idx < 0 else idx

    def index_of(self, point) -> int:
        idx = self.try_index(point)
        if idx is None:
            raise EvaluationError(f"point {point!r} is not on the sampling grid")
        return idx

    def __call__(self, point):
        v = self.values[self.index_of(point)]
        return float(v) if v.ndim == 0 else v


# =========================================================================
# Distance matrix files
# =========================================================================

def _read_text(path, newline=None) -> str:
    """The text of a file, which must be UTF-8."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from None


def _load_json(path):
    """The JSON document of a file; its syntax, encoding and depth are input errors."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise InputError(f"{path}: nested too deeply") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise InputError(f"{path}: {exc}") from None


def _write_csv(path, rows) -> None:
    """Write rows of text fields as csv.writer does when no field needs
    quoting: fields joined by ``,``, each row ended by ``\\r\\n``."""
    with open(path, "w", newline="") as fh:
        fh.write("".join([",".join(row) + "\r\n" for row in rows]))


def load_distance_csv(path) -> np.ndarray:
    """Read a distance matrix from CSV: one row per point, token ``inf`` for +inf.

    Records end in ``\\n``, ``\\r\\n`` or ``\\r``, as the csv module splits
    them; fields are split on ``,`` and never unquoted.  A record whose
    fields are all blank is skipped.  A field is a number as ``float``
    reads it.
    """
    text = _read_text(path, newline="")
    rows, cells = [], []  # (line number, fields) of each kept record; all their fields
    for lineno, record in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"),
                                    start=1):
        row = record.split(",")
        if any(c.strip() for c in row):
            rows.append((lineno, row))
            cells += row
    try:
        values = np.array(cells, dtype=float)
    except ValueError:
        # numpy reads a str through float: the first field float rejects
        # is the first bad entry.
        for lineno, row in rows:
            try:
                list(map(float, row))
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
        raise
    if not rows:
        raise InputError(f"{path}: no matrix rows found")
    width = {len(row) for _, row in rows}
    if len(width) != 1:
        raise InputError(f"{path}: ragged rows (widths {sorted(width)})")
    return as_extended_matrix(values.reshape(len(rows), -1))


def save_distance_csv(path, D) -> None:
    A = as_extended_matrix(D)
    # The bytes of csv.writer: entries are never negative, repr(inf) is
    # 'inf', and no float repr needs quoting.  Each distinct bit pattern
    # is formatted once (a symmetric matrix holds each value twice), so
    # -0.0 keeps its own text.
    bits, inverse = np.unique(A.view(np.int64).ravel(), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    _write_csv(path, text[inverse].reshape(A.shape).tolist())


# The types json.load gives a JSON number: Infinity and NaN are floats.
_JSON_NUMBERS = frozenset({int, float})


def load_distance_json(path) -> tuple[np.ndarray, float]:
    """Read ``{"kappa": k, "D": [[...]]}``; returns (matrix, kappa)."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or "kappa" not in doc or "D" not in doc:
        raise InputError(f"{path}: expected an object with fields 'kappa' and 'D'")
    # A JSON string or boolean is no number, here as in a config file.
    if type(doc["kappa"]) not in _JSON_NUMBERS:
        raise InputError(f"{path}: field 'kappa' must be float")
    D = doc["D"]
    for i, row in enumerate(D if isinstance(D, list) else ()):
        if isinstance(row, list) and not _JSON_NUMBERS.issuperset(map(type, row)):
            j = next(j for j, v in enumerate(row) if type(v) not in _JSON_NUMBERS)
            raise InputError(f"{path}: field 'D.{i}.{j}' must be float")
    kappa = _real(doc["kappa"], f"{path}: field 'kappa'")
    return as_extended_matrix(D), kappa
