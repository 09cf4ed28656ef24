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

import csv
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationError, InputError

__all__ = [
    "AXIOM_SLACK",
    "as_extended",
    "as_extended_matrix",
    "ext_pow",
    "p_exponent",
    "euclidean_norm",
    "QuasiNormedSpace",
    "real_line",
    "GeneralizedBMetricSpace",
    "SampledMap",
    "BMetricReport",
    "QuasiNormReport",
    "validate_b_metric",
    "validate_quasi_norm",
    "load_distance_csv",
    "save_distance_csv",
    "load_distance_json",
    "save_distance_json",
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

    Returns a float copy with the write flag cleared.  Non-square shape,
    NaN entries, and negative entries are input errors.
    """
    A = np.array(D, dtype=float)
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


def ext_pow(value, p) -> float:
    """value**p on [0, +inf] for p > 0; (+inf)**p = +inf, 0**p = 0."""
    v = as_extended(value)
    if p <= 0:
        raise InputError(f"exponent must be positive, got {p!r}")
    if math.isinf(v):
        return math.inf
    return v**p


def p_exponent(kappa) -> float:
    """The exponent p = log_{2 kappa} 2, i.e. the solution of (2 kappa)**p = 2.

    kappa = 1 gives p = 1, kappa = 2 gives p = 1/2, kappa = 4 gives p = 1/3.
    Strictly decreasing in kappa; kappa < 1 is an input error.
    """
    return math.log(2.0) / math.log(2.0 * _check_kappa(kappa))


def _check_kappa(kappa) -> float:
    """kappa as a float, if it is a modulus: 1 <= kappa < +inf."""
    k = float(kappa)
    if math.isnan(k) or k < 1.0:
        raise InputError(f"kappa must be >= 1, got {kappa!r}")
    if math.isinf(k):
        raise InputError(f"kappa must be finite, got {kappa!r}")
    return k


def _check_p(p):
    """p, if it is an exponent of a quasi-norm: p in (0, 1]."""
    if math.isnan(p) or not 0.0 < p <= 1.0:
        raise InputError(f"p must lie in (0, 1], got {p!r}")
    return p


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


def _euclidean_norm_rows(X) -> np.ndarray:
    """The Euclidean norm of each point of a block: one dot product per
    row, as ``np.linalg.norm`` takes it, with the same bits.  A row of
    finite entries whose sum of squares overflows is divided by its
    largest entry first, so its norm is finite whenever it fits."""
    X = np.asarray(X, dtype=float)
    X = X.reshape(len(X), -1)
    with np.errstate(over="ignore", invalid="ignore"):  # as quiet as the BLAS dot
        v = np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])
        if not math.isfinite(v.sum()):  # one test per block; norms are never negative
            big = np.isinf(v) & np.isfinite(X).all(axis=1)
            top = np.max(np.abs(X[big]), axis=1, initial=0.0)
            Y = X[big] / top[:, None]
            v[big] = top * np.sqrt(np.matmul(Y[:, None, :], Y[:, :, None])[:, 0, 0])
    return v


def _scalar_pow(values, e) -> np.ndarray:
    """values**e element by element through the scalar pow, so that a row
    form matches its one-point form bit for bit (the array power may
    round the last bit differently)."""
    return np.array([v ** e for v in values.tolist()], dtype=float)


def _row_norm(norm) -> Callable[[np.ndarray], np.ndarray]:
    """The block form of a norm callable: one value per point of a block.

    A block holds one point per leading index: a 1-d block holds real
    numbers, a 2-d block one vector per row.  ``euclidean_norm`` and a
    bound ``norm`` method whose owner also has ``norm_rows``
    (``QuasiNormedSpace``, ``LHalfSpace``) have a block form; any other
    norm is called on each point as it stands, a number or a row.
    """
    if norm is euclidean_norm:
        return _euclidean_norm_rows
    owner = getattr(norm, "__self__", None)
    if hasattr(owner, "norm_rows") and norm == getattr(owner, "norm", None):
        return owner.norm_rows
    return lambda X: np.array([norm(x) for x in X], dtype=float).reshape(len(X))


@dataclass(frozen=True)
class QuasiNormedSpace:
    """A finite-dimensional real vector space with a quasi-norm.

    ``norm_eval`` must be absolutely homogeneous and satisfy the kappa-relaxed
    triangle inequality; ``validate_quasi_norm`` spot-checks both on samples.
    The exponent ``p`` is derived from kappa at construction and satisfies
    (2 kappa)**p = 2 within 1e-12 relative.
    """

    dim: int
    norm_eval: Callable[..., float]
    kappa: float
    name: str = ""
    p: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"dim must be >= 1, got {self.dim}")
        p = p_exponent(self.kappa)
        if abs((2.0 * self.kappa) ** p - 2.0) > 1e-12 * 2.0:
            raise InputError(f"derived exponent inconsistent for kappa={self.kappa!r}")
        object.__setattr__(self, "p", p)

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
    return QuasiNormedSpace(dim=1, norm_eval=euclidean_norm, kappa=1.0, name="reals")


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
        _check_kappa(self.kappa)

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
    least violating row wins.  The report is the one a scan of every
    triple in (i, j, k) order gives, down to the value in ``detail``.
    """
    A = as_extended_matrix(D)
    k = _check_kappa(kappa)
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


# Broadcast sums per numpy call in the triangle check and in Floyd-Warshall
# (512 KiB of floats).  Beside a 400-point matrix (1.25 MiB) a tile fits a
# 2 MiB cache, where all n^2 sums of one row would not; a small matrix still
# takes many rows per call.
_TILE_ELEMENTS = 1 << 16


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


def _first_triangle_violation(A, k, tol):
    """(i, j, kk, rhs) of the lexicographically first (i, j, kk) with
    A[i, j] > k * (A[i, kk] + A[kk, j]) + tol, or None.

    Tiles of rows i and columns j take the least sum over kk for each
    (i, j); the first failing (i, j) is rescanned with the full expression
    for its first kk and the right-hand side there.
    """
    n = len(A)
    AT = np.ascontiguousarray(A.T)
    cols = min(n, max(1, _TILE_ELEMENTS // n))
    rows = max(1, _TILE_ELEMENTS // (cols * n))
    sums = np.empty((rows, cols, n))
    least = np.empty((rows, n))
    for i0 in range(0, n, rows):
        block = A[i0:i0 + rows]
        for j0 in range(0, n, cols):
            part = AT[j0:j0 + cols]
            tile = sums[:len(block), :len(part)]
            np.add(block[:, None, :], part[None], out=tile)
            tile.min(axis=2, out=least[:len(block), j0:j0 + len(part)])
        bad = block > k * least[:len(block)] + tol
        if bad.any():
            r, j = map(int, np.argwhere(bad)[0])
            i = i0 + r
            rhs = k * (A[i] + AT[j])
            kk = int(np.argmax(A[i, j] > rhs + tol))
            return i, j, kk, rhs[kk]
    return None


# =========================================================================
# Quasi-norm validation
# =========================================================================

_DEFAULT_SCALARS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)


@dataclass(frozen=True)
class QuasiNormReport:
    """Outcome of a quasi-norm spot check on sample vectors.

    ``worst_triangle_ratio`` is max |x+y| / (|x| + |y|) over sampled pairs
    with a nonzero denominator; it never exceeds kappa on a valid space.
    """

    passed: bool
    worst_triangle_ratio: float
    witness: tuple | None = None
    detail: str = "ok"

    def to_dict(self) -> dict:
        return _fields_dict(self)


def validate_quasi_norm(space: QuasiNormedSpace, samples: Sequence,
                        scalars=_DEFAULT_SCALARS, tol=AXIOM_SLACK) -> QuasiNormReport:
    """Spot-check quasi-norm axioms on sample vectors.

    Checks |0| = 0, positivity on nonzero samples, absolute homogeneity
    over a fixed scalar set, and the kappa-relaxed triangle inequality on
    every sampled pair.  Homogeneity defects are compared against
    tol * max(1, |r| * |x|); the relaxed triangle uses the same absolute
    slack as the b-metric checks.
    """
    if not len(samples):
        raise InputError("need at least one sample vector")
    xs = [np.atleast_1d(np.asarray(x, dtype=float)) for x in samples]
    norms = [space.norm(x) for x in xs]

    zero = np.zeros_like(xs[0])
    nz = space.norm(zero)
    if nz > tol:
        return QuasiNormReport(False, math.nan, None, f"norm of 0 is {nz!r}, expected 0")
    for idx, (x, nx) in enumerate(zip(xs, norms)):
        if np.any(x != 0.0) and nx <= tol:
            return QuasiNormReport(False, math.nan, (idx,),
                                   f"nonzero sample {idx} has norm {nx!r}")

    for idx, (x, nx) in enumerate(zip(xs, norms)):
        for r in scalars:
            got = space.norm(r * x)
            want = abs(r) * nx
            if abs(got - want) > tol * max(1.0, want):
                return QuasiNormReport(
                    False, math.nan, (idx, r),
                    f"homogeneity fails on sample {idx} with scalar {r!r}: "
                    f"|r x| = {got!r} vs |r| |x| = {want!r}")

    worst = 0.0
    worst_pair = None
    for a in range(len(xs)):
        for b in range(a, len(xs)):
            nsum = space.norm(xs[a] + xs[b])
            denom = norms[a] + norms[b]
            if nsum > space.kappa * denom + tol:
                return QuasiNormReport(
                    False, nsum / denom if denom else math.inf, (a, b),
                    f"relaxed triangle fails on pair ({a},{b}): "
                    f"|x+y| = {nsum!r} > kappa*(|x|+|y|) = {space.kappa * denom!r}")
            if denom > 0 and nsum / denom > worst:
                worst = nsum / denom
                worst_pair = (a, b)

    return QuasiNormReport(True, worst, worst_pair,
                           f"axioms hold on {len(xs)} samples; worst ratio {worst!r}")


# =========================================================================
# Sampled maps on finite grids
# =========================================================================

# Grid-point matching: absolute floor plus a relative term per coordinate.
_MATCH_ATOL = 1e-12
_MATCH_RTOL = 1e-9


@dataclass(frozen=True)
class SampledMap:
    """A map known only on a finite grid of domain points.

    ``domain_grid`` has one row per point (scalars allowed, stored 1-d);
    ``values`` holds the image of each row in the codomain quasi-normed
    space.  Lookup is by exact grid membership within a tight float
    tolerance; there is no interpolation.  If the zero vector is on the
    grid its image is part of ``values`` like any other point.

    Lookups go through an index built once: the rows sorted by their
    first coordinate.  A query searches the window of first coordinates
    that can match and applies the full per-coordinate tolerance to the
    rows in it, so it finds the same (lowest) index a scan of every row
    would find.
    """

    domain_grid: np.ndarray
    values: np.ndarray
    codomain: QuasiNormedSpace
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        g = np.array(self.domain_grid, dtype=float)
        v = np.array(self.values, dtype=float)
        if g.ndim not in (1, 2):
            raise InputError(f"domain grid must be 1-d or 2-d, got shape {g.shape}")
        if len(g) != len(v):
            raise InputError(f"grid has {len(g)} points but {len(v)} values")
        if len(g) == 0:
            raise InputError("grid must contain at least one point")
        if np.isnan(g).any() or np.isinf(g).any():
            raise InputError("domain grid must be finite")
        if np.isnan(v).any():
            raise InputError("values contain NaN")
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "domain_grid", g)
        object.__setattr__(self, "values", v)
        rows = g.reshape(len(g), -1)
        order = np.argsort(rows[:, 0], kind="stable")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_keys", rows[order, 0])
        # A later row within the tolerance of an earlier one is a duplicate.
        dup = self._match(rows, after=np.arange(len(rows)))
        if (dup >= 0).any():
            i = int(np.argmax(dup >= 0))
            raise InputError(f"duplicate domain points at indices {i} and {int(dup[i])}")

    def __len__(self) -> int:
        return len(self.domain_grid)

    def _match(self, P, after=None) -> np.ndarray:
        """Lowest index of a grid row within tolerance of each row of P, or -1.

        The tolerance is relative to the query point.  With ``after``, only
        indices above ``after[i]`` count for query i.
        """
        n = len(self._rows)
        p0 = P[:, 0]
        reach = 2.0 * (_MATCH_ATOL + _MATCH_RTOL * np.abs(p0))
        with np.errstate(invalid="ignore"):
            lo = np.searchsorted(self._keys, p0 - reach, side="left")
            hi = np.searchsorted(self._keys, p0 + reach, side="right")
        wild = ~np.isfinite(p0)  # no window: scan every row
        lo[wild] = 0
        hi[wild] = n
        found = np.full(len(P), n)
        width = hi - lo
        for t in range(int(width.max(initial=0))):
            live = np.flatnonzero(width > t)
            cand = self._order[lo[live] + t]
            q = P if len(live) == len(P) else P[live]
            # |row - q| <= atol + rtol |q|, computed in place.
            gap = self._rows[cand]
            gap -= q
            np.abs(gap, out=gap)
            tol = np.abs(q)
            tol *= _MATCH_RTOL
            tol += _MATCH_ATOL
            hit = np.all(gap <= tol, axis=1)
            if after is not None:
                hit &= cand > after[live]
            found[live[hit]] = np.minimum(found[live[hit]], cand[hit])
        found[found == n] = -1
        return found

    def index_rows(self, points) -> np.ndarray:
        """The grid index of each point of a block, flattened to rows; -1 if off the grid."""
        P = np.asarray(points, dtype=float)
        P = P.reshape(len(P), math.prod(P.shape[1:]))
        if P.shape[1] != self._rows.shape[1]:
            return np.full(len(P), -1)
        return self._match(P)

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

    def point_at(self, index: int):
        pt = self.domain_grid[index]
        return float(pt) if pt.ndim == 0 else pt


# =========================================================================
# Distance matrix files
# =========================================================================

def load_distance_csv(path) -> np.ndarray:
    """Read a distance matrix from CSV: one row per point, token ``inf`` for +inf."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no matrix rows found")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise InputError(f"{path}: ragged rows (widths {sorted(width)})")
    return as_extended_matrix(np.array(rows))


def save_distance_csv(path, D) -> None:
    A = as_extended_matrix(D)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in A:
            writer.writerow(["inf" if math.isinf(v) else repr(float(v)) for v in row])


def load_distance_json(path) -> tuple[np.ndarray, float]:
    """Read ``{"kappa": k, "D": [[...]]}``; returns (matrix, kappa)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "kappa" not in doc or "D" not in doc:
        raise InputError(f"{path}: expected an object with fields 'kappa' and 'D'")
    try:
        kappa = float(doc["kappa"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: field 'kappa': {exc}") from exc
    return as_extended_matrix(doc["D"]), kappa


def save_distance_json(path, D, kappa) -> None:
    A = as_extended_matrix(D)
    with open(path, "w") as fh:
        json.dump({"kappa": float(kappa), "D": [list(map(float, row)) for row in A]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
