"""Chain-infimum metrization of (generalized) b-metric spaces.

For a b-metric D with modulus kappa and the derived exponent
p = log_{2 kappa} 2, the chain infimum

    delta(x, y) = inf over finite chains x = x_0, ..., x_n = y
                  of sum_i D(x_{i-1}, x_i)**p

is a (generalized) metric sandwiched by (1/4) D**p <= delta <= D**p.
On a finite point set the infimum is attained on simple chains, so delta
is exactly the all-pairs shortest path distance over edge weights D**p;
we compute it with Floyd-Warshall in a fixed relaxation order, which
makes the result deterministic bit for bit.

Points joined by no finite chain lie in different components of the
graph whose edges are the finite entries of D.  Floyd-Warshall never
relaxes a pair through a point of another component (one of the two
links is +inf), so it runs on each component's submatrix alone, in the
same k-major order, and every other pair keeps delta = +inf.  The
result is bit for bit the k-major Floyd-Warshall over the whole matrix.

A bitwise symmetric component costs about half the relaxations.  At step
k, row k and column k do not change (d >= 0 and d[k, k] >= 0), and the
sums d[i, k] + d[k, j] and d[j, k] + d[k, i] are the same float (IEEE
addition commutes), so every step keeps d bitwise symmetric.  Relaxing
the entries j >= i and mirroring them at the end therefore gives the
k-major result bit for bit.  A component symmetric only within the
validation slack is relaxed on every entry.

When kappa = 1 (so p = 1 and D is already a metric) no relaxation can
improve on the direct edge and delta equals D exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_spaces import (
    GeneralizedBMetricSpace,
    _bitwise_symmetric,
    _finite_components,
    _rows_per_tile,
    p_exponent,
    validate_b_metric,
)
from .errors import InvalidBMetricError

__all__ = ["ChainMetric", "chain_metric"]


@dataclass(frozen=True)
class ChainMetric:
    """The metrized distances of a b-metric space.

    ``delta`` has zero diagonal, satisfies the plain triangle inequality,
    and obeys (1/4) D**p <= delta <= D**p entrywise.  It is symmetric when
    D is bitwise symmetric; a D that is symmetric only within the
    validation slack keeps that asymmetry, since symmetrizing would move
    bits.  Unreachable pairs (no finite chain) keep delta = +inf.
    """

    delta: np.ndarray
    p: float

    def __post_init__(self):
        d = np.array(self.delta, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "delta", d)


def _shortest_paths(W: np.ndarray) -> np.ndarray:
    """Floyd-Warshall with a fixed k-major relaxation order, run on each
    component of the finite entries of W on its own."""
    d = W.copy()
    for c in _finite_components(W):
        if len(c) == len(d):
            _floyd_warshall(d)
        elif len(c) > 1:
            sub = d[np.ix_(c, c)]
            _floyd_warshall(sub)
            d[np.ix_(c, c)] = sub
    return d


def _floyd_warshall(d: np.ndarray) -> None:
    """Relax d in place through k = 0, 1, ..., n - 1, in blocks of rows.

    Row k and column k do not change at step k, since d >= 0 and
    d[k, k] >= 0, so every block reads them as they were before the step.
    The sums are built as a copy of row k plus column k in place, which
    numpy does faster than a broadcast outer add and, addition being
    commutative, to the same floats.

    A bitwise symmetric d stays bitwise symmetric through every step: the
    sums d[i, k] + d[k, j] and d[j, k] + d[k, i] are the same float, since
    IEEE addition commutes.  So the block of rows i0 <= i < i0 + R is
    relaxed on its columns j >= i0 only, as a contiguous copy, and written
    back with its mirror at the end: the k-major result bit for bit, at
    about half the work.  Row k then comes from its own block for the
    columns that block holds and from column k of the blocks above for the
    rest, and a block whose columns start after k reads column k as row k.
    Any other d runs the same loop with every block on every column, as
    views of d relaxed in place, and reads row k from its own block.  A
    matrix no taller than one block takes that path too.
    """
    n = len(d)
    rows = min(n, _rows_per_tile(n, share=2))  # half a tile: the fastest share at n = 300-1000
    symmetric = rows < n and _bitwise_symmetric(d)
    via = np.empty(rows * n)
    blocks = []  # (i0, lo, the rows i0.. on the columns lo.., their sums)
    for i0 in range(0, n, rows):
        lo = i0 if symmetric else 0
        block = d[i0:i0 + rows, lo:].copy() if lo else d[i0:i0 + rows]
        blocks.append((i0, lo, block, via[:block.size].reshape(block.shape)))
    row = np.empty(n)
    with np.errstate(over="ignore"):  # a sum past the float range is +inf
        for b, (k0, k_lo, own, _) in enumerate(blocks):
            for k in range(k0, k0 + len(own)):
                rk = own[k - k0]
                if k_lo:
                    row[k_lo:] = rk
                    for i0, _, above, _ in blocks[:b]:
                        row[i0:i0 + rows] = above[:, k - i0]
                    rk = row
                for i0, lo, block, sums in blocks:
                    sums[...] = rk[lo:]
                    sums += block[:, k - lo, None] if k >= lo else rk[i0:i0 + len(block), None]
                    np.minimum(block, sums, out=block)
    if symmetric:
        for i0, _, block, _ in blocks:
            d[i0:i0 + rows, i0:] = block
            d[i0 + rows:, i0:i0 + rows] = block[:, rows:].T


def chain_metric(space: GeneralizedBMetricSpace) -> ChainMetric:
    """Metrize a finite generalized b-metric space by the chain infimum.

    The space must pass ``validate_b_metric``; an invalid matrix raises
    ``InvalidBMetricError`` carrying the validation report.  The exponent
    is the one the space's kappa derives, p = log_{2 kappa} 2, the largest
    at which the sandwich (1/4) D**p <= delta <= D**p is guaranteed.
    """
    p = p_exponent(space.kappa)
    report = validate_b_metric(space.D, space.kappa)
    if not report.passed:
        raise InvalidBMetricError(report)
    # p == 1 keeps W bitwise equal to D, so a true metric passes through
    # Floyd-Warshall unchanged.
    W = space.D.copy() if p == 1.0 else np.power(space.D, p)
    return ChainMetric(delta=_shortest_paths(W), p=p)
