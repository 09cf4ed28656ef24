"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms:
metric closures run over exact Python integers, and the chain-infimum
oracle enumerates simple chains by brute force.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

import ulamstab
from ulamstab import AXIOM_SLACK, BMetricReport


def integer_metric(rng, n, lo=1, hi=16) -> np.ndarray:
    """Random integer-valued metric via exact integer metric closure.

    All entries are small integers, so they are exact in float64 and the
    triangle inequality holds without any rounding slack.
    """
    W = rng.integers(lo, hi + 1, size=(n, n))
    W = np.triu(W, 1)
    W = W + W.T
    D = [[int(W[i, j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = D[i][k] + D[k][j]
                if via < D[i][j]:
                    D[i][j] = via
    return np.array(D, dtype=float)


def random_b_metric(rng, n, kappa) -> np.ndarray:
    """Random b-metric with modulus kappa: an exact integer metric scaled
    entrywise by symmetric factors in [1, kappa]."""
    M = integer_metric(rng, n)
    F = rng.uniform(1.0, kappa, size=(n, n))
    F = np.triu(F, 1)
    F = F + F.T + np.eye(n)
    return M * F


def random_generalized_b_metric(rng, n, kappa, split_prob=0.3):
    """Random generalized b-metric: with probability split_prob the points
    fall into two blocks at mutual distance +inf."""
    if n >= 2 and rng.random() < split_prob:
        n1 = int(rng.integers(1, n))
        D = np.full((n, n), np.inf)
        D[:n1, :n1] = random_b_metric(rng, n1, kappa) if n1 > 1 else [[0.0]]
        D[n1:, n1:] = random_b_metric(rng, n - n1, kappa) if n - n1 > 1 else [[0.0]]
        return D
    return random_b_metric(rng, n, kappa)


def chain_oracle(D, p) -> np.ndarray:
    """Brute-force chain infimum: minimum over all simple chains of the
    sum of D**p along the links.  Exponential; for small n only."""
    n = len(D)
    with np.errstate(invalid="ignore"):
        W = np.where(np.isinf(D), np.inf, np.power(D, p))
    best = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            others = [v for v in range(n) if v != i and v != j]
            b = W[i, j]
            for k in range(1, len(others) + 1):
                for mid in itertools.permutations(others, k):
                    total = W[i, mid[0]]
                    for a, bb in zip(mid, mid[1:]):
                        total += W[a, bb]
                    total += W[mid[-1], j]
                    if total < b:
                        b = total
            best[i, j] = b
    return best


def triple_oracle_b_metric(D, kappa, tol=1e-12):
    """Exhaustive b-metric check; returns (passed, first_violation)."""
    n = len(D)
    for i in range(n):
        if not D[i][i] <= tol:
            return False, ("identity", (i, i))
    for i in range(n):
        for j in range(n):
            if i != j and D[i][j] <= tol:
                return False, ("separation", (i, j))
    for i in range(n):
        for j in range(n):
            if not (D[i][j] == D[j][i] or abs(D[i][j] - D[j][i]) <= tol):
                return False, ("symmetry", (i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if D[i][j] > kappa * (D[i][k] + D[k][j]) + tol:
                    return False, ("relaxed_triangle", (i, j, k))
    return True, None


def reference_b_metric_report(D, kappa, tol=AXIOM_SLACK) -> BMetricReport:
    """The b-metric axioms spelled out one pair or triple at a time, in
    lexicographic order, with the report and detail of the first failure."""
    A = np.array(D, dtype=float)
    n = len(A)
    rows = A.tolist()
    for i in range(n):
        if rows[i][i] > tol:
            return BMetricReport(False, "identity", (i, i), f"D({i},{i}) = {A[i, i]!r} != 0")
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] <= tol:
                return BMetricReport(False, "separation", (i, j),
                                     f"D({i},{j}) = {A[i, j]!r} vanishes for distinct points")
    for i in range(n):
        for j in range(n):
            if not (rows[i][j] == rows[j][i] or abs(rows[i][j] - rows[j][i]) <= tol):
                return BMetricReport(False, "symmetry", (i, j),
                                     f"D({i},{j}) = {A[i, j]!r} but D({j},{i}) = {A[j, i]!r}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rhs = kappa * (rows[i][k] + rows[k][j])
                if rows[i][j] > rhs + tol:
                    return BMetricReport(
                        False, "relaxed_triangle", (i, j, k),
                        f"D({i},{j}) = {A[i, j]!r} > kappa*(D({i},{k}) + D({k},{j})) "
                        f"= {np.float64(rhs)!r}")
    return BMetricReport(True, detail=f"all axioms hold for n={n}, kappa={float(kappa)!r}")


@st.composite
def component_b_metrics(draw, max_n=40):
    """(D, kappa) for a generalized b-metric on at most ``max_n`` points
    whose +inf components interleave (each point draws a random label),
    with +inf holes inside components, entries on the AXIOM_SLACK edge of
    a triangle, and some triangles and symmetries broken on purpose.

    Integer-valued matrices make ties between sums through different
    points common; relaxed closures of random multi-scale matrices put
    many entries on the edge D(i,j) = kappa * (D(i,k) + D(k,j)), where a
    chain through k is strictly shorter in D**p.
    """
    n = draw(st.sampled_from(range(max_n + 1)))
    kappa = draw(st.sampled_from([1.0, 1.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integer", "euclidean", "closure"]))
    if kind == "integer":
        D = integer_metric(rng, n) * _symmetric(rng.integers(1, int(kappa) + 1, size=(n, n)))
    elif kind == "euclidean":
        P = rng.normal(size=(n, 2))
        E = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=-1))
        D = E * _symmetric(rng.uniform(1.0, kappa, size=(n, n)))
    else:
        D = _relaxed_closure(_symmetric(np.exp(rng.uniform(0.0, 4.0, size=(n, n)))), kappa)
    labels = rng.integers(0, draw(st.integers(1, 4)), size=n)
    D[labels[:, None] != labels[None, :]] = np.inf

    def pairs(count):
        for _ in range(count if n >= 3 else 0):
            yield (int(v) for v in rng.choice(n, size=3, replace=False))

    for a, b, _ in pairs(draw(st.integers(0, 3))):
        D[a, b] = D[b, a] = np.inf
    for i, j, k in pairs(draw(st.integers(0, 2))):
        edge = kappa * (D[i, k] + D[k, j]) + AXIOM_SLACK
        if np.isfinite(edge):
            D[i, j] = D[j, i] = np.nextafter(edge, np.inf) if draw(st.booleans()) else edge
    for a, b, _ in pairs(draw(st.integers(0, 2))):
        D[a, b] = D[b, a] = D[a, b] * float(rng.uniform(1.0, 3.0 * kappa))
    for a, b, _ in pairs(draw(st.sampled_from([0, 0, 0, 1]))):
        D[a, b] = D[a, b] + AXIOM_SLACK * draw(st.sampled_from([0.5, 1.0, 2.0]))
    np.fill_diagonal(D, draw(st.sampled_from([0.0, 0.0, 0.0, AXIOM_SLACK])))
    return D, kappa


@st.composite
def nudged_b_metrics(draw):
    """``component_b_metrics()`` with one side of a few finite symmetric
    pairs moved by at most AXIOM_SLACK: matrices that are symmetric within
    the slack, but not bit for bit."""
    D, kappa = draw(component_b_metrics())
    pairs = np.argwhere(np.triu(np.isfinite(D) & (D == D.T), 1))
    picks = st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=3, unique=True)
    for a, b in pairs[draw(picks)] if len(pairs) else []:
        if draw(st.booleans()):
            a, b = b, a
        D[a, b] = D[a, b] + AXIOM_SLACK * draw(st.sampled_from([-1.0, -0.5, -0.25, 0.25, 0.5]))
    return D, kappa


def _relaxed_closure(D, kappa):
    """The greatest matrix below D with D(i,j) <= kappa * (D(i,k) + D(k,j))
    in float arithmetic: lower every entry to its relaxed least sum until
    none moves."""
    while True:
        rhs = kappa * (D[:, :, None] + D[None, :, :]).min(axis=1, initial=np.inf)
        if not (rhs < D).any():
            return D
        D = np.minimum(D, rhs)


def _symmetric(F):
    """The upper triangle of F mirrored below the diagonal."""
    F = np.triu(F, 1)
    return F + F.T


@contextlib.contextmanager
def tile_elements(count):
    """Run the tiled kernels (the triangle check, Floyd-Warshall, the
    hypothesis checks and the solution defects) with tiles of ``count``
    elements, so that small inputs take the many-tile paths too; None
    keeps the shipped size.  Every kernel sizes its tiles through
    ``core_spaces._rows_per_tile``, which reads the one constant."""
    with pytest.MonkeyPatch.context() as mp:
        if count is not None:
            mp.setattr(ulamstab.core_spaces, "_TILE_ELEMENTS", count)
        yield


TILES = st.sampled_from([None, 1, 7, 64])
