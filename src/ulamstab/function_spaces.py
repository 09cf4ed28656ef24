"""The concrete quasi-normed space L^{1/2}[0,1] and a corpus of test signals.

L^{1/2}[0,1] carries |x| = (integral of |x(t)|**(1/2) dt)**2, a quasi-norm
with modulus kappa = 2 and exponent p = 1/2.  Elements are represented by
their samples on the composite midpoint grid t_i = (i + 1/2) / n, and the
norm is the midpoint quadrature

    |x| = (sum_i |x_i|**(1/2) / n)**2,

which is exactly homogeneous and converges monotonically in n for
piecewise-smooth signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_spaces import QuasiNormedSpace, _check_count, _scalar_pow
from .errors import InputError

__all__ = [
    "lhalf_norm",
    "LHalfSpace",
    "example_corpus",
]


def lhalf_norm(x, quadrature_n=None) -> float:
    """Midpoint-quadrature L^{1/2} quasi-norm of a sampled signal.

    ``x`` holds the samples x(t_i) at the midpoints t_i = (i + 1/2) / n.
    When ``quadrature_n`` is given it must match len(x).
    """
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or len(v) == 0:
        raise InputError(f"expected a 1-d sample vector, got shape {v.shape}")
    return float(_lhalf_norm_rows(v[None, :], quadrature_n)[0])


def _lhalf_norm_rows(X, quadrature_n=None) -> np.ndarray:
    """``lhalf_norm`` of each row of a 2-D block of sample vectors, bit for bit."""
    V = np.asarray(X, dtype=float)
    if V.ndim != 2 or V.shape[1] == 0:
        raise InputError(f"expected a 2-d block of sample vectors, got shape {V.shape}")
    if quadrature_n is not None and V.shape[1] != quadrature_n:
        raise InputError(f"sample vector has length {V.shape[1]}, expected {quadrature_n}")
    R = np.abs(V)
    s = np.sum(np.sqrt(R, out=R), axis=1)
    # Every term is >= 0 or +inf, so a row sum is NaN exactly when its row holds a NaN.
    if np.isnan(s).any():
        raise InputError("sample vector contains NaN")
    return _scalar_pow(s / V.shape[1], 2)


@dataclass(frozen=True)
class LHalfSpace:
    """L^{1/2}[0,1] discretized on the composite midpoint grid."""

    quadrature_n: int = 1024

    kappa = 2.0
    p = 0.5

    def __post_init__(self):
        _check_count(self.quadrature_n, 1, "quadrature_n")

    @property
    def midpoints(self) -> np.ndarray:
        n = self.quadrature_n
        return (np.arange(n) + 0.5) / n

    def sample(self, fn) -> np.ndarray:
        """Sample a callable t -> x(t) on the midpoint grid."""
        return np.asarray(fn(self.midpoints), dtype=float)

    def norm(self, x) -> float:
        return lhalf_norm(x, self.quadrature_n)

    def norm_rows(self, X) -> np.ndarray:
        """``norm`` of each point of a block (one sample vector per row)."""
        X = np.asarray(X, dtype=float)
        return _lhalf_norm_rows(X[:, None] if X.ndim == 1 else X, self.quadrature_n)

    def space(self) -> QuasiNormedSpace:
        """The QuasiNormedSpace view (dim = quadrature_n, kappa = 2)."""
        return QuasiNormedSpace(dim=self.quadrature_n, norm_eval=self.norm, kappa=self.kappa)


def example_corpus(quadrature_n=1024, seed=7) -> list[np.ndarray]:
    """Twenty fixed test signals sampled on the midpoint grid.

    Ten random polynomials of degree <= 3, seven scaled sinusoids, and
    three step signals, all drawn from a seeded generator so the corpus
    is bitwise reproducible.
    """
    space = LHalfSpace(quadrature_n)
    t = space.midpoints
    rng = np.random.default_rng(seed)
    signals = []
    for _ in range(10):
        coeffs = rng.uniform(-2.0, 2.0, size=4)
        signals.append(coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * t**3)
    for _ in range(7):
        amp = rng.uniform(0.25, 2.0)
        freq = rng.integers(1, 5)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        signals.append(amp * np.sin(2.0 * math.pi * freq * t + phase))
    for _ in range(3):
        edge = rng.uniform(0.2, 0.8)
        lo, hi = rng.uniform(-1.5, 1.5, size=2)
        signals.append(np.where(t < edge, lo, hi))
    return signals
