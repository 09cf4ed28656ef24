"""Tests for the concrete quasi-normed spaces."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamstab import (
    InputError,
    LHalfSpace,
    example_corpus,
    lhalf_norm,
    real_line,
)

# ---------------------------------------------------------------------------
# quadrature L^{1/2} norm
# ---------------------------------------------------------------------------


def test_lhalf_norm_of_constant_one_is_exact():
    for n in (1, 4, 64, 1024):
        assert lhalf_norm(np.ones(n)) == 1.0


def test_lhalf_norm_of_identity_converges_to_four_ninths():
    # integral of sqrt(t) over [0,1] is 2/3, squared 4/9; the midpoint rule
    # converges like O(n**-1.5) for this endpoint-singular integrand.
    space = LHalfSpace(quadrature_n=1024)
    got = space.norm(space.sample(lambda t: t))
    assert got == pytest.approx(4.0 / 9.0, abs=1e-5)


def test_lhalf_norm_richardson_halving():
    # Error shrinks monotonically when the grid is refined.
    errs = []
    for n in (64, 128, 256, 512):
        space = LHalfSpace(quadrature_n=n)
        errs.append(abs(space.norm(space.sample(lambda t: t)) - 4.0 / 9.0))
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_lhalf_norm_absolute_homogeneity_exact_for_powers_of_four():
    rng = np.random.default_rng(20)
    x = rng.uniform(-2, 2, size=256)
    base = lhalf_norm(x)
    # sqrt(4 x) = 2 sqrt(x) is exact in float, so scaling by 4 is bitwise.
    assert lhalf_norm(4.0 * x) == 4.0 * base
    assert lhalf_norm(0.25 * x) == 0.25 * base


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_lhalf_norm_homogeneity_generic_scalars(r):
    x = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    assert lhalf_norm(r * x) == pytest.approx(r * lhalf_norm(x), rel=1e-12)


def test_lhalf_half_power_subadditivity():
    # The square roots of the norm are subadditive: |x+y|**0.5 is bounded
    # by |x|**0.5 + |y|**0.5, the sharp form behind kappa = 2.
    rng = np.random.default_rng(21)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=128)
        y = rng.uniform(-3, 3, size=128)
        lhs = math.sqrt(lhalf_norm(x + y))
        rhs = math.sqrt(lhalf_norm(x)) + math.sqrt(lhalf_norm(y))
        assert lhs <= rhs + 1e-12


def test_lhalf_kappa_two_is_not_improvable():
    # Disjointly supported spikes realize |x + y| = 2 (|x| + |y|): kappa
    # cannot be lowered below 2.
    x = np.zeros(2)
    y = np.zeros(2)
    x[0] = 1.0
    y[1] = 1.0
    ratio = lhalf_norm(x + y) / (lhalf_norm(x) + lhalf_norm(y))
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_lhalf_norm_input_validation():
    with pytest.raises(InputError):
        lhalf_norm(np.ones(8), quadrature_n=16)
    with pytest.raises(InputError):
        lhalf_norm(np.array([1.0, math.nan]))
    with pytest.raises(InputError):
        lhalf_norm(np.ones((2, 2)))
    with pytest.raises(InputError):
        LHalfSpace(quadrature_n=0)


def test_quadrature_n_is_at_most_one_tile():
    # One signal must fit one tile of the kernels: 65 536 floats.
    assert LHalfSpace(quadrature_n=65_536).quadrature_n == 65_536
    for n in (65_537, 10**12, 10**400):
        with pytest.raises(InputError, match=r"^quadrature_n must be at most 65536: "):
            LHalfSpace(quadrature_n=n)


SPECIAL_SAMPLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, math.inf,
                   -math.inf, 1.0, -2.5, 1e308, -3e-200]


def old_lhalf_norm_rows(V):
    """The block norm as first written: a NaN pass over the block, then the
    sum of square roots of absolute values, squared by the scalar pow."""
    if np.isnan(V).any():
        raise InputError("sample vector contains NaN")
    return np.array([v**2 for v in (np.sum(np.sqrt(np.abs(V)), axis=1) / V.shape[1]).tolist()])


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_block_lhalf_norm_keeps_the_bits_of_the_first_form(seed, rows, n):
    # Signed zeros, subnormals and infinities among ordinary samples: the
    # in-place square root and the NaN test on the row sums give the same
    # bits, and the same message when a row holds a NaN, +inf beside it or not.
    rng = np.random.default_rng(seed)
    V = np.where(rng.random((rows, n)) < 0.4, rng.choice(SPECIAL_SAMPLES, size=(rows, n)),
                 rng.normal(scale=float(rng.choice([1e-3, 1.0, 1e3])), size=(rows, n)))
    got = LHalfSpace(n).norm_rows(V)
    assert got.tobytes() == old_lhalf_norm_rows(V).tobytes()
    r, j = int(rng.integers(0, rows)), int(rng.integers(0, n))
    V[r, j] = math.nan
    if n > 1 and rng.random() < 0.5:
        V[r, (j + int(rng.integers(1, n))) % n] = math.inf
    with pytest.raises(InputError) as want:
        old_lhalf_norm_rows(V)
    with pytest.raises(InputError, match=f"^{want.value}$"):
        LHalfSpace(n).norm_rows(V)


def test_lhalf_space_derives_its_exponent_from_kappa():
    # A hard-coded p = 0.5 beside kappa = 2 was a second source nothing read.
    space = LHalfSpace(quadrature_n=4)
    assert not hasattr(LHalfSpace, "p") and not hasattr(space, "p")
    assert (space.space().kappa, space.space().p) == (2.0, 0.5)


def test_lhalf_midpoints():
    space = LHalfSpace(quadrature_n=4)
    assert np.allclose(space.midpoints, [0.125, 0.375, 0.625, 0.875], atol=0)


# ---------------------------------------------------------------------------
# example corpus
# ---------------------------------------------------------------------------


def test_example_corpus_is_deterministic():
    a = example_corpus(quadrature_n=64, seed=7)
    b = example_corpus(quadrature_n=64, seed=7)
    assert len(a) == 20
    for u, v in zip(a, b):
        assert np.array_equal(u, v)


def test_example_corpus_composition():
    signals = example_corpus(quadrature_n=128)
    assert len(signals) == 20
    assert all(s.shape == (128,) for s in signals)
    # The three step signals take exactly two values each.
    for s in signals[17:]:
        assert len(np.unique(s)) == 2


def test_example_corpus_seed_changes_signals():
    a = example_corpus(quadrature_n=64, seed=7)
    b = example_corpus(quadrature_n=64, seed=8)
    assert any(not np.array_equal(u, v) for u, v in zip(a, b))


# ---------------------------------------------------------------------------
# p-normed builtin codomains
# ---------------------------------------------------------------------------

# Each builtin codomain with the p of its p-norm inequality.
P_NORMED = [
    pytest.param(real_line(), 1.0, id="reals"),
    pytest.param(LHalfSpace(128).space(), 0.5, id="lhalf-128"),
]


# Coordinates from 1e-300 and scalars from 1e-3, so that t x and every norm
# stay normal floats: a subnormal result has too few bits for a relative slack.
def signed(low, top):
    """0 or a number of magnitude in [low, top], either sign."""
    nonzero = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(low, top))
    return st.one_of(st.just(0.0), nonzero.map(lambda sv: sv[0] * sv[1]))


@pytest.mark.parametrize("space, p", P_NORMED)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_builtin_norms_are_p_normed(space, p, data):
    """|x + y|**p <= |x|**p + |y|**p and |t x| = |t| |x|, with |x| > 0 for x != 0.

    With p = log_{2 kappa} 2 the first inequality gives the kappa-relaxed
    triangle: |x + y| <= (|x|**p + |y|**p)**(1/p) <= 2**(1/p - 1) (|x| + |y|)
    = kappa (|x| + |y|), by the power-mean inequality.
    """
    assert space.p == pytest.approx(p, rel=1e-12)
    vector = st.lists(signed(1e-300, 1e6), min_size=space.dim, max_size=space.dim).map(
        lambda v: v[0] if space.dim == 1 else np.array(v))
    x, y = data.draw(vector), data.draw(vector)
    t = data.draw(signed(1e-3, 1e3))
    nx, ny = space.norm(x), space.norm(y)
    assert space.norm(x + y) ** p <= (nx**p + ny**p) * (1.0 + 1e-12)
    assert space.norm(x + y) <= space.kappa * (nx + ny) * (1.0 + 1e-12)
    assert space.norm(t * x) == pytest.approx(abs(t) * nx, rel=1e-12)
    assert (nx > 0.0) == bool(np.any(np.asarray(x) != 0.0))
