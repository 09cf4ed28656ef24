"""Tests for the chain-infimum metrization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TILES,
    _relaxed_closure,
    _symmetric,
    chain_oracle,
    component_b_metrics,
    integer_metric,
    nudged_b_metrics,
    random_b_metric,
    random_generalized_b_metric,
    reference_b_metric_report,
    tile_elements,
)
from ulamstab import (
    AXIOM_SLACK,
    GeneralizedBMetricSpace,
    InvalidBMetricError,
    chain_metric,
    p_exponent,
    validate_b_metric,
)
from ulamstab.core_spaces import _bitwise_symmetric
from ulamstab.metrization import _floyd_warshall

# ---------------------------------------------------------------------------
# chain metric: reference examples
# ---------------------------------------------------------------------------


def test_two_point_space_square_root():
    space = GeneralizedBMetricSpace(D=np.array([[0.0, 4.0], [4.0, 0.0]]), kappa=2.0)
    cm = chain_metric(space)
    assert cm.p == pytest.approx(0.5, abs=1e-15)
    assert cm.delta[0, 1] == pytest.approx(2.0, abs=1e-12)
    assert cm.delta[1, 0] == cm.delta[0, 1]
    assert cm.delta[0, 0] == 0.0


def test_relay_point_shortens_the_direct_edge():
    # With kappa = 8 the exponent is p = 1/4; the chain through the relay
    # costs 1 + 2**0.25 and strictly beats the direct edge 24**0.25.
    D = np.array([[0.0, 1.0, 24.0], [1.0, 0.0, 2.0], [24.0, 2.0, 0.0]])
    space = GeneralizedBMetricSpace(D=D, kappa=8.0)
    cm = chain_metric(space)
    assert cm.delta[0, 2] == pytest.approx(1.0 + 2.0**0.25, abs=1e-12)
    assert cm.delta[0, 2] < D[0, 2] ** cm.p


def test_invalid_space_raises_with_report():
    D = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])
    space = GeneralizedBMetricSpace(D=D, kappa=2.0)
    with pytest.raises(InvalidBMetricError) as err:
        chain_metric(space)
    assert err.value.report.axiom == "relaxed_triangle"
    assert err.value.report.witness == (0, 2, 1)


# ---------------------------------------------------------------------------
# chain metric: structural properties on random spaces
# ---------------------------------------------------------------------------


def test_metric_case_is_bitwise_identity():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        D = integer_metric(rng, n)
        space = GeneralizedBMetricSpace(D=D, kappa=1.0)
        cm = chain_metric(space)
        assert np.array_equal(cm.delta, D)


def test_matches_brute_force_chain_oracle():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        kappa = float(rng.uniform(1.0, 8.0))
        D = random_generalized_b_metric(rng, n, kappa)
        cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=kappa))
        expect = chain_oracle(D, cm.p)
        finite = np.isfinite(expect)
        assert np.array_equal(np.isfinite(cm.delta), finite)
        assert np.allclose(cm.delta[finite], expect[finite], rtol=0.0, atol=1e-12)


def test_delta_is_a_true_metric():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        kappa = float(rng.uniform(1.0, 6.0))
        D = random_b_metric(rng, n, kappa)
        cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=kappa))
        assert validate_b_metric(cm.delta, kappa=1.0).passed


def test_sandwich_bounds_hold_entrywise():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        kappa = float(rng.uniform(1.0, 8.0))
        D = random_generalized_b_metric(rng, n, kappa)
        cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=kappa))
        with np.errstate(invalid="ignore"):
            Wp = np.where(np.isinf(D), np.inf, np.power(D, cm.p))
        assert np.all(cm.delta <= Wp + 1e-12)
        lower = 0.25 * Wp
        finite = np.isfinite(Wp)
        assert np.all(cm.delta[finite] >= lower[finite] - 1e-12)
        # Unreachable pairs stay unreachable and vice versa.
        assert np.array_equal(np.isinf(cm.delta), np.isinf(Wp))


def test_restriction_cannot_shorten_chains():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        kappa = float(rng.uniform(1.0, 6.0))
        D = random_b_metric(rng, n, kappa)
        full = chain_metric(GeneralizedBMetricSpace(D=D, kappa=kappa))
        keep = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        sub = D[np.ix_(keep, keep)]
        part = chain_metric(GeneralizedBMetricSpace(D=sub, kappa=kappa))
        assert np.all(part.delta >= full.delta[np.ix_(keep, keep)] - 1e-12)


def test_infinite_blocks_stay_disconnected():
    D = np.array([
        [0.0, 1.0, np.inf, np.inf],
        [1.0, 0.0, np.inf, np.inf],
        [np.inf, np.inf, 0.0, 9.0],
        [np.inf, np.inf, 9.0, 0.0],
    ])
    cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=2.0))
    assert np.isinf(cm.delta[0, 2])
    assert np.isinf(cm.delta[1, 3])
    assert cm.delta[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert cm.delta[2, 3] == pytest.approx(3.0, abs=1e-12)


def reference_floyd_warshall(D, p) -> np.ndarray:
    """Plain Floyd-Warshall over D**p on the whole matrix, k-major."""
    d = D.copy() if p == 1.0 else np.power(D, p)
    for k in range(len(d)):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


@given(component_b_metrics(), TILES)
@settings(max_examples=150, deadline=None)
def test_chain_metric_is_bitwise_the_plain_floyd_warshall(case, tile):
    D, kappa = case
    space = GeneralizedBMetricSpace(D=D, kappa=kappa)
    report = validate_b_metric(D, kappa)
    if not report.passed:
        with tile_elements(tile), pytest.raises(InvalidBMetricError) as err:
            chain_metric(space)
        assert err.value.report == report
        return
    with tile_elements(tile):
        cm = chain_metric(space)
    assert cm.delta.tobytes() == reference_floyd_warshall(space.D, cm.p).tobytes()


@given(nudged_b_metrics(), TILES)
@settings(max_examples=150, deadline=None)
def test_nearly_symmetric_matrices_match_the_references(case, tile):
    # A matrix that is not bitwise symmetric takes the triangle check's full scan.
    D, kappa = case
    with tile_elements(tile):
        report = validate_b_metric(D, kappa)
    assert report == reference_b_metric_report(D, kappa)
    if not report.passed:
        return
    space = GeneralizedBMetricSpace(D=D, kappa=kappa)
    with tile_elements(tile):
        cm = chain_metric(space)
    assert cm.delta.tobytes() == reference_floyd_warshall(space.D, cm.p).tobytes()


def test_delta_keeps_an_asymmetry_within_the_slack():
    # Validation accepts D(0,2) != D(2,0) within AXIOM_SLACK, and delta is not
    # symmetrized: each side is its own D**p, 1.8e-13 apart.
    D = np.array([[0.0, 1.0, 1.9], [1.0, 0.0, 1.0], [1.9, 1.0, 0.0]])
    D[0, 2] += 5e-13
    cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=2.0))
    assert cm.delta[0, 2] == np.power(D[0, 2], cm.p)
    assert cm.delta[2, 0] == np.power(D[2, 0], cm.p)
    assert cm.delta[0, 2] - cm.delta[2, 0] == pytest.approx(1.8e-13, rel=0.01)


# ---------------------------------------------------------------------------
# the Floyd-Warshall kernel on its own
# ---------------------------------------------------------------------------


def _weights(rng, n, ties=False) -> np.ndarray:
    """Symmetric edge weights on n points that break many triangles, so that
    most entries relax; small integers when ``ties``, so that many sums
    tie.  The diagonal holds 0 and positive entries up to AXIOM_SLACK, so
    that d[k, k] > 0 at some steps."""
    F = rng.integers(1, 9, size=(n, n)) if ties else rng.uniform(0.1, 4.0, size=(n, n))
    W = np.triu(F, 1).astype(float)
    W = W + W.T
    np.fill_diagonal(W, AXIOM_SLACK * rng.choice([0.0, 0.5, 1.0], size=n))
    return W


def _relaxed(W, tile) -> np.ndarray:
    d = W.copy()
    with tile_elements(tile):
        _floyd_warshall(d)
    return d


@given(st.integers(1, 40), TILES, st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_floyd_warshall_is_bitwise_the_reference(n, tile, seed, ties, nudge):
    rng = np.random.default_rng(seed)
    W = _weights(rng, n, ties)
    if nudge and n > 1:
        # Symmetric within the slack only: every block relaxes every column.
        a, b = rng.choice(n, size=2, replace=False)
        W[a, b] += AXIOM_SLACK * rng.choice([-0.5, 0.5])
        assert not _bitwise_symmetric(W)
    d = _relaxed(W, tile)
    assert d.tobytes() == reference_floyd_warshall(W, 1.0).tobytes()
    assert _bitwise_symmetric(d) or nudge


@pytest.mark.parametrize("n, tile", [(7, 64), (10, 64), (11, 64), (200, None), (300, None)])
def test_floyd_warshall_on_a_partial_last_block(n, tile):
    # The block height (4, 3 and 2 rows under a 64-element tile; 163 and 109
    # rows under the shipped one) does not divide n.
    rng = np.random.default_rng(n)
    for ties in (False, True):
        W = _weights(rng, n, ties)
        d = _relaxed(W, tile)
        assert d.tobytes() == reference_floyd_warshall(W, 1.0).tobytes()
        assert _bitwise_symmetric(d)


@given(TILES, st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_interleaved_components_are_bitwise_the_reference(tile, parts):
    # Point i lies in component i % parts; each component runs the kernel on
    # its own submatrix, whose blocks mirror into the right places of delta.
    # A relaxed closure has many entries that a chain through k shortens.
    rng = np.random.default_rng(parts)
    n = 41
    D = _relaxed_closure(_symmetric(np.exp(rng.uniform(0.0, 4.0, size=(n, n)))), 2.0)
    labels = np.arange(n) % parts
    D[labels[:, None] != labels[None, :]] = np.inf
    with tile_elements(tile):
        cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=2.0))
    assert cm.delta.tobytes() == reference_floyd_warshall(D, cm.p).tobytes()
    assert _bitwise_symmetric(cm.delta)


def test_determinism_bitwise():
    rng = np.random.default_rng(8)
    D = random_b_metric(rng, 12, 5.0)
    space = GeneralizedBMetricSpace(D=D, kappa=5.0)
    a = chain_metric(space).delta
    b = chain_metric(space).delta
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# derived exponent
# ---------------------------------------------------------------------------


@given(st.floats(min_value=1.0, max_value=64.0))
@settings(max_examples=150, deadline=None)
def test_p_exponent_is_decreasing_and_bounded(kappa):
    p = p_exponent(kappa)
    assert 0.0 < p <= 1.0
    assert p_exponent(kappa + 1.0) < p or kappa == kappa + 1.0
