"""Tests for the certified fixed-point iteration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ulamstab import (
    ContractionMap,
    FixedPointResult,
    HypothesisViolation,
    InputError,
    LHalfSpace,
    Outcome,
    ShiftNorm,
    StabilityConfig,
    bound_factors,
    cubic_rescale,
    estimate_lipschitz,
    iterate,
    m_closed_grid,
    real_line,
    stability_bound,
    sup_weighted_distance,
    SampledMap,
)


def _abs_distance(a, b):
    return abs(a - b)


# ---------------------------------------------------------------------------
# bound factors
# ---------------------------------------------------------------------------


def test_bound_factors_metric_case():
    f = bound_factors(L=0.5, p=1.0)
    assert f["from_L"] == pytest.approx(8.0, abs=1e-12)
    assert f["from_L_pow_p"] == pytest.approx(8.0, abs=1e-12)
    assert f["metric"] == pytest.approx(2.0, abs=1e-12)


def test_bound_factors_fractional_p():
    f = bound_factors(L=0.25, p=0.5)
    # (4 / (1 - 1/4))**2 = (16/3)**2; (4 / (1 - 1/2))**2 = 64.
    assert f["from_L"] == pytest.approx((16.0 / 3.0) ** 2, rel=1e-12)
    assert f["from_L_pow_p"] == pytest.approx(64.0, rel=1e-12)
    assert "metric" not in f
    assert f["from_L_pow_p"] >= f["from_L"]


def test_bound_factors_rejects_bad_arguments():
    with pytest.raises(InputError):
        bound_factors(L=1.0, p=1.0)
    with pytest.raises(InputError):
        bound_factors(L=0.5, p=0.0)
    with pytest.raises(InputError):
        bound_factors(L=0.5, p=2.0)


def test_L_pow_p_rounding_to_one_is_an_input_error():
    # L < 1, but L**p rounds to 1: the factor 4 / (1 - L**p) has no value.
    L = 0.9999999999999999
    assert L < 1.0 and L**0.5 == 1.0
    message = r"^L\*\*p must stay below 1, got 1\.0$"
    with pytest.raises(InputError, match=message):
        bound_factors(L, 0.5)
    with pytest.raises(InputError, match=message):
        iterate(ContractionMap(apply=lambda x: x / 2.0, L=L), 1.0, _abs_distance,
                p=0.5, tol=1e-9, max_iter=10)
    config = StabilityConfig(m=2.0, L=L, p=0.5, codomain=LHalfSpace(4).space())
    with pytest.raises(InputError, match=message):
        stability_bound(config, ShiftNorm(c=12.0, m=2.0), np.ones(4))
    assert bound_factors(L, 1.0)["from_L_pow_p"] == 4.0 / (1.0 - L)


def test_contraction_map_validates_L():
    with pytest.raises(InputError):
        ContractionMap(apply=lambda x: x, L=1.0)
    with pytest.raises(InputError):
        ContractionMap(apply=lambda x: x, L=-0.1)


# ---------------------------------------------------------------------------
# convergent runs
# ---------------------------------------------------------------------------


def test_halving_map_bound_dominates_true_error_at_every_stop():
    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    for max_iter in range(1, 30):
        res = iterate(tmap, 1.0, _abs_distance, p=1.0, tol=0.0 + 2.0 ** (-max_iter - 1),
                      max_iter=200)
        # Fixed point is 0, so the true error is just |iterate|.
        true_error = abs(res.iterate)
        assert res.outcome is Outcome.CONVERGED
        assert res.error_bound >= true_error
        assert res.bounds["metric"] >= true_error
        assert res.bounds["from_L"] >= res.bounds["metric"]


def test_setzero_map_converges_in_one_step():
    tmap = ContractionMap(apply=lambda x: 0.0, L=0.0)
    res = iterate(tmap, 5.0, _abs_distance, p=1.0, tol=1e-12, max_iter=10)
    assert res.outcome is Outcome.CONVERGED
    assert res.iterations == 1
    assert res.iterate == 0.0
    assert res.residual == 0.0
    assert res.error_bound == 0.0


def test_already_fixed_start_converges_at_zero_iterations():
    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    res = iterate(tmap, 0.0, _abs_distance, p=1.0, tol=1e-12, max_iter=10)
    assert res.outcome is Outcome.CONVERGED
    assert res.iterations == 0
    assert res.residual == 0.0


def test_residual_history_matches_geometric_decay():
    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    res = iterate(tmap, 1.0, _abs_distance, p=1.0, tol=1e-6, max_iter=100)
    hist = res.residual_history
    # Residual after k steps of halving from 1 is exactly 2**-(k+1).
    for k, r in enumerate(hist):
        assert r == pytest.approx(2.0 ** (-k - 1), rel=1e-12)
    assert res.residual == hist[-1]
    assert len(hist) == res.iterations + 1


def test_budget_exhausted_when_tol_unreachable():
    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    res = iterate(tmap, 1.0, _abs_distance, p=1.0, tol=1e-30, max_iter=5)
    assert res.outcome is Outcome.BUDGET_EXHAUSTED
    assert res.iterations == 5


def test_fractional_p_bound_is_sound_on_squared_gap_space():
    # Points carry D(a, b) = |a - b|**2, a b-metric with kappa = 2.  The
    # halving map contracts D with constant 1/4.
    def sq_distance(a, b):
        return (a - b) ** 2

    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.25)
    res = iterate(tmap, 1.0, sq_distance, p=0.5, tol=1e-10, max_iter=200)
    assert res.outcome is Outcome.CONVERGED
    true_error = sq_distance(res.iterate, 0.0)
    assert res.error_bound >= true_error
    assert res.bounds["from_L_pow_p"] == res.error_bound


# ---------------------------------------------------------------------------
# divergence and violations
# ---------------------------------------------------------------------------


def test_two_component_orbit_is_divergent_infinite():
    # Sign flip with shrink: consecutive iterates alternate components, so
    # every step distance is +inf under a sign-split distance.
    def sign_gap(a, b):
        return abs(a - b) if (a >= 0) == (b >= 0) else math.inf

    tmap = ContractionMap(apply=lambda x: -x / 2.0, L=0.5)
    res = iterate(tmap, 1.0, sign_gap, p=1.0, tol=1e-9, max_iter=50)
    assert res.outcome is Outcome.DIVERGENT_INFINITE
    assert math.isinf(res.residual)
    assert math.isinf(res.error_bound)
    assert res.iterations == 1
    assert all(math.isinf(r) for r in res.residual_history)


def test_false_contraction_constant_is_caught():
    # True factor 0.9 declared as 0.5: the second step must blow the check.
    tmap = ContractionMap(apply=lambda x: 0.9 * x, L=0.5)
    with pytest.raises(HypothesisViolation) as err:
        iterate(tmap, 1.0, _abs_distance, p=1.0, tol=1e-12, max_iter=50)
    exc = err.value
    assert exc.observed > exc.allowed
    assert exc.witness is not None


def test_infinite_first_step_carries_no_constraint():
    # First residual +inf, after that the map lands in one component and
    # contracts: must converge, not raise.
    def sign_gap(a, b):
        return abs(a - b) if (a >= 0) == (b >= 0) else math.inf

    tmap = ContractionMap(apply=lambda x: abs(x) / 2.0, L=0.5)
    res = iterate(tmap, -1.0, sign_gap, p=1.0, tol=1e-9, max_iter=100)
    assert res.outcome is Outcome.CONVERGED
    assert math.isinf(res.residual_history[0])


def test_distance_nan_is_hard_error():
    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    with pytest.raises(InputError):
        iterate(tmap, 1.0, lambda a, b: math.nan, p=1.0, tol=1e-9, max_iter=5)


def test_iterate_validates_tol_and_budget():
    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    with pytest.raises(InputError):
        iterate(tmap, 1.0, _abs_distance, p=1.0, tol=0.0, max_iter=5)
    with pytest.raises(InputError):
        iterate(tmap, 1.0, _abs_distance, p=1.0, tol=1e-9, max_iter=0)


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------


def test_estimate_lipschitz_linear_map():
    tmap = ContractionMap(apply=lambda x: 0.3 * x, L=0.3)
    pairs = [(0.0, 1.0), (2.0, 5.0), (-1.0, 4.0)]
    assert estimate_lipschitz(tmap, pairs, _abs_distance) == pytest.approx(0.3, rel=1e-12)


def test_estimate_lipschitz_skips_uninformative_pairs():
    def sign_gap(a, b):
        return abs(a - b) if (a >= 0) == (b >= 0) else math.inf

    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    pairs = [(1.0, 1.0), (-1.0, 1.0), (1.0, 3.0)]
    assert estimate_lipschitz(tmap, pairs, sign_gap) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(InputError):
        estimate_lipschitz(tmap, [(1.0, 1.0)], sign_gap)


def test_estimate_lipschitz_reports_infinite_ratio():
    def sign_gap(a, b):
        return abs(a - b) if (a >= 0) == (b >= 0) else math.inf

    # The shift moves the pair across the split: the image distance is +inf.
    tmap = ContractionMap(apply=lambda x: x - 1.5, L=0.0)
    assert math.isinf(estimate_lipschitz(tmap, [(1.0, 2.0)], sign_gap))


def test_rescale_operator_contracts_sampled_cubics():
    # The rescaling g -> g(2x)/8 acting on maps sampled over a dyadic grid
    # contracts the weighted sup distance with factor 1/4 = |m|**-2 / ...
    # measured empirically against random pairs of sampled maps.
    m = 2.0
    # No zero point: random maps disagree there and the weight vanishes.
    grid = m_closed_grid([0.5, 1.0, 1.5], m, levels=3, include_zero=False)
    phi = ShiftNorm(c=1.0, m=m)
    rng = np.random.default_rng(11)

    def random_map():
        return SampledMap(domain_grid=grid, values=rng.normal(size=len(grid)),
                          codomain=real_line())

    def dist(g, h):
        return sup_weighted_distance(g, h, phi)

    tmap = ContractionMap(apply=lambda g: cubic_rescale(g, m), L=0.25)
    pairs = [(random_map(), random_map()) for _ in range(100)]
    worst = estimate_lipschitz(tmap, pairs, dist)
    assert worst <= 0.25 + 1e-12
