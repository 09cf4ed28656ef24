"""Tests for defects, hypothesis checks, approximant extraction, and the
stability verification pipeline.

The frozen defect values and the closed-form defect constant are verified
against an independent symbolic expansion (sympy) rather than against the
library's own arithmetic.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamstab import (
    ConstantBound,
    HypothesisViolation,
    InputError,
    LHalfSpace,
    OverflowGuardError,
    PowerLaw,
    QuasiNormedSpace,
    SampledMap,
    ShiftNorm,
    StabilityConfig,
    cubic_approximant,
    el_defect,
    hypothesis_defect_check,
    junkim_defect,
    m_closed_grid,
    phi_contractivity_check,
    real_line,
    stability_bound,
    sup_weighted_distance,
    verify_stability,
)
from ulamstab.cubic_stability import (
    _JUN_KIM,
    _euler_lagrange,
    _phi_at_zero_rows,
    _residual_rows,
)


def cubic_plus_linear(u):
    return u**3 + u


def pure_cubic(u):
    return u**3


# ---------------------------------------------------------------------------
# symbolic oracle for the equation defects
# ---------------------------------------------------------------------------


def _el_symbolic(expr, u, x, y, m):
    F = lambda arg: expr.subs(u, arg)
    return (2 * m * F(x + m * y) + 2 * F(m * x - y)
            - (m**3 + m) * (F(x + y) + F(x - y)) - 2 * (m**4 - 1) * F(y))


def _junkim_symbolic(expr, u, x, y):
    F = lambda arg: expr.subs(u, arg)
    return (F(2 * x + y) + F(2 * x - y) - 2 * F(x + y) - 2 * F(x - y) - 12 * F(x))


def test_symbolic_cubic_solves_both_equations():
    u, x, y, m = sp.symbols("u x y m", real=True)
    assert sp.expand(_el_symbolic(u**3, u, x, y, m)) == 0
    assert sp.expand(_junkim_symbolic(u**3, u, x, y)) == 0


def test_symbolic_defect_constant_of_the_linear_part():
    u, x, y, m = sp.symbols("u x y m", real=True)
    residual = _el_symbolic(u**3 + u, u, x, y, m)
    # The whole residual comes from the linear part and factors through x + m y.
    assert sp.expand(residual - 2 * m * (1 - m**2) * (x + m * y)) == 0
    jk = _junkim_symbolic(u**3 + u, u, x, y)
    assert sp.expand(jk + 12 * x) == 0


def _library_residual(equation, F, x, y):
    # The library's definition, with f applied point by point.
    return equation.residual(*(F(p(x, y)) for p in equation.points))


@pytest.mark.parametrize("k", range(5))
def test_library_equations_are_the_symbolic_oracle(k):
    # The one definition of each equation, evaluated on symbols, for f = u**k.
    u, x, y, m = sp.symbols("u x y m", real=True)
    F = lambda arg: (u**k).subs(u, arg)
    assert sp.expand(_library_residual(_euler_lagrange(m), F, x, y)
                     - _el_symbolic(u**k, u, x, y, m)) == 0
    assert sp.expand(_library_residual(_JUN_KIM, F, x, y) - _junkim_symbolic(u**k, u, x, y)) == 0


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=50)


@given(rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_library_equation_is_exact_on_rationals(m, x, y):
    # The same definition on Fractions: the cubic solves it exactly, and the
    # linear part leaves 2 m (1 - m**2)(x + m y).
    equation = _euler_lagrange(m)
    assert _library_residual(equation, lambda u: u**3, x, y) == 0
    assert _library_residual(equation, lambda u: u, x, y) == 2 * m * (1 - m**2) * (x + m * y)
    assert isinstance(_library_residual(equation, lambda u: u, x, y), Fraction)


def test_numeric_defect_matches_symbolic_constant():
    rng = np.random.default_rng(12)
    for m in (2.0, 3.0, -2.0):
        c = abs(2.0 * m * (1.0 - m**2))
        for _ in range(50):
            x, y = rng.uniform(-2, 2, size=2)
            want = c * abs(x + m * y)
            got = el_defect(cubic_plus_linear, m, x, y)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# frozen defect values
# ---------------------------------------------------------------------------


def test_frozen_defect_values():
    assert el_defect(cubic_plus_linear, 2.0, 1.0, 1.0) == pytest.approx(36.0, abs=1e-12)
    assert el_defect(lambda u: u, 2.0, 1.0, 0.0) == pytest.approx(12.0, abs=1e-12)
    assert junkim_defect(cubic_plus_linear, 1.0, 1.0) == pytest.approx(12.0, abs=1e-12)
    assert junkim_defect(lambda u: u**2, 1.0, 0.0) == pytest.approx(8.0, abs=1e-12)


def test_exact_solutions_have_zero_defect_on_dyadics():
    for m in (2.0, 3.0):
        for x in (-2.0, -0.5, 0.0, 1.0, 2.0):
            for y in (-1.0, 0.0, 0.5, 2.0):
                assert el_defect(pure_cubic, m, x, y) == 0.0
                assert junkim_defect(pure_cubic, x, y) == 0.0


def test_el_residual_sign_structure():
    # Residual of the linear part is 2 m (1 - m^2)(x + m y); negative for m = 2.
    X, Y = np.array([1.0, 1.0, -1.0]), np.array([1.0, 0.0, 1.0])
    r = _residual_rows(_euler_lagrange(2.0), lambda u: u, X, Y)
    assert r.tolist() == pytest.approx([-36.0, -12.0, -12.0], abs=1e-12)


# ---------------------------------------------------------------------------
# control families
# ---------------------------------------------------------------------------


def test_power_law_validation_and_conventions():
    with pytest.raises(InputError):
        PowerLaw(lam=-1.0, s=2.0)
    with pytest.raises(InputError):
        PowerLaw(lam=1.0, s=3.0)
    phi = PowerLaw(lam=2.0, s=2.0)
    assert phi(1.0, 2.0) == pytest.approx(10.0, abs=1e-12)
    assert phi(0.0, 2.0) == 0.0
    assert phi.at_zero(3.0) == pytest.approx(18.0, abs=1e-12)
    assert phi.at_zero(0.0) == 0.0
    assert phi.lipschitz(2.0) == pytest.approx(0.5, abs=1e-15)


def test_power_law_negative_exponent_at_zero():
    phi = PowerLaw(lam=1.0, s=-1.0)
    assert phi.at_zero(0.0) == math.inf
    assert PowerLaw(lam=1.0, s=0.0).at_zero(0.0) == 1.0


def test_shift_norm_family():
    with pytest.raises(InputError):
        ShiftNorm(c=-1.0, m=2.0)
    phi = ShiftNorm(c=12.0, m=2.0)
    assert phi(1.0, 1.0) == pytest.approx(36.0, abs=1e-12)
    assert phi.at_zero(-3.0) == pytest.approx(36.0, abs=1e-12)
    assert phi.lipschitz(2.0) == pytest.approx(0.25, abs=1e-15)
    assert phi.lipschitz(-3.0) == pytest.approx(1.0 / 9.0, abs=1e-15)


def test_constant_bound_family():
    with pytest.raises(InputError):
        ConstantBound(value=-0.5)
    phi = ConstantBound(value=1.0)
    assert phi(5.0, -7.0) == 1.0
    assert phi.at_zero(0.0) == 1.0
    assert phi.lipschitz(2.0) == pytest.approx(0.125, abs=1e-15)


class _AtZeroOnly:
    """A phi with a one-point ``at_zero`` and no block forms."""

    def __call__(self, x, y):
        raise AssertionError("phi(x, 0) must come from at_zero")

    def at_zero(self, x):
        return 2.0 * abs(x)


def test_phi_at_zero_falls_back_to_calling():
    X = np.array([3.0, -0.5, 0.0])
    assert _phi_at_zero_rows(lambda x, y: abs(x) + abs(y), X).tolist() == [3.0, 0.5, 0.0]
    assert _phi_at_zero_rows(_AtZeroOnly(), X).tolist() == [6.0, 1.0, 0.0]
    config = StabilityConfig(m=2.0, L=0.25)
    assert stability_bound(config, _AtZeroOnly(), -3.0) == stability_bound(
        config, lambda x, y: 6.0, 5.0)


# ---------------------------------------------------------------------------
# contractivity check
# ---------------------------------------------------------------------------


def _random_grid(rng, n=7, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=n)


def test_constant_phi_contractivity_threshold():
    # phi == 1, m = 2: the inequality reads 1 <= 8 L, tight at L = 1/8.
    phi = ConstantBound(value=1.0)
    grid = [1.0, 0.5, -0.25]
    assert phi_contractivity_check(phi, 2.0, 1.0 / 8.0, grid).passed
    report = phi_contractivity_check(phi, 2.0, 1.0 / 10.0, grid)
    assert not report.passed
    assert report.witness == (1.0, 1.0)
    assert report.worst_ratio == pytest.approx(1.25, abs=1e-12)


def test_shift_norm_contractivity_exact_ratio_one():
    phi = ShiftNorm(c=12.0, m=2.0)
    rng = np.random.default_rng(13)
    report = phi_contractivity_check(phi, 2.0, 0.25, _random_grid(rng))
    assert report.passed
    assert report.worst_ratio == pytest.approx(1.0, rel=1e-12)


def test_contractivity_slack_is_relative_at_large_scale():
    # Exact ratio 1 at magnitudes ~1e4 must survive float rounding; a purely
    # absolute 1e-12 slack used to fail here for odd m.
    phi = ShiftNorm(c=4654.338311463441, m=3.0)
    rng = np.random.default_rng(14)
    report = phi_contractivity_check(phi, 3.0, 1.0 / 9.0, _random_grid(rng, n=15))
    assert report.passed
    assert report.worst_ratio == pytest.approx(1.0, rel=1e-12)


def test_contractivity_rejects_negative_L():
    with pytest.raises(InputError):
        phi_contractivity_check(ConstantBound(1.0), 2.0, -0.1, [1.0])


# ---------------------------------------------------------------------------
# defect hypothesis check
# ---------------------------------------------------------------------------


def test_defect_check_tight_family_passes():
    phi = ShiftNorm(c=12.0, m=2.0)
    rng = np.random.default_rng(15)
    report = hypothesis_defect_check(cubic_plus_linear, phi, 2.0, _random_grid(rng))
    assert report.passed
    assert report.n_samples == 49


def test_defect_check_undersized_phi_fails_with_witness():
    phi = ShiftNorm(c=4.0, m=2.0)
    report = hypothesis_defect_check(cubic_plus_linear, phi, 2.0, [1.0])
    assert not report.passed
    assert report.witness == (1.0, 1.0)
    assert report.worst_ratio == pytest.approx(3.0, rel=1e-12)


def test_defect_check_requires_f_vanishing_at_zero():
    phi = ShiftNorm(c=12.0, m=2.0)
    with pytest.raises(HypothesisViolation) as err:
        hypothesis_defect_check(lambda u: u + 1.0, phi, 2.0, [1.0])
    assert err.value.observed == pytest.approx(1.0, abs=1e-12)


def test_defect_check_stops_at_the_first_violating_or_overflowing_pair():
    # f(u) = u has the residual -12 (x + 2 y) at m = 2: 36 > 1 at (1, 1), 0 at
    # (0, 0), and not finite at (0, 1e308) and (1, 1e308), where x + 2 y
    # overflows.  The pairs come in grid order: (1, 1) first on the first
    # grid, (0, 0) and then (0, 1e308) on the second.
    phi = ConstantBound(1.0)
    report = hypothesis_defect_check(lambda u: u, phi, 2.0, [1.0, 0.0, 1e308])
    assert not report.passed
    assert report.witness == (1.0, 1.0)
    with pytest.raises(OverflowGuardError, match=r"not finite at the pair \(0\.0, 1e\+308\)$"):
        hypothesis_defect_check(lambda u: u, phi, 2.0, [0.0, 1e308, 1.0])


# ---------------------------------------------------------------------------
# cubic approximant
# ---------------------------------------------------------------------------


def test_approximant_converges_to_the_cubic_part():
    grid = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    q = cubic_approximant(cubic_plus_linear, 2.0, grid, tol=1e-9)
    assert q.meta["iterations"] == 17
    for x in grid:
        # After n stages the linear part is scaled by 4**-n exactly.
        assert abs(q(x) - x**3) <= 4.0**-17 * abs(x) + 1e-15


def test_approximant_is_exact_for_exact_solutions():
    grid = np.array([-1.5, 0.0, 1.1, 2.0])
    q = cubic_approximant(pure_cubic, 2.0, grid, tol=1e-9)
    assert q.meta["iterations"] == 1
    for x in grid:
        assert q(x) == x**3


def test_approximant_runs_out_the_budget_at_tol_zero():
    # The linear tail 4**-n stays resolvable well past 10 stages, so the
    # budget is what stops the run.
    grid = np.array([0.0, 1.0])
    q = cubic_approximant(cubic_plus_linear, 2.0, grid, n_max=10, tol=0.0)
    assert q.meta["iterations"] == 10
    assert q.meta["final_change"] > 0.0


def test_approximant_overflow_guard_on_denominator():
    # A quintic rescales to 4**n, which never stabilizes, and 8**n crosses
    # the orbit limit near stage 112: the guard must fire with a usable
    # last safe stage still attached.
    grid = np.array([0.0, 1.0])
    with pytest.raises(OverflowGuardError) as err:
        cubic_approximant(lambda u: u**5, 2.0, grid, n_max=200, tol=0.0)
    exc = err.value
    assert exc.iterations >= 100
    assert isinstance(exc.last_safe, SampledMap)
    assert exc.last_safe.meta["iterations"] == exc.iterations
    assert exc.last_safe(1.0) == 4.0**exc.iterations


def test_approximant_overflow_guard_on_function_values():
    grid = np.array([0.0, 1.0])

    def runaway(u):
        with np.errstate(over="ignore"):
            return float(np.exp(u)) - 1.0

    with pytest.raises(OverflowGuardError):
        cubic_approximant(runaway, 2.0, grid, n_max=40, tol=0.0)


def test_approximant_input_validation():
    grid = np.array([0.0, 1.0])
    with pytest.raises(InputError):
        cubic_approximant(cubic_plus_linear, 1.0, grid)
    with pytest.raises(InputError):
        cubic_approximant(cubic_plus_linear, 2.0, grid, tol=-1.0)
    with pytest.raises(InputError):
        cubic_approximant(cubic_plus_linear, 2.0, grid, n_max=0)
    with pytest.raises(InputError):
        cubic_approximant(cubic_plus_linear, 2.0, np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_stability_bound_reference_real_line():
    config = StabilityConfig(m=2.0, L=0.25)
    phi = ShiftNorm(c=12.0, m=2.0)
    assert stability_bound(config, phi, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert stability_bound(config, phi, -3.0) == pytest.approx(12.0, abs=1e-12)


def test_stability_bound_reference_quadrature_space():
    lhalf = LHalfSpace(quadrature_n=64)
    one = np.ones(64)
    phi2 = ShiftNorm(c=12.0, m=2.0, norm=lhalf.norm)
    config2 = StabilityConfig(m=2.0, L=0.25, p=0.5, codomain=lhalf.space())
    assert stability_bound(config2, phi2, one) == pytest.approx(48.0, rel=1e-12)
    phi3 = ShiftNorm(c=48.0, m=3.0, norm=lhalf.norm)
    config3 = StabilityConfig(m=3.0, L=1.0 / 9.0, p=0.5, codomain=lhalf.space())
    assert stability_bound(config3, phi3, one) == pytest.approx(32.0, rel=1e-12)
    # PowerLaw(1, 1) at m = 2: L = 1/4, and (4 / (1 - L**p))**(1/p) is 64.
    small = LHalfSpace(4)
    phi = PowerLaw(lam=1.0, s=1.0, norm=small.norm)
    config = StabilityConfig(m=2.0, L=phi.lipschitz(2.0), p=0.5, codomain=small.space())
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert stability_bound(config, phi, x) == pytest.approx(64.0 * small.norm(x) / 16.0,
                                                            rel=1e-12)


# ---------------------------------------------------------------------------
# weighted sup distance
# ---------------------------------------------------------------------------


def test_sup_weighted_distance_conventions():
    grid = np.array([0.0, 1.0, 2.0])
    phi = ShiftNorm(c=1.0, m=2.0)
    g = SampledMap(domain_grid=grid, values=np.array([0.0, 1.0, 8.0]), codomain=real_line())
    h = SampledMap(domain_grid=grid, values=np.array([0.0, 0.5, 8.0]), codomain=real_line())
    # Identical at the zero-weight point: 0/0 contributes 0, not NaN.
    assert sup_weighted_distance(g, g, phi) == 0.0
    assert sup_weighted_distance(g, h, phi) == pytest.approx(0.5, abs=1e-12)
    different = SampledMap(domain_grid=grid, values=np.array([1.0, 1.0, 8.0]),
                           codomain=real_line())
    assert sup_weighted_distance(g, different, phi) == math.inf
    other_grid = SampledMap(domain_grid=np.array([0.0, 1.0]), values=np.zeros(2),
                            codomain=real_line())
    with pytest.raises(InputError):
        sup_weighted_distance(g, other_grid, phi)


# ---------------------------------------------------------------------------
# m-closed grids
# ---------------------------------------------------------------------------


def test_m_closed_grid_structure():
    grid = m_closed_grid([1.0, 2.0], 2.0, levels=1)
    assert grid.ndim == 1
    assert grid[0] == 0.0
    assert set(grid.tolist()) == {0.0, 1.0, 2.0, 4.0, -1.0, -2.0, -4.0}
    # Duplicates (2 = 2*1) are dropped, keeping the first occurrence.
    assert len(grid) == 7


def test_m_closed_grid_scaling_is_bitwise():
    # Within each base chain, multiplying by m must land exactly on the
    # next level's stored row, including for non-dyadic bases.
    grid = m_closed_grid([0.1, 0.7], 3.0, levels=3)
    g = SampledMap(domain_grid=grid, values=np.zeros(len(grid)), codomain=real_line())
    for b in (0.1, 0.7, -0.1, -0.7):
        v = b
        for _ in range(3):
            idx = g.try_index(3.0 * v)
            assert idx is not None
            v = float(grid[idx])
    assert g.try_index(3.0 * 0.0) is not None


def test_m_closed_grid_validation():
    with pytest.raises(InputError):
        m_closed_grid([1.0], 1.0)
    with pytest.raises(InputError):
        m_closed_grid([], 2.0)
    with pytest.raises(InputError):
        m_closed_grid([1.0], 2.0, levels=-1)


@pytest.mark.parametrize("grid", [np.zeros((1, 0)), np.zeros((3, 0))])
def test_points_without_coordinates_are_an_input_error(grid):
    config = StabilityConfig(m=2.0, L=0.25)
    for call in (lambda: verify_stability(cubic_plus_linear, ShiftNorm(c=12.0, m=2.0), config,
                                          grid),
                 lambda: cubic_approximant(cubic_plus_linear, 2.0, grid)):
        with pytest.raises(InputError, match="at least one coordinate"):
            call()


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [0.5, 1.0, -1.0, math.nan])
def test_every_entry_point_rejects_m_with_one_message(m):
    messages = []
    for call in (lambda: StabilityConfig(m=m, L=0.25),
                 lambda: cubic_approximant(cubic_plus_linear, m, np.array([0.0, 1.0])),
                 lambda: m_closed_grid([1.0], m)):
        with pytest.raises(InputError) as err:
            call()
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0] == (f"m must satisfy |m| > 1 (0 and +-1 are degenerate; the forward "
                           f"rescaling diverges for 0 < |m| <= 1), got {m!r}")


def test_stability_config_validation():
    with pytest.raises(InputError):
        StabilityConfig(m=1.0, L=0.25)
    with pytest.raises(InputError):
        StabilityConfig(m=2.0, L=1.0)
    with pytest.raises(InputError):
        StabilityConfig(m=2.0, L=0.25, p=0.0)
    with pytest.raises(InputError):
        StabilityConfig(m=2.0, L=0.25, tol=0.0)
    # Codomain exponent must agree with p.
    with pytest.raises(InputError):
        StabilityConfig(m=2.0, L=0.25, p=0.5)
    assert StabilityConfig(m=-2.0, L=0.25).m == -2.0
    default = StabilityConfig(m=2.0, L=0.25).codomain  # the real line
    assert (default.dim, default.kappa, default.p) == (1, 1.0, 1.0)


def test_an_int_m_is_taken_as_its_float():
    phi = ShiftNorm(c=12.0, m=2.0)
    # 10**80 is a float, whose m**4 overflows: a certified failure, not a crash.
    with pytest.raises(OverflowGuardError, match="m\\*\\*4 overflows"):
        verify_stability(cubic_plus_linear, phi, StabilityConfig(m=10**80, L=0.25), _real_grid())
    # 10**400 is no float at all, like m = inf.
    for call in (lambda: StabilityConfig(m=10**400, L=0.25),
                 lambda: cubic_approximant(cubic_plus_linear, 10**400, np.array([0.0, 1.0])),
                 lambda: m_closed_grid([1.0], 10**400)):
        with pytest.raises(InputError, match="m must be finite"):
            call()
    assert type(StabilityConfig(m=2, L=0.25).m) is float
    by_int, by_float = (verify_stability(cubic_plus_linear, phi, StabilityConfig(m=m, L=0.25),
                                         _real_grid()).to_dict() for m in (2, 2.0))
    assert by_int == by_float
    assert json.dumps(by_int) == json.dumps(by_float)
    assert np.array_equal(m_closed_grid([0.5, 1.0], 2), m_closed_grid([0.5, 1.0], 2.0))


# ---------------------------------------------------------------------------
# verification pipeline
# ---------------------------------------------------------------------------


def _real_grid():
    return m_closed_grid([0.5, 1.0], 2.0, levels=1)


def test_verify_stability_real_line_passes():
    config = StabilityConfig(m=2.0, L=0.25)
    phi = ShiftNorm(c=12.0, m=2.0)
    cert = verify_stability(cubic_plus_linear, phi, config, _real_grid())
    assert cert.passed
    assert cert.hypothesis_defect_ok and cert.hypothesis_phi_ok and cert.one_step_ok
    assert cert.approximant_iterations == 17
    assert 0.2499 < cert.max_error_ratio <= 0.25
    assert cert.homogeneity_points == 5
    assert cert.homogeneity_defect <= config.tol * cert.scale
    assert cert.el_defect_of_q <= config.tol * cert.scale
    assert cert.junkim_defect_of_q <= config.tol * cert.scale
    # q approximates the cubic part on the grid.
    for x in (-2.0, -0.5, 0.0, 1.0):
        assert abs(cert.q(x) - x**3) <= 1e-9


def test_verify_stability_one_step_ratio_is_tight():
    # |f(2x)/8 - f(x)| = (3/4)|x| meets phi(x,0)/16 = (3/4)|x| exactly.
    config = StabilityConfig(m=2.0, L=0.25)
    phi = ShiftNorm(c=12.0, m=2.0)
    cert = verify_stability(cubic_plus_linear, phi, config, _real_grid())
    assert cert.one_step_worst_ratio == pytest.approx(1.0, rel=1e-12)


def test_verify_stability_worst_ratios_follow_one_running_maximum():
    # A phi that is NaN at (0, 0), outside the contract of a control
    # function: the first ratio of both is NaN, and the running maximum
    # keeps it.  The one-step ratio read 1.0 here, hiding the NaN.
    def phi(x, y):
        return math.nan if x == y == 0.0 else 12.0 * abs(x + 2.0 * y)

    cert = verify_stability(cubic_plus_linear, phi, StabilityConfig(m=2.0, L=0.25),
                            m_closed_grid([1.0, 3.0], 2.0, levels=2))
    assert math.isnan(cert.one_step_worst_ratio)
    assert math.isnan(cert.max_error_ratio)


def test_plain_callables_get_python_floats_on_the_real_line():
    # A plain norm got numpy scalars from a 1-d block, and a 0-d array for f(0).
    seen = {"f": set(), "phi": set(), "norm": set()}

    def f(u):
        seen["f"].add(type(u))
        return u**3 + u

    def phi(x, y):
        seen["phi"].update((type(x), type(y)))
        return 12.0 * abs(x + 2.0 * y)

    def norm(v):
        seen["norm"].add(type(v))
        return abs(v)

    codomain = QuasiNormedSpace(dim=1, norm_eval=norm, kappa=1.0)
    cert = verify_stability(f, phi, StabilityConfig(m=2.0, L=0.25, codomain=codomain),
                            _real_grid())
    assert cert.passed
    assert hypothesis_defect_check(f, phi, 2.0, [0.5, 1.0], norm=norm).passed
    assert seen == {"f": {float}, "phi": {float}, "norm": {float}}


def test_verify_stability_undersized_phi_fails_without_raising():
    config = StabilityConfig(m=2.0, L=0.25)
    cert = verify_stability(cubic_plus_linear, ShiftNorm(c=4.0, m=2.0), config, _real_grid())
    assert not cert.passed
    assert not cert.hypothesis_defect_ok
    assert cert.defect_witness is not None
    assert cert.q is not None  # extraction still ran; only the bound is void
    assert any("defect" in note for note in cert.notes)


def test_verify_stability_nonvanishing_f0_yields_failing_certificate():
    config = StabilityConfig(m=2.0, L=0.25)
    cert = verify_stability(lambda u: u**3 + 1.0, ShiftNorm(c=12.0, m=2.0),
                            config, _real_grid())
    assert not cert.passed
    assert cert.q is None
    assert any("f(0)" in note for note in cert.notes)


def test_verify_stability_grid_validation():
    config = StabilityConfig(m=2.0, L=0.25)
    phi = ShiftNorm(c=12.0, m=2.0)
    with pytest.raises(InputError):
        verify_stability(cubic_plus_linear, phi, config, np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        verify_stability(cubic_plus_linear, phi, config, np.array([0.0, np.inf]))


def test_verify_stability_power_law_exact_solution():
    # f = u**3 solves the equation exactly.  Residuals are zero up to libm
    # pow rounding (cubing a doubled argument is not guaranteed to scale
    # to the last ulp), so the defects sit at the 1e-12 level, far inside
    # the certificate tolerance; the contractivity ratio is 1.
    phi = PowerLaw(lam=1.0, s=2.0)
    config = StabilityConfig(m=2.0, L=phi.lipschitz(2.0))
    grid = m_closed_grid(np.linspace(1.0, 1.4, 5), 2.0, levels=4)
    assert len(grid) == 51
    cert = verify_stability(pure_cubic, phi, config, grid)
    assert cert.passed
    assert cert.max_error_ratio <= 1e-12
    assert cert.homogeneity_defect <= 1e-10
    assert cert.el_defect_of_q <= 1e-10
    assert cert.junkim_defect_of_q <= 1e-10
    assert cert.phi_worst_ratio == pytest.approx(1.0, rel=1e-12)
    assert cert.defect_pairs_checked > 0


def test_a_zero_power_law_reports_the_first_zero_free_pair():
    # phi == 0 makes every contractivity ratio 0/0 = 0, so the witness is
    # the first pair checked.  Both checks leave out the pairs with a zero
    # argument, so that is (x1, x1) for the first nonzero grid point x1,
    # not the grid's zero point (0, 0).
    grid = m_closed_grid([0.5, 1.0], 2.0, levels=1)
    phi = PowerLaw(lam=0.0, s=1.0)
    cert = verify_stability(pure_cubic, phi, StabilityConfig(m=2.0, L=phi.lipschitz(2.0)), grid)
    assert grid[0] == 0.0 and grid[1] == 0.5
    assert cert.hypothesis_phi_ok and cert.phi_worst_ratio == 0.0
    assert cert.phi_witness == (0.5, 0.5)


def test_verify_stability_checks_every_pair_of_a_257_point_grid():
    # The pairs through the origin are 481 of these 5 815 in-range pairs.
    grid = m_closed_grid([1.0 + k / 16.0 for k in range(16)], 2.0, levels=7)
    phi = ShiftNorm(c=12.0, m=2.0)
    cert = verify_stability(cubic_plus_linear, phi, StabilityConfig(m=2.0, L=0.25), grid)
    assert len(grid) == 257 and cert.passed
    assert cert.defect_pairs_checked == 5815
    assert cert.el_defect_of_q == 3.725290298461914e-09


def test_verify_stability_scaling_equivariance_is_bitwise():
    # Doubling f and phi doubles q, bounds, and errors exactly (dyadic
    # factor), so the headline ratio is bitwise unchanged.
    config = StabilityConfig(m=2.0, L=0.25)
    grid = _real_grid()
    cert1 = verify_stability(cubic_plus_linear, ShiftNorm(c=12.0, m=2.0), config, grid)
    cert2 = verify_stability(lambda u: 2.0 * cubic_plus_linear(u),
                             ShiftNorm(c=24.0, m=2.0), config, grid)
    assert cert2.passed
    assert cert2.max_error_ratio == cert1.max_error_ratio
    assert np.array_equal(np.asarray(cert2.q.values), 2.0 * np.asarray(cert1.q.values))
    assert tuple(cert2.bound_per_point) == tuple(2.0 * b for b in cert1.bound_per_point)
    assert tuple(cert2.error_per_point) == tuple(2.0 * e for e in cert1.error_per_point)


def test_certificate_serializes_to_json():
    config = StabilityConfig(m=2.0, L=0.25)
    cert = verify_stability(cubic_plus_linear, ShiftNorm(c=12.0, m=2.0),
                            config, _real_grid())
    doc = cert.to_dict()
    text = json.dumps(doc, sort_keys=True)
    assert '"passed": true' in text
    assert doc["q"]["n_points"] == 7
    assert doc["q"]["domain"] is not None
