"""Acceptance suite: the eight primary criteria.

Each criterion is one test that prints a single [PASS]/[FAIL] line (run
pytest with -s to see them live; -v shows the same outcome per test).
Tolerances are pinned next to each check.  The whole suite, this module
included, is budgeted to finish in well under a minute.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import chain_oracle, integer_metric, random_generalized_b_metric
from ulamstab import (
    ContractionMap,
    GeneralizedBMetricSpace,
    Outcome,
    PowerLaw,
    ShiftNorm,
    StabilityConfig,
    chain_metric,
    iterate,
    m_closed_grid,
    stability_bound,
    validate_b_metric,
    verify_stability,
)
from ulamstab.cli import run_example_lhalf


def _line(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}")
    assert ok, f"criterion {num} failed: {name}"


def cubic_plus_linear(u):
    return u**3 + u


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_line_certificate():
    config = StabilityConfig(m=2.0, L=0.25)
    grid = m_closed_grid([0.5, 1.0], 2.0, levels=1)
    return verify_stability(cubic_plus_linear, ShiftNorm(c=12.0, m=2.0), config, grid)


@pytest.fixture(scope="module")
def power_law_certificate():
    phi = PowerLaw(lam=1.0, s=2.0)
    config = StabilityConfig(m=2.0, L=phi.lipschitz(2.0))
    grid = m_closed_grid([1.0], 2.0, levels=1)
    return verify_stability(lambda u: u**3, phi, config, grid)


@pytest.fixture(scope="module")
def lhalf_report():
    return run_example_lhalf(quadrature_n=1024)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_chain_metric_matches_exhaustive_oracle():
    """200 random generalized b-metric spaces (n <= 6, kappa in [1, 8],
    infinite blocks included) agree with brute-force chain enumeration
    within 1e-12 absolute."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        kappa = float(rng.uniform(1.0, 8.0))
        D = random_generalized_b_metric(rng, n, kappa, split_prob=0.1)
        cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=kappa))
        expect = chain_oracle(D, cm.p)
        finite = np.isfinite(expect)
        if not np.array_equal(np.isfinite(cm.delta), finite):
            _line(1, "chain metric matches the brute-force oracle (atol 1e-12)", False)
        if finite.any():
            worst = max(worst, float(np.max(np.abs(cm.delta[finite] - expect[finite]))))
    _line(1, "chain metric matches the brute-force oracle (atol 1e-12)",
          worst <= 1e-12)


def test_criterion_2_sandwich_and_metric_identity():
    """1000 random spaces (n <= 12) satisfy (1/4) D**p <= delta <= D**p
    entrywise (slack 1e-12); for kappa = 1 on integer metrics, delta is
    bitwise equal to D."""
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        kappa = float(rng.uniform(1.0, 8.0))
        D = random_generalized_b_metric(rng, n, kappa, split_prob=0.1)
        cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=kappa))
        with np.errstate(invalid="ignore"):
            Dp = np.where(np.isinf(D), np.inf, np.power(D, cm.p))
        finite = np.isfinite(Dp)
        ok = ok and bool(np.all(cm.delta <= Dp + 1e-12))
        ok = ok and bool(np.all(cm.delta[finite] >= 0.25 * Dp[finite] - 1e-12))
        ok = ok and bool(np.array_equal(np.isinf(cm.delta), np.isinf(Dp)))
        if not ok:
            break
    bitwise = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        D = integer_metric(rng, n)
        cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=1.0))
        bitwise = bitwise and bool(np.array_equal(cm.delta, D))
        if not bitwise:
            break
    _line(2, "sandwich (1/4) D**p <= delta <= D**p and kappa=1 bitwise identity",
          ok and bitwise)


def test_criterion_3_fixed_point_bounds_are_sound():
    """The halving-map error bound dominates the true error 2**-N at every
    stop N, and on the squared-gap b-metric (kappa = 2) the metrized
    distance contracts with factor L**p = 1/2 (slack 1e-12)."""
    sound = True
    tmap = ContractionMap(apply=lambda x: x / 2.0, L=0.5)
    for n_stop in range(1, 26):
        res = iterate(tmap, 1.0, lambda a, b: abs(a - b), p=1.0,
                      tol=2.0 ** (-n_stop - 1), max_iter=400)
        sound = sound and res.outcome is Outcome.CONVERGED
        sound = sound and res.error_bound >= abs(res.iterate) - 1e-15

    # Finite dyadic space with D(a, b) = (a - b)**2; halving is a self-map.
    points = np.array([0.0] + [2.0 ** (-j) for j in range(12)])
    n = len(points)
    D = (points[:, None] - points[None, :]) ** 2
    assert validate_b_metric(D, kappa=2.0).passed
    cm = chain_metric(GeneralizedBMetricSpace(D=D, kappa=2.0))
    index = {float(x): i for i, x in enumerate(points)}
    rng = np.random.default_rng(103)
    contracts = True
    checked = 0
    for _ in range(100):
        a, b = points[rng.integers(1, n, size=2)]
        ta, tb = a / 2.0, b / 2.0
        if float(ta) not in index or float(tb) not in index:
            continue
        checked += 1
        lhs = cm.delta[index[float(ta)], index[float(tb)]]
        rhs = 0.5 * cm.delta[index[float(a)], index[float(b)]]
        contracts = contracts and lhs <= rhs + 1e-12
    # The largest observed ratio D(Ta, Tb) / D(a, b) of the halving map T.
    est = max((points[i] / 2.0 - points[j] / 2.0) ** 2 / (points[i] - points[j]) ** 2
              for i in range(1, n) for j in range(1, i))
    _line(3, "fixed-point bounds dominate the true error; delta contracts at L**p",
          sound and contracts and checked >= 50 and est <= 0.25 + 1e-12)


def test_criterion_4_real_line_pipeline(real_line_certificate):
    """f = u**3 + u, m = 2, phi = 12 |x + 2 y|, L = 1/4: the certificate
    passes, q matches u**3 within 1e-9 on the dyadic grid, and the
    headline error ratio is 0.25 within 1e-9."""
    cert = real_line_certificate
    ok = cert.passed
    for x in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        ok = ok and abs(cert.q(x) - x**3) <= 1e-9
    ok = ok and abs(cert.max_error_ratio - 0.25) <= 1e-9
    ok = ok and cert.one_step_ok and cert.hypothesis_phi_ok and cert.hypothesis_defect_ok
    _line(4, "real-line pipeline certifies u**3 + u with error ratio 0.25", ok)


def test_criterion_5_lhalf_reproduction(lhalf_report):
    """L^{1/2}[0,1] at quadrature 1024: the measured defect constant of
    u**3 + u matches |2m(1 - m**2)| within 1e-6 relative over the signal
    corpus (12 at m=2, 48 at m=3), the certificates pass, and the report
    flags the smaller commonly quoted constant."""
    report = lhalf_report
    ok = report["all_pass"] and report["quadrature_n"] == 1024
    expected = {2.0: (12.0, 4.0), 3.0: (48.0, 12.0)}
    for run in report["runs"]:
        derived, quoted = expected[run["m"]]
        dc = run["defect_constant"]
        ok = ok and dc["derived"] == derived
        ok = ok and dc["quoted"] == quoted
        ok = ok and dc["max_rel_deviation"] <= 1e-6
        ok = ok and "quoted" in dc["note"]
        ok = ok and run["certificate"]["passed"] is True
        ok = ok and run["certificate"]["max_error_ratio"] <= 1.0
    _line(5, "L^{1/2} reproduction: derived constant verified, quoted constant flagged",
          ok)


def test_criterion_6_solution_laws(real_line_certificate, power_law_certificate,
                                   lhalf_report):
    """Every passing certificate's q obeys q(m x) = m**3 q(x) and solves
    both cubic equations within tol * max(1, sup |q|)."""
    ok = True
    for cert in (real_line_certificate, power_law_certificate):
        budget = cert.tol * cert.scale
        ok = ok and cert.passed
        ok = ok and cert.homogeneity_defect <= budget
        ok = ok and cert.homogeneity_points >= 1
        ok = ok and cert.el_defect_of_q <= budget
        ok = ok and cert.junkim_defect_of_q <= budget
    for run in lhalf_report["runs"]:
        cd = run["certificate"]
        budget = cd["tol"] * cd["scale"]
        ok = ok and cd["homogeneity_defect"] <= budget
        ok = ok and cd["el_defect_of_q"] <= budget
        ok = ok and cd["junkim_defect_of_q"] <= budget
    _line(6, "recovered q is m-homogeneous and solves both cubic equations", ok)


def test_criterion_7_power_law_closed_form(power_law_certificate):
    """PowerLaw(lam=1, s=2) at m = 2 gives L = 1/2 exactly, contractivity
    ratio exactly 1, and the generic bound equals its closed form
    x**2 / 2 within 1e-12."""
    cert = power_law_certificate
    phi = PowerLaw(lam=1.0, s=2.0)
    ok = cert.passed
    ok = ok and cert.L == 0.5
    ok = ok and cert.phi_worst_ratio == 1.0
    config = StabilityConfig(m=2.0, L=0.5)
    for x in (0.5, 1.0, 2.0, 3.0):
        ok = ok and abs(stability_bound(config, phi, x) - 0.5 * x**2) <= 1e-12
    _line(7, "power-law family: L = 1/2 exact, ratio 1, closed form matches", ok)


def test_criterion_8_undersized_control_is_rejected():
    """phi = 4 |x + 2 y| cannot dominate the defect 12 |x + 2 y|: the
    pipeline must return a certified failure with a witness pair and must
    never report a pass."""
    config = StabilityConfig(m=2.0, L=0.25)
    grid = m_closed_grid([0.5, 1.0], 2.0, levels=1)
    cert = verify_stability(cubic_plus_linear, ShiftNorm(c=4.0, m=2.0), config, grid)
    ok = not cert.passed
    ok = ok and not cert.hypothesis_defect_ok
    ok = ok and cert.defect_witness is not None
    ok = ok and any("defect" in note for note in cert.notes)
    _line(8, "undersized control function yields a certified failure with witness", ok)
