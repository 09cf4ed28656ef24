"""Tests for extended-real handling, axiom validators, sampled maps, and IO."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TILES,
    component_b_metrics,
    random_generalized_b_metric,
    tile_elements,
    triple_oracle_b_metric,
)
from ulamstab import (
    AXIOM_SLACK,
    BMetricReport,
    EvaluationError,
    GeneralizedBMetricSpace,
    InputError,
    QuasiNormedSpace,
    SampledMap,
    as_extended,
    as_extended_matrix,
    euclidean_norm,
    ext_pow,
    lhalf_norm,
    load_distance_csv,
    load_distance_json,
    p_exponent,
    real_line,
    save_distance_csv,
    save_distance_json,
    validate_b_metric,
    validate_quasi_norm,
)

# ---------------------------------------------------------------------------
# extended-real scalars
# ---------------------------------------------------------------------------


def test_as_extended_accepts_inf_and_zero():
    assert as_extended(0.0) == 0.0
    assert as_extended(math.inf) == math.inf
    assert as_extended(3) == 3.0


def test_as_extended_rejects_nan_and_negative():
    with pytest.raises(InputError):
        as_extended(math.nan)
    with pytest.raises(InputError):
        as_extended(-1e-300)


def test_as_extended_matrix_rejects_non_square():
    with pytest.raises(InputError):
        as_extended_matrix([[0.0, 1.0]])


def test_as_extended_matrix_rejects_nan():
    with pytest.raises(InputError):
        as_extended_matrix([[0.0, math.nan], [math.nan, 0.0]])


def test_ext_pow_conventions():
    assert ext_pow(math.inf, 0.5) == math.inf
    assert ext_pow(0.0, 0.5) == 0.0
    assert ext_pow(4.0, 0.5) == 2.0


@given(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1e300))
@settings(max_examples=200, deadline=None)
def test_extended_addition_commutes_and_absorbs(a, b):
    # IEEE semantics: finite + inf = inf, order irrelevant.
    assert a + b == b + a
    assert a + math.inf == math.inf
    assert math.inf + b == math.inf


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_ext_pow_monotone(x, p):
    assert ext_pow(x, p) <= ext_pow(x * 2.0, p)


# ---------------------------------------------------------------------------
# exponent and quasi-normed spaces
# ---------------------------------------------------------------------------


def test_p_exponent_reference_values():
    assert p_exponent(1.0) == pytest.approx(1.0, abs=1e-15)
    assert p_exponent(2.0) == pytest.approx(0.5, abs=1e-15)
    assert p_exponent(4.0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_p_exponent_defining_identity():
    for kappa in (1.0, 1.5, 2.0, 3.0, 8.0):
        p = p_exponent(kappa)
        assert (2.0 * kappa) ** p == pytest.approx(2.0, rel=1e-14)


def test_p_exponent_rejects_kappa_below_one():
    with pytest.raises(InputError):
        p_exponent(0.5)


def test_kappa_must_be_finite():
    # kappa = +inf would give p = 0, a metric D**0 of all ones.
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    for make in (p_exponent, lambda k: GeneralizedBMetricSpace(D=D, kappa=k),
                 lambda k: validate_b_metric(D, k)):
        with pytest.raises(InputError, match=r"^kappa must be finite, got inf$"):
            make(math.inf)
        for k in (math.nan, 0.5):
            with pytest.raises(InputError, match=r"^kappa must be >= 1, got"):
                make(k)


def test_quasi_normed_space_derives_p():
    space = QuasiNormedSpace(dim=3, norm_eval=euclidean_norm, kappa=2.0)
    assert space.p == pytest.approx(0.5, abs=1e-15)


def test_euclidean_norm_rescales_rows_whose_squares_overflow():
    assert euclidean_norm(1e160) == 1e160
    assert real_line().norm(-1e160) == 1e160
    assert euclidean_norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)
    assert euclidean_norm([1e308, 1e308]) == pytest.approx(math.sqrt(2.0) * 1e308, rel=1e-15)
    # Too large to fit, an infinite entry, a NaN entry: as before.
    assert euclidean_norm([1.5e308, 1.5e308]) == math.inf
    assert euclidean_norm([math.inf, 1.0]) == math.inf
    assert math.isnan(euclidean_norm([math.nan, 1e200]))
    # Rows below the overflow keep the bits of np.linalg.norm, also in a
    # block where other rows are rescaled.
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(40, 3)) * rng.choice([1.0, 1e150, 1e153, 1e160],
                                                          size=(40, 1))
    got = QuasiNormedSpace(dim=3, norm_eval=euclidean_norm, kappa=1.0).norm_rows(X)
    small = np.abs(X).max(axis=1) < 1e154
    assert small.any() and not small.all()
    assert got[small].tobytes() == np.array([np.linalg.norm(x) for x in X[small]]).tobytes()
    want = [math.fsum((v / 1e160) ** 2 for v in x) ** 0.5 * 1e160 for x in X[~small].tolist()]
    assert got[~small] == pytest.approx(want, rel=1e-15)


def test_real_line_is_a_normed_space():
    line = real_line()
    assert line.kappa == 1.0
    assert line.p == pytest.approx(1.0, abs=1e-15)
    assert line.norm_eval(np.array([-3.0])) == 3.0


def test_validate_quasi_norm_accepts_euclidean():
    space = QuasiNormedSpace(dim=2, norm_eval=euclidean_norm, kappa=1.0)
    rng = np.random.default_rng(0)
    samples = [rng.normal(size=2) for _ in range(20)]
    report = validate_quasi_norm(space, samples)
    assert report.passed
    assert report.worst_triangle_ratio <= 1.0 + 1e-12


def test_validate_quasi_norm_flags_undersized_kappa():
    # The l^{1/2} quadrature norm needs kappa = 2; claiming 1 must fail.
    space = QuasiNormedSpace(dim=8, norm_eval=lambda v: lhalf_norm(v, 8), kappa=1.0)
    rng = np.random.default_rng(1)
    samples = [rng.uniform(-1, 1, size=8) for _ in range(40)]
    report = validate_quasi_norm(space, samples)
    assert not report.passed
    assert "triangle" in report.detail
    assert report.witness is not None


def test_validate_quasi_norm_rejects_nonvanishing_at_zero():
    space = QuasiNormedSpace(dim=1, norm_eval=lambda v: abs(float(v[0])) + 1.0, kappa=1.0)
    report = validate_quasi_norm(space, [np.array([1.0])])
    assert not report.passed
    assert "0" in report.detail


def test_validate_quasi_norm_homogeneity_failure():
    space = QuasiNormedSpace(dim=1, norm_eval=lambda v: float(v[0] ** 2), kappa=1.0)
    report = validate_quasi_norm(space, [np.array([2.0])])
    assert not report.passed
    assert "homogeneity" in report.detail
    assert report.witness == (0, -2.0)


# ---------------------------------------------------------------------------
# b-metric validation
# ---------------------------------------------------------------------------


def test_validate_b_metric_reference_pass():
    D = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])
    assert validate_b_metric(D, kappa=8.0).passed


def test_validate_b_metric_reference_failure_witness():
    D = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])
    report = validate_b_metric(D, kappa=2.0)
    assert not report.passed
    assert report.axiom == "relaxed_triangle"
    assert report.witness == (0, 2, 1)


def test_validate_b_metric_symmetry_and_identity_failures():
    bad_sym = np.array([[0.0, 1.0], [2.0, 0.0]])
    report = validate_b_metric(bad_sym, kappa=1.0)
    assert report.axiom == "symmetry"
    bad_diag = np.array([[1.0, 1.0], [1.0, 0.0]])
    report = validate_b_metric(bad_diag, kappa=1.0)
    assert report.axiom == "identity"
    assert report.witness == (0, 0)
    merged = np.array([[0.0, 0.0], [0.0, 0.0]])
    report = validate_b_metric(merged, kappa=1.0)
    assert report.axiom == "separation"


def test_validate_b_metric_accepts_infinite_split():
    D = np.array([[0.0, np.inf], [np.inf, 0.0]])
    assert validate_b_metric(D, kappa=1.0).passed


def test_validate_b_metric_rejects_nan():
    with pytest.raises(InputError):
        validate_b_metric(np.array([[0.0, np.nan], [np.nan, 0.0]]), kappa=1.0)


def test_validate_b_metric_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for trial in range(120):
        n = int(rng.integers(2, 7))
        kappa = float(rng.uniform(1.0, 8.0))
        D = random_generalized_b_metric(rng, n, kappa)
        if rng.random() < 0.4:
            # Corrupt one off-diagonal pair so failures are exercised too.
            i, j = rng.integers(0, n, size=2)
            if i != j:
                D = D.copy()
                D[i, j] = D[j, i] = float(D[i, j]) * (3.0 * kappa + 1.0) + 1.0
        report = validate_b_metric(D, kappa=kappa)
        expect_pass, expect_witness = triple_oracle_b_metric(D, kappa, tol=AXIOM_SLACK)
        assert report.passed == expect_pass, (trial, report.detail)
        if not expect_pass:
            assert report.axiom == expect_witness[0]


def test_first_triangle_violation_is_lexicographic():
    # Two violations; (0, 2, 1) precedes (2, 0, 1).
    D = np.array([[0.0, 1.0, 50.0], [1.0, 0.0, 1.0], [50.0, 1.0, 0.0]])
    report = validate_b_metric(D, kappa=2.0)
    assert report.witness == (0, 2, 1)


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


@given(component_b_metrics(), TILES)
@settings(max_examples=150, deadline=None)
def test_validate_b_metric_matches_the_triple_loop(case, tile):
    D, kappa = case
    with tile_elements(tile):
        report = validate_b_metric(D, kappa)
    assert report == reference_b_metric_report(D, kappa)


def test_generalized_space_wrapper_validates_lazily():
    D = np.array([[0.0, 4.0], [4.0, 0.0]])
    space = GeneralizedBMetricSpace(D=D, kappa=2.0)
    assert space.n == 2
    assert validate_b_metric(space.D, space.kappa).passed


# ---------------------------------------------------------------------------
# sampled maps
# ---------------------------------------------------------------------------


def test_sampled_map_scalar_lookup_and_call():
    grid = np.array([-1.0, 0.0, 1.0])
    values = np.array([-2.0, 0.0, 2.0])
    g = SampledMap(domain_grid=grid, values=values, codomain=real_line())
    assert g(0.0) == 0.0
    assert g(1.0) == 2.0
    assert g.try_index(0.5) is None
    with pytest.raises(EvaluationError):
        g(0.5)


def test_sampled_map_lookup_tolerance():
    grid = np.array([0.0, 1.0, 2.0])
    g = SampledMap(domain_grid=grid, values=grid**3, codomain=real_line())
    assert g.index_of(1.0 + 1e-13) == 1
    assert g.try_index(1.0 + 1e-6) is None


def test_sampled_map_rejects_duplicates_and_shape_mismatch():
    with pytest.raises(InputError):
        SampledMap(
            domain_grid=np.array([0.0, 0.0]),
            values=np.array([0.0, 1.0]),
            codomain=real_line(),
        )
    with pytest.raises(InputError):
        SampledMap(
            domain_grid=np.array([0.0, 1.0]),
            values=np.array([0.0]),
            codomain=real_line(),
        )


def test_sampled_map_vector_domain():
    grid = np.array([[0.0, 0.0], [1.0, 2.0]])
    values = np.array([[0.0], [5.0]])
    g = SampledMap(domain_grid=grid, values=values, codomain=real_line())
    assert g.index_of(np.array([1.0, 2.0])) == 1
    assert float(g(np.array([1.0, 2.0]))[0]) == 5.0


# ---------------------------------------------------------------------------
# distance matrix IO
# ---------------------------------------------------------------------------


def test_csv_round_trip_preserves_inf(tmp_path):
    D = np.array([[0.0, 1.25, np.inf], [1.25, 0.0, 2.0], [np.inf, 2.0, 0.0]])
    path = tmp_path / "d.csv"
    save_distance_csv(path, D)
    back = load_distance_csv(path)
    assert np.array_equal(back, D)
    assert "inf" in path.read_text()


def test_json_round_trip_carries_kappa(tmp_path):
    D = np.array([[0.0, 4.0], [4.0, 0.0]])
    path = tmp_path / "d.json"
    save_distance_json(path, D, kappa=2.0)
    back, kappa = load_distance_json(path)
    assert np.array_equal(back, D)
    assert kappa == 2.0


def test_json_loader_reports_position_on_malformed_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kappa": 2.0, "D": [[0, 1], [1,')
    with pytest.raises(InputError) as err:
        load_distance_json(path)
    assert "line" in str(err.value)


def test_csv_loader_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0.0,1.0\n1.0\n")
    with pytest.raises(InputError):
        load_distance_csv(path)


def test_json_round_trip_through_plain_json_module(tmp_path):
    path = tmp_path / "d.json"
    save_distance_json(path, np.array([[0.0, 1.0], [1.0, 0.0]]), kappa=1.0)
    doc = json.loads(path.read_text())
    assert doc["kappa"] == 1.0
    assert doc["D"] == [[0.0, 1.0], [1.0, 0.0]]
