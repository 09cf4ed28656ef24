"""Tests for extended-real handling, axiom validators, sampled maps, and IO."""

from __future__ import annotations

import csv
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
    reference_b_metric_report,
    tile_elements,
    triple_oracle_b_metric,
)
from ulamstab import (
    AXIOM_SLACK,
    EvaluationError,
    GeneralizedBMetricSpace,
    InputError,
    QuasiNormedSpace,
    SampledMap,
    as_extended,
    as_extended_matrix,
    euclidean_norm,
    load_distance_csv,
    load_distance_json,
    p_exponent,
    real_line,
    save_distance_csv,
    validate_b_metric,
)
from ulamstab.core_spaces import _euclidean_norm_rows

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


@given(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1e300))
@settings(max_examples=200, deadline=None)
def test_extended_addition_commutes_and_absorbs(a, b):
    # IEEE semantics: finite + inf = inf, order irrelevant.
    assert a + b == b + a
    assert a + math.inf == math.inf
    assert math.inf + b == math.inf


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


def test_both_space_types_hold_kappa_as_a_float():
    # GeneralizedBMetricSpace kept the caller's object ("2" stayed a
    # string), and QuasiNormedSpace raised a TypeError on kappa="1".
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    for make in (lambda k: GeneralizedBMetricSpace(D=D, kappa=k),
                 lambda k: QuasiNormedSpace(dim=1, norm_eval=abs, kappa=k)):
        for k in (2, np.int64(2), "2", 2.0):
            kappa = make(k).kappa
            assert type(kappa) is float and kappa == 2.0
        # A bare OverflowError before.
        with pytest.raises(InputError, match=r"^kappa must be finite, got an int too large "
                                             r"for a float$"):
            make(10**400)


def test_kappa_whose_double_overflows_is_an_input_error():
    # log(2 kappa) was log(inf): p = 0, and QuasiNormedSpace failed its own
    # check of (2 kappa)**p = 2.  The formula below the edge is unchanged.
    top = np.nextafter(2.0**1023, 0.0)
    assert p_exponent(8e307) == math.log(2.0) / math.log(1.6e308)
    assert p_exponent(top) == math.log(2.0) / math.log(2.0 * top) > 0.0
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    for make in (p_exponent, lambda k: GeneralizedBMetricSpace(D=D, kappa=k),
                 lambda k: QuasiNormedSpace(dim=1, norm_eval=abs, kappa=k),
                 lambda k: validate_b_metric(D, k)):
        for k in (2.0**1023, 1e308):
            with pytest.raises(InputError, match=r"^kappa must be below 2\*\*1023, where "
                                                 r"2 kappa is finite, got "):
                make(k)


def test_quasi_normed_space_derives_p():
    space = QuasiNormedSpace(dim=3, norm_eval=euclidean_norm, kappa=2.0)
    assert space.p == pytest.approx(0.5, abs=1e-15)


# sqrt(x * x) is 0 for the first three and inf for the next two.
@pytest.mark.parametrize("x", [5e-324, -2.5e-310, 1e-200, -1e200, 1.7976931348623157e308,
                               -3.0, -0.0])
def test_euclidean_norm_of_a_number_is_its_absolute_value(x):
    assert euclidean_norm(x) == abs(x)
    assert euclidean_norm(np.array([x])) == abs(x)
    assert real_line().norm(x) == abs(x)


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


def test_euclidean_norm_rescales_rows_whose_squares_underflow():
    # The sums of squares are subnormal and 0: the norms read 2.99998e-160
    # and 0.0 when they were not rescaled.
    assert euclidean_norm([3e-160, 0.0]) == 3e-160
    want = 1e-170 * math.sqrt(2.0)
    assert abs(euclidean_norm([1e-170, 1e-170]) - want) <= 2 * math.ulp(want)
    assert euclidean_norm([0.0, -5e-324]) == 5e-324
    # In one block with a zero row, a NaN row, an overflowing row and rows
    # of normal squares, which keep the bits of np.linalg.norm.
    X = np.array([[0.0, 0.0], [math.nan, 1e-170], [3e-160, 0.0], [1e200, 1e200],
                  [3.0, 4.0], [1e-150, 2e-150]])
    got = _euclidean_norm_rows(X)
    assert got[0] == 0.0 and math.isnan(got[1]) and got[2] == 3e-160
    assert got[4:].tobytes() == np.array([np.linalg.norm(x) for x in X[4:]]).tobytes()


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
                min_size=2, max_size=16).filter(lambda v: any(v)))
@settings(max_examples=200, deadline=None)
def test_euclidean_norm_is_homogeneous_below_the_normal_squares(x):
    x = np.array(x)
    want = 2.0**-600 * euclidean_norm(x)
    assert abs(euclidean_norm(2.0**-600 * x) - want) <= 2 * math.ulp(want)


def test_real_line_is_a_normed_space():
    line = real_line()
    assert line.kappa == 1.0
    assert line.p == pytest.approx(1.0, abs=1e-15)
    assert line.norm_eval(np.array([-3.0])) == 3.0


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


def test_a_violation_below_the_diagonal_of_a_nearly_symmetric_matrix():
    # D(0,2) and D(2,0) differ by less than AXIOM_SLACK, so the symmetry check
    # passes, but only the larger, D(2,0), exceeds D(2,1) + D(1,0) + tol.  A
    # scan of the upper triangle alone would pass this matrix.
    edge = (1.0 + 1.0) + AXIOM_SLACK
    D = np.array([[0.0, 1.0, edge], [1.0, 0.0, 1.0], [edge + 0.5 * AXIOM_SLACK, 1.0, 0.0]])
    for tile in (None, 1, 7):
        with tile_elements(tile):
            report = validate_b_metric(D, kappa=1.0)
        assert report == reference_b_metric_report(D, 1.0)
        assert report.witness == (2, 0, 1)


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


def reference_save_csv(path, D):
    """The distance CSV as the csv module writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.asarray(D, dtype=float):
            writer.writerow(["inf" if math.isinf(v) else repr(float(v)) for v in row])


def _special_entries(rng, n):
    # +inf, subnormal, huge, integral and zero entries among random ones.
    D = rng.uniform(0.0, 10.0, size=(n, n))
    special = [np.inf, 5e-324, 2.5e-310, 1e300, 1.7976931348623157e308, 3.0, 1e16, 0.0, -0.0]
    mask = rng.random((n, n)) < 0.5
    D[mask] = rng.choice(special, size=int(mask.sum()))
    return D


def _repeated_values(rng, n):
    # A handful of distinct values, each many times over.
    return rng.choice([0.1, 1.0 / 3.0, 2.0, 1e-300, 7e22], size=(n, n))


def _signed_zeros(rng, n):
    # 0.0 and -0.0 compare equal but are written differently.
    return rng.choice([0.0, -0.0, 1.5], size=(n, n))


def _two_blocks(rng, n):
    # A bitwise symmetric matrix with +inf between its two blocks.
    D = rng.uniform(0.0, 10.0, size=(n, n))
    D = np.triu(D, 1) + np.triu(D, 1).T
    h = n // 2
    D[:h, h:] = D[h:, :h] = np.inf
    return D


def _asymmetric(rng, n):
    D = rng.uniform(0.0, 10.0, size=(n, n))
    D[0, -1], D[-1, 0] = 1.0, 2.0
    return D


@pytest.mark.parametrize("build, seed, n", [
    pytest.param(_special_entries, seed, n, id=f"{seed}-{n}")
    for seed, n in [(0, 1), (1, 1), (2, 2), (3, 7), (4, 40)]
] + [
    pytest.param(build, seed, n, id=f"{build.__name__[1:]}-{seed}-{n}")
    for build in (_special_entries, _repeated_values, _signed_zeros, _two_blocks, _asymmetric)
    for seed, n in [(5, 3), (6, 150)]
])
def test_csv_writer_matches_the_csv_module_byte_for_byte(tmp_path, build, seed, n):
    D = build(np.random.default_rng(seed), n)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_distance_csv(got, D)
    reference_save_csv(want, D)
    assert got.read_bytes() == want.read_bytes()
    assert load_distance_csv(got).tobytes() == np.asarray(D, dtype=float).tobytes()


def test_csv_loader_names_the_line_of_a_bad_entry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.0,1.0\n1.0,x\n")
    with pytest.raises(InputError, match="line 2: could not convert string to float: 'x'$"):
        load_distance_csv(path)


def reference_load_csv(path):
    """The distance CSV as the csv module reads it, with float on each field."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                rows.append(list(map(float, row)))
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no matrix rows found")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise InputError(f"{path}: ragged rows (widths {sorted(width)})")
    return as_extended_matrix(np.array(rows))


# Whitespace that float strips; \f and \v end a line for str.splitlines
# but not for the csv module.
_PADDING = st.sampled_from(["", " ", "  ", "\t", "\f", "\v"])
_SPELLINGS = st.sampled_from(["inf", "Infinity", "INF", "+inf", "1_0", "1e3", "0", "-0.0", "00.5",
                              "\u0661", "2.5E-310", "1e999", "-inf", "nan"])
_NUMBERS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False).map(repr),
    st.floats(min_value=0.0, allow_nan=False, width=32).map(str),
    st.integers(0, 10**20).map(str),
    _SPELLINGS)
# No quoted field: the csv module unquoted it, and the loader rejects it.
_BAD_CELLS = st.sampled_from(["x", "", "1..0", "1,0e", "0x10", "--1", "1 0", "'1'", "1\"0"])


@st.composite
def csv_texts(draw):
    """A distance CSV text: n rows of n padded numbers with blank records
    among them, each record ended by \\n, \\r\\n or \\r; now and then a
    row too many, too few or of another width, and at most one bad field."""
    n = draw(st.integers(1, 4))
    rows = n + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
    records = [[draw(_PADDING) + draw(_NUMBERS) + draw(_PADDING) for _ in range(n)]
               for _ in range(rows)]
    if records and draw(st.integers(0, 5)) == 0:
        records[draw(st.integers(0, len(records) - 1))].pop()
    for _ in range(draw(st.integers(0, 3))):  # blank records
        records.insert(draw(st.integers(0, len(records))),
                       [draw(_PADDING) for _ in range(draw(st.integers(1, 3)))])
    cells = [(i, j) for i, row in enumerate(records) for j in range(len(row))]
    if cells and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.sampled_from(cells))
        records[i][j] = draw(_BAD_CELLS)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in records]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(",".join(row) + end for row, end in zip(records, ends))


def _outcome(load, path):
    try:
        A = load(path)
    except InputError as exc:
        return str(exc)
    return A.shape, A.tobytes()


@given(csv_texts())
@settings(max_examples=400, deadline=None)
def test_csv_loader_matches_the_csv_module(tmp_path_factory, text):
    # The same bits, or the same message, as the csv module's reader gives.
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    assert _outcome(load_distance_csv, path) == _outcome(reference_load_csv, path)


def test_csv_loader_rejects_a_quoted_field(tmp_path):
    # The csv module unquoted it; the writer never quotes.
    path = tmp_path / "quoted.csv"
    path.write_text('0.0,1.0\n1.0,"0.0"\n')
    with pytest.raises(InputError, match=r"line 2: could not convert string to float: "
                                         r"'\"0\.0\"'$"):
        load_distance_csv(path)


def test_csv_loader_reads_a_field_past_the_csv_modules_size_limit(tmp_path):
    # 200 000 digits: the csv module stopped at 131 072 characters.
    big = "9" * 200_000
    path = tmp_path / "big.csv"
    path.write_text(f"0,{big}\n{big},0\n")
    assert load_distance_csv(path).tolist() == [[0.0, math.inf], [math.inf, 0.0]]


def test_json_round_trip_carries_kappa(tmp_path):
    D = np.array([[0.0, 4.0], [4.0, 0.0]])
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"kappa": 2.0, "D": D.tolist()}))
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
