"""End-to-end tests of the command line interface.

All invocations go through ``main(argv)`` in process so exit codes,
stdout JSON, and stderr diagnostics can be checked cheaply; one
subprocess test covers the module entry point wiring.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ulamstab import chain_metric, GeneralizedBMetricSpace, load_distance_csv, save_distance_csv
from ulamstab import LHalfSpace, example_corpus, m_closed_grid
from ulamstab import cli
from ulamstab.cli import main
from ulamstab.cubic_stability import DEFAULT_TOL


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


VALID_D = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# metrize
# ---------------------------------------------------------------------------


def test_metrize_csv_round_trip(tmp_path, capsys):
    src = tmp_path / "d.csv"
    dst = tmp_path / "delta.csv"
    save_distance_csv(src, VALID_D)
    code, doc, _ = run_cli(["metrize", "--in", str(src), "--kappa", "8",
                            "--out", str(dst)], capsys)
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["report"]["p"] == pytest.approx(0.25, abs=1e-15)
    assert doc["report"]["sandwich_ok"] is True
    assert doc["report"]["unreachable_pairs"] == 0
    # The written delta agrees with the library call.
    expect = chain_metric(GeneralizedBMetricSpace(D=VALID_D, kappa=8.0)).delta
    back = load_distance_csv(dst)
    assert np.allclose(back, expect, rtol=0, atol=0)
    assert doc["report"]["delta"] == [list(map(float, row)) for row in expect]


def test_metrize_csv_requires_kappa(tmp_path, capsys):
    src = tmp_path / "d.csv"
    save_distance_csv(src, VALID_D)
    code, doc, err = run_cli(["metrize", "--in", str(src)], capsys)
    assert code == 2
    assert doc is None
    assert "kappa" in err


def test_metrize_json_carries_kappa(tmp_path, capsys):
    src = tmp_path / "d.json"
    src.write_text(json.dumps({"kappa": 8.0, "D": VALID_D.tolist()}))
    code, doc, _ = run_cli(["metrize", "--in", str(src)], capsys)
    assert code == 0
    assert doc["report"]["kappa"] == 8.0
    # A contradicting flag is an input error.
    code, _, err = run_cli(["metrize", "--in", str(src), "--kappa", "2"], capsys)
    assert code == 2
    assert "contradicts" in err
    # So is a modulus that overflows to +inf: it would give p = 0.
    src.write_text('{"kappa": 1e400, "D": [[0, 1, Infinity], [1, 0, Infinity], '
                   '[Infinity, Infinity, 0]]}')
    code, doc, err = run_cli(["metrize", "--in", str(src)], capsys)
    assert (code, doc) == (2, None)
    assert err == "input error: kappa must be finite, got inf\n"


def test_metrize_invalid_space_is_certified_failure(tmp_path, capsys):
    src = tmp_path / "d.csv"
    save_distance_csv(src, VALID_D)
    code, doc, _ = run_cli(["metrize", "--in", str(src), "--kappa", "2"], capsys)
    assert code == 1
    assert doc["verdict"] == "fail"
    validation = doc["report"]["validation"]
    assert validation["axiom"] == "relaxed_triangle"
    assert validation["witness"] == [0, 2, 1]


@pytest.mark.parametrize("text", [
    '{"kappa": 2, "D": "abc"}',
    '{"kappa": 2, "D": [[0, 1], [1]]}',
    '{"kappa": 2, "D": [[0, "x"], ["x", 0]]}',
    '{"kappa": 2, "D": {"a": 1}}',
    '{"kappa": true, "D": [[0, 1], [1, 0]]}',
], ids=["string", "ragged", "string-entry", "object", "boolean-kappa"])
def test_metrize_rejects_a_malformed_json_file(tmp_path, capsys, text):
    # The first four raised a bare ValueError or TypeError (exit 1, the
    # code of a certified failure); a boolean kappa was read as 1.0.
    src = tmp_path / "d.json"
    src.write_text(text)
    code, doc, err = run_cli(["metrize", "--in", str(src)], capsys)
    assert (code, doc) == (2, None)
    assert err.startswith("input error: ")


BIG_INT = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("text, field", [
    ('{"kappa": 2, "D": [[0, "1"], ["1", 0]]}', "D.0.1"),
    ('{"kappa": 2, "D": [[0, 1], [true, 0]]}', "D.1.0"),
    ('{"kappa": "2", "D": [[0, 1], [1, 0]]}', "kappa"),
    ('{"kappa": 2, "D": [[0, 1], [1, null]]}', "D.1.1"),
    ('{"kappa": %s, "D": [[0, 1], [1, 0]]}' % BIG_INT, "kappa"),
    ('{"kappa": 2, "D": [[0, %s], [%s, 0]]}' % (BIG_INT, BIG_INT), None),
], ids=["string-entry", "boolean-entry", "string-kappa", "null-entry", "huge-kappa",
        "huge-entry"])
def test_metrize_json_numbers_are_json_numbers(tmp_path, capsys, text, field):
    # Strings and booleans passed as numbers (exit 0); an integer beyond the
    # float range escaped as a traceback.  The message names the field in
    # the words of a config error.
    src = tmp_path / "d.json"
    src.write_text(text)
    code, doc, err = run_cli(["metrize", "--in", str(src)], capsys)
    assert (code, doc) == (2, None)
    assert err.startswith(f"input error: {src}: field '{field}' must be " if field
                          else "input error: distance matrix is not a matrix of numbers")


def test_metrize_json_takes_integers_and_infinity(tmp_path, capsys):
    # Infinity (an unreachable pair) and integer entries and kappa are numbers.
    src = tmp_path / "d.json"
    src.write_text('{"kappa": 1, "D": [[0, 2, Infinity], [2, 0, Infinity], '
                   '[Infinity, Infinity, 0]]}')
    code, doc, _ = run_cli(["metrize", "--in", str(src)], capsys)
    assert code == 0
    assert doc["report"]["unreachable_pairs"] == 2


def test_metrize_missing_file(tmp_path, capsys):
    code, doc, err = run_cli(["metrize", "--in", str(tmp_path / "nope.csv"),
                              "--kappa", "2"], capsys)
    assert code == 2
    assert doc is None


def test_metrize_reports_unreachable_pairs(tmp_path, capsys):
    D = np.array([[0.0, np.inf], [np.inf, 0.0]])
    src = tmp_path / "d.csv"
    save_distance_csv(src, D)
    code, doc, _ = run_cli(["metrize", "--in", str(src), "--kappa", "1"], capsys)
    assert code == 0
    assert doc["report"]["unreachable_pairs"] == 1


def test_metrize_rejects_p_above_the_derived_exponent(tmp_path, capsys):
    # D(i, j) = (i - j)**2 on 9 collinear points is a kappa = 2 b-metric,
    # since (a + b)**2 <= 2 (a**2 + b**2).  At p = 1 the chain metric is
    # |i - j|, below (1/4) D for |i - j| > 4; this exited 0 with "pass"
    # and sandwich_ok false.
    idx = np.arange(9.0)
    D = (idx[:, None] - idx[None, :]) ** 2
    src = tmp_path / "sq9.json"
    src.write_text(json.dumps({"kappa": 2.0, "D": D.tolist()}))
    code, doc, err = run_cli(["metrize", "--in", str(src), "--p", "1"], capsys)
    assert (code, doc) == (2, None)
    assert err == ("input error: p = 1.0 exceeds log_(2 kappa) 2 = 0.5 at kappa = 2.0, "
                   "above which (1/4) D**p <= delta may fail\n")
    code, doc, _ = run_cli(["metrize", "--in", str(src), "--p", "0.25"], capsys)
    assert (code, doc["verdict"], doc["report"]["sandwich_ok"]) == (0, "pass", True)


def _interleaved_components(rng, n=12):
    """A kappa = 2 b-metric whose even and odd points form two components
    at mutual distance +inf."""
    D = np.full((n, n), np.inf)
    for part in (slice(0, None, 2), slice(1, None, 2)):
        P = rng.normal(size=(len(range(n)[part]), 3))
        E = np.sqrt(((P[:, None] - P[None]) ** 2).sum(axis=-1))
        F = np.triu(rng.uniform(1.0, 2.0, size=E.shape), 1)
        D[part, part] = E * (F + F.T)
    return D


def test_metrize_interleaved_components(tmp_path, capsys):
    D = _interleaved_components(np.random.default_rng(3))
    src, dst = tmp_path / "d.json", tmp_path / "delta.csv"
    src.write_text(json.dumps({"kappa": 2.0, "D": D.tolist()}))
    code, doc, _ = run_cli(["metrize", "--in", str(src), "--out", str(dst)], capsys)
    assert code == 0
    assert doc["report"]["unreachable_pairs"] == 6 * 6
    W = np.sqrt(D)
    for k in range(len(W)):
        W = np.minimum(W, W[:, k, None] + W[None, k, :])
    assert load_distance_csv(dst).tobytes() == W.tobytes()
    assert doc["report"]["delta"] == W.tolist()


def test_metrize_reports_the_least_row_across_components(tmp_path, capsys):
    # Broken triangles in both components: the even one first fails in
    # row 4, the odd one in row 1.  The first witness in (i, j, k) order
    # comes from the odd component although the even one starts at 0.
    D = _interleaved_components(np.random.default_rng(3))
    D[4, 10] = D[10, 4] = 100.0
    D[1, 11] = D[11, 1] = 100.0
    src = tmp_path / "d.json"
    src.write_text(json.dumps({"kappa": 2.0, "D": D.tolist()}))
    code, doc, _ = run_cli(["metrize", "--in", str(src)], capsys)
    assert code == 1
    validation = doc["report"]["validation"]
    assert validation["axiom"] == "relaxed_triangle"
    first_k = next(k for k in range(12) if D[1, 11] > 2.0 * (D[1, k] + D[k, 11]) + 1e-12)
    assert validation["witness"] == [1, 11, first_k]


# ---------------------------------------------------------------------------
# fixpoint
# ---------------------------------------------------------------------------


def test_fixpoint_halving_converges(capsys):
    code, doc, _ = run_cli(["fixpoint", "--scenario", "halving"], capsys)
    assert code == 0
    assert doc["verdict"] == "pass"
    report = doc["report"]
    assert report["outcome"] == "Converged"
    assert report["error_bound"] >= abs(report["iterate"])
    assert set(report["bounds"]) == {"from_L_pow_p", "metric"}
    hist = report["residual_history"]
    assert all(a > b for a, b in zip(hist, hist[1:]))


def test_fixpoint_two_component_diverges(capsys):
    code, doc, _ = run_cli(["fixpoint", "--scenario", "two-component"], capsys)
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["report"]["outcome"] == "DivergentInfinite"


def test_fixpoint_false_L_is_certified_failure(capsys):
    code, doc, _ = run_cli(["fixpoint", "--scenario", "halving", "--L", "0.2"], capsys)
    assert code == 1
    assert doc["verdict"] == "fail"
    assert "hypothesis_violation" in doc["report"]


def test_fixpoint_unknown_scenario(capsys):
    code, doc, err = run_cli(["fixpoint", "--scenario", "spiral"], capsys)
    assert code == 2
    assert "spiral" in err


def test_fixpoint_bad_L_flag(capsys):
    code, _, err = run_cli(["fixpoint", "--scenario", "halving", "--L", "1.5"], capsys)
    assert code == 2
    assert "contraction constant" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


PASSING_CONFIG = {
    "m": 2.0,
    "f": {"name": "cubic_plus_linear"},
    "phi": {"kind": "shift_norm", "c": 12.0},
}


def test_verify_passing_certificate(tmp_path, capsys):
    cfg = _write_config(tmp_path, PASSING_CONFIG)
    code, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 0
    assert doc["verdict"] == "pass"
    report = doc["report"]
    assert report["passed"] is True
    assert report["m"] == 2.0
    assert report["L"] == 0.25  # defaulted from the control family
    assert 0.2499 < report["max_error_ratio"] <= 0.25


def test_verify_failing_certificate(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**PASSING_CONFIG,
                                   "phi": {"kind": "shift_norm", "c": 4.0}})
    code, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["report"]["hypothesis_defect_ok"] is False
    assert doc["report"]["defect_witness"] is not None


def test_verify_poly_f_and_explicit_grid(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "m": 2.0,
        "f": {"name": "poly", "coefficients": [0.0, 1.0, 0.0, 1.0]},
        "phi": {"kind": "shift_norm", "c": 12.0},
        "grid": {"base": [0.5, 1.0], "levels": 1},
    })
    code, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 0
    assert doc["report"]["grid_size"] == 7


def test_verify_power_law_exact_solution(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "m": 2.0,
        "f": {"name": "cubic"},
        "phi": {"kind": "power_law", "lambda": 1.0, "s": 2.0},
    })
    code, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 0
    assert doc["report"]["L"] == 0.5
    assert doc["report"]["phi_worst_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_verify_quadrature_space(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "m": 2.0,
        "f": {"name": "cubic_plus_linear"},
        "phi": {"kind": "shift_norm", "c": 12.0},
        "space": {"kind": "lhalf", "quadrature_n": 32},
        "grid": {"levels": 1},
    })
    code, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 0
    assert doc["report"]["p"] == pytest.approx(0.5, abs=1e-15)
    assert doc["report"]["passed"] is True


def test_verify_writes_csv_and_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, PASSING_CONFIG)
    csv_path = tmp_path / "per_point.csv"
    report_path = tmp_path / "report.json"
    code, doc, _ = run_cli(["verify", "--config", cfg, "--csv", str(csv_path),
                            "--report", str(report_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,x,defect_y0,phi_x0,error,bound"
    assert len(lines) == 1 + doc["report"]["grid_size"]
    on_disk = json.loads(report_path.read_text())
    assert on_disk == doc


def _csv_column(path, name):
    lines = path.read_text().strip().splitlines()
    col = lines[0].split(",").index(name)
    return [line.split(",")[col] for line in lines[1:]]


def test_csv_x_norm_is_the_space_norm_for_every_phi_kind(tmp_path, capsys):
    # The x_norm column measures each grid point in the codomain's norm,
    # whatever control function the certificate was run with.
    space = {"kind": "lhalf", "quadrature_n": 8}
    phis = [{"kind": "shift_norm", "c": 12.0},
            {"kind": "power_law", "lambda": 24.0, "s": 1.3},
            {"kind": "constant", "value": 1.0}]
    columns = []
    for k, phi in enumerate(phis):
        cfg = _write_config(tmp_path, {"m": 2.0, "f": {"name": "cubic_plus_linear"},
                                       "phi": phi, "space": space,
                                       "grid": {"levels": 1, "seed": 3}}, f"c{k}.json")
        csv_path = tmp_path / f"p{k}.csv"
        run_cli(["verify", "--config", cfg, "--csv", str(csv_path)], capsys)
        columns.append(_csv_column(csv_path, "x_norm"))
    assert columns[0] == columns[1] == columns[2]
    grid = m_closed_grid(example_corpus(8, seed=3), 2.0, levels=1)
    assert columns[0] == [repr(LHalfSpace(8).norm(x)) for x in grid]


def test_one_process_serves_many_calls_with_the_same_output(tmp_path, capsys):
    # The parser is built once per process; a malformed argv in between
    # and another subcommand leave the next report byte for byte the same.
    cfg = _write_config(tmp_path, PASSING_CONFIG)
    assert main(["verify", "--config", cfg]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["fixpoint", "--scenario", "halving"]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out == first


def test_verify_malformed_json_names_the_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 2.0, "f": {"name": "cubic"')
    code, doc, err = run_cli(["verify", "--config", str(path)], capsys)
    assert code == 2
    assert "line 1" in err


def test_verify_missing_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"f": {"name": "cubic"},
                                   "phi": {"kind": "shift_norm", "c": 1.0}})
    code, _, err = run_cli(["verify", "--config", cfg], capsys)
    assert code == 2
    assert "'m'" in err


def test_verify_rejects_degree_four_poly(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "m": 2.0,
        "f": {"name": "poly", "coefficients": [0, 1, 0, 1, 1]},
        "phi": {"kind": "shift_norm", "c": 12.0},
    })
    code, _, err = run_cli(["verify", "--config", cfg], capsys)
    assert code == 2
    assert "degree" in err


@pytest.mark.parametrize("change, code, message", [
    ({"tol": "abc"}, 2, "field 'tol' must be float"),
    ({"grid": {"levels": "x"}}, 2, "field 'grid.levels' must be int"),
    ({"f": {"name": "poly", "coefficients": [0.0, "a", 0.0, 1.0]}}, 2,
     "field 'f.coefficients.1' must be float"),
    ({"grid": {"points": [[0.0, 0.0], [1.0]]}}, 2, "'grid.points' must share one shape"),
    ({"space": {"kind": "lhalf", "quadrature_n": "q"}}, 2,
     "field 'space.quadrature_n' must be int"),
    ({"m": 1e80}, 1, "m**4 overflows"),
    ({"grid": {"levels": 400}}, 1, "f overflowed on the grid"),
    ({"grid": {"points": [[]]}}, 2, "grid points must have at least one coordinate"),
    ({"grid": {"points": [0.0, 1.0, 2.0, 1.0 + 1e-13]}}, 2,
     "duplicate domain points at indices 1 and 3"),
])
def test_verify_bad_config_exits_with_a_message(tmp_path, capsys, change, code, message):
    # A malformed field is an input error and overflow a certified failure:
    # a message on stderr, never a traceback.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, **change})
    with np.errstate(over="ignore", invalid="ignore"):
        got, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (got, doc) == (code, None)
    assert "Traceback" not in err
    assert err.startswith("input error: " if code == 2 else "certified failure: ")
    assert message in err


# 401 digits: a JSON integer with no float value.
HUGE_INT = 10**400


@pytest.mark.parametrize("field, change", [
    ("m", {"m": HUGE_INT}),
    ("tol", {"tol": HUGE_INT}),
    ("L", {"L": HUGE_INT}),
    ("phi.c", {"phi": {"kind": "shift_norm", "c": HUGE_INT}}),
    ("grid.base.0", {"grid": {"base": [HUGE_INT]}}),
    ("grid.points.0", {"grid": {"points": [HUGE_INT, 0.0]}}),
    ("f.coefficients.1", {"f": {"name": "poly", "coefficients": [0.0, HUGE_INT]}}),
])
def test_verify_int_beyond_the_float_range_is_an_input_error(tmp_path, capsys, field, change):
    # float() of such an int raised OverflowError: a traceback and exit 1.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, **change})
    code, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (code, doc) == (2, None)
    assert err == (f"input error: config: field {field!r} must be finite, "
                   f"got an int too large for a float\n")


def test_verify_csv_of_a_certificate_without_q_is_skipped(tmp_path, capsys):
    # f(0) = 1 fails before q is extracted.  --csv made that certified
    # failure an input error; now the run reports it as without --csv.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG,
                                   "f": {"name": "poly", "coefficients": [1, 0, 0, 1]}})
    csv_path = tmp_path / "per_point.csv"
    runs = [run_cli(["verify", "--config", cfg, *extra], capsys)
            for extra in ([], ["--csv", str(csv_path)])]
    assert runs[0] == runs[1]
    code, doc, err = runs[0]
    assert code == 1 and doc["verdict"] == "fail" and doc["report"]["q"] is None
    assert doc["config"]["csv"] is None and err == ""
    assert not csv_path.exists()


def test_verify_envelope_has_no_seed(tmp_path, capsys):
    # A top-level seed was echoed as given, unchecked, and read by nothing.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, "seed": {"any": [1, "x"]}})
    code, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    assert code == 0 and doc["seed"] is None


def _non_finite_changes():
    """Config changes that put NaN or an infinity into a number; each must
    exit 2.  On the parent design, c = +inf on these points and s = -inf on
    the base [0.5, 3] passed, and NaN constants failed with both hypothesis
    flags true."""
    changes = [{"tol": math.inf}, {"m": math.inf},
               {"grid": {"base": [1.0], "levels": 1030}}]
    for bad in (math.nan, math.inf, -math.inf):
        changes += [
            {"phi": {"kind": "shift_norm", "c": bad},
             "grid": {"points": [1, 2, 4, 0, -1, -2, -4]}},
            {"phi": {"kind": "power_law", "lambda": bad, "s": 1.0}},
            {"phi": {"kind": "power_law", "lambda": 24.0, "s": bad}, "grid": {"base": [0.5, 3]}},
            {"phi": {"kind": "constant", "value": bad}},
        ]
    return changes


@pytest.mark.parametrize("change", _non_finite_changes(), ids=lambda c: json.dumps(c))
def test_verify_non_finite_numbers_are_input_errors(tmp_path, capsys, change):
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, **change})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise out of main
        code, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (code, doc) == (2, None)
    assert err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("phi", [{"kind": "constant", "value": 1.0},
                                 {"kind": "shift_norm", "c": 1.0}])
def test_verify_a_residual_that_overflows_is_a_certified_failure(tmp_path, capsys, phi):
    # x + 2 y overflows at the pair (0, 1e308).  This printed RuntimeWarnings
    # and exited 2 with "norm value is NaN" before the residual was guarded.
    cfg = _write_config(tmp_path, {"m": 2.0, "f": {"name": "poly", "coefficients": [0, 1]},
                                   "phi": phi, "grid": {"points": [0, 1e308, -1e308]}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise out of main
        code, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (code, doc) == (1, None)
    assert err == ("certified failure: the equation residual is not finite at the pair "
                   "(0.0, 1e+308)\n")


def test_verify_accepts_the_grid_it_built(tmp_path, capsys):
    # 1e-06 and 9.99998999e-07 match one another, so m_closed_grid keeps
    # the first.  With a match rule relative to the query this grid exited 2
    # with "duplicate domain points at indices 1 and 7" after every check
    # had run.  It fails on el_defect_of_q, the known stopped-iterate
    # defect, not on its input.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG,
                                   "grid": {"base": [1e-6, 9.99998999e-07], "levels": 2}})
    code, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (code, err) == (1, "")
    assert doc["verdict"] == "fail" and doc["report"]["grid_size"] == 11


def test_verify_scale_is_finite_past_the_squared_overflow(tmp_path, capsys):
    # f reaches 8e156 on this grid; its square overflows, its norm does not.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, "grid": {"base": [1e52], "levels": 1}})
    _, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    report = doc["report"]
    assert report["scale"] == max(abs(v) for v in report["q"]["values"]) == 8e156


def test_a_command_that_sets_no_tol_runs_at_the_default_tol(tmp_path, capsys):
    cfg = _write_config(tmp_path, PASSING_CONFIG)
    for argv in (["fixpoint", "--scenario", "halving"],
                 ["example-lhalf", "--quadrature-n", "16"],
                 ["verify", "--config", cfg]):
        code, doc, _ = run_cli(argv, capsys)
        assert (code, doc["config"]["tol"]) == (0, DEFAULT_TOL), argv
    _, doc, _ = run_cli(["fixpoint", "--scenario", "halving", "--tol", "1e-3"], capsys)
    assert doc["config"]["tol"] == 1e-3


def test_verify_output_is_bitwise_reproducible(tmp_path, capsys):
    cfg = _write_config(tmp_path, PASSING_CONFIG)
    code1 = main(["verify", "--config", cfg])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "--config", cfg])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_timings_are_opt_in(tmp_path, capsys):
    cfg = _write_config(tmp_path, PASSING_CONFIG)
    _, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    assert doc["timings"] is None
    _, doc, _ = run_cli(["verify", "--config", cfg, "--timings"], capsys)
    assert doc["timings"]["wall_s"] > 0.0


# ---------------------------------------------------------------------------
# example-lhalf
# ---------------------------------------------------------------------------


def test_example_lhalf_reports_the_constant_discrepancy(capsys):
    code, doc, _ = run_cli(["example-lhalf", "--quadrature-n", "64"], capsys)
    assert code == 0
    assert doc["verdict"] == "pass"
    runs = doc["report"]["runs"]
    assert [r["m"] for r in runs] == [2.0, 3.0]
    first = runs[0]["defect_constant"]
    assert first["derived"] == 12.0
    assert first["quoted"] == 4.0
    assert first["max_rel_deviation"] <= 1e-6
    assert "quoted" in first["note"] or "1 + m" in first["note"]
    second = runs[1]["defect_constant"]
    assert second["derived"] == 48.0
    assert second["quoted"] == 12.0
    for run in runs:
        assert run["certificate"]["passed"] is True


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

_ARGV = {
    "metrize": ["metrize", "--in", "unread.json"],
    "fixpoint": ["fixpoint", "--scenario", "halving"],
    "verify": ["verify", "--config", "unread.json"],
    "example-lhalf": ["example-lhalf"],
}


@pytest.mark.parametrize("verdict, code", [("pass", 0), ("fail", 1), ("undecided", 1)])
@pytest.mark.parametrize("command", sorted(_ARGV))
def test_main_alone_turns_the_verdict_into_the_exit_code(monkeypatch, capsys, command,
                                                         verdict, code):
    # A command returns its envelope only; the code comes from the verdict.
    monkeypatch.setitem(cli._DISPATCH, command,
                        lambda args: cli._envelope(command, {}, verdict, {}))
    got, doc, _ = run_cli(_ARGV[command], capsys)
    assert (got, doc["verdict"]) == (code, verdict)


def test_every_command_exits_0_exactly_when_its_verdict_is_pass(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    save_distance_csv(good, VALID_D)
    save_distance_csv(bad, VALID_D)
    runs = [
        ["metrize", "--in", str(good), "--kappa", "8"],
        ["metrize", "--in", str(bad), "--kappa", "2"],
        ["fixpoint", "--scenario", "halving"],
        ["fixpoint", "--scenario", "two-component"],
        ["fixpoint", "--scenario", "halving", "--L", "0.2"],
        ["verify", "--config", _write_config(tmp_path, PASSING_CONFIG, "pass.json")],
        ["verify", "--config", _write_config(
            tmp_path, {**PASSING_CONFIG, "phi": {"kind": "shift_norm", "c": 3.0}}, "fail.json")],
        ["example-lhalf", "--quadrature-n", "16"],
        ["example-lhalf", "--quadrature-n", "16", "--tol", "1e-12"],
    ]
    verdicts = []
    for argv in runs:
        code, doc, _ = run_cli(argv, capsys)
        assert code == (0 if doc["verdict"] == "pass" else 1), argv
        verdicts.append(doc["verdict"])
    assert verdicts == ["pass", "fail", "pass", "fail", "fail", "pass", "fail", "pass", "fail"]


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ulamstab", "fixpoint", "--scenario", "setzero"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["outcome"] == "Converged"
