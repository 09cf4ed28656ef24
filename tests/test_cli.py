"""End-to-end tests of the command line interface.

All invocations go through ``main(argv)`` in process so exit codes,
stdout JSON, and stderr diagnostics can be checked cheaply; one
subprocess test covers the module entry point wiring.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import subprocess
import sys
import warnings

from pathlib import Path

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
    assert doc["config"] == {"in": str(src), "kappa": 8.0, "out": None}
    # The file is kappa's one source: a flag beside it, even an agreeing
    # one, is an input error.
    for flag in ("2", "8"):
        got = run_cli(["metrize", "--in", str(src), "--kappa", flag], capsys)
        assert got == (2, None, f"input error: --kappa is for CSV input; {src} stores kappa\n")
    # So is a modulus that overflows to +inf: it would give p = 0.
    src.write_text('{"kappa": 1e400, "D": [[0, 1, Infinity], [1, 0, Infinity], '
                   '[Infinity, Infinity, 0]]}')
    code, doc, err = run_cli(["metrize", "--in", str(src)], capsys)
    assert (code, doc) == (2, None)
    assert err == "input error: kappa must be finite, got inf\n"


@pytest.mark.parametrize("name, text, argv, message", [
    ("d.json", '{"kappa": 1e308, "D": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]}', [],
     "kappa must be below 2**1023, where 2 kappa is finite, got 1e+308"),
    ("d.csv", "0,1,4\n1,0,1\n4,1,0\n", ["--kappa", "nan"], "kappa must be >= 1, got nan"),
], ids=["double-overflows", "nan-flag"])
def test_metrize_rejects_a_kappa_that_gives_no_exponent(tmp_path, capsys, name, text, argv,
                                                        message):
    # At kappa = 1e308, 2 kappa overflowed to p = 0 and a delta of all
    # ones, with exit 0.
    src = tmp_path / name
    src.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(["metrize", "--in", str(src), *argv], capsys)
    assert got == (2, None, f"input error: {message}\n")


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


def test_metrize_reads_a_200_000_digit_entry_as_unreachable(tmp_path, capsys):
    # The csv module stopped at 131 072 characters: a traceback, exit 1.
    big = "1" * 200_000
    src = tmp_path / "big.csv"
    src.write_text(f"0,{big}\n{big},0\n")
    code, doc, _ = run_cli(["metrize", "--in", str(src), "--kappa", "2"], capsys)
    assert code == 0
    assert doc["report"]["unreachable_pairs"] == 1


# Each file reader, with a file it cannot read: (argv, file name, bytes, message).
_DEEP = b"[" * 100_000 + b"]" * 100_000
UNREADABLE_FILES = {
    "csv-not-utf8": (["metrize", "--kappa", "2", "--in"], "d.csv", b"0,1\n1,\xff0\n",
                     "not UTF-8 text: byte 6: invalid start byte"),
    "json-not-utf8": (["metrize", "--in"], "d.json", b"\xff\xfe{}", "not UTF-8 text: byte 0"),
    "config-not-utf8": (["verify", "--config"], "c.json", b'{"m": 2, \xff}',
                        "not UTF-8 text: byte 9"),
    "json-deep": (["metrize", "--in"], "d.json", b'{"kappa": 2, "D": ' + _DEEP + b"}",
                  "nested too deeply"),
    "config-deep": (["verify", "--config"], "c.json", b'{"m": 2, "f": ' + _DEEP + b"}",
                    "nested too deeply"),
    # Python parses no integer of more than 4300 digits.
    "json-digits": (["metrize", "--in"], "d.json", b'{"kappa": ' + b"1" * 5000 + b', "D": []}',
                    "Exceeds the limit (4300 digits)"),
    "config-digits": (["verify", "--config"], "c.json", b'{"m": ' + b"1" * 5000 + b"}",
                      "Exceeds the limit (4300 digits)"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_an_unreadable_file_is_an_input_error(tmp_path, capsys, case):
    # Each ended in a traceback: UnicodeDecodeError, RecursionError or ValueError.
    argv, name, data, message = UNREADABLE_FILES[case]
    path = tmp_path / name
    path.write_bytes(data)
    code, doc, err = run_cli([*argv, str(path)], capsys)
    assert (code, doc) == (2, None)
    assert err.startswith(f"input error: {path}: {message}")


@pytest.mark.parametrize("target", ["dir", "missing/report.json"])
def test_an_unwritable_report_path_is_an_input_error(tmp_path, capsys, target):
    # The report was printed, then writing its file raised out of main.
    src = tmp_path / "d.csv"
    save_distance_csv(src, VALID_D)
    (tmp_path / "dir").mkdir()
    code, doc, err = run_cli(["metrize", "--in", str(src), "--kappa", "8",
                              "--report", str(tmp_path / target)], capsys)
    assert (code, doc) == (2, None)
    assert err.startswith("input error: [Errno ")


def test_metrize_takes_no_exponent_option(tmp_path, capsys):
    # D(i, j) = (i - j)**2 on 9 collinear points is a kappa = 2 b-metric,
    # since (a + b)**2 <= 2 (a**2 + b**2).  A --p 1 made the chain metric
    # |i - j|, below (1/4) D for |i - j| > 4, and exited 0 with "pass" and
    # sandwich_ok false.  The exponent now comes from kappa alone: --p is
    # no option, and argparse exits 2 before main runs.
    idx = np.arange(9.0)
    D = (idx[:, None] - idx[None, :]) ** 2
    src = tmp_path / "sq9.json"
    src.write_text(json.dumps({"kappa": 2.0, "D": D.tolist()}))
    with pytest.raises(SystemExit) as exc:
        main(["metrize", "--in", str(src), "--p", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --p 1" in capsys.readouterr().err
    code, doc, _ = run_cli(["metrize", "--in", str(src)], capsys)
    assert (code, doc["verdict"], doc["report"]["p"]) == (0, "pass", 0.5)
    assert doc["report"]["sandwich_ok"] is True


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


@pytest.mark.parametrize("scenario", sorted(cli._SCENARIOS))
@pytest.mark.parametrize("x0", ["inf", "nan", "-inf"])
def test_fixpoint_a_non_finite_x0_is_an_input_error(capsys, scenario, x0):
    # setzero passed from inf, two-component diverged, and the rest exited
    # 2 with "distance is NaN".
    code, doc, err = run_cli(["fixpoint", "--scenario", scenario, f"--x0={x0}"], capsys)
    assert (code, doc) == (2, None)
    assert err == f"input error: x0 must be finite, got {float(x0)!r}\n"


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
    assert report["L"] == 0.25  # the control family's own constant
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


def test_per_point_csv_has_the_bytes_of_the_csv_module(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, "space": {"kind": "lhalf",
                                                               "quadrature_n": 8}})
    got, want = tmp_path / "per_point.csv", tmp_path / "want.csv"
    run_cli(["verify", "--config", cfg, "--csv", str(got)], capsys)
    with open(got, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(want, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert len(rows) > 1 and got.read_bytes() == want.read_bytes()


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
    ({"grid": {"points": [[0.0, 0.0], [1.0]]}}, 2, "vectors that share one shape"),
    ({"space": {"kind": "lhalf", "quadrature_n": "q"}}, 2,
     "field 'space.quadrature_n' must be int"),
    ({"m": 1e80}, 1, "m**4 overflows"),
    ({"grid": {"levels": 400}}, 1, "f overflowed on the grid"),
    ({"grid": {"points": [[]]}}, 2, "grid points must have at least one coordinate"),
    ({"grid": {"points": [0.0, 1.0, 2.0, 1.0 + 1e-13]}}, 2,
     "duplicate domain points at indices 1 and 3"),
    # Points that are not points of the space: vectors on the real line
    # certified in R^2 (exit 0), numbers on L^{1/2} failed deep in the norm.
    ({"grid": {"points": [[0, 0], [1, 1]]}}, 2,
     "grid points must be numbers to be points of the space; got a grid of shape (2, 2)"),
    ({"space": {"kind": "lhalf", "quadrature_n": 4}, "grid": {"points": [0, 1, 2]}}, 2,
     "grid points must be vectors of 4 coordinates to be points of the space; "
     "got a grid of shape (3,)"),
    # L is phi's own constant along m, 0.25 here: a larger L loosened the
    # bound and a smaller one failed the phi check.  Any config L, even the
    # family's own, is rejected, not ignored.
    *(({"L": L}, 2, "config: field 'L' is not an input: L is the control family's own "
                    "constant along m") for L in (0.25, 0.5, 0.01)),
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
    # A config takes no L at all, so an L exits 2 as any config L does.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, **change})
    code, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (code, doc) == (2, None)
    assert err == f"input error: config: field {field!r} " + (
        "is not an input: L is the control family's own constant along m\n" if field == "L"
        else "must be finite, got an int too large for a float\n")


@pytest.mark.parametrize("n", [10**12, HUGE_INT], ids=["1e12", "401-digits"])
def test_a_quadrature_n_past_one_tile_is_an_input_error(tmp_path, capsys, n):
    # numpy could not allocate the signals: a traceback, exit 1.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, "space": {"kind": "lhalf",
                                                               "quadrature_n": n}})
    for argv in (["verify", "--config", cfg], ["example-lhalf", "--quadrature-n", str(n)]):
        code, doc, err = run_cli(argv, capsys)
        assert (code, doc) == (2, None)
        assert err.startswith("input error: quadrature_n must be at most 65536: one signal "
                              "must fit one tile of the kernels; got ")


def test_a_negative_corpus_seed_is_an_input_error(tmp_path, capsys):
    # numpy rejected it: a traceback, exit 1.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, "grid": {"seed": -1},
                                   "space": {"kind": "lhalf", "quadrature_n": 4}})
    for argv in (["verify", "--config", cfg],
                 ["example-lhalf", "--quadrature-n", "8", "--seed", "-1"]):
        assert run_cli(argv, capsys) == (
            2, None, "input error: seed must be an integer >= 0, got -1\n")


def _non_finite_fields(doc, path=""):
    """The dotted paths of the numbers in a JSON document that are not finite."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [p for k, v in items for p in _non_finite_fields(v, f"{path}{k}.")]
    return [path[:-1]] if isinstance(doc, float) and not math.isfinite(doc) else []


def test_verify_nonvanishing_f0_fails_with_q_and_its_csv(tmp_path, capsys):
    # f(0) = 1 fails the defect check at the witness (0,), and every other
    # clause still runs.  The report had no q, 7 non-finite numbers (2 of
    # them NaN) and no per-point table, with or without --csv.
    cfg = _write_config(tmp_path, {"m": 2, "f": {"name": "poly", "coefficients": [1, 0, 0, 1]},
                                   "phi": {"kind": "shift_norm", "c": 12},
                                   "grid": {"base": [1.0], "levels": 2}})
    csv_path = str(tmp_path / "per_point.csv")
    code, doc, err = run_cli(["verify", "--config", cfg, "--csv", csv_path], capsys)
    assert (code, err, doc["verdict"]) == (1, "", "fail")
    report = doc["report"]
    assert report["hypothesis_defect_ok"] is False and report["defect_witness"] == [0.0]
    assert report["notes"] == ["hypothesis defect check failed: f(0) has norm 1.0, expected 0"]
    assert report["q"]["n_points"] == report["grid_size"] == 7
    assert doc["config"]["csv"] == csv_path
    with open(csv_path, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + report["grid_size"]
    assert sorted(_non_finite_fields(report)) == [
        "defect_worst_ratio", "max_error_ratio", "one_step_worst_ratio"]


# Finite inputs whose arithmetic overflows to +inf, with their exit codes.
# Each printed RuntimeWarnings: a phi or a bound past the float range, or a
# triangle or path sum past it.
OVERFLOWING_INPUTS = [
    (["verify"], {"m": 2, "f": {"name": "cubic"}, "phi": {"kind": "shift_norm", "c": 1e308},
                  "grid": {"base": [1e30], "levels": 1}}, 1),
    (["verify"], {"m": 2, "f": {"name": "cubic"},
                  "phi": {"kind": "power_law", "lambda": 1e300, "s": 2},
                  "grid": {"base": [1e5], "levels": 1}}, 0),
    (["verify"], {"m": 2, "f": {"name": "cubic"}, "phi": {"kind": "constant", "value": 1e308},
                  "grid": {"base": [1], "levels": 1}}, 0),
    (["metrize", "--kappa", "1"], "0,1e308\n1e308,0\n", 0),
    (["metrize", "--kappa", "2"], "0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n", 0),
]


def test_arithmetic_overflowing_to_inf_prints_no_warning(tmp_path, capsys):
    codes = []
    for k, (argv, content, _) in enumerate(OVERFLOWING_INPUTS):
        if isinstance(content, dict):
            argv = [*argv, "--config", _write_config(tmp_path, content)]
        else:
            (tmp_path / f"d{k}.csv").write_text(content)
            argv = [*argv, "--in", str(tmp_path / f"d{k}.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise out of main
            code, doc, err = run_cli(argv, capsys)
        assert doc is not None and err == ""
        codes.append(code)
    assert codes == [code for _, _, code in OVERFLOWING_INPUTS]


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


@pytest.mark.parametrize("config, code, stages, note", [
    # Rounding keeps the change above tol until the orbit leaves 1e100;
    # every clause holds on stage 69.  This exited 1 with no report.
    ({"m": 3, "f": {"name": "cubic_plus_linear"}, "phi": {"kind": "shift_norm", "c": 48},
      "grid": {"base": [100.0], "levels": 4}},
     0, 69, "forward orbit left the safe range at stage 70 (|m| = 3.0)"),
    ({"m": 1.1, "f": {"name": "cubic_plus_linear"},
      "phi": {"kind": "shift_norm", "c": cli.cubic_linear_defect_constant(1.1)},
      "grid": {"base": [1], "levels": 2}},
     1, 80, "the budget of 80 stages ran out"),
    # q = f(4 x) / 4**3 = x / 16 at stage 2 is not cubic: the homogeneity clause fails.
    ({"m": 2, "f": {"name": "poly", "coefficients": [0, 1]},
      "phi": {"kind": "power_law", "lambda": 1, "s": 2}, "grid": {"base": [1e99], "levels": 1}},
     1, 2, "forward orbit left the safe range at stage 3 (|m| = 2.0)"),
])
def test_verify_an_approximant_stopped_short_is_judged_by_the_clauses(tmp_path, capsys, config,
                                                                        code, stages, note):
    cfg = _write_config(tmp_path, config)
    got, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (got, err) == (code, "")
    report = doc["report"]
    assert report["passed"] is (code == 0)
    assert report["q"]["iterations"] == report["approximant_iterations"] == stages
    assert report["notes"] == [f"approximant stopped short: {note}"]
    assert report["hypothesis_defect_ok"] and report["hypothesis_phi_ok"]
    assert report["max_error_ratio"] <= 0.25


def test_verify_a_first_stage_past_the_float_range_is_a_certified_failure(tmp_path, capsys):
    # The power law's phi was a Python OverflowError traceback here.
    cfg = _write_config(tmp_path, {"m": 2, "f": {"name": "poly", "coefficients": [0, 1]},
                                   "phi": {"kind": "power_law", "lambda": 1, "s": 2},
                                   "grid": {"base": [1e160], "levels": 1}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise out of main
        code, doc, err = run_cli(["verify", "--config", cfg], capsys)
    assert (code, doc) == (1, None)
    assert err == ("certified failure: forward orbit left the safe range at stage 1 "
                   "(|m| = 2.0)\n")


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


def test_example_lhalf_certificates_are_verify_reports(tmp_path, capsys):
    # Each certificate of the frozen reproduction is the verify report of
    # its config: the same space, phi, grid and tol, and L from phi alone.
    code, doc, _ = run_cli(["example-lhalf", "--quadrature-n", "16", "--seed", "3",
                            "--tol", "1e-8"], capsys)
    assert code == 0
    for run in doc["report"]["runs"]:
        m = run["m"]
        cfg = _write_config(tmp_path, {
            "f": {"name": "cubic_plus_linear"}, "m": m, "tol": 1e-8,
            "phi": {"kind": "shift_norm", "c": abs(2.0 * m * (1.0 - m**2))},
            "space": {"kind": "lhalf", "quadrature_n": 16},
            "grid": {"seed": 3, "levels": 1}})
        code, verify, _ = run_cli(["verify", "--config", cfg], capsys)
        assert (code, verify["report"]) == (0, run["certificate"])
        assert verify["config"]["L"] == abs(m) ** -2.0


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


def test_a_stdout_closed_early_is_an_output_error_without_a_traceback():
    # The report print raised BrokenPipeError out of main: a traceback,
    # exit 1, and a second error when the interpreter flushed stdout.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ulamstab", "fixpoint", "--scenario", "setzero"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # before the child writes its report
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("input error: [Errno ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ulamstab", "fixpoint", "--scenario", "setzero"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["outcome"] == "Converged"


# ---------------------------------------------------------------------------
# the README's command line section
# ---------------------------------------------------------------------------


def _parser_options(parser):
    """Every option string of a parser and of its subparsers."""
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parser_options(sub)


def test_readme_documents_every_option_and_no_other():
    # fixpoint --tol and --max-iter were undocumented; a stale --p would
    # have stayed in the README after the option went.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    tokens = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", section))
    options = set(_parser_options(cli._build_parser()))
    assert sorted(options - tokens) == []
    assert sorted({t for t in tokens if t.startswith("--")} - options) == []
