"""End-to-end tests of the command line interface.

All invocations go through ``main(argv)`` in process so exit codes,
stdout JSON, and stderr diagnostics can be checked cheaply; one
subprocess test covers the module entry point wiring.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from ulamstab import chain_metric, GeneralizedBMetricSpace, load_distance_csv, save_distance_csv, save_distance_json
from ulamstab.cli import main


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
    save_distance_json(src, VALID_D, kappa=8.0)
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
    save_distance_json(src, D, kappa=2.0)
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
    save_distance_json(src, D, kappa=2.0)
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
    assert "metric" in report["bounds"]
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


def test_verify_scale_is_finite_past_the_squared_overflow(tmp_path, capsys):
    # f reaches 8e156 on this grid; its square overflows, its norm does not.
    cfg = _write_config(tmp_path, {**PASSING_CONFIG, "grid": {"base": [1e52], "levels": 1}})
    _, doc, _ = run_cli(["verify", "--config", cfg], capsys)
    report = doc["report"]
    assert report["scale"] == max(abs(v) for v in report["q"]["values"]) == 8e156


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
# tolerance environment variable
# ---------------------------------------------------------------------------


def test_tol_env_var_overrides_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ULAMSTAB_TOL", "1e-6")
    code, doc, _ = run_cli(["fixpoint", "--scenario", "halving"], capsys)
    assert code == 0
    assert doc["config"]["tol"] == 1e-6


def test_tol_env_var_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("ULAMSTAB_TOL", "banana")
    code, _, err = run_cli(["fixpoint", "--scenario", "halving"], capsys)
    assert code == 2
    assert "ULAMSTAB_TOL" in err


def test_explicit_tol_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ULAMSTAB_TOL", "1e-6")
    code, doc, _ = run_cli(["fixpoint", "--scenario", "halving",
                            "--tol", "1e-3"], capsys)
    assert code == 0
    assert doc["config"]["tol"] == 1e-3


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
# module entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ulamstab", "fixpoint", "--scenario", "setzero"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["report"]["outcome"] == "Converged"
