"""Command line interface.

Four subcommands:

* ``metrize``       chain-metrize a b-metric distance matrix file
* ``fixpoint``      run a named contraction scenario with certified bounds
* ``verify``        run the cubic-stability pipeline from a JSON config
* ``example-lhalf`` frozen L^{1/2}[0,1] reproduction at m = 2 and m = 3

Every run prints one JSON report to stdout.  Reports are bitwise
reproducible for identical config and seed: timing data is therefore
excluded unless ``--timings`` is passed.  Each command returns its report
envelope; ``main`` alone turns the outcome into the exit code: 0 when the
verdict is pass, 1 on a failing verdict or a certified failure (violated
hypothesis, overflow), 2 on an input error (malformed file, bad flag, bad
config, a NaN or infinite number).

A command or config that sets no tolerance uses ``DEFAULT_TOL`` (1e-9);
the report echoes the tolerance it ran with.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .core_spaces import (
    AXIOM_SLACK,
    GeneralizedBMetricSpace,
    _grid,
    _load_json,
    _real,
    _write_csv,
    load_distance_csv,
    load_distance_json,
    real_line,
    save_distance_csv,
)
from .cubic_stability import (
    DEFAULT_TOL,
    ConstantBound,
    PowerLaw,
    ShiftNorm,
    StabilityConfig,
    _check_m,
    _euler_lagrange,
    _phi_at_zero_rows,
    _residual_rows,
    m_closed_grid,
    verify_stability,
)
from .errors import (
    HypothesisViolation,
    InputError,
    InvalidBMetricError,
    OverflowGuardError,
)
from .fixed_point import ContractionMap, Outcome, iterate
from .function_spaces import LHalfSpace, example_corpus
from .metrization import chain_metric

__all__ = ["main", "run_example_lhalf"]

def _envelope(command, config, verdict, report, seed=None) -> dict:
    return {
        "command": command,
        "config": config,
        "versions": {"ulamstab": __version__, "numpy": np.__version__},
        "seed": seed,
        "timings": None,
        "verdict": verdict,
        "report": report,
    }


# =========================================================================
# metrize
# =========================================================================

def _cmd_metrize(args):
    path = args.infile
    if path.endswith(".json"):
        if args.kappa is not None:
            raise InputError(f"--kappa is for CSV input; {path} stores kappa")
        D, kappa = load_distance_json(path)
    else:
        D = load_distance_csv(path)
        if args.kappa is None:
            raise InputError("--kappa is required with CSV input")
        kappa = args.kappa

    space = GeneralizedBMetricSpace(D=D, kappa=kappa)
    config = {"in": path, "kappa": kappa, "out": args.out}
    try:
        cm = chain_metric(space)
    except InvalidBMetricError as exc:
        report = {"validation": exc.report.to_dict(), "n": space.n}
        return _envelope("metrize", config, "fail", report)

    if args.out:
        save_distance_csv(args.out, cm.delta)
    Dp = np.power(space.D, cm.p)
    sandwich_ok = bool(np.all(cm.delta <= Dp + AXIOM_SLACK)
                       and np.all(0.25 * Dp <= cm.delta + AXIOM_SLACK))
    report = {
        "n": space.n,
        "kappa": kappa,
        "p": cm.p,
        "delta_csv": args.out,
        "sandwich_ok": sandwich_ok,
        "unreachable_pairs": int(np.isinf(cm.delta).sum() // 2),
    }
    if space.n <= 16:
        report["delta"] = [list(map(float, row)) for row in cm.delta]
    return _envelope("metrize", config, "pass", report)


# =========================================================================
# fixpoint
# =========================================================================

def _two_component_distance(a, b):
    # Points on opposite sides of 0 live in different components.
    if (a >= 0) != (b >= 0):
        return math.inf
    return abs(a - b)


_SCENARIOS = {
    # name: (apply, distance, p, default_L, default_x0)
    "halving": (lambda x: x / 2.0, lambda a, b: abs(a - b), 1.0, 0.5, 1.0),
    "setzero": (lambda x: 0.0, lambda a, b: abs(a - b), 1.0, 0.5, 5.0),
    "two-component": (lambda x: -x / 2.0, _two_component_distance, 1.0, 0.5, 1.0),
}


def _cmd_fixpoint(args):
    if args.scenario not in _SCENARIOS:
        raise InputError(
            f"unknown scenario {args.scenario!r}; choose from {sorted(_SCENARIOS)}")
    apply_fn, distance, p, default_L, default_x0 = _SCENARIOS[args.scenario]
    L = default_L if args.L is None else args.L
    x0 = default_x0 if args.x0 is None else args.x0
    if not math.isfinite(x0):
        raise InputError(f"x0 must be finite, got {x0!r}")
    config = {"scenario": args.scenario, "L": L, "x0": x0,
              "tol": args.tol, "max_iter": args.max_iter}
    cmap = ContractionMap(apply=apply_fn, L=L)
    try:
        result = iterate(cmap, x0, distance, p=p, tol=args.tol, max_iter=args.max_iter)
    except HypothesisViolation as exc:
        report = {"hypothesis_violation": str(exc),
                  "witness": [float(w) for w in (exc.witness or ())],
                  "observed": exc.observed, "allowed": exc.allowed}
        return _envelope("fixpoint", config, "fail", report)
    verdict = "pass" if result.outcome is Outcome.CONVERGED else "fail"
    return _envelope("fixpoint", config, verdict, result.to_dict())


# =========================================================================
# verify
# =========================================================================

class _BlockF:
    """An f written with + and * only: called on one point, or on a whole
    block of points through ``rows``, with the same bits per point."""

    def __init__(self, fn):
        self.rows = fn

    def __call__(self, u):
        return self.rows(u)


# Products, not u**3: the array power costs about 50 times more per
# 1024-sample vector and is not bitwise equal to the product.
_BUILTIN_F = {
    "cubic": _BlockF(lambda u: u * u * u),
    "cubic_plus_linear": _BlockF(lambda u: u * u * u + u),
}


def _load_config(path) -> dict:
    try:
        doc = _load_json(path)
    except FileNotFoundError as exc:
        raise InputError(f"config file not found: {path}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def _field(cfg, name, kind):
    """The config value at a dotted path (a number indexes a list), checked
    against ``kind``; an int field takes a number with no fractional part."""
    cur = cfg
    for part in name.split("."):
        if isinstance(cur, list) and part.isdigit() and int(part) < len(cur):
            cur = cur[int(part)]
        elif isinstance(cur, dict) and part in cur:
            cur = cur[part]
        else:
            raise InputError(f"config: missing field {name!r}")
    number = isinstance(cur, (int, float)) and not isinstance(cur, bool)
    if kind is float and number:
        return _real(cur, f"config: field {name!r}")
    if kind is int and number and (isinstance(cur, int) or cur.is_integer()):
        return int(cur)
    if kind in (float, int) or not isinstance(cur, kind):
        raise InputError(f"config: field {name!r} must be {kind.__name__}")
    return cur


def _numbers(cfg, name) -> list:
    """The list of numbers at a dotted path of the config."""
    return [_field(cfg, f"{name}.{i}", float) for i in range(len(_field(cfg, name, list)))]


def _build_f(doc):
    name = _field(doc, "f.name", str)
    if name == "poly":
        coeffs = _field(doc, "f.coefficients", list)
        if len(coeffs) > 4 or not coeffs:
            raise InputError("config: f.coefficients supports degree <= 3")
        cs = _numbers(doc, "f.coefficients")

        def horner(u):
            acc = 0.0
            for c in reversed(cs):
                acc = acc * u + c
            return acc

        return _BlockF(horner), {"name": name, "coefficients": cs}
    if name in _BUILTIN_F:
        return _BUILTIN_F[name], {"name": name}
    raise InputError(
        f"config: unknown f.name {name!r}; choose from "
        f"{sorted(_BUILTIN_F) + ['poly']}")


def _build_phi(doc, m, norm):
    kind = _field(doc, "phi.kind", str)
    if kind == "shift_norm":
        return ShiftNorm(c=_field(doc, "phi.c", float), m=m, norm=norm)
    if kind == "power_law":
        return PowerLaw(lam=_field(doc, "phi.lambda", float),
                        s=_field(doc, "phi.s", float), norm=norm)
    if kind == "constant":
        return ConstantBound(value=_field(doc, "phi.value", float))
    raise InputError(f"config: unknown phi.kind {kind!r}")


def _build_space(doc):
    kind = _field(doc, "space.kind", str) if "space" in doc else "reals"
    if kind == "reals":
        return real_line()
    if kind == "lhalf":
        qn = _field(doc, "space.quadrature_n", int) if "quadrature_n" in doc["space"] else 1024
        return LHalfSpace(qn).space()
    raise InputError(f"config: unknown space.kind {kind!r}")


def _build_grid(doc, m, space):
    spec = doc.get("grid", {})
    if not isinstance(spec, dict):
        raise InputError("config: field 'grid' must be an object")
    if "points" in spec:
        # A point is a number, or a list of numbers for a vector point.
        pts = [_numbers(doc, f"grid.points.{i}") if isinstance(p, list)
               else _field(doc, f"grid.points.{i}", float)
               for i, p in enumerate(_field(doc, "grid.points", list))]
        pts = _grid(pts, space.dim)
        return pts, {"points": pts.tolist()}
    levels = _field(doc, "grid.levels", int) if "levels" in spec else 2
    symmetric = _field(doc, "grid.symmetric", bool) if "symmetric" in spec else True
    if space.dim == 1:  # numbers
        base = _numbers(doc, "grid.base") if "base" in spec else [1.0]
        echo = {"base": base, "levels": levels, "symmetric": symmetric}
    else:  # sampled signals: the seeded corpus on the space's quadrature grid
        seed = _field(doc, "grid.seed", int) if "seed" in spec else 7
        base = example_corpus(space.dim, seed=seed)
        echo = {"corpus": True, "seed": seed, "levels": levels, "symmetric": symmetric}
    return m_closed_grid(base, m, levels=levels, symmetric=symmetric), echo


def _per_point_csv(path, f, phi, config, cert):
    g = cert.q.domain_grid
    scalar = g.ndim == 1
    xs = g if scalar else config.codomain.norm_rows(g)
    # The y = 0 row of the defect kernel: one defect per grid point.
    defects = config.codomain.norm_rows(
        _residual_rows(_euler_lagrange(config.m), f, g, np.zeros_like(g[:1])))
    columns = zip(xs.tolist(), defects.tolist(), _phi_at_zero_rows(phi, g).tolist(),
                  cert.error_per_point, cert.bound_per_point)
    header = ["index", "x" if scalar else "x_norm", "defect_y0", "phi_x0", "error", "bound"]
    # An int or a float repr never needs quoting.
    _write_csv(path, [header, *([str(i), *map(repr, row)] for i, row in enumerate(columns))])


def _certify(doc):
    """The certificate of a verify config, with the f, phi and StabilityConfig
    it was built from and the config's echo; L is phi's own along m."""
    if "L" in doc:
        raise InputError("config: field 'L' is not an input: L is the control "
                         "family's own constant along m")
    tol = _field(doc, "tol", float) if "tol" in doc else DEFAULT_TOL
    m = _check_m(_field(doc, "m", float))  # phi.lipschitz(m) needs |m| > 1
    codomain = _build_space(doc)
    f, f_echo = _build_f(doc)
    phi = _build_phi(doc, m, codomain.norm_eval)
    config = StabilityConfig(m=m, L=phi.lipschitz(m), p=codomain.p, tol=tol, codomain=codomain)
    grid, grid_echo = _build_grid(doc, m, codomain)
    echo = {"f": f_echo, "m": m, "L": config.L, "phi": doc.get("phi"),
            "space": doc.get("space", {"kind": "reals"}), "grid": grid_echo, "tol": tol}
    return verify_stability(f, phi, config, grid), f, phi, config, echo


def _cmd_verify(args):
    cert, f, phi, config, echo = _certify(_load_config(args.config))
    if args.csv:
        _per_point_csv(args.csv, f, phi, config, cert)
    verdict = "pass" if cert.passed else "fail"
    return _envelope("verify", {**echo, "csv": args.csv}, verdict, cert.to_dict())


# =========================================================================
# example-lhalf
# =========================================================================

def cubic_linear_defect_constant(m: float) -> float:
    """Exact defect constant of f(u) = u**3 + u: the residual expands to
    2m(1 - m**2) (x + m y), so the defect is |2m(1 - m**2)| |x + m y|."""
    return abs(2.0 * m * (1.0 - m**2))


# The two equation scalars and the grid levels of the frozen reproduction.
_EXAMPLE_MS = (2.0, 3.0)
_EXAMPLE_LEVELS = 1


def run_example_lhalf(quadrature_n=1024, tol=DEFAULT_TOL, seed=7) -> dict:
    """Frozen reproduction: f(u) = u**3 + u on L^{1/2}[0,1].

    For each m the equation defect of f is measured over the fixed signal
    corpus and compared with the exact constant |2m(1 - m**2)| and with
    the smaller constant |2m(1 - m)| that is sometimes quoted for this
    example; the certificate is then built with the exact constant.
    """
    space = LHalfSpace(quadrature_n)
    f = _BUILTIN_F["cubic_plus_linear"]
    corpus = example_corpus(quadrature_n, seed=seed)
    ys = np.array(corpus)

    runs = []
    all_pass = True
    for m in _EXAMPLE_MS:
        c_exact = cubic_linear_defect_constant(m)
        c_quoted = abs(2.0 * m * (1.0 - m))
        worst_rel = 0.0
        measured = []
        for x in corpus:
            # x against every y of the corpus at once.
            w = space.norm_rows(x + m * ys)
            kept = w >= 1e-9
            R = _residual_rows(_euler_lagrange(m), f, x[None, :], ys)
            c_meas = space.norm_rows(R)[kept] / w[kept]
            measured.extend(c_meas.tolist())
            worst_rel = max(worst_rel, float(np.max(np.abs(c_meas - c_exact) / c_exact,
                                                    initial=0.0)))
        # The verify config of this certificate; the counts, checked above, may be numpy ints.
        cert = _certify({"f": {"name": "cubic_plus_linear"}, "m": m, "tol": tol,
                         "phi": {"kind": "shift_norm", "c": c_exact},
                         "space": {"kind": "lhalf", "quadrature_n": int(quadrature_n)},
                         "grid": {"seed": int(seed), "levels": _EXAMPLE_LEVELS}})[0]
        all_pass = all_pass and cert.passed and worst_rel <= 1e-6
        runs.append({
            "m": m,
            "defect_constant": {
                "derived": c_exact,
                "measured_mean": float(np.mean(measured)) if measured else math.nan,
                "max_rel_deviation": worst_rel,
                "quoted": c_quoted,
                "note": (
                    "the measured defect of u^3 + u matches |2m(1-m^2)| |x + m y|; "
                    "the commonly quoted |2m(1-m)| is smaller by the factor |1 + m| "
                    "and does not dominate the defect"),
            },
            "pairs_measured": len(measured),
            "certificate": cert.to_dict(),
        })
    return {"quadrature_n": quadrature_n, "tol": tol, "seed": seed,
            "levels": _EXAMPLE_LEVELS, "runs": runs, "all_pass": all_pass}


def _cmd_example_lhalf(args):
    report = run_example_lhalf(quadrature_n=args.quadrature_n,
                               tol=args.tol, seed=args.seed)
    config = {"quadrature_n": args.quadrature_n, "tol": report["tol"],
              "seed": args.seed}
    verdict = "pass" if report["all_pass"] else "fail"
    return _envelope("example-lhalf", config, verdict, report, seed=args.seed)


# =========================================================================
# entry point
# =========================================================================

@functools.cache  # built once per process; parsing never mutates it
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", default=None,
                        help="also write the JSON report to this file")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report "
                             "(breaks bitwise reproducibility)")

    parser = argparse.ArgumentParser(
        prog="ulamstab",
        description="b-metric metrization, certified fixed points, and "
                    "cubic-stability certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("metrize", parents=[common],
                        help="chain-metrize a distance matrix file")
    pm.add_argument("--in", dest="infile", required=True,
                    help="distance matrix: CSV (token 'inf') or JSON with kappa")
    pm.add_argument("--kappa", type=float, help="relaxation modulus (CSV input only)")
    pm.add_argument("--out", default=None,
                    help="write the metrized matrix as CSV here")

    pf = sub.add_parser("fixpoint", parents=[common],
                        help="run a named contraction scenario")
    pf.add_argument("--scenario", required=True,
                    help=f"one of {sorted(_SCENARIOS)}")
    pf.add_argument("--L", type=float, default=None, help="contraction constant")
    pf.add_argument("--x0", type=float, default=None, help="starting point")
    pf.add_argument("--tol", type=float, default=DEFAULT_TOL, help="residual tolerance")
    pf.add_argument("--max-iter", type=int, default=200)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the stability pipeline from a config")
    pv.add_argument("--config", required=True, help="JSON configuration file")
    pv.add_argument("--csv", default=None, help="write a per-point CSV here")

    pe = sub.add_parser("example-lhalf", parents=[common],
                        help="frozen L^{1/2}[0,1] reproduction at m = 2 and 3")
    pe.add_argument("--quadrature-n", type=int, default=1024)
    pe.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pe.add_argument("--seed", type=int, default=7)

    return parser


_DISPATCH = {
    "metrize": _cmd_metrize,
    "fixpoint": _cmd_fixpoint,
    "verify": _cmd_verify,
    "example-lhalf": _cmd_example_lhalf,
}


def main(argv=None) -> int:
    """Run one command; the one place where outcomes become exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        doc = _DISPATCH[args.command](args)
        if args.timings:
            doc["timings"] = {"wall_s": time.perf_counter() - started}
        text = json.dumps(doc, indent=2, sort_keys=True)
        # The report file first: a path that cannot be written is an input
        # error, and stdout then stays empty.
        if args.report:
            with open(args.report, "w") as fh:
                fh.write(text + "\n")
        print(text, flush=True)
    except (InvalidBMetricError, HypothesisViolation, OverflowGuardError) as exc:
        print(f"certified failure: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout closed early: its last flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return 0 if doc["verdict"] == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
