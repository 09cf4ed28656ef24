"""The block kernels against per-pair and per-point reference loops.

The hypothesis checks walk the grid pairs in tiles, runs of x-points each
against every y.  The reference loops below are the plain per-pair
definitions, written out here rather than taken from the library: the
Euler-Lagrange residual, the control functions and the norms are evaluated
one pair at a time with scalar arithmetic, a running maximum of lhs/rhs is
kept, and the loop stops at the first violating pair.  The kernels must
agree with them exactly: verdict, worst ratio bit for bit, witness and
sample count, at every tile size.  The CLI's f, which has a block form,
must certify like the same f written as a plain per-point function.  The
per-point forms of the control functions and the norms, which are
one-point calls of the block forms, are checked against the same reference
formulas.  The grid index behind ``SampledMap.try_index`` is checked
against a scan of every row, and the solution defects of a sampled q
against a per-pair loop that finds each point by that scan.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamstab import (
    AXIOM_SLACK,
    CheckReport,
    ConstantBound,
    InputError,
    LHalfSpace,
    OverflowGuardError,
    PowerLaw,
    QuasiNormedSpace,
    SampledMap,
    ShiftNorm,
    StabilityConfig,
    el_defect,
    euclidean_norm,
    example_corpus,
    hypothesis_defect_check,
    junkim_defect,
    m_closed_grid,
    phi_contractivity_check,
    real_line,
    verify_stability,
)
from conftest import TILES, tile_elements
from ulamstab import cli
from ulamstab.core_spaces import _TILE_ELEMENTS, _RowIndex
from ulamstab.cubic_stability import DEFAULT_TOL, _Pairs, _solution_defects

DIM = 8


def cubic_plus_linear(u):
    return u**3 + u


# ---------------------------------------------------------------------------
# per-pair reference loops
# ---------------------------------------------------------------------------


def ref_euclidean(x):
    return float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))


def ref_lhalf(x):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    return float((np.sum(np.sqrt(np.abs(v))) / len(v)) ** 2)


def l1_norm(x):
    """A norm with no block form: the kernels call it point by point."""
    return float(np.sum(np.abs(x)))


def cond_abs(t):
    """Defined on numbers only: a row would not pass the comparison alone."""
    return t if t >= 0 else -t


def ref_phi(phi, norm):
    """phi as a per-pair function, with the reference norm."""
    if isinstance(phi, ConstantBound):
        return lambda x, y: phi.value
    if isinstance(phi, ShiftNorm):
        return lambda x, y: phi.c * norm(np.asarray(x, dtype=float)
                                         + phi.m * np.asarray(y, dtype=float))

    def power(x, y):
        nx, ny = norm(x), norm(y)
        if nx == 0.0 or ny == 0.0:
            return 0.0
        return phi.lam * (nx**phi.s + ny**phi.s)

    return power


def ref_phi_at_zero(phi, norm):
    """phi(x, 0) as a per-point function, with the reference norm."""
    if isinstance(phi, ConstantBound):
        return lambda x: phi.value
    if isinstance(phi, ShiftNorm):
        return lambda x: phi.c * norm(x)

    def power(x):
        nx = norm(x)
        if nx == 0.0:
            return 0.0 if phi.s > 0 else (phi.lam if phi.s == 0 else math.inf)
        return phi.lam * nx**phi.s

    return power


def ref_el_residual(f, m, x, y):
    return (2.0 * m * np.asarray(f(x + m * y), dtype=float)
            + 2.0 * np.asarray(f(m * x - y), dtype=float)
            - (m**3 + m) * (np.asarray(f(x + y), dtype=float)
                            + np.asarray(f(x - y), dtype=float))
            - 2.0 * (m**4 - 1.0) * np.asarray(f(y), dtype=float))


def ref_junkim_residual(f, x, y):
    return (np.asarray(f(2.0 * x + y), dtype=float) + np.asarray(f(2.0 * x - y), dtype=float)
            - 2.0 * np.asarray(f(x + y), dtype=float) - 2.0 * np.asarray(f(x - y), dtype=float)
            - 12.0 * np.asarray(f(x), dtype=float))


def _ratio(num, denom):
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


def _reference_scan(pairs, sides, tol):
    worst, witness = 0.0, None
    for x, y in pairs:
        lhs, rhs = sides(x, y)
        ratio = _ratio(lhs, rhs)
        if ratio > worst or witness is None:
            worst, witness = ratio, (x, y)
        if lhs > rhs + tol * max(1.0, rhs):
            return False, ratio, (x, y), len(pairs)
    return True, worst, witness, len(pairs)


def reference_contractivity(phi, m, L, pairs, tol=AXIOM_SLACK):
    scale = L * abs(m) ** 3
    return _reference_scan(
        pairs, lambda x, y: (phi(m * np.asarray(x, dtype=float), m * np.asarray(y, dtype=float)),
                             scale * phi(x, y)), tol)


def reference_defect(f, phi, m, pairs, norm, tol=DEFAULT_TOL):
    def sides(x, y):
        r = ref_el_residual(f, m, x, y)
        if not np.isfinite(r).all():
            raise OverflowGuardError(f"the equation residual is not finite at the pair {(x, y)!r}")
        return norm(r), phi(x, y)

    return _reference_scan(pairs, sides, tol)


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _same_witness(a, b):
    if a is None or b is None:
        return a is None and b is None
    return all(np.array_equal(np.asarray(u), np.asarray(v)) and np.ndim(u) == np.ndim(v)
               for u, v in zip(a, b))


def assert_same_report(report, reference):
    passed, worst, witness, n = reference
    assert report.passed == passed
    assert _same_float(report.worst_ratio, worst), (report.worst_ratio, worst)
    assert _same_witness(report.witness, witness), (report.witness, witness)
    assert report.n_samples == n


# Tile sizes for the two checks.  A check tile holds tile // 16 pair
# coordinates: 1, 7 and 64 put one x-point in each tile of the small grids
# below, 256 and 1024 several, often with a partial last run.
CHECK_TILES = [None, 1, 7, 64, 256, 1024]


def tiled_report(check) -> CheckReport:
    """check() at every CHECK_TILES size, which must all give one report:
    verdict, ratio bits, witness, sample count and detail."""
    reports = []
    for tile in CHECK_TILES:
        with tile_elements(tile):
            reports.append(check())
    first = reports[0]
    for report in reports[1:]:
        assert_same_report(report, (first.passed, first.worst_ratio, first.witness,
                                    first.n_samples))
        assert report.detail == first.detail
    return first


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _grid(rng, n, vector, dyadic):
    """n points plus the origin: scalars, or rows of length DIM.  Some grids
    are scaled up, where only a relative slack absorbs the rounding of an
    exact ratio."""
    shape = (n, DIM) if vector else (n,)
    if dyadic:
        pts = rng.integers(-128, 129, size=shape) / 64.0
    else:
        pts = rng.uniform(-2.0, 2.0, size=shape)
    pts = pts * float(rng.choice([1.0, 1.0, 3e3]))
    zero = np.zeros((1, DIM)) if vector else np.zeros(1)
    return np.concatenate([zero, pts])


def _points(grid):
    return [float(x) for x in grid] if grid.ndim == 1 else list(grid)


def _nonzero(x):
    return bool(np.any(np.asarray(x) != 0.0))


def reference_pairs(phi, pts):
    """The ordered pairs of the points in grid order; a power law, which is
    0 at a zero argument by convention, is checked away from zero only."""
    return [(x, y) for x in pts for y in pts
            if not isinstance(phi, PowerLaw) or (_nonzero(x) and _nonzero(y))]


def _phi(kind, rng, m, norm):
    if kind == "constant":
        return ConstantBound(value=float(rng.choice([0.0, 0.5, 3.0])))
    if kind == "shift":
        # The defect constant of u**3 + u is |2m(1 - m**2)|: both sides of it.
        c = abs(2.0 * m * (1.0 - m**2)) * float(rng.choice([0.25, 0.99, 1.0, 1.5]))
        return ShiftNorm(c=c, m=m, norm=norm)
    return PowerLaw(lam=float(rng.choice([1.0, 24.0])),
                    s=float(rng.choice([-1.0, -0.7, 0.5, 1.0, 1.3, 2.0])), norm=norm)


# (library norm, reference norm): with a block form, and without one.
SCALAR_NORMS = [(euclidean_norm, ref_euclidean), (abs, abs), (np.abs, np.abs),
                (cond_abs, cond_abs)]
VECTOR_NORMS = [(euclidean_norm, ref_euclidean), (LHalfSpace(DIM).norm, ref_lhalf),
                (l1_norm, l1_norm)]

checks = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 9),
    "vector": st.booleans(),
    "dyadic": st.booleans(),
    "kind": st.sampled_from(["constant", "shift", "power"]),
    "m": st.sampled_from([2.0, 3.0, -2.0]),
    "norm": st.integers(0, 11),
})


def _setup(case):
    rng = np.random.default_rng(case["seed"])
    grid = _grid(rng, case["n"], case["vector"], case["dyadic"])
    norms = VECTOR_NORMS if case["vector"] else SCALAR_NORMS
    norm, ref_norm = norms[case["norm"] % len(norms)]
    phi = _phi(case["kind"], rng, case["m"], norm)
    return rng, grid, norm, ref_norm, phi


# ---------------------------------------------------------------------------
# the two hypothesis checks
# ---------------------------------------------------------------------------


@given(checks)
@settings(max_examples=120, deadline=None)
def test_contractivity_check_matches_the_per_pair_loop(case):
    rng, grid, norm, ref_norm, phi = _setup(case)
    m = case["m"]
    # The family's own constant, or one declared too small.
    L = phi.lipschitz(m) * float(rng.choice([1.0, 0.5]))
    pairs = reference_pairs(phi, _points(grid))
    reference = reference_contractivity(ref_phi(phi, ref_norm), m, L, pairs)
    assert_same_report(tiled_report(lambda: phi_contractivity_check(phi, m, L, _Pairs(grid, phi))),
                       reference)
    assert_same_report(phi_contractivity_check(phi, m, L, grid), reference)


@given(checks)
@settings(max_examples=120, deadline=None)
def test_defect_check_matches_the_per_pair_loop(case):
    rng, grid, norm, ref_norm, phi = _setup(case)
    m = case["m"]
    pairs = reference_pairs(phi, _points(grid))
    reference = reference_defect(cubic_plus_linear, ref_phi(phi, ref_norm), m, pairs, ref_norm)
    assert_same_report(tiled_report(lambda: hypothesis_defect_check(
        cubic_plus_linear, phi, m, _Pairs(grid, phi), norm=norm)), reference)
    assert_same_report(hypothesis_defect_check(cubic_plus_linear, phi, m, grid, norm=norm),
                       reference)


@pytest.mark.parametrize("grid", [[3e102, 0.0, 1.0, 2.0], [0.0, 1.0, 3e102, -2.0, 5e102],
                                  [0.0, 3e102, -2e102, 4e102]])
@pytest.mark.parametrize("phi", [ShiftNorm(c=sys.float_info.max, m=2.0),
                                 PowerLaw(lam=1e300, s=2.0), ShiftNorm(c=1e200, m=2.0)])
def test_non_finite_sides_follow_the_running_maximum(grid, phi):
    # f overflows on the large points and phi is huge or infinite (its
    # parameters are finite, its values overflow): inf/inf and NaN ratios,
    # which a running maximum skips unless the first pair has one.  In the
    # defect check a residual that is not finite is an overflow, raised at
    # the same pair at every tile size.
    def cube(u):
        return u * u * u

    pairs = reference_pairs(phi, [float(x) for x in grid])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowGuardError) as want:
            reference_defect(cube, ref_phi(phi, ref_euclidean), 2.0, pairs, ref_euclidean)
        for tile in CHECK_TILES:
            with tile_elements(tile), pytest.raises(OverflowGuardError) as got:
                hypothesis_defect_check(cube, phi, 2.0, _Pairs(np.array(grid), phi))
            assert str(got.value) == str(want.value)
        assert_same_report(
            tiled_report(lambda: phi_contractivity_check(phi, 2.0, 0.25,
                                                         _Pairs(np.array(grid), phi))),
            reference_contractivity(ref_phi(phi, ref_euclidean), 2.0, 0.25, pairs))


def test_both_outcomes_are_exercised():
    # Both verdicts occur for both checks on the grids drawn above.
    grid = _grid(np.random.default_rng(0), 6, False, True)
    assert phi_contractivity_check(ShiftNorm(c=12.0, m=2.0), 2.0, 0.25, grid).passed
    assert not phi_contractivity_check(ShiftNorm(c=12.0, m=2.0), 2.0, 0.125, grid).passed
    assert hypothesis_defect_check(cubic_plus_linear, ShiftNorm(c=12.0, m=2.0), 2.0,
                                   grid).passed
    assert not hypothesis_defect_check(cubic_plus_linear, ShiftNorm(c=3.0, m=2.0), 2.0,
                                       grid).passed


def test_grid_pairs_with_f_values_skip_the_grid_calls():
    grid = _grid(np.random.default_rng(1), 5, False, True)
    calls = []

    def f(u):
        calls.append(u)
        return cubic_plus_linear(u)

    values = np.array([cubic_plus_linear(x) for x in grid])
    phi = ShiftNorm(c=12.0, m=2.0)
    report = hypothesis_defect_check(f, phi, 2.0, _Pairs(grid, phi, values))
    assert report.passed and report.n_samples == len(grid) ** 2
    # Four evaluation points per pair; f(y) and f(0) come from the values.
    assert len(calls) == 4 * len(grid) ** 2
    assert all(isinstance(u, float) for u in calls)


def test_power_law_pairs_exclude_zero_arguments():
    grid = _grid(np.random.default_rng(2), 4, True, False)
    assert len(_Pairs(grid, ShiftNorm(c=12.0, m=2.0))) == 25
    assert len(_Pairs(grid, ConstantBound(value=1.0))) == 25
    assert len(_Pairs(grid, PowerLaw(lam=1.0, s=1.0))) == 16


@pytest.mark.parametrize("norm", [abs, np.abs, cond_abs])
def test_norms_without_a_block_form_are_called_on_numbers(norm):
    # On the real line the absolute value is the Euclidean norm bit for
    # bit, so the certificate must not depend on which of them is passed,
    # to phi or to the codomain.
    grid = m_closed_grid([1.0, 3.0], 2.0, levels=2)
    certs = []
    for nrm in (euclidean_norm, norm):
        codomain = QuasiNormedSpace(dim=1, norm_eval=nrm, kappa=1.0)
        for phi in (ShiftNorm(c=12.0, m=2.0, norm=nrm), PowerLaw(lam=24.0, s=1.0, norm=nrm)):
            config = StabilityConfig(m=2.0, L=phi.lipschitz(2.0), codomain=codomain)
            certs.append(verify_stability(cubic_plus_linear, phi, config, grid).to_dict())
    assert certs[0]["passed"] and certs[1]["hypothesis_defect_ok"]
    assert certs[:2] == certs[2:]
    assert all(isinstance(b, float) for c in certs for b in c["bound_per_point"])


@pytest.mark.parametrize("base, norm", [([1.0, 3.0], abs),
                                        ([[0.5, 1.0], [1.0, -0.25]], euclidean_norm),
                                        ([[0.5, 1.0], [1.0, -0.25]], l1_norm)])
def test_a_phi_without_a_block_form_certifies_the_same(base, norm):
    # A plain callable is called pair by pair and point by point, on
    # numbers on the real line and on rows otherwise; ShiftNorm goes
    # through its block form.  The certificates must agree bit for bit.
    grid = m_closed_grid(base, 2.0, levels=2)
    dim = 1 if grid.ndim == 1 else grid.shape[1]
    config = StabilityConfig(m=2.0, L=0.25,
                             codomain=QuasiNormedSpace(dim=dim, norm_eval=norm, kappa=1.0))
    docs = []
    for phi in (lambda x, y: 12 * norm(x + 2 * y), ShiftNorm(c=12.0, m=2.0, norm=norm)):
        cert = verify_stability(cubic_plus_linear, phi, config, grid)
        docs.append(json.dumps(cert.to_dict(), sort_keys=True).encode() + cert.q.values.tobytes())
    assert cert.passed and cert.hypothesis_phi_ok
    assert docs[0] == docs[1]


@pytest.mark.parametrize("phi", [ShiftNorm(c=12.0, m=2.0), PowerLaw(lam=24.0, s=1.0),
                                 ConstantBound(value=1e3)])
def test_verify_stability_calls_f_once_per_evaluation_point(phi):
    # f at the n grid points, f at the four new points of each pair of the
    # defect check, and f at the n points of each approximant stage; the
    # one-step estimate reads f(m x) from stage 1.
    grid = m_closed_grid([0.5, 1.0, 3.0], 2.0, levels=2)
    calls = []

    def f(u):
        calls.append(u)
        return cubic_plus_linear(u)

    cert = verify_stability(f, phi, StabilityConfig(m=2.0, L=phi.lipschitz(2.0)), grid)
    n = len(grid)
    pairs = (n - 1) ** 2 if phi.excludes_zero else n ** 2
    assert cert.hypothesis_defect_ok and cert.approximant_iterations > 1
    assert len(calls) == n + 4 * pairs + n * cert.approximant_iterations


@pytest.mark.parametrize("base", [[0.5, 1.0, 3.0], [[0.5, 1.0], [1.0, -0.25], [2.0, 0.125]]])
@pytest.mark.parametrize("tile", [None, 1, 64])
@pytest.mark.parametrize("phi", [ShiftNorm(c=12.0, m=2.0), PowerLaw(lam=24.0, s=1.0)],
                         ids=["shift", "power"])
def test_a_verify_evaluates_phi_once_per_checked_pair(base, tile, phi):
    # phi(x, y) once per checked pair, read by both checks, and phi(m x, m y)
    # once: 2 n**2 pairs, where evaluating phi(x, y) in each check took 3 n**2.
    # Both checks of a power law leave out the pairs with the grid's zero
    # point, 2 (n - 1)**2, where two pair sets took (n - 1)**2 + 2 n**2.
    grid = m_closed_grid(base, 2.0, levels=2)
    pairs = []
    rows = type(phi).rows

    def counted(self, X, Y):
        v = rows(self, X, Y)
        pairs.append(len(v))
        return v

    with tile_elements(tile), pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(phi), "rows", counted)
        cert = verify_stability(cubic_plus_linear, phi,
                                StabilityConfig(m=2.0, L=phi.lipschitz(2.0)), grid)
    assert cert.hypothesis_defect_ok and cert.hypothesis_phi_ok
    n = len(grid) - 1 if isinstance(phi, PowerLaw) else len(grid)
    assert sum(pairs) == 2 * n ** 2


@contextlib.contextmanager
def counting_blocks():
    """The number of blocks each walk of _Pairs.blocks yields, and the
    pairs they hold."""
    walks = []
    blocks = _Pairs.blocks

    def counted(self, f=None):
        walks.append([0, 0])
        for block in blocks(self, f):
            # A one-point x block broadcasts: the y block holds one point per pair.
            walks[-1][0] += 1
            walks[-1][1] += len(block[2])
            yield block

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Pairs, "blocks", counted)
        yield walks


def test_a_real_line_grid_takes_one_or_two_tiles_per_check():
    # 65 points, the reals-g65 shape: 65 x-points of 65 pairs per check,
    # 63 x-points to a tile.  Every pair is in some tile.
    grid = m_closed_grid([1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 1.875], 2.0, levels=3)
    phi = ShiftNorm(c=12.0, m=2.0)
    with counting_blocks() as walks:
        cert = verify_stability(cubic_plus_linear, phi, StabilityConfig(m=2.0, L=0.25), grid)
    assert len(grid) == 65 and cert.passed
    assert len(walks) == 2
    assert all(count <= 2 and pairs == 65 ** 2 for count, pairs in walks)


def test_a_signal_grid_takes_one_x_point_per_tile():
    # 21 points of 1024 samples: one x-point against every y fills a tile.
    space = LHalfSpace(1024)
    grid = m_closed_grid(example_corpus(1024, seed=3)[:5], 2.0, levels=1)
    phi = ShiftNorm(c=12.0, m=2.0, norm=space.norm)
    config = StabilityConfig(m=2.0, L=0.25, p=0.5, codomain=space.space())
    with counting_blocks() as walks:
        verify_stability(cli._BUILTIN_F["cubic_plus_linear"], phi, config, grid)
    assert len(grid) == 21
    assert walks == [[21, 21 ** 2], [21, 21 ** 2]]


def plain_f(doc):
    """The CLI's f of a config's ``f`` field, as a plain per-point function."""
    if doc["name"] == "cubic":
        return lambda u: u * u * u
    if doc["name"] == "cubic_plus_linear":
        return lambda u: u * u * u + u
    cs = doc["coefficients"]

    def horner(u):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * u + c
        return acc

    return horner


cli_fs = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "f": st.sampled_from(["cubic", "cubic_plus_linear", "poly"]),
    "grid": st.sampled_from(["dyadic", "uniform", "lhalf"]),
    "m": st.sampled_from([2.0, 3.0, -2.0]),
})


@given(cli_fs)
@settings(max_examples=40, deadline=None)
def test_cli_f_on_blocks_certifies_like_a_plain_function(case):
    # The block form and a point-by-point call of the same f give one
    # certificate, q bytes included; the builtins multiply and poly runs
    # Horner from 0.0, which differ in the last bits.
    rng = np.random.default_rng(case["seed"])
    m = case["m"]
    doc = {"name": case["f"]}
    if case["f"] == "poly":
        # Signed coefficients; f(0) = 0 mostly, so that q gets extracted.
        cs = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 5)))
        cs[0] = cs[0] if rng.random() < 0.2 else 0.0
        doc["coefficients"] = cs.tolist()
    f, _ = cli._build_f({"f": doc})
    assert hasattr(f, "rows")
    if case["grid"] == "lhalf":
        space = LHalfSpace(32)
        codomain, norm = space.space(), space.norm
        base = [example_corpus(32, seed=int(rng.integers(0, 100)))[i]
                for i in rng.choice(20, size=3, replace=False)]
        grid = m_closed_grid(base, m, levels=1)
    else:
        codomain, norm = real_line(), euclidean_norm
        base = (rng.integers(1, 129, size=3) / 64.0 if case["grid"] == "dyadic"
                else rng.uniform(0.1, 2.0, size=3))
        grid = m_closed_grid(base, m, levels=2)
    phi = ShiftNorm(c=abs(2.0 * m * (1.0 - m**2)) * float(rng.choice([0.5, 1.0, 2.0])), m=m,
                    norm=norm)
    config = StabilityConfig(m=m, L=phi.lipschitz(m), p=codomain.p, codomain=codomain)
    docs = []
    for g in (f, plain_f(doc)):
        cert = verify_stability(g, phi, config, grid)
        docs.append(json.dumps(cert.to_dict(), sort_keys=True).encode()
                    + (b"" if cert.q is None else cert.q.values.tobytes()))
    assert docs[0] == docs[1]


def test_cli_f_overflow_on_blocks_is_a_certified_failure_without_warnings(tmp_path, capsys):
    # f(u) = u**3 + u overflows on a 2**400 grid point.  Python floats go to
    # inf silently, and so must the block form: a warning turned into an
    # error would escape as a traceback.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"m": 2.0, "f": {"name": "cubic_plus_linear"},
                                "phi": {"kind": "shift_norm", "c": 12.0},
                                "grid": {"levels": 400}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify", "--config", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("certified failure: f overflowed on the grid")


# ---------------------------------------------------------------------------
# the per-point forms against the reference formulas
# ---------------------------------------------------------------------------

# (library norm, reference norm), on numbers and on DIM-vectors.
POINT_NORMS = {False: [(euclidean_norm, ref_euclidean), (abs, abs), (l1_norm, l1_norm)],
               True: [(euclidean_norm, ref_euclidean), (LHalfSpace(DIM).norm, ref_lhalf),
                      (l1_norm, l1_norm)]}

points = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "vector": st.booleans(),
    "zero": st.sampled_from(["", "x", "y", "xy"]),
    "kind": st.sampled_from(["constant", "shift", "power"]),
    "s": st.sampled_from([-0.7, 1.3, 2.0]),
    "norm": st.integers(0, 2),
})


@given(points)
@settings(max_examples=300, deadline=None)
def test_per_point_forms_match_the_reference_formulas(case):
    # phi(x, y), phi(x, 0), the norms and the two equation defects are
    # one-point calls of the block forms; they must keep the bits of the
    # per-point formulas.
    rng = np.random.default_rng(case["seed"])
    vector = case["vector"]
    norm, ref_norm = POINT_NORMS[vector][case["norm"]]

    def point(zero):
        v = np.zeros(DIM) if zero else rng.uniform(-2.0, 2.0, size=DIM) * float(
            rng.choice([1e-3, 1.0, 3e3]))
        return v if vector else float(v[0])

    x, y = point("x" in case["zero"]), point("y" in case["zero"])
    phi = {"constant": ConstantBound(value=float(rng.choice([0.0, 0.5, 3.0]))),
           "shift": ShiftNorm(c=float(rng.uniform(0.0, 50.0)), m=float(rng.choice([2.0, -3.0])),
                              norm=norm),
           "power": PowerLaw(lam=float(rng.choice([1.0, 24.0])), s=case["s"], norm=norm),
           }[case["kind"]]
    assert _same_float(phi(x, y), ref_phi(phi, ref_norm)(x, y))
    assert _same_float(phi.at_zero(x), ref_phi_at_zero(phi, ref_norm)(x))
    assert _same_float(euclidean_norm(x), ref_euclidean(x))
    space = QuasiNormedSpace(dim=DIM if vector else 1, norm_eval=norm,
                             kappa=2.0 if ref_norm is ref_lhalf else 1.0)
    assert _same_float(space.norm(x), ref_norm(x))
    assert isinstance(phi(x, y), float) and isinstance(space.norm(x), float)
    # The CLI's f has a block form; the plain f is called point by point.
    m = float(rng.choice([2.0, -3.0]))
    for f in (cli._BUILTIN_F["cubic_plus_linear"], cubic_plus_linear):
        got = el_defect(f, m, x, y, norm)
        assert _same_float(got, ref_norm(ref_el_residual(f, m, x, y))) and isinstance(got, float)
        got = junkim_defect(f, x, y, norm)
        assert _same_float(got, ref_norm(ref_junkim_residual(f, x, y))) and isinstance(got, float)


# ---------------------------------------------------------------------------
# the grid index against a linear scan
# ---------------------------------------------------------------------------


def reference_try_index(grid, point):
    rows = grid if grid.ndim == 2 else grid[:, None]
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != rows.shape[1:]:
        return None
    tol = 1e-12 + 1e-9 * np.maximum(np.abs(rows), np.abs(p))
    hits = np.all(np.abs(rows - p) <= tol, axis=1)
    return int(np.argmax(hits)) if hits.any() else None


def _near(rng, row):
    """row moved, coordinate by coordinate, to just inside or just outside
    the match tolerance, or left alone."""
    tol = 1e-12 + 1e-9 * np.abs(row)
    factor = rng.choice([0.0, 0.5, 0.999999, 1.000001, 1.5, 3.0], size=row.shape)
    return row + rng.choice([-1.0, 1.0], size=row.shape) * factor * tol


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([0, 1, 3]))
@settings(max_examples=150, deadline=None)
def test_indexed_lookup_matches_the_linear_scan(seed, n, dim):
    rng = np.random.default_rng(seed)
    shape = (n,) if dim == 0 else (n, dim)
    grid = rng.integers(-6, 7, size=shape) * float(rng.choice([1.0, 1e-11, 1e6, 0.37]))
    if dim:
        # Shared first coordinates put several rows in one search window.
        grid[:, 0] = grid[rng.integers(0, n, size=n), 0]
    rows = grid.reshape(n, -1)
    uniq = np.unique(rows, axis=0, return_index=True)[1]
    grid = grid[np.sort(uniq)]
    try:
        g = SampledMap(domain_grid=grid, values=np.zeros(len(grid)), codomain=real_line())
    except InputError:
        return  # near-duplicates: covered by the duplicate test below
    rows = grid.reshape(len(grid), -1)
    queries = [_near(rng, rows[int(i)]) for i in rng.integers(0, len(rows), size=30)]
    queries += [rng.uniform(-7.0, 7.0, size=rows.shape[1]) for _ in range(5)]
    special = rows[0].copy()
    special[rng.integers(0, rows.shape[1])] = rng.choice([np.inf, -np.inf, np.nan])
    queries.append(special)
    block = np.array(queries)
    want = [reference_try_index(grid, q.item() if dim == 0 else q) for q in queries]
    got = [g.try_index(q.item() if dim == 0 else q) for q in queries]
    assert got == want
    assert g.index_rows(block).tolist() == [-1 if w is None else w for w in want]
    # The same block with the grid's own point shape: numbers on a 1-d grid.
    assert g.index_rows(block.reshape((len(block),) + grid.shape[1:])).tolist() == \
        g.index_rows(block).tolist()


def reference_duplicate(grid):
    """(k, i) for the first row i that matches an earlier row, k being the
    first such row; None if no row does."""
    rows = grid if grid.ndim == 2 else grid[:, None]
    for i in range(len(rows)):
        tol = 1e-12 + 1e-9 * np.maximum(np.abs(rows[:i]), np.abs(rows[i]))
        dup = np.all(np.abs(rows[:i] - rows[i]) <= tol, axis=1)
        if dup.any():
            return int(np.argmax(dup)), i
    return None


@given(st.integers(0, 2**32 - 1), st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_duplicate_check_matches_the_pairwise_scan(seed, n):
    rng = np.random.default_rng(seed)
    grid = rng.integers(-20, 21, size=n) * 0.25
    grid = np.unique(grid)
    rng.shuffle(grid)
    # Near copies of some points, just inside or just outside the tolerance.
    extra = [_near(rng, grid[int(i)][None])[0] for i in rng.integers(0, len(grid), size=3)]
    grid = np.concatenate([grid, extra])
    want = reference_duplicate(grid)
    if want is None:
        SampledMap(domain_grid=grid, values=np.zeros(len(grid)), codomain=real_line())
        return
    with pytest.raises(InputError, match=rf"indices {want[0]} and {want[1]}$"):
        SampledMap(domain_grid=grid, values=np.zeros(len(grid)), codomain=real_line())


def test_every_m_closed_grid_is_a_valid_sampled_map():
    # 9.99998999e-07 and 1e-06 are within 1e-12 + 1e-9 |1e-06| of each other
    # but not within 1e-12 + 1e-9 |9.99998999e-07|.  With a tolerance
    # relative to the query they matched one way only, and whether a grid
    # holding both was accepted depended on the order of its rows.  The
    # tolerance reads the larger magnitude, so they match both ways.
    for order in ([0.0, 1e-6, 9.99998999e-07], [0.0, 9.99998999e-07, 1e-6]):
        with pytest.raises(InputError, match=r"indices 1 and 2$"):
            SampledMap(domain_grid=order, values=np.zeros(3), codomain=real_line())
    grid = m_closed_grid([1e-6, 9.99998999e-07], 2.0, levels=2)
    assert len(grid) == 11
    SampledMap(domain_grid=grid, values=grid**3, codomain=real_line())
    cert = verify_stability(cubic_plus_linear, ShiftNorm(c=12.0, m=2.0),
                            StabilityConfig(m=2.0, L=0.25), grid)
    assert cert.q is not None and cert.grid_size == 11


# Near-duplicates at the relative term and at the absolute floor.
NEAR_BASE = [1e-6, 9.99998999e-07, 1.0, 1.0 + 1e-9, 1.0 + 1.8e-9, 6e-13, 1.2e-12, 0.3, 0.9]


@given(st.lists(st.one_of(st.sampled_from(NEAR_BASE), st.floats(-20.0, 20.0, allow_nan=False)),
                min_size=1, max_size=5),
       st.sampled_from([2.0, -3.0, 1.5]), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_permutation_of_an_m_closed_grid_is_a_valid_sampled_map(base, m, levels, seed):
    # The match rule is symmetric, so the rows m_closed_grid keeps match no
    # other kept row in any order.
    grid = m_closed_grid(base, m, levels=levels)
    for order in (np.random.default_rng(seed).permutation(len(grid)), np.arange(len(grid))[::-1]):
        SampledMap(domain_grid=grid[order], values=np.zeros(len(grid)), codomain=real_line())


# ---------------------------------------------------------------------------
# the solution defects against a per-pair scan
# ---------------------------------------------------------------------------


def reference_solution_defects(grid, values, m, norm):
    """(el_worst, jk_worst, checked, built) of the Euler-Lagrange and
    Jun-Kim residuals of the sampled map, one ordered pair of grid points
    at a time.  Both equations touch x + y and x - y, so a pair where
    either misses the grid is out of range.  ``built`` counts the points
    looked up in stages (x + y for every pair, x - y where it landed, the
    other four where both did) whose first coordinate is not finite or
    lies within 2 (1e-12 + 1e-9 |p0|) of a grid row's: the points a lookup
    by first coordinate builds in full on a vector grid."""
    n = len(grid)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    first = (grid if grid.ndim == 1 else grid[:, 0]).tolist()

    def find(point):
        return reference_try_index(grid, point)

    def opens(point):
        p0 = float(np.atleast_1d(point)[0])
        if not math.isfinite(p0):
            return True
        reach = 2.0 * (1e-12 + 1e-9 * abs(p0))
        return any(p0 - reach <= g0 <= p0 + reach for g0 in first)

    el_worst = jk_worst = 0.0
    checked = built = 0
    for i, j in pairs:
        x, y = grid[i], grid[j]
        built += opens(x + y)
        s = find(x + y)
        if s is None:
            continue
        built += opens(x - y)
        d = find(x - y)
        if d is None:
            continue
        built += sum(opens(p) for p in (x + m * y, m * x - y, 2.0 * x + y, 2.0 * x - y))
        el = [find(x + m * y), find(m * x - y), s, d, find(y)]
        jk = [find(2.0 * x + y), find(2.0 * x - y), s, d, find(x)]
        checked += None not in el or None not in jk
        if None not in el:
            a, b, c, dd, e = (values[k] for k in el)
            r = 2.0 * m * a + 2.0 * b - (m**3 + m) * (c + dd) - 2.0 * (m**4 - 1.0) * e
            el_worst = max(el_worst, norm(r))
        if None not in jk:
            a, b, c, dd, e = (values[k] for k in jk)
            jk_worst = max(jk_worst, norm(a + b - 2.0 * c - 2.0 * dd - 12.0 * e))
    return el_worst, jk_worst, checked, built


@contextlib.contextmanager
def counting_lookups():
    """Count the calls of _RowIndex.lookup, the full points they build, and
    the most points one build holds."""
    seen = {"calls": 0, "built": 0, "largest": 0}
    lookup = _RowIndex.lookup

    def counted(self, first, build, allow=None):
        seen["calls"] += 1

        def counted_build(i):
            seen["built"] += len(i)
            seen["largest"] = max(seen["largest"], len(i))
            return build(i)

        return lookup(self, first, counted_build, allow)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_RowIndex, "lookup", counted)
        yield seen


# (library norm, reference norm) of the codomain, on numbers and on 3-vectors.
SOLUTION_NORMS = {False: [(euclidean_norm, ref_euclidean), (abs, abs)],
                  True: [(euclidean_norm, ref_euclidean), (LHalfSpace(3).norm, ref_lhalf),
                         (l1_norm, l1_norm)]}

solutions = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "bases": st.sampled_from([1, 2, 3, 4, 8, 9]),  # 7 to 25, or 49 and 55 points
    "vector": st.booleans(),
    "dyadic": st.booleans(),
    "m": st.sampled_from([2.0, 3.0, -2.0]),
    "norm": st.integers(0, 5),
    "tile": TILES,
})


@given(solutions)
@settings(max_examples=60, deadline=None)
def test_solution_defects_match_the_per_pair_scan(case):
    # Shuffled m-closed grids of 7 to 55 points, with a perturbed cubic for
    # q, so that no residual vanishes.
    rng = np.random.default_rng(case["seed"])
    vector, m = case["vector"], case["m"]
    shape = (case["bases"], 3) if vector else (case["bases"],)
    base = (rng.integers(1, 129, size=shape) / 64.0 if case["dyadic"]
            else rng.uniform(0.1, 2.0, size=shape))
    grid = m_closed_grid(base, m, levels=2)
    grid = grid[rng.permutation(len(grid))]
    origin = int(np.argmin(np.any(grid.reshape(len(grid), -1) != 0.0, axis=1)))
    values = grid**3 + rng.normal(scale=1e-3, size=grid.shape)
    values[origin] = 0.0
    norm, ref_norm = SOLUTION_NORMS[vector][case["norm"] % len(SOLUTION_NORMS[vector])]
    codomain = QuasiNormedSpace(dim=3, norm_eval=norm, kappa=2.0) if vector else real_line()
    q = SampledMap(domain_grid=grid, values=values, codomain=codomain)
    n = len(grid)
    with tile_elements(case["tile"]), counting_lookups() as seen:
        got = _solution_defects(q, m, codomain.norm, n)
    el_worst, jk_worst, checked, built = reference_solution_defects(grid, values, m, ref_norm)
    assert _same_float(got[0], el_worst), (got[0], el_worst)
    assert _same_float(got[1], jk_worst), (got[1], jk_worst)
    assert got[2] == checked > 0
    # The lookups are staged: x + y for every ordered pair, x - y where it
    # landed, the other four where both did; a few calls per tile.  A tile
    # is a run of x-points against every y, with about one tile of pairs.
    # A point is built in full only where its first coordinate can match,
    # at most one tile of coordinates at a time; on a grid of numbers the
    # first coordinate is the whole point.
    assert seen["built"] == (built if vector else 0)
    size = case["tile"] or _TILE_ELEMENTS
    assert seen["largest"] <= max(1, size // 3)
    tiles = -(-n // max(1, size // n))
    assert seen["calls"] <= 6 * tiles


wide = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "bases": st.sampled_from([1, 2, 3]),  # 7, 13 or 19 points, then the huge ones
    "m": st.sampled_from([2.0, 3.0, -2.0]),
    "huge": st.booleans(),
    "norm": st.integers(0, 2),
    "tile": TILES,
})


@given(wide)
@settings(max_examples=60, deadline=None)
def test_solution_defects_match_where_windows_span_the_grid(case):
    # Every grid row has first coordinate 0, so every window of first
    # coordinates spans the grid, and each lookup builds every point it is
    # given.  Huge rows make equation points overflow in the first
    # coordinate: their windows are every row as well.  The defects match
    # the per-pair scan bit for bit, quietly, and no build holds more than
    # one tile of coordinates.
    rng = np.random.default_rng(case["seed"])
    m = case["m"]
    base = rng.integers(-64, 65, size=(case["bases"], 3)) / 32.0
    base[:, 0] = 0.0
    grid = m_closed_grid(base, m, levels=2)
    if case["huge"]:
        huge = rng.integers(-4, 5, size=(3, 3)) / 4.0
        huge[:, 0] = [1.5e308, -1.2e308, 1e308]
        grid = np.concatenate([grid, huge])
    grid = grid[rng.permutation(len(grid))]
    values = rng.normal(size=grid.shape)
    norm, ref_norm = SOLUTION_NORMS[True][case["norm"]]
    codomain = QuasiNormedSpace(dim=3, norm_eval=norm, kappa=2.0)
    q = SampledMap(domain_grid=grid, values=values, codomain=codomain)
    n = len(grid)
    with tile_elements(case["tile"]), counting_lookups() as seen:
        got = _solution_defects(q, m, codomain.norm, n)
    with np.errstate(over="ignore", invalid="ignore"):
        el_worst, jk_worst, checked, built = reference_solution_defects(grid, values, m, ref_norm)
    assert _same_float(got[0], el_worst), (got[0], el_worst)
    assert _same_float(got[1], jk_worst), (got[1], jk_worst)
    assert got[2] == checked
    assert seen["built"] == built and (case["huge"] or built >= n * n)
    assert seen["largest"] <= max(1, (case["tile"] or _TILE_ELEMENTS) // 3)


@pytest.mark.parametrize("base, levels, n", [([1.0, 3.0], 3, 17), ([0.5, 0.75, 1.25], 2, 19),
                                             ([1.0, 1.25, 1.5, 1.75], 5, 48),
                                             ([1.0, 1.25, 1.5, 1.75], 7, 65)])
def test_solution_defects_of_a_scalar_grid_take_one_tile(base, levels, n):
    # A grid of up to 256 numbers is one tile: one lookup per point of the
    # two equations but x and y, at most 1 + 7 calls, where a lookup per
    # grid row needs 7 n + 1.
    grid = m_closed_grid(base, 2.0, levels=levels)
    grid = grid[:n]
    q = SampledMap(domain_grid=grid, values=grid**3, codomain=real_line())
    with counting_lookups() as seen:
        _solution_defects(q, 2.0, q.codomain.norm, len(grid))
    assert len(grid) == n
    assert 0 < seen["calls"] <= 8


@pytest.mark.parametrize("grid", [np.array([0.0, 1.0, -1.0]),
                                  np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])])
def test_index_rows_of_an_empty_block_is_empty(grid):
    g = SampledMap(domain_grid=grid, values=np.zeros(len(grid)), codomain=real_line())
    for empty in (np.empty((0,)), np.empty((0,) + grid.shape[1:])):
        got = g.index_rows(empty)
        assert got.shape == (0,) and got.dtype.kind == "i"
