"""The block kernels against per-pair and per-point reference loops.

The hypothesis checks walk the grid pairs one x-row at a time against all
y.  The reference loops below are the plain per-pair definitions, written
out here rather than taken from the library: the Euler-Lagrange residual,
the control functions and the norms are evaluated one pair at a time
with scalar arithmetic, a running maximum of lhs/rhs is kept, and the
loop stops at the first violating pair.  The kernels must agree with them
exactly: verdict, worst ratio bit for bit, witness and sample count.  The
per-point forms of the control functions and the norms, which are
one-point calls of the block forms, are checked against the same reference
formulas.  The grid index behind ``SampledMap.try_index`` is checked
against a scan of every row.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamstab import (
    AXIOM_SLACK,
    ConstantBound,
    InputError,
    LHalfSpace,
    PowerLaw,
    QuasiNormedSpace,
    SampledMap,
    ShiftNorm,
    StabilityConfig,
    euclidean_norm,
    hypothesis_defect_check,
    m_closed_grid,
    phi_contractivity_check,
    real_line,
    verify_stability,
)
from ulamstab.cubic_stability import DEFAULT_TOL, _Pairs

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
    return _reference_scan(pairs, lambda x, y: (norm(ref_el_residual(f, m, x, y)), phi(x, y)),
                           tol)


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
    pts = _points(grid)
    pairs = [(x, y) for x in pts for y in pts]
    reference = reference_contractivity(ref_phi(phi, ref_norm), m, L, pairs)
    assert_same_report(phi_contractivity_check(phi, m, L, _Pairs.grid(grid)), reference)
    assert_same_report(phi_contractivity_check(phi, m, L, pairs), reference)


@given(checks)
@settings(max_examples=120, deadline=None)
def test_defect_check_matches_the_per_pair_loop(case):
    rng, grid, norm, ref_norm, phi = _setup(case)
    m = case["m"]
    excl = phi.excludes_zero
    pts = _points(grid)
    pairs = [(x, y) for x in pts for y in pts
             if not excl or (_nonzero(x) and _nonzero(y))]
    reference = reference_defect(cubic_plus_linear, ref_phi(phi, ref_norm), m, pairs, ref_norm)
    assert_same_report(hypothesis_defect_check(cubic_plus_linear, phi, m,
                                               _Pairs.grid(grid, excl), norm=norm),
                       reference)
    assert_same_report(hypothesis_defect_check(cubic_plus_linear, phi, m, pairs, norm=norm),
                       reference)


@pytest.mark.parametrize("grid", [[3e102, 0.0, 1.0, 2.0], [0.0, 1.0, 3e102, -2.0, 5e102],
                                  [0.0, 3e102, -2e102, 4e102]])
@pytest.mark.parametrize("phi", [ConstantBound(value=math.inf), ShiftNorm(c=math.inf, m=2.0),
                                 ShiftNorm(c=1e200, m=2.0)])
def test_non_finite_sides_follow_the_running_maximum(grid, phi):
    # f overflows on the large points and phi is huge or infinite: inf/inf
    # and NaN ratios, which a running maximum skips unless the first pair
    # has one.
    def cube(u):
        return u * u * u

    pts = [float(x) for x in grid]
    pairs = [(x, y) for x in pts for y in pts]
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_report(
            hypothesis_defect_check(cube, phi, 2.0, _Pairs.grid(np.array(grid))),
            reference_defect(cube, ref_phi(phi, ref_euclidean), 2.0, pairs, ref_euclidean))
        assert_same_report(phi_contractivity_check(phi, 2.0, 0.25, _Pairs.grid(np.array(grid))),
                           reference_contractivity(ref_phi(phi, ref_euclidean), 2.0, 0.25,
                                                   pairs))


def test_both_outcomes_are_exercised():
    # Both verdicts occur for both checks on the grids drawn above.
    grid = _grid(np.random.default_rng(0), 6, False, True)
    pairs = _Pairs.grid(grid)
    assert phi_contractivity_check(ShiftNorm(c=12.0, m=2.0), 2.0, 0.25, pairs).passed
    assert not phi_contractivity_check(ShiftNorm(c=12.0, m=2.0), 2.0, 0.125, pairs).passed
    assert hypothesis_defect_check(cubic_plus_linear, ShiftNorm(c=12.0, m=2.0), 2.0,
                                   pairs).passed
    assert not hypothesis_defect_check(cubic_plus_linear, ShiftNorm(c=3.0, m=2.0), 2.0,
                                       pairs).passed


def test_grid_pairs_with_f_values_skip_the_grid_calls():
    grid = _grid(np.random.default_rng(1), 5, False, True)
    calls = []

    def f(u):
        calls.append(u)
        return cubic_plus_linear(u)

    values = np.array([cubic_plus_linear(x) for x in grid])
    report = hypothesis_defect_check(f, ShiftNorm(c=12.0, m=2.0), 2.0,
                                     _Pairs.grid(grid, values=values))
    assert report.passed and report.n_samples == len(grid) ** 2
    # Four evaluation points per pair; f(y) and f(0) come from the values.
    assert len(calls) == 4 * len(grid) ** 2
    assert all(isinstance(u, float) for u in calls)


def test_power_law_pairs_exclude_zero_arguments():
    grid = _grid(np.random.default_rng(2), 4, True, False)
    assert len(_Pairs.grid(grid)) == 25
    assert len(_Pairs.grid(grid, exclude_zero=True)) == 16


def test_pair_list_stops_calling_f_after_the_failing_block():
    # A violation on the first pair: f is not called on the y of a pair
    # two blocks later, where it would raise.
    far = 1e6

    def f(u):
        if u == far:
            raise AssertionError("f called past the failing block")
        return cubic_plus_linear(u)

    pairs = [(1.0, 1.0)] * 200
    pairs[150] = (1.0, far)
    report = hypothesis_defect_check(f, ConstantBound(value=0.0), 2.0, pairs)
    assert not report.passed and report.witness == (1.0, 1.0)


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
    # phi(x, y), phi(x, 0) and the norms are one-point calls of the block
    # forms; they must keep the bits of the per-point formulas.
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


# ---------------------------------------------------------------------------
# the grid index against a linear scan
# ---------------------------------------------------------------------------


def reference_try_index(grid, point):
    rows = grid if grid.ndim == 2 else grid[:, None]
    p = np.atleast_1d(np.asarray(point, dtype=float))
    if p.shape != rows.shape[1:]:
        return None
    tol = 1e-12 + 1e-9 * np.abs(p)
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
    rows = grid if grid.ndim == 2 else grid[:, None]
    for i in range(len(rows)):
        tol = 1e-12 + 1e-9 * np.abs(rows[i])
        dup = np.all(np.abs(rows[i + 1:] - rows[i]) <= tol, axis=1)
        if dup.any():
            return i, i + 1 + int(np.argmax(dup))
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
