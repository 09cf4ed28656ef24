"""Each parameter rule has one owner, and every entry point goes through it.

* a number is read as ``float`` reads it, an int too large for a float
  being not finite: ``core_spaces._real``, under every rule below;
* a tolerance is finite and >= 0 (> 0 where a run needs one):
  ``core_spaces._check_tol``;
* a control-function parameter is finite, c, lam and value are >= 0 and
  s < 3: ``cubic_stability._check_parameters``;
* L and p of a configuration obey ``fixed_point.bound_factors``, and the
  L of ``phi_contractivity_check`` its rule on L, ``core_spaces._check_L``;
* a grid is a block of numbers, or of vectors with at least one
  coordinate, all finite: ``core_spaces._grid``;
* grid points match through ``core_spaces._RowIndex``, and a grid whose
  levels overflow is an input error;
* a count (``n_max``, ``levels``, ``max_iter``, ``quadrature_n``, ``dim``, ``seed``)
  is an integer, numpy integers too, at or above its least value:
  ``core_spaces._check_count``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulamstab import (
    ConstantBound,
    ContractionMap,
    InputError,
    LHalfSpace,
    PowerLaw,
    QuasiNormedSpace,
    SampledMap,
    ShiftNorm,
    StabilityConfig,
    as_extended,
    bound_factors,
    cubic_approximant,
    euclidean_norm,
    example_corpus,
    hypothesis_defect_check,
    iterate,
    m_closed_grid,
    phi_contractivity_check,
    real_line,
    verify_stability,
)
from ulamstab.cli import run_example_lhalf

BAD_TOLS = [math.nan, math.inf, -math.inf, -1.0]


def cubic_plus_linear(u):
    return u**3 + u


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

TOL_ENTRY_POINTS = {
    # f(0) = 1 fails the check at any finite tol.
    "hypothesis_defect_check": lambda tol: hypothesis_defect_check(
        lambda u: u**3 + 1.0, ShiftNorm(c=12.0, m=2.0), 2.0, [1.0], tol=tol),
    "cubic_approximant": lambda tol: cubic_approximant(
        cubic_plus_linear, 2.0, np.array([0.0, 1.0, 2.0]), tol=tol),
    "StabilityConfig": lambda tol: StabilityConfig(m=2.0, L=0.25, tol=tol),
    "iterate": lambda tol: iterate(ContractionMap(apply=lambda x: x / 2.0, L=0.5), 1.0,
                                   lambda a, b: abs(a - b), p=1.0, tol=tol, max_iter=10),
    "run_example_lhalf": lambda tol: run_example_lhalf(quadrature_n=16, tol=tol),
}


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_every_tol_taking_entry_point_rejects_a_malformed_tol(entry, tol):
    with pytest.raises(InputError, match=r"^tol must be finite and (positive|nonnegative), got "):
        TOL_ENTRY_POINTS[entry](tol)


def test_zero_tol_is_accepted_where_a_check_allows_it():
    with pytest.raises(InputError, match=r"^tol must be finite and positive, got 0\.0$"):
        StabilityConfig(m=2.0, L=0.25, tol=0.0)


# ---------------------------------------------------------------------------
# the conversion to float through _real
# ---------------------------------------------------------------------------

def halving(L):
    return ContractionMap(apply=lambda x: x / 2.0, L=L)


# Each entry point that converts a number to float, by the name of the
# number; each raised a bare OverflowError on an int too large for a float.
REAL_ENTRY_POINTS = {
    "ShiftNorm.c": lambda v: ShiftNorm(c=v, m=2.0),
    "PowerLaw.lam": lambda v: PowerLaw(lam=v, s=1.0),
    "ConstantBound.value": lambda v: ConstantBound(value=v),
    "StabilityConfig.L": lambda v: StabilityConfig(m=2.0, L=v),
    "StabilityConfig.tol": lambda v: StabilityConfig(m=2.0, L=0.25, tol=v),
    "StabilityConfig.p": lambda v: StabilityConfig(m=2.0, L=0.25, p=v),
    "bound_factors.p": lambda v: bound_factors(0.5, v),
    "ContractionMap.L": halving,
    "iterate.tol": lambda v: iterate(halving(0.5), 1.0, lambda a, b: abs(a - b), p=1.0,
                                     tol=v, max_iter=10),
    "iterate.distance": lambda v: iterate(halving(0.5), 1.0, lambda a, b: v, p=1.0,
                                          tol=1e-9, max_iter=10),
    "as_extended": as_extended,
}


@pytest.mark.parametrize("entry", sorted(REAL_ENTRY_POINTS))
def test_every_entry_point_reads_an_int_too_large_for_a_float_as_not_finite(entry):
    with pytest.raises(InputError, match=r"must be finite, got an int too large for a float$"):
        REAL_ENTRY_POINTS[entry](10**400)


def test_a_checked_number_is_kept_as_its_float():
    # A numeric string reads as a number, as kappa = "2" does.
    phi = ShiftNorm(c="12", m=np.int64(2))
    assert (phi.c, phi.m) == (12.0, 2.0) and type(phi.c) is type(phi.m) is float
    config = StabilityConfig(m=2, L=0, p=1, tol=1)
    assert [type(v) for v in (config.m, config.L, config.p, config.tol)] == [float] * 4
    assert type(halving(0).L) is float


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

# Each entry point that takes a count, by the name of the count, with its
# least value.
COUNT_ENTRY_POINTS = {
    "n_max": (lambda n: cubic_approximant(cubic_plus_linear, 2.0, np.array([0.0, 1.0]), n_max=n),
              1),
    "levels": (lambda n: m_closed_grid([1.0], 2.0, levels=n), 0),
    "max_iter": (lambda n: iterate(ContractionMap(apply=lambda x: x / 2.0, L=0.5), 1.0,
                                   lambda a, b: abs(a - b), p=1.0, tol=1e-9, max_iter=n), 1),
    "quadrature_n": (lambda n: LHalfSpace(n), 1),
    "seed": (lambda n: example_corpus(4, seed=n), 0),
    "dim": (lambda n: QuasiNormedSpace(dim=n, norm_eval=euclidean_norm, kappa=1.0), 1),
}

# "below" stands for the least value minus 1.  The fractional and
# non-finite counts raised a TypeError or were accepted silently before.
BAD_COUNTS = ["below", 2.5, math.nan, math.inf, 1.0, True, "3"]


@pytest.mark.parametrize("bad", BAD_COUNTS)
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_every_count_taking_entry_point_rejects_a_malformed_count(entry, bad):
    build, low = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(InputError, match=rf"^{entry} must be an integer >= {low}, got "):
        build(low - 1 if bad == "below" else bad)


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_a_count_at_its_least_value_is_accepted_as_any_integer(entry):
    build, low = COUNT_ENTRY_POINTS[entry]
    build(low)
    build(np.int64(low))


# ---------------------------------------------------------------------------
# control-function parameters
# ---------------------------------------------------------------------------

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("build", [
    lambda v: PowerLaw(lam=v, s=1.0),
    lambda v: PowerLaw(lam=1.0, s=v),
    lambda v: ShiftNorm(c=v, m=2.0),
    lambda v: ShiftNorm(c=12.0, m=v),
    lambda v: ConstantBound(value=v),
], ids=["lam", "s", "c", "m", "value"])
def test_control_parameters_must_be_finite(build, bad):
    with pytest.raises(InputError, match=r"must be finite and in \["):
        build(bad)


@pytest.mark.parametrize("build, message", [
    (lambda: PowerLaw(lam=-1.0, s=1.0), r"^PowerLaw\.lam must be finite and in \[0\.0, inf\), "
                                        r"got -1\.0$"),
    (lambda: PowerLaw(lam=1.0, s=3.0), r"^PowerLaw\.s must be finite and in \[-inf, 3\.0\), "
                                       r"got 3\.0$"),
    (lambda: ShiftNorm(c=-1.0, m=2.0), r"^ShiftNorm\.c must be finite"),
    (lambda: ConstantBound(value=-1.0), r"^ConstantBound\.value must be finite"),
])
def test_control_parameters_out_of_range_are_named(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_control_parameters_at_their_edges_are_accepted():
    PowerLaw(lam=0.0, s=-5.0)
    PowerLaw(lam=1.0, s=2.999)
    ShiftNorm(c=0.0, m=-2.0)
    ConstantBound(value=0.0)


@pytest.mark.parametrize("m", [math.inf, -math.inf])
def test_infinite_m_is_rejected_before_any_work(m):
    with pytest.raises(InputError, match=r"^m must be finite, got -?inf$"):
        StabilityConfig(m=m, L=0.0)
    with pytest.raises(InputError, match=r"^m must be finite"):
        m_closed_grid([0.0, 1.0], m)


# ---------------------------------------------------------------------------
# L and p through bound_factors, L through _check_L
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("L, p, message", [
    (0.9999999999999999, 0.5, r"^L\*\*p must stay below 1, got 1\.0$"),
    (1.0, 1.0, r"^L must lie in \[0, 1\)"),
    (math.nan, 1.0, r"^L must lie in \[0, 1\)"),
    (0.25, 0.0, r"^p must lie in \(0, 1\]"),
])
def test_stability_config_checks_L_and_p_through_bound_factors(L, p, message):
    with pytest.raises(InputError, match=message):
        StabilityConfig(m=2.0, L=L, p=p)


BAD_LS = [math.inf, math.nan, -0.1, 1.0]


@pytest.mark.parametrize("L", BAD_LS)
def test_phi_contractivity_check_takes_L_from_its_one_owner(L):
    # An L of +inf or 1 passed every pair before.
    with pytest.raises(InputError, match=r"^L must lie in \[0, 1\), got "):
        phi_contractivity_check(ShiftNorm(c=12.0, m=2.0), 2.0, L, [1.0, 2.0])


# Every other entry point that takes an L, with the name its message gives L.
L_ENTRY_POINTS = {
    "ContractionMap": (lambda L: ContractionMap(apply=lambda x: x / 2.0, L=L),
                       "contraction constant"),
    "bound_factors": (lambda L: bound_factors(L, 1.0), "L"),
    "StabilityConfig": (lambda L: StabilityConfig(m=2.0, L=L), "L"),
}


@pytest.mark.parametrize("L", BAD_LS)
@pytest.mark.parametrize("entry", sorted(L_ENTRY_POINTS))
def test_every_L_taking_entry_point_rejects_a_malformed_L(entry, L):
    build, name = L_ENTRY_POINTS[entry]
    with pytest.raises(InputError, match=rf"^{name} must lie in \[0, 1\), got "):
        build(L)


# ---------------------------------------------------------------------------
# grid shape through _grid
# ---------------------------------------------------------------------------

# Each entry point that takes a grid, or the base of one.
GRID_ENTRY_POINTS = {
    "verify_stability": lambda g: verify_stability(
        cubic_plus_linear, ShiftNorm(c=12.0, m=2.0), StabilityConfig(m=2.0, L=0.25), g),
    "SampledMap": lambda g: SampledMap(g, np.zeros(len(g)), real_line()),
    "m_closed_grid": lambda g: m_closed_grid(g, 2.0),
    "phi_contractivity_check": lambda g: phi_contractivity_check(
        ShiftNorm(c=12.0, m=2.0), 2.0, 0.25, g),
    "hypothesis_defect_check": lambda g: hypothesis_defect_check(
        cubic_plus_linear, ShiftNorm(c=12.0, m=2.0), 2.0, g),
    "cubic_approximant": lambda g: cubic_approximant(cubic_plus_linear, 2.0, g),
}

# A ragged grid raised numpy's ValueError from verify_stability, points
# without coordinates an IndexError from SampledMap, and a rank-3 grid
# passed m_closed_grid and the checks.
BAD_GRIDS = {
    "ragged": ([[0.0], [1.0, 2.0]],
               r"^grid points must be numbers, or vectors that share one shape$"),
    "rank-3": (np.zeros((2, 2, 2)),
               r"^grid points must be numbers or vectors, got a grid of shape \(2, 2, 2\)$"),
    "no-coordinates": (np.zeros((2, 0)), r"^grid points must have at least one coordinate$"),
    "non-finite": ([0.0, math.nan], r"^grid must be finite$"),
    "int-too-large": ([0.0, 10**400], r"^grid must be finite$"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
@pytest.mark.parametrize("entry", sorted(GRID_ENTRY_POINTS))
def test_every_grid_taking_entry_point_rejects_a_malformed_grid_with_one_message(entry, case):
    grid, message = BAD_GRIDS[case]
    with pytest.raises(InputError, match=message):
        GRID_ENTRY_POINTS[entry](grid)


# ---------------------------------------------------------------------------
# grid building
# ---------------------------------------------------------------------------

def reference_m_closed_grid(base, m, levels, symmetric):
    """The grid as a per-row loop builds it: each row is compared with every
    row kept before it, within 1e-12 + 1e-9 max(|row|, |kept row|) per
    coordinate."""
    items = [np.asarray(b, dtype=float) for b in base]
    rows = [np.zeros(items[0].shape)]
    for b in items:
        cur = b.copy()
        for _ in range(levels + 1):
            rows.append(cur)
            if symmetric:
                rows.append(-cur)
            cur = cur * m
    R = np.array(rows)
    flat = R.reshape(len(R), -1)
    keep = []
    for i, r in enumerate(flat):
        near = np.abs(r - flat[keep]) <= 1e-12 + 1e-9 * np.maximum(np.abs(r), np.abs(flat[keep]))
        if not near.all(axis=1).any():
            keep.append(i)
    return R[keep]


# Near-duplicates: 0.3 * 3 rounds just below 0.9; 1/3 and 0.1 scale onto
# the others; 1 + 1e-9 matches 1 just inside the relative term; 1 + k * 9e-10
# and k * 6e-13 form chains in which each point matches the one before, but
# not the one before that, at the relative term and at the absolute floor.
NEAR = [0.3, 0.9, 0.1, 1.0 / 3.0, 2.7, 1.0, 1.0 + 1e-9, 1.0 + 9e-10, 1.0 + 1.8e-9, 1.0 + 2.7e-9,
        6e-13, 1.2e-12, 1.8e-12, 2.4e-12, 0.0, -0.3, -0.9, 8.1]
coordinate = st.one_of(st.sampled_from(NEAR), st.floats(-20.0, 20.0, allow_nan=False))


@st.composite
def bases(draw):
    """One to six base points: numbers, or vectors of one or three coordinates."""
    dim = draw(st.sampled_from([0, 1, 3]))
    size = max(dim, 1)
    raw = draw(st.lists(st.lists(coordinate, min_size=size, max_size=size),
                        min_size=1, max_size=6))
    return [p[0] if dim == 0 else p for p in raw]


@given(bases(), st.sampled_from([2.0, 3.0, -2.0, -3.0, 1.5]), st.integers(0, 3), st.booleans())
@settings(max_examples=300, deadline=None)
def test_m_closed_grid_matches_the_per_row_loop(base, m, levels, symmetric):
    got = m_closed_grid(base, m, levels=levels, symmetric=symmetric)
    want = reference_m_closed_grid(base, m, levels, symmetric)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_m_closed_grid_drops_near_duplicates_and_merges_tiny_points_with_zero():
    assert m_closed_grid([0.3, 0.9], 3.0, levels=1, symmetric=False).tolist() == \
        [0.0, 0.3, 0.8999999999999999, 2.7]
    # Below the absolute floor a point is 0; chained points keep the first.
    assert m_closed_grid([5e-13], 2.0, levels=0).tolist() == [0.0]
    assert m_closed_grid([6e-13], 2.0, levels=2, symmetric=False).tolist() == \
        [0.0, 1.2e-12, 2.4e-12]


def test_an_overflowing_grid_level_is_an_input_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"^grid level 1024 \(m\*\*1024 times the base\) "
                                             r"is not finite$"):
            m_closed_grid([1.0], 2.0, levels=1030)
        with pytest.raises(InputError, match=r"^grid level 2 "):
            m_closed_grid([[0.0, 1.0], [0.0, 1e200]], 1e100, levels=3)
        # The top level may reach the float maximum and stay finite.
        assert m_closed_grid([1.0], 2.0, levels=1023, symmetric=False)[-1] == 2.0**1023
