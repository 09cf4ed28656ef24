"""The names the benchmark's tracer patches still exist with their call shape.

``perfbench/tracer.py`` wraps library functions and methods from outside
the library.  A refactor that drops or renames one of them fails here
rather than in a traced benchmark run.  Tracing must not change an answer
either.  The benchmark's own oracle also checks the chain metric on the
benchmark's matrices with their blocks interleaved, which the benchmark
itself (contiguous blocks) never sees.  Under the tracer a norm bound as a default argument
(``norm=euclidean_norm``) is no longer the module's ``euclidean_norm``, so
it takes the per-point path instead of the block form; the certificate
must stay the same.  Each workload, run in process at full size on a few
seeds, passes the benchmark's own oracles and repeats its answer bytes.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import ulamstab
import ulamstab.cli  # noqa: F401  (the tracer patches cli names too)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem):
    """A module of ``perfbench/`` by file name, outside the package path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_tracer_installs_and_restores():
    tracing = _load_tracer()
    originals = (ulamstab.cubic_stability.verify_stability,
                 ulamstab.core_spaces.SampledMap.__dict__["try_index"],
                 ulamstab.cubic_stability.ShiftNorm.__dict__["__call__"],
                 dict(ulamstab.cli._BUILTIN_F))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, ulamstab)
        assert ulamstab.cubic_stability.verify_stability is not originals[0]
    finally:
        tracer.restore()
    assert originals == (ulamstab.cubic_stability.verify_stability,
                         ulamstab.core_spaces.SampledMap.__dict__["try_index"],
                         ulamstab.cubic_stability.ShiftNorm.__dict__["__call__"],
                         dict(ulamstab.cli._BUILTIN_F))


def _verify(space):
    """verify_stability through the names the tracer patches, one
    certificate per control function."""
    cs, fs = ulamstab.cubic_stability, ulamstab.function_spaces
    f = ulamstab.cli._BUILTIN_F["cubic_plus_linear"]
    if space == "reals":
        phis = [cs.ShiftNorm(c=12.0, m=2.0), cs.PowerLaw(lam=24.0, s=1.3)]
        codomain = None
        grid = cs.m_closed_grid([0.5, 1.0, 3.0], 2.0, levels=2)
    else:
        lhalf = fs.LHalfSpace(32)
        phis = [cs.ShiftNorm(c=12.0, m=2.0, norm=lhalf.norm)]
        codomain = lhalf.space()
        grid = cs.m_closed_grid(fs.example_corpus(32)[:3], 2.0, levels=1)
    return [cs.verify_stability(f, phi, cs.StabilityConfig(
        m=2.0, L=phi.lipschitz(2.0), p=0.5 if codomain else 1.0, codomain=codomain),
        grid).to_dict() for phi in phis]


@pytest.mark.parametrize("space", ["reals", "lhalf"])
def test_tracing_leaves_the_certificate_unchanged(space):
    tracing = _load_tracer()
    plain = _verify(space)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, ulamstab)
        traced = tracer.call_root(lambda: _verify(space))
    finally:
        tracer.restore()
    assert all(cert["hypothesis_defect_ok"] for cert in plain)
    assert tracer.stats["cubic_stability.f_eval"][0] > 0
    assert traced == plain


@pytest.mark.parametrize("kind", ["connected", "two-block"])
def test_chain_metric_passes_the_bench_oracle_on_interleaved_blocks(kind, monkeypatch):
    oracles = _load("oracles")
    monkeypatch.setitem(sys.modules, "oracles", oracles)  # workloads imports it by name
    workloads = _load("workloads")
    n = 60
    rng = np.random.default_rng(7)
    if kind == "connected":
        D, blocks = workloads.kappa2_matrix(rng, n), np.zeros(n, dtype=int)
    else:
        D, blocks = workloads.two_block_matrix(rng, n)
    perm = rng.permutation(n)
    D, blocks = D[np.ix_(perm, perm)], blocks[perm]
    assert kind == "connected" or np.count_nonzero(np.diff(blocks)) > 2
    cm = ulamstab.chain_metric(ulamstab.GeneralizedBMetricSpace(D=D, kappa=2.0))
    sources = rng.choice(n, size=6, replace=False)
    assert oracles.check_chain_metric(cm.delta, D, blocks, cm.p, sources) is None


def test_traced_solution_pairs_match_the_certificate():
    # The tracer reads the pair count from the result of _solution_defects
    # and the candidate count from its fourth argument, the grid size.
    tracing = _load_tracer()
    cs = ulamstab.cubic_stability
    grid = cs.m_closed_grid([1.0, 3.0], 2.0, levels=3)
    phi = cs.ShiftNorm(c=12.0, m=2.0)
    config = cs.StabilityConfig(m=2.0, L=phi.lipschitz(2.0))
    f = ulamstab.cli._BUILTIN_F["cubic_plus_linear"]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, ulamstab)
        cert = tracer.call_root(lambda: cs.verify_stability(f, phi, config, grid))
    finally:
        tracer.restore()
    assert len(grid) == 17 and cert.defect_pairs_checked > 0
    assert tracer.counts["cubic_stability.solution_pairs.checked"] == cert.defect_pairs_checked
    assert tracer.counts["cubic_stability.solution_pairs.candidates"] == 17 ** 2


@pytest.mark.parametrize("seed", [1, 3, 5])
@pytest.mark.parametrize("workload", ["LHalf", "Reals", "Metrize", "CliMix"])
def test_bench_workloads_pass_their_own_oracles(workload, seed, monkeypatch, tmp_path):
    # The benchmark's workloads at full size, in process: no op's answer is
    # wrong by the benchmark's oracle, and a second run encodes the same
    # bytes.  The CLI workload writes its files under the working directory.
    monkeypatch.setitem(sys.modules, "oracles", _load("oracles"))  # workloads imports it
    monkeypatch.chdir(tmp_path)
    wl = getattr(_load("workloads"), workload)(ulamstab, seed, smoke=False)
    try:
        wl.setup()
        first = [op.fn() for op in wl.ops]
        second = [op.fn() for op in wl.ops]
        statuses = [wl.check(op, r) for op, r in zip(wl.ops, first)]
        assert [(op.label, why) for op, (status, why) in zip(wl.ops, statuses)
                if status == "wrong"] == []
        assert ([wl.encode(op, r) for op, r in zip(wl.ops, first)]
                == [wl.encode(op, r) for op, r in zip(wl.ops, second)])
    finally:
        wl.cleanup()
