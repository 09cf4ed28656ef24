"""The names the benchmark's tracer patches still exist with their call shape.

``perfbench/tracer.py`` wraps library functions and methods from outside
the library.  A refactor that drops or renames one of them fails here
rather than in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import ulamstab
import ulamstab.cli  # noqa: F401  (the tracer patches cli names too)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
