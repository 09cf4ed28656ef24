"""Structural rules of the library source, read from its syntax trees.

Each module of ``src/ulamstab`` uses every name it imports: an import
that nothing reads is a second path to a name or a leftover of deleted
code.  A name counts as used when the module reads it or lists it in its
``__all__``.  Every private name a module binds at its top level is read
by some module of the library: a private definition nothing reads is
dead code.  The tile budget has one owner: ``core_spaces`` alone binds
``_TILE_ELEMENTS``, and every tiled kernel sizes its tiles through
``core_spaces._rows_per_tile``, which reads the constant when it is
called, so patching that one module reaches every kernel.  The pairs
the hypothesis checks walk have one owner: ``cubic_stability._Pairs``
alone reads a control function's ``excludes_zero``, so both checks see
the same pairs for every family.  No module
reads the process environment: every input of a run is an argument, so
one config gives one report in any shell.  Every name a module exports is
reached: some module of the library or of ``perfbench/`` reads it, or
``perfbench/`` names it in a string, as its tracer does when it patches a
function by name.  An export that only tests call is code the pipeline
does not need.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ulamstab

SOURCES = sorted(Path(ulamstab.__file__).parent.glob("*.py"))
BENCH_SOURCES = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

# Exports that nothing reaches yet, each with the work that will.  ROADMAP
# item 1 owns sup_weighted_distance: its phi-weighted sup is the metric on
# which the approximant becomes a run of the fixed-point engine.
_AWAITED_EXPORTS = {"sup_weighted_distance"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """The names the module's imports bind, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The strings of the module's ``__all__`` list, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _unused(tree):
    """The imported names the module neither reads nor exports."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]


def _private_definitions(tree):
    """The private names the module binds at its top level, with their
    line numbers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _read_names(trees):
    """The names the modules read, as names or as attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def _dead(tree, trees):
    """The private top-level names of ``tree`` that none of ``trees`` reads."""
    read = _read_names(trees)
    return [f"{name} (line {line})" for name, line in _private_definitions(tree)
            if name not in read]


def _unreached(tree, trees, bench_trees):
    """The exported names of ``tree`` that none of ``trees`` and
    ``bench_trees`` reads, and that no string of ``bench_trees`` holds."""
    strings = {n.value for t in bench_trees for n in ast.walk(t)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    reached = _read_names(trees + bench_trees) | strings | _AWAITED_EXPORTS
    return sorted(_exported(tree) - reached)


def _binds_tile_budget(tree):
    """Whether the module imports ``_TILE_ELEMENTS``, under any name, or
    assigns it."""
    return any(
        (isinstance(n, ast.ImportFrom) and any(a.name == "_TILE_ELEMENTS" for a in n.names))
        or (isinstance(n, ast.Name) and n.id == "_TILE_ELEMENTS" and isinstance(n.ctx, ast.Store))
        for n in ast.walk(tree))


def _reads_zero_exclusion(tree):
    """The sorted lines where the module reads ``excludes_zero`` outside a
    class ``_Pairs``: as an attribute, or as a string, as ``getattr`` takes it."""
    owner = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == "_Pairs"
             for n in ast.walk(c)}
    return sorted(
        n.lineno for n in ast.walk(tree) if id(n) not in owner and (
            isinstance(n, ast.Attribute) and n.attr == "excludes_zero"
            or isinstance(n, ast.Constant) and n.value == "excludes_zero"))


# The names of ``os`` that read the process environment.
_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(tree):
    """The sorted lines where the module reads the process environment: one
    of those names imported from ``os``, or read as an attribute of ``os``
    under any name it is imported as."""
    os_names = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names if a.name == "os"}
    return sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "os"
        and any(a.name in _ENVIRONMENT for a in n.names)
        or isinstance(n, ast.Attribute) and n.attr in _ENVIRONMENT
        and isinstance(n.value, ast.Name) and n.value.id in os_names)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = _unused(_tree(path))
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_definition_is_read(path):
    dead = _dead(_tree(path), [_tree(p) for p in SOURCES])
    assert not dead, f"{path.name} defines private names no module reads: {', '.join(dead)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_export_is_reached(path):
    unreached = _unreached(_tree(path), [_tree(p) for p in SOURCES],
                           [_tree(p) for p in BENCH_SOURCES])
    assert not unreached, (f"{path.name} exports names that no module of the library or "
                           f"of perfbench reaches: {', '.join(unreached)}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_core_spaces_binds_the_tile_budget(path):
    assert _binds_tile_budget(_tree(path)) == (path.name == "core_spaces.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_pair_set_reads_the_zero_exclusion(path):
    lines = _reads_zero_exclusion(_tree(path))
    assert not lines, f"{path.name} reads excludes_zero outside _Pairs on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_process_environment(path):
    lines = _reads_environment(_tree(path))
    assert not lines, f"{path.name} reads the process environment on lines {lines}"


def test_the_rules_catch_what_they_name():
    # cli's unused import of p_exponent, and a kernel importing the tile
    # constant by value, as the library had them.
    tree = ast.parse("from .metrization import chain_metric, p_exponent\n"
                     "chain_metric()\n")
    assert _unused(tree) == ["p_exponent (line 1)"]
    assert _binds_tile_budget(ast.parse("from .core_spaces import _TILE_ELEMENTS as T\nT\n"))
    assert _binds_tile_budget(ast.parse("_TILE_ELEMENTS = 1\n"))
    assert not _binds_tile_budget(ast.parse("from .core_spaces import _rows_per_tile\n"))
    # verify_stability choosing a second pair set, as it did; the owner's
    # read and the control functions' own definitions stay.
    tree = ast.parse("exclude_zero = getattr(phi, 'excludes_zero', False)\n"
                     "if phi.excludes_zero:\n    pass\n"
                     "class _Pairs:\n"
                     "    def __init__(self, phi):\n"
                     "        self.drop = getattr(phi, 'excludes_zero', False)\n"
                     "class PowerLaw:\n    excludes_zero = True\n")
    assert _reads_zero_exclusion(tree) == [1, 2]
    # A combine left behind after its callers moved to the equation's
    # definition; the definition that is read stays.
    tree = ast.parse("def _el_combine(m, a):\n    return 2 * m * a\n"
                     "_JUN_KIM = 1\n"
                     "def junkim_defect():\n    return _JUN_KIM\n")
    assert _dead(tree, [tree]) == ["_el_combine (line 1)"]
    # A rescaling operator exported for a loop that never came, next to
    # a function the benchmark patches by name and one the library calls.
    tree = ast.parse("__all__ = ['cubic_rescale', 'el_defect', 'm_closed_grid']\n"
                     "def cubic_rescale(g, m):\n    return g\n")
    bench = ast.parse("fn(cs, 'el_defect', 'cubic_stability.el_defect')\n")
    caller = ast.parse("grid = cs.m_closed_grid([1.0], 2.0)\n")
    assert _unreached(tree, [tree, caller], [bench]) == ["cubic_rescale"]
    # cli's default tolerance as it read the environment, and the other
    # ways to reach it; a path join reads nothing.
    tree = ast.parse("import os\n"
                     "def _default_tol() -> float:\n"
                     "    raw = os.environ.get(TOL_ENV_VAR)\n"
                     "    if raw is None:\n"
                     "        return DEFAULT_TOL\n"
                     "    try:\n"
                     "        tol = float(raw)\n"
                     "    except ValueError as exc:\n"
                     "        raise InputError(f'{TOL_ENV_VAR}={raw!r} is not a number') from exc\n"
                     "    return _check_tol(tol, positive=True, name=TOL_ENV_VAR)\n")
    assert _reads_environment(tree) == [3]
    assert _reads_environment(ast.parse("from os import environ\n")) == [1]
    assert _reads_environment(ast.parse("import os as o\no.getenv('X')\n")) == [2]
    assert _reads_environment(ast.parse("import os\nos.path.join('a', 'b')\n")) == []
