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
does not need.  Every attribute an exception class of ``errors`` sets on
``self`` is read as an attribute by another module of the library or of
``perfbench/``: a payload no caller reads is built for nothing.  The
conversion of a number to float has one owner: ``core_spaces._real`` alone
wraps a call of the builtin ``float`` in a ``try`` that catches
``OverflowError``, so an int too large for a float is not finite with one
message everywhere.
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


def _payload(tree):
    """The attributes each class of the module sets on ``self``, as
    (class.attribute, attribute, line)."""
    for c in tree.body:
        if isinstance(c, ast.ClassDef):
            for n in ast.walk(c):
                if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"):
                    yield f"{c.name}.{n.attr}", n.attr, n.lineno


def _unread_payload(tree, trees):
    """The payload of ``tree``'s classes that none of ``trees`` reads as an attribute."""
    read = {n.attr for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, attr, line in _payload(tree) if attr not in read]


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


def _float_overflow_guards(tree):
    """(function, line) of each ``try`` that catches ``OverflowError`` around
    a call of the builtin ``float``; the function is the innermost one
    holding it, ``None`` at module level."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first: an inner one overwrites
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(n), fn.name) for n in ast.walk(fn))
    for n in ast.walk(tree):
        if not isinstance(n, ast.Try):
            continue
        caught = {t.id for h in n.handlers if h.type is not None
                  for t in ast.walk(h.type) if isinstance(t, ast.Name)}
        calls = any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                    and c.func.id == "float" for b in n.body for c in ast.walk(b))
        if "OverflowError" in caught and calls:
            yield owner.get(id(n)), n.lineno


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


def test_every_exception_payload_is_read():
    errors = Path(ulamstab.errors.__file__)
    unread = _unread_payload(_tree(errors), [_tree(p) for p in SOURCES + BENCH_SOURCES
                                             if p != errors])
    assert not unread, ("errors.py sets exception attributes that no module of the library "
                        f"or of perfbench reads: {', '.join(unread)}")


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_core_spaces_real_guards_the_float_conversion(path):
    guards = list(_float_overflow_guards(_tree(path)))
    want = ["_real"] if path.name == "core_spaces.py" else []
    assert [name for name, _ in guards] == want, (
        f"{path.name} converts to float past OverflowError outside core_spaces._real: {guards}")


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
    # The last safe stage an overflow carried, which no caller read, next
    # to a witness the CLI reads; a read in the defining module does not count.
    tree = ast.parse("class OverflowGuardError(Exception):\n"
                     "    def __init__(self, message, last_safe=None):\n"
                     "        self.last_safe = last_safe\n"
                     "        self.last_safe.meta\n"
                     "class HypothesisViolation(Exception):\n"
                     "    def __init__(self, witness):\n"
                     "        self.witness = witness\n")
    caller = ast.parse("report = {'witness': exc.witness}\n")
    assert _unread_payload(tree, [caller]) == ["OverflowGuardError.last_safe (line 3)"]
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
    # _check_m converting m on its own, as it did, beside the owner; a
    # guard around a power, and a float call guarded against ValueError,
    # are no conversion past OverflowError.
    tree = ast.parse("def _real(value, name):\n"
                     "    try:\n        return float(value)\n"
                     "    except OverflowError:\n        raise\n"
                     "def _check_m(m):\n"
                     "    try:\n        v = float(m)\n"
                     "    except (TypeError, OverflowError):\n        raise\n"
                     "def _euler_lagrange(m):\n"
                     "    try:\n        c4 = m**4\n"
                     "    except OverflowError:\n        raise\n"
                     "def _load(row):\n"
                     "    try:\n        float(row)\n"
                     "    except ValueError:\n        raise\n")
    assert list(_float_overflow_guards(tree)) == [("_real", 2), ("_check_m", 7)]
