"""No module of the library or its tests imports a name it never uses, and no
library module renames one.

No linter runs on the tree, so this test stands in for one check of it
(pyflakes' F401): a module-level import in ``src/gennet/*.py`` or
``tests/*.py`` whose name the module never references is dead code left
behind by an edit.  An import kept on purpose carries ``# noqa: F401``
with a reason on its line.
An import kept only for ``perfbench/spans.py`` to wrap (its reason names
that file) must match a (module, attribute) row of the span table, so a
marker outlives no row.  A private name imported under a public alias
(``from .x import _private as public``) hides which function runs, and is
refused.  The package's ``__init__.py`` imports to re-export and is not
checked.

Nor does the package export what only unit tests reach (vulture's check):
every name in ``gennet.__all__`` that is no module, and every public method
of an exported class, is referenced in a library module other than
``__init__.py``, outside its own definition, or in the acceptance tests,
their oracles or the benchmark.

And the library writes JSON in one place: no module calls ``json.dump``
or ``json.dumps``.  It checks grids in one place: no module but ``gennum``
calls ``same_as``, and it forms check scales there too: no other module
raises eps to a policy exponent or forms ``1.0 + _norms(``.  Nor does it
build object arrays: no module holds ``dtype=object``.
"""

import ast
import inspect
import re
import types
from pathlib import Path

import pytest

import gennet

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gennet"
SPANS = ROOT / "perfbench" / "spans.py"
_NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*\S")  # the marker, then a reason
_SPAN_NOQA = re.compile(r"#\s*noqa:\s*F401\b.*\bspans\.py\b")
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
# beyond the library, what keeps an export: the acceptance criteria, the
# oracles they check against, and the benchmark
REACHING = [ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "_oracles.py",
            *sorted((ROOT / "perfbench").glob("*.py"))]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imports(source: str):
    """(line, alias) of every module-level import in ``source``, __future__ aside."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.lineno, alias


def unused_imports(source: str) -> list:
    """(line, name) of every module-level import in ``source`` that the
    module never references and whose line has no ``# noqa: F401`` with a
    reason.  A name in a docstring or a quoted annotation is no reference."""
    lines = source.splitlines()
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    imported = [(line, alias.asname or alias.name.split(".")[0])
                for line, alias in _imports(source)]
    return [(line, name) for line, name in imported
            if name not in used and not _NOQA.search(lines[line - 1])]


def span_only_imports(source: str) -> list:
    """(line, name) of every module-level import whose ``# noqa: F401``
    reason names ``spans.py``."""
    lines = source.splitlines()
    return [(line, alias.asname or alias.name) for line, alias in _imports(source)
            if _SPAN_NOQA.search(lines[line - 1])]


def private_aliases(source: str) -> list:
    """(line, "private as public") of every module-level import that gives a
    private name a public alias."""
    return [(line, f"{alias.name} as {alias.asname}") for line, alias in _imports(source)
            if alias.asname and alias.name.startswith("_") and not alias.asname.startswith("_")]


def _wraps() -> set:
    """The (module, attribute) rows of the span table, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["WRAPS"]:
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no WRAPS table")


def references(source: str, strings: bool = False) -> set:
    """The names ``source`` references outside their own definitions.

    A reference is an ``ast.Name`` id that is read or an ``ast.Attribute``
    attr, and with
    ``strings`` also each dotted part of a string constant that is no
    docstring (the span table names its targets so).  One inside the def or
    class of the same name belongs to that definition and is left out.
    Comments are not in the AST, and imports are no references."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, *_DEFS)) and node.body
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = set()

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names = node.value.split(".")
        else:
            names = []
        found.update(name for name in names if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def unreached_exports() -> list:
    """The names of ``gennet.__all__``, modules aside, and the ``Class.method``
    of each public method, classmethod or staticmethod an exported class
    defines itself, dunders aside, that no library module but ``__init__.py``
    and no file of REACHING references.

    The check is by name, as ``references`` gives names: a method is reached
    where any attribute of its name is read, so a name that several classes
    define, such as ``solve`` or ``matvec``, counts as reached for all of them
    once one is called."""
    reached = set().union(*(references(p.read_text()) for p in MODULES),
                          *(references(p.read_text(), strings=True) for p in REACHING))
    exports = [(name, getattr(gennet, name)) for name in gennet.__all__]
    named = [(name, name) for name, obj in exports if not inspect.ismodule(obj)]
    named += [(f"{name}.{attr}", attr) for name, obj in exports if inspect.isclass(obj)
              for attr, member in vars(obj).items()
              if not attr.startswith("_")
              and isinstance(member, (types.FunctionType, classmethod, staticmethod))]
    return sorted(label for label, name in named if name not in reached)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_span_only_imports_are_rows_of_the_span_table(path):
    module = f"gennet.{path.stem}"
    rows = _wraps()
    assert [(line, name) for line, name in span_only_imports(path.read_text())
            if (module, name) not in rows] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_under_a_public_alias(path):
    assert private_aliases(path.read_text()) == []


def test_the_guard_sees_dead_and_kept_imports():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "from .errors import (",
        "    DimMismatch,",
        "    NoConvergence,",
        "    GridMismatch,  # noqa: F401 -- wrapped by name elsewhere",
        ")",
        "from .gennum import EpsGrid, IndexSet  # noqa: F401",
        "def f(x: EpsGrid) -> DimMismatch:",
        "    return os.path.join(x)",
    ])
    # a bare noqa gives no reason and keeps nothing
    assert unused_imports(source) == [(5, "NoConvergence"), (8, "IndexSet")]


def test_the_guards_see_span_markers_and_private_aliases():
    source = "\n".join([
        "from .gennum import (",
        "    ge_zero,  # noqa: F401 -- unused; perfbench/spans.py wraps it here by name",
        "    is_moderate,  # noqa: F401 -- kept for a doctest",
        "    _open_output,",
        ")",
        "from .variational import _lax_milgram as lax_milgram_solve",
        "from .variational import _certified_alpha as _alpha, _gate",
    ])
    assert span_only_imports(source) == [(2, "ge_zero")]
    assert private_aliases(source) == [(6, "_lax_milgram as lax_milgram_solve")]


def test_the_library_has_one_json_writer():
    # cli._write_json (orjson) writes every summary and report.json; the
    # stdlib json module only reads configs and summaries
    assert [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\bjson\.dumps?\b", line)] == []


def test_the_library_takes_sample_norms_in_one_place():
    # gennum._norms, whose kernel _row_norms is the one plain Euclidean norm:
    # where squares overflow, a plain norm is +inf for finite samples
    assert [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py")) if path.name != "gennum.py"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"linalg\.norm\(|\b_row_norms\b", line)] == []


def check_scale_sites(source: str) -> list:
    """The lines of ``source`` that raise eps to a policy exponent or form a
    1 + |x| check scale from ``_norms``."""
    return [i for i, line in enumerate(source.splitlines(), 1)
            if re.search(r"\*\*\s*-?policy\.|1\.0 \+ _norms\(", line)]


def test_the_library_forms_check_scales_in_one_place():
    # gennum._negligible (eps_k**q_neg), _moderate (eps_k**-N_mod) and
    # _check_scale (1 + |x_k|, NaN on overflow): a copy that differs from
    # its rule on NaN or overflow lets a wrong verdict pass
    assert [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py")) if path.name != "gennum.py"
            for i in check_scale_sites(path.read_text())] == []


def test_the_check_scale_guard_sees_every_form():
    source = "\n".join([
        "neg = mags <= eps ** policy.q_neg",
        "mod = mags <= eps ** -policy.N_mod",
        "scale = 1.0 + _norms(x)",
        "ok = mags <= eps ** q_neg  # a local exponent is no policy's",
        "inv = _invertible(mags, eps, policy.m_inv)",
    ])
    assert check_scale_sites(source) == [1, 2, 3]


def test_the_library_checks_grids_in_one_place():
    # gennum._same_grid, the one grid check: every other module calls it
    # rather than compare two grids itself
    assert [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py")) if path.name != "gennum.py"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\bsame_as\(", line)] == []


def test_the_library_builds_no_object_arrays():
    # tables are printed from int and float arrays (gennum.format_cells)
    assert [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\bdtype\s*=\s*object\b", line)] == []


def test_every_export_is_reached_beyond_unit_tests():
    assert unreached_exports() == []


def test_the_reach_guard_counts_code_only():
    source = "\n".join([
        '"""Mentions lincomb."""',
        "from .hilbert import upn  # an import is no reference",
        "def normalize(u):",
        '    """Calls eq."""',
        "    return normalize(u.zero)  # calls midpoint_closure_check",
        "class Basis:",
        "    def validate(self):",
        "        return Basis, extend_functional",
        'WRAPS = [("gennet.fem", "mollifier_eval")]',
    ])
    # Basis is read inside its own class only, WRAPS only assigned
    assert references(source) == {"u", "zero", "extend_functional"}
    assert references(source, strings=True) - references(source) == {
        "gennet", "fem", "mollifier_eval"}
