"""No module of the library imports a name it never uses, or renames one.

No linter runs on the tree, so this test stands in for one check of it
(pyflakes' F401): a module-level import in ``src/gennet/*.py`` whose name
the module never references is dead code left behind by an edit.  An
import kept on purpose carries ``# noqa: F401`` with a reason on its line.
An import kept only for ``perfbench/spans.py`` to wrap (its reason names
that file) must match a (module, attribute) row of the span table, so a
marker outlives no row.  A private name imported under a public alias
(``from .x import _private as public``) hides which function runs, and is
refused.  The package's ``__init__.py`` imports to re-export and is not
checked.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gennet"
SPANS = SRC.parent.parent / "perfbench" / "spans.py"
_NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*\S")  # the marker, then a reason
_SPAN_NOQA = re.compile(r"#\s*noqa:\s*F401\b.*\bspans\.py\b")
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
