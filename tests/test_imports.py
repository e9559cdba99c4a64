"""No module of the library imports a name it never uses.

No linter runs on the tree, so this test stands in for one check of it
(pyflakes' F401): a module-level import in ``src/gennet/*.py`` whose name
the module never references is dead code left behind by an edit.  An
import kept on purpose carries ``# noqa: F401`` with a reason on its line.
The package's ``__init__.py`` imports to re-export and is not checked.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gennet"
_NOQA = re.compile(r"#\s*noqa:\s*F401\b\s*\S")  # the marker, then a reason


def unused_imports(source: str) -> list:
    """(line, name) of every module-level import in ``source`` that the
    module never references and whose line has no ``# noqa: F401`` with a
    reason.  A name in a docstring or a quoted annotation is no reference."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in used and not _NOQA.search(lines[line - 1])]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


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
