"""Static checks of the package source, written with ``ast``."""

import ast
from pathlib import Path

import pytest

import maphom

PACKAGE = sorted(Path(maphom.__file__).parent.glob("*.py"))
# __init__.py imports names to re-export them
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport scipy.sparse\n"
              "from .finescale import DomainMesh, write_convergence_csv\n"
              "def f(mesh: DomainMesh):\n    return np.zeros(1), scipy.sparse\n")
    assert unused_imports(source) == ["os", "write_convergence_csv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_nothing_they_do_not_use(path):
    assert unused_imports(path.read_text()) == []


def stale_exports(source: str) -> list[str]:
    """The names in a module's ``__all__`` that no module-level def,
    class, assignment or import binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


def test_the_scan_finds_stale_exports():
    source = ("import os\nfrom .numerics import SparseSystem as System\n"
              "LIMIT = 3\nlimit: int = 4\n"
              "def f():\n    inner = 1\n"
              "class C:\n    attr = 2\n"
              "__all__ = ['C', 'LIMIT', 'System', 'Removed', 'attr', 'f',\n"
              "           'inner', 'limit', 'os']\n")
    assert stale_exports(source) == ["Removed", "attr", "inner"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    assert stale_exports(path.read_text()) == []
