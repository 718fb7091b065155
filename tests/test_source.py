"""Static checks of the package source, written with ``ast``."""

import ast
from pathlib import Path

import pytest

import maphom

# __init__.py imports names to re-export them
MODULES = sorted(p for p in Path(maphom.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
