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
              "from .finescale import SolutionField, l2_error\n"
              "def f(u: SolutionField):\n    return np.zeros(1), scipy.sparse\n")
    assert unused_imports(source) == ["l2_error", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_nothing_they_do_not_use(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """The underscore names a module takes from another module of the
    package: ``from .module import _name``, and ``module._name`` on a
    module imported with ``from . import module``. Dunders are public."""
    tree = ast.parse(source)
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "maphom"):
            found.update(a.name for a in node.names if _private(a.name))
            if node.module in (None, "maphom"):
                modules.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and getattr(node.value, "id", None) in modules):
            found.add(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_the_scan_finds_private_imports():
    source = ("from __future__ import annotations\n"
              "from . import numerics, structure as st\n"
              "from .structure import _is_integer, aud_ratio\n"
              "from maphom.cell import _scaling as scaling\n"
              "from numpy import _core\n"
              "def f(x, self):\n"
              "    return numerics._q1(x), st._as_points(x), self._loads, numerics.__name__\n")
    assert private_imports(source) == ["_is_integer", "_scaling", "numerics._q1",
                                       "st._as_points"]
    assert private_imports("def _own(np):\n    return np._core, _own\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_modules_take_no_private_names_from_each_other(path):
    assert private_imports(path.read_text()) == []


def assigned_names(node: ast.AST) -> set[str]:
    """The names an assignment statement binds; none for any other node."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def stale_exports(source: str) -> list[str]:
    """The names in a module's ``__all__`` that no module-level def,
    class, assignment or import binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif names := assigned_names(node):
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


QUADRATURE = {"quad_points", "q1_tables", "connectivity",
              "GAUSS_POINTS", "GAUSS_WEIGHTS", "leggauss"}


def quadrature_internals(source: str) -> list[str]:
    """The Q1 quadrature internals a module names: ``quad_points``,
    ``q1_tables``, ``connectivity``, the fixed Gauss rule and ``add.at``.
    Outside ``numerics`` every integral over a grid goes through the
    grid's own quadrature."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
            inner = node.value
            owner = inner.attr if isinstance(inner, ast.Attribute) else getattr(inner, "id", "")
            if node.attr == "at" and owner == "add":
                named.add("add.at")
    return sorted(named & (QUADRATURE | {"add.at"}))


def test_the_scan_finds_quadrature_internals():
    source = ("import numpy as np\nfrom numpy import add\n"
              "from .numerics import GAUSS_WEIGHTS, q1_tables as tables\n"
              "def f(grid, f, at):\n"
              "    pts = grid.quad_points()\n    np.add.at(f, grid.connectivity(), 1)\n"
              "    t, w = np.polynomial.legendre.leggauss(2)\n"
              "    add.at(f, 0, 1)\n    np.add(f, at)\n    return np.multiply.at\n")
    assert quadrature_internals(source) == ["GAUSS_WEIGHTS", "add.at", "connectivity",
                                            "leggauss", "q1_tables", "quad_points"]
    assert quadrature_internals("def f(np, at):\n    return np.add(at, 1)\n") == []


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "numerics.py"],
                         ids=lambda p: p.name)
def test_only_numerics_holds_quadrature_internals(path):
    assert quadrature_internals(path.read_text()) == []


def scatters(source: str) -> list[str]:
    """The scatters a module names: ``add.at`` and ``bincount``, as
    attributes or imported names. A grid sums loads and element matrices
    at its nodes by adding whole arrays shifted by their corner."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            inner = node.value
            owner = inner.attr if isinstance(inner, ast.Attribute) else getattr(inner, "id", "")
            if (owner, node.attr) == ("add", "at"):
                found.add("add.at")
        if "bincount" in (getattr(node, key, None) for key in ("attr", "id", "name")):
            found.add("bincount")
    return sorted(found)


def test_the_scan_finds_scatters():
    source = ("import numpy as np\nfrom numpy import add\n"
              "def f(x, i, w, at):\n"
              "    np.add.at(x, i, w)\n    add.at(x, i, 1)\n"
              "    return np.bincount(i, w), np.add(x, at), np.multiply.at\n")
    assert scatters(source) == ["add.at", "bincount"]
    assert scatters("from numpy import bincount as count\n") == ["bincount"]
    assert scatters("def f(np, x):\n    return np.add.at(x, 0, 1)\n") == ["add.at"]
    assert scatters("def f(np, at, x):\n    return np.add(at, x), x.count\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_scatters(path):
    assert scatters(path.read_text()) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated ``dataclass``, called or not, bare or
    as ``dataclasses.dataclass``."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def dead_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """The functions, classes, methods, properties and module-level
    assigned names that the ``package`` modules (file name to source)
    define and no source names elsewhere, and the dataclass fields they
    define that no source reads as an attribute.

    A name counts where it is read (loaded) as a name or an attribute,
    imported or spelled as an identifier string (the benchmark's tracer
    patches call sites by name); an assignment, a module's ``__all__`` and
    the re-exports of ``__init__.py`` do not. A field counts only where it
    is loaded as an attribute: being passed to the constructor by keyword
    or stored is no read. Dunders are exempt."""
    defined, named, fields, attributes = set(), set(), set(), set()
    for file, source in [*package.items(), *((None, s) for s in others)]:
        tree = ast.parse(source)
        exported = {id(n) for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", "") == "__all__" for t in node.targets)
                    for n in ast.walk(node.value)}
        if file is not None:
            defined.update(*map(assigned_names, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if file is not None:
                    defined.add(node.name)
                if file is not None and isinstance(node, ast.ClassDef) and _is_dataclass(node):
                    fields.update(n.target.id for n in node.body
                                  if isinstance(n, ast.AnnAssign)
                                  and isinstance(n.target, ast.Name))
            elif id(node) in exported or isinstance(getattr(node, "ctx", None),
                                                    (ast.Store, ast.Del)):
                continue
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias) and file != "__init__.py":
                named.update({node.name.split(".")[-1], node.asname})
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    dead = (defined - named) | (fields - attributes)
    return sorted(n for n in dead if not (n.startswith("__") and n.endswith("__")))


def test_the_scan_finds_dead_definitions():
    package = {
        "__init__.py": "from .core import Shape, helper\n__all__ = ['Shape', 'helper']\n",
        "core.py": ("__all__ = ['Shape', 'exported', 'helper']\n__version__ = '1'\n"
                    "LIMIT = 3\nWIDTH, DEPTH = 1, 2\nscale: float = 0.5\nTABLE = {}\n"
                    "def helper():\n    TABLE[0] = WIDTH\n    return _inner()\n"
                    "def _inner():\n    pass\n"
                    "def exported():\n    pass\n"
                    "def traced():\n    pass\n"
                    "class Shape:\n    SIDES = 4\n    def __init__(self):\n        self.n = 1\n"
                    "    @property\n    def area(self):\n        return 0\n"
                    "    def grow(self):\n        pass\n"),
    }
    others = ["from core import Shape, helper\nhelper()\nShape().grow()\n",
              "import core\nprint(core.LIMIT)\ncore.scale = 2.0\n",
              "TARGETS = [('core', 'traced')]\n"]
    assert dead_definitions(package, others) == ["DEPTH", "area", "exported", "scale"]


def test_the_scan_finds_dead_dataclass_fields():
    package = {"core.py": ("import dataclasses\nfrom dataclasses import dataclass\n"
                           "@dataclasses.dataclass(frozen=True)\n"
                           "class Field:\n    z: float\n    r: float\n    bound: float = 0.0\n"
                           "    certificates: tuple = ()\n    spelled: int = 0\n"
                           "@dataclass\nclass Pair:\n    left: int\n    stored: int\n"
                           "class Plain:\n    hint: int\n"
                           "def make(p):\n    p.stored = 1\n"
                           "    return Field(z=1.0, r=2.0, certificates=(1,)), p.left\n")}
    others = ["from core import Field, Pair, Plain, make\n"
              "f = make(Pair(1, 2))\nprint(f.z, getattr(f, 'spelled'), Plain)\n",
              "def g(field):\n    return max(field.bound, field.r)\n"]
    assert dead_definitions(package, others) == ["certificates", "spelled", "stored"]


def test_every_definition_is_named_somewhere_else():
    """Helpers left behind by a deletion fail here."""
    repo = Path(__file__).resolve().parent.parent
    others = [p.read_text() for folder in ("tests", "perfbench")
              for p in sorted((repo / folder).glob("*.py"))]
    assert dead_definitions({p.name: p.read_text() for p in PACKAGE}, others) == []


WRITES = {"open", "write", "writelines", "write_text", "write_bytes"}


def file_writes(source: str) -> list[str]:
    """The file writes and row formats a module holds: calls of ``open``,
    ``.write``, ``.writelines``, ``.write_text`` and ``.write_bytes``, and
    ``.17g`` formats. Only ``cli`` writes files, and it owns every CSV
    format."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            found.update({name} & WRITES)
        elif isinstance(node, ast.Constant) and ".17g" in str(node.value):
            found.add(".17g")
    return sorted(found)


def test_the_scan_finds_file_writes():
    source = ("def write(stream, rows, path, x):\n"
              "    with open(path) as f, path.open('w') as g:\n"
              "        f.write(f'{x:.17g}')\n        g.writelines(rows)\n"
              "    path.write_text('%.17g' % x)\n")
    assert file_writes(source) == [".17g", "open", "write", "write_text", "writelines"]
    clean = ("def write(a):\n    a.flags.writeable = False\n"
             "    print(f'{a:.6g}', '%.16g' % a)\n    return write\n")
    assert file_writes(clean) == []


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_writes_files(path):
    assert file_writes(path.read_text()) == []


BLAS_REDUCTIONS = {("numpy", "dot"), ("numpy", "vdot"), ("numpy", "inner"),
                   ("linalg", "norm")}


def blas_reductions(source: str) -> list[str]:
    """The BLAS vector reductions a module names: ``np.dot``, ``np.vdot``,
    ``np.inner`` and ``linalg.norm``, as attributes or imported names.
    OpenBLAS splits their sums over its threads, so their last bits
    depend on the thread count; every vector reduction goes through
    ``numerics.inner`` instead. The contractions of ``einsum`` reduce
    over axes of length 2 or 4 and are not refused."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            value = node.value
            owner = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", "")
            pairs = {("numpy" if owner == "np" else owner, node.attr)}
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            pairs = {(node.module.split(".")[-1], a.name) for a in node.names}
        else:
            continue
        found.update(f"{owner}.{name}" for owner, name in pairs & BLAS_REDUCTIONS)
    return sorted(found)


def test_the_scan_finds_blas_reductions():
    source = ("import numpy\nimport numpy as np\nfrom numpy import vdot\n"
              "from numpy.linalg import norm as length\n"
              "def f(a, b):\n"
              "    return np.dot(a, b) + numpy.inner(a, b) + np.linalg.norm(a)\n")
    assert blas_reductions(source) == ["linalg.norm", "numpy.dot", "numpy.inner",
                                       "numpy.vdot"]
    clean = ("import numpy as np\nfrom .numerics import inner\n"
             "def f(a, K, D, G):\n"
             "    n = np.sqrt(np.einsum('mdi,mdi->md', a, a))\n"
             "    return inner(a, K @ a), np.einsum('eqik,eqk->eqi', D, G, optimize=True), n\n")
    assert blas_reductions(clean) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_vector_reductions_go_through_inner(path):
    assert blas_reductions(path.read_text()) == []


def nodes_outside(source: str, exempt: str | None) -> list[ast.AST]:
    """Every node of a module but those inside its function ``exempt``."""
    tree = ast.parse(source)
    skipped = {id(n) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == exempt
               for n in ast.walk(node)}
    return [node for node in ast.walk(tree) if id(node) not in skipped]


SINGLE = {"float32", "single", "f4"}


def single_precision(source: str, exempt: str | None = None) -> list[str]:
    """The float32 spellings a module holds outside its function ``exempt``:
    ``np.float32``, ``np.single``, ``float32`` or ``single`` imported from
    numpy, and the dtype strings ``"float32"``, ``"single"`` and ``"f4"``.
    Only ``spectral_preconditioner``, whose Dirichlet apply runs in single
    precision, is exempt: the dual norm, the certificate, the cell
    preconditioner and CG stay in float64, or the certificate's bound is
    no longer rigorous."""
    found = set()
    for node in nodes_outside(source, exempt):
        if isinstance(node, ast.Attribute) and node.attr in SINGLE:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found.update({a.name for a in node.names} & SINGLE)
        elif isinstance(node, ast.Name) and node.id == "float32":
            found.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.lstrip("<>=|") in SINGLE:
            found.add(repr(node.value))
    return sorted(found)


def test_the_scan_finds_single_precision():
    source = ("import numpy as np\nfrom numpy import single as s32\n"
              "def dual_norm(r):\n    return np.fft.rfft2(r.astype(np.float32))\n"
              "def cast(r, float32):\n"
              "    return r.astype('<f4'), np.zeros(3, dtype='float32'), float32\n"
              "def spectral_preconditioner(r):\n"
              "    def apply(v):\n        return v.astype(np.float32)\n    return apply\n")
    assert single_precision(source, "spectral_preconditioner") == [
        "'<f4'", "'float32'", "float32", "single"]
    assert single_precision("def f(x, single):\n    return x.single if single else 'f8'\n"
                            ) == ["single"]
    assert single_precision("def f(x, single):\n    return single, 'f8', 'f44'\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_the_dirichlet_apply_runs_in_single_precision(path):
    exempt = "spectral_preconditioner" if path.name == "numerics.py" else None
    assert single_precision(path.read_text(), exempt) == []
    if exempt:
        assert single_precision(path.read_text()) == ["float32"]


EIGEN = {"eig", "eigh", "eigvals", "eigvalsh", "eigs", "eigsh", "svd", "svds", "svdvals"}


def eigen_solves(source: str, exempt: str | None = None) -> list[str]:
    """The eigen-solvers and singular value decompositions a module names
    outside its function ``exempt``, as attributes or imported names:
    ``eig``, ``eigh``, ``eigvals``, ``eigvalsh``, ``svd`` and their sparse
    kin. A coefficient's declared bounds are checked at every quadrature
    point by the closed-form eigenvalues of a 2x2, about ten times cheaper
    than an eigen-solve per point; only ``coefficients.constant``, which
    solves one 2x2, is exempt."""
    found = set()
    for node in nodes_outside(source, exempt):
        if isinstance(node, ast.Attribute):
            found.update({node.attr} & EIGEN)
        elif isinstance(node, ast.ImportFrom):
            found.update({a.name for a in node.names} & EIGEN)
    return sorted(found)


def test_the_scan_finds_eigen_solves():
    source = ("import numpy as np\nimport scipy.linalg as sl\n"
              "from numpy.linalg import svd as decompose\n"
              "from scipy.sparse.linalg import eigsh\n"
              "def check(A):\n    return np.linalg.eigvalsh(A), sl.eigh(A), np.linalg.eig(A)\n"
              "def constant(m):\n    return np.linalg.eigvalsh(m)\n")
    assert eigen_solves(source, "constant") == ["eig", "eigh", "eigsh", "eigvalsh", "svd"]
    assert eigen_solves("def constant(m, eigs):\n    return eigs, m.eigen\n") == []
    assert eigen_solves("import numpy as np\ndef f(m):\n    return np.linalg.svd(m)\n",
                        "constant") == ["svd"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_eigen_solve_outside_a_constant_coefficient(path):
    exempt = "constant" if path.name == "coefficients.py" else None
    assert eigen_solves(path.read_text(), exempt) == []
    if exempt:
        assert eigen_solves(path.read_text()) == ["eigvalsh"]
