"""Static checks: every name a geoggm module imports is referenced in it,
every parameter of a geoggm function is referenced in its body, and every
private name, defined at any depth, is read somewhere in `src/` outside
its own definition.  One check runs: importing geoggm leaves `scipy.spatial`
unloaded.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  For imports, `__init__.py` is skipped (its
imports are re-exports) and `from __future__` imports are exempt; for
parameters, `self` and `cls` are exempt.
"""
import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "geoggm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression refers to."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_checker():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import scipy.sparse as sp\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = sp.eye(2).nnz\n"
    )
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter, other than `self` and
    `cls`, that no expression in its function's body refers to."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        used = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found += [f"{fn.name}.{name}" for name in params
                  if name not in ("self", "cls") and name not in used]
    return sorted(found)


def test_unused_parameters_checker():
    source = (
        "class A:\n"
        "    def f(self, x, y=0, *args, z, **kw):\n"
        "        def g(u):\n"
        "            return y\n"
        "        return x + len(args)\n"
        "    @classmethod\n"
        "    def h(cls, a: int = 1) -> int:\n"
        "        return 2\n"
    )
    assert unused_parameters(source) == ["f.kw", "f.z", "g.u", "h.a"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def private_definitions(tree):
    """(name, statement) for each name with one leading underscore that a
    statement at any depth defines: a function, method or class, or an
    assigned name or attribute (`_LIMIT = 3`, `self._cache = {}`)."""
    for stmt in ast.walk(tree):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [n.id if isinstance(n, ast.Name) else n.attr
                     for t in targets for n in ast.walk(t)
                     if isinstance(n, (ast.Name, ast.Attribute))
                     and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__") and name != "_":
                yield name, stmt


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """`module.name` for each private name (one leading underscore, not
    `_` alone) defined at any depth that no code outside its own defining
    statement reads, in any of the `sources` (module name to text)."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads: dict[str, set[int]] = {}  # name -> ids of the nodes reading it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.id, set()).add(id(n))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.attr, set()).add(id(n))
    found = set()
    for mod, tree in trees.items():
        for name, stmt in private_definitions(tree):
            inside = {id(n) for n in ast.walk(stmt)}
            if not reads.get(name, set()) - inside:
                found.add(f"{mod}.{name}")
    return sorted(found)


def test_unreferenced_private_names_checker():
    sources = {
        "a": (
            "__all__ = ['f']\n"
            "_LIMIT = 3\n"
            "_spare: int = 0\n"
            "def _helper(x):\n"
            "    return x + 1\n"
            "def _loop(n):\n"
            "    return _loop(n - 1) if n else 0\n"
            "class _Box:\n"
            "    _size: int = 1\n"
            "    _unread: int = 2\n"
            "    def __init__(self):\n"
            "        self._cache, self._stale = {}, None\n"
            "        _, _tmp = self._grow(), 0\n"
            "    def _grow(self):\n"
            "        def _inner():\n"
            "            return self._cache\n"
            "        def _orphan():\n"
            "            return 0\n"
            "        return _inner() or self._size\n"
            "def f():\n"
            "    return _helper(_LIMIT)\n"
        ),
        "b": "from . import a\nx = a._Box()\n",
    }
    assert unreferenced_private_names(sources) == [
        "a._loop", "a._orphan", "a._spare", "a._stale", "a._tmp", "a._unread"]


def test_no_unreferenced_private_names():
    sources = {p.stem: p.read_text() for p in ALL_MODULES}
    assert unreferenced_private_names(sources) == []


def test_import_leaves_scipy_spatial_unloaded():
    """Neighbour queries run on a numpy cell grid, so a fresh interpreter
    that imports the package, its harness and its CLI has not loaded
    `scipy.spatial` and does not pay for it."""
    code = ("import sys, geoggm, geoggm.harness, geoggm.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
