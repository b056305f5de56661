"""Every module-level private name in the package is used somewhere, and
every top-level import of the package, the tests and the demos is read."""
import ast
import pathlib

import drlines

SRC = pathlib.Path(drlines.__file__).parent
TESTS = pathlib.Path(__file__).parent
DEMOS = TESTS.parent / "demos"


def _bound_private(tree):
    """The private (single-underscore) names the module body binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for t in targets:
                names.update(n.id for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def dead_private_names(src=SRC):
    """(module, name) for each module-level private name of src/*.py that
    its own module never reads and no sibling module imports."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py"))}
    imported = {(node.module.rpartition(".")[2], a.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                for a in node.names}
    dead = []
    for mod, tree in trees.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        dead += [(mod, name) for name in sorted(_bound_private(tree))
                 if name not in read and (mod, name) not in imported]
    return dead


def test_no_dead_private_names():
    assert dead_private_names() == []


def test_dead_name_guard_sees_an_unused_constant(tmp_path):
    (tmp_path / "a.py").write_text("_USED = 1\n_DEAD = 2\n_SHARED = 3\n"
                                   "def f():\n    return _USED\n")
    (tmp_path / "b.py").write_text("from .a import _SHARED\n")
    assert dead_private_names(tmp_path) == [("a", "_DEAD")]


def unused_imports(paths):
    """(file name, line, name) for each name a top-level import of one of
    the files binds and the file never reads.  ``__init__.py`` files (their
    imports are the package's exports), ``__future__`` imports and names
    on a line marked ``# noqa: F401`` are exempt."""
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for a in node.names:
                name = a.asname or a.name.partition(".")[0]
                if (name not in read
                        and "# noqa: F401" not in lines[a.lineno - 1]):
                    unused.append((path.name, a.lineno, name))
    return unused


def test_no_unused_imports():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    assert unused_imports(sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
                          + demos) == []


def test_unused_import_guard_sees_a_planted_import(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import io\n"
        "import os.path\n"
        "from math import (pi,\n"
        "                  tau)  # noqa: F401\n"
        "from json import dumps as d, loads\n"
        "print(os.path.sep, pi, d)\n")
    (tmp_path / "__init__.py").write_text("from .m import io\n")
    assert unused_imports(sorted(tmp_path.glob("*.py"))) == [
        ("m.py", 2, "io"), ("m.py", 6, "loads")]
