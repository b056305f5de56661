"""Every module-level private name in the package is used somewhere."""
import ast
import pathlib

import drlines

SRC = pathlib.Path(drlines.__file__).parent


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
