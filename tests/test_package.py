"""The package's public names."""

from __future__ import annotations

import ast
from pathlib import Path

import snnicheck


def test_every_public_name_resolves_and_star_imports():
    assert len(set(snnicheck.__all__)) == len(snnicheck.__all__)
    for name in snnicheck.__all__:
        getattr(snnicheck, name)  # raises AttributeError for a name the package lacks
    namespace: dict = {}
    exec("from snnicheck import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(snnicheck.__all__)



def _module_trees() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(snnicheck.__file__).parent.glob("*.py"))}


def _read_names(tree: ast.AST) -> set[str]:
    """The variables a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def test_every_import_is_used():
    for name, tree in _module_trees().items():
        if name == "__init__.py":  # re-exports the public names
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        unused = imported - _read_names(tree)
        assert not unused, (name, sorted(unused))


def test_every_private_module_name_is_referenced():
    # A reference is a read, an attribute or an import from another module.
    trees = _module_trees()
    referenced = set()
    for tree in trees.values():
        referenced |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        private = {d for d in defined if d.startswith("_") and not d.startswith("__")}
        assert private <= referenced, (name, sorted(private - referenced))
