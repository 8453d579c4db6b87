"""Every module-level private helper of the package has a reader.

A private name (a leading underscore, not a dunder) that a module defines at
its top level must be loaded, imported or read as an attribute somewhere in
`src/wavefield` outside the statements that define it. A helper whose last
caller went stays dead otherwise, since no test of the public behaviour
notices it. Names are matched by name alone, so helpers of one name in two
modules share their readers.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "wavefield").glob("*.py"))


def _defined(tree) -> dict:
    """{private name: the top-level statements that bind it} of a module."""
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        else:
            bound = []
        for name in bound:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names.setdefault(name, set()).add(stmt)
    return names


def _readers(tree) -> dict:
    """{name: the top-level statements that load it, import it or read it as
    an attribute} of a module."""
    readers = {}
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = []
            for name in names:
                readers.setdefault(name, set()).add(stmt)
    return readers


def test_every_private_name_has_a_reader_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    readers = {}
    for tree in trees.values():
        for name, stmts in _readers(tree).items():
            readers.setdefault(name, set()).update(stmts)
    defined = [(module, name, stmts) for module, tree in trees.items()
               for name, stmts in _defined(tree).items()]
    assert len(defined) > 100
    dead = [f"{module}.{name}" for module, name, stmts in defined
            if not readers.get(name, set()) - stmts]
    assert dead == []
