"""The package's public surface: no public top-level name in `src/` is
reached only from the tests."""

import ast
from pathlib import Path

import nonmarkov

SRC = Path(nonmarkov.__file__).parent


def defined_names(node):
    """Public names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def references(node):
    """Names a statement loads: bare, or as an attribute of a package module."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add((None, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            out.add((sub.value.id, sub.attr))
    return out


def test_every_public_name_is_reached_from_src():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    exported = {
        alias.asname or alias.name
        for node in trees.pop("__init__").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    statements = [(module, node) for module, tree in trees.items() for node in tree.body]
    refs = {id(node): references(node) for _, node in statements}
    unreached = []
    for module, node in statements:
        for name in defined_names(node):
            if name in exported or (module, name) == ("cli", "main"):
                continue  # the package API, and the console script
            if not any(
                (None, name) in refs[id(other)] or (module, name) in refs[id(other)]
                for _, other in statements
                if other is not node
            ):
                unreached.append(f"{module}.{name}")
    assert not unreached, f"public names that nothing in src/ reaches: {unreached}"
