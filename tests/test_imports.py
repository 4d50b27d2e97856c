import ast
from pathlib import Path

import multdisc

SOURCE = Path(multdisc.__file__).parent


def _unused_imports(tree):
    """The names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    # no linter is installed, so a name left behind by a deletion is caught here
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: found for p in modules if (found := _unused_imports(ast.parse(p.read_text())))}
    assert unused == {}


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from array import array\nimport os.path\nfrom math import prod\nprod([1])\n")
    assert _unused_imports(tree) == [(1, "array"), (2, "os")]


def _references(node):
    """The names a syntax tree reads: Name ids, attribute names and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                names.update(alias.name.split("."))
    return names


def _unreferenced_private(trees):
    """The private module-level functions and classes that no other top-level statement references."""
    nodes = [node for tree in trees for node in tree.body]
    refs = [_references(node) for node in nodes]
    return sorted(
        node.name
        for i, node in enumerate(nodes)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in r for j, r in enumerate(refs) if j != i)
    )


def test_every_private_definition_is_referenced():
    # a helper a refactor leaves behind, with no caller in the package, is caught here
    trees = [ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))]
    assert _unreferenced_private(trees) == []


def test_the_scan_sees_an_unreferenced_private_definition():
    # a call from its own body does not count; an import or an attribute elsewhere does
    a = ast.parse("def _used():\n    return 1\n\ndef _recursive(k):\n    return _recursive(k - 1)\n\nclass _Kept:\n    pass\n")
    b = ast.parse("from a import _used\nimport a\nx = a._Kept\n")
    assert _unreferenced_private([a, b]) == ["_recursive"]
    assert _unreferenced_private([a]) == ["_Kept", "_recursive", "_used"]
