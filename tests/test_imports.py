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
