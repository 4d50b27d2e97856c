import ast
import builtins
from collections import Counter
from pathlib import Path
from types import ModuleType

import multdisc

SOURCE = Path(multdisc.__file__).parent


def test_top_level_binds_only_the_documented_api():
    # every other name is imported from its module, so the package keeps one home per name
    public = {name for name, value in vars(multdisc).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == {"classify", "dmu", "generic_poly", "parse_poly"}


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


def _unreferenced(modules):
    """(module, name) of each module-level function and class that no other top-level statement references."""
    nodes = [(module, node) for module, tree in modules.items() for node in tree.body]
    refs = [_references(node) for _, node in nodes]
    return sorted(
        (module, node.name)
        for i, (module, node) in enumerate(nodes)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in r for j, r in enumerate(refs) if j != i)
    )


def _unreferenced_private(trees):
    """The private module-level functions and classes that no other top-level statement references."""
    return sorted(
        name for _, name in _unreferenced(dict(enumerate(trees)))
        if name.startswith("_") and not name.startswith("__")
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


def _unreferenced_public(modules, exempt=()):
    """The public module-level functions and classes, as "module.name", that no other top-level statement references."""
    return [
        f"{module}.{name}" for module, name in _unreferenced(modules)
        if not name.startswith("_") and f"{module}.{name}" not in exempt
    ]


# kept without a caller in the package: dmu_by_stacks is the tests' oracle
# for dmu, and resultant is the only reader of subresultants.det, a name the
# bench tracer patches
UNCALLED_PUBLIC = {"oracle.dmu_by_stacks", "subresultants.resultant"}


def test_every_public_definition_is_referenced():
    # a re-export in __init__.py is not a use: a name only the tests call is dead weight
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"}
    assert _unreferenced_public(modules, exempt=UNCALLED_PUBLIC) == []


def test_the_scan_sees_an_unreferenced_public_definition():
    # a call from its own body does not count; a call in its own module or an import elsewhere does
    a = ast.parse(
        "def used():\n    return 1\n\ndef recursive(k):\n    return recursive(k - 1)\n\n"
        "class Kept:\n    pass\n\ndef oracle():\n    return 2\n\ndef _private():\n    return 3\n\n"
        "def local():\n    return Kept()\n"
    )
    b = ast.parse("from a import used\n\ndef f():\n    return used() + 1\n")
    assert _unreferenced_public({"a": a, "b": b}, exempt={"a.oracle"}) == ["a.local", "a.recursive", "b.f"]
    assert _unreferenced_public({"a": a}) == ["a.local", "a.oracle", "a.recursive", "a.used"]


def _defs(tree, module):
    """(qualified name, names it is called by, leading self/cls count, def node) per function and method."""
    found = []

    def visit(body, prefix, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                # a call of the class name, or of cls in a classmethod, passes __init__'s arguments
                called = (node.name, cls, "cls") if cls and node.name == "__init__" else (node.name,)
                found.append((f"{prefix}{node.name}", called, int(bool(cls) and not static), node))
                visit(node.body, f"{prefix}{node.name}.", None)
            elif hasattr(node, "body"):  # if, for, while, with, try
                visit(node.body, prefix, cls)
                visit(getattr(node, "orelse", []), prefix, cls)

    visit(tree.body, f"{module}.", None)
    return found


def _unpassed_defaults(modules, exempt=()):
    """The defaulted parameters, as "module.function(parameter)", that no call in the modules passes.

    Calls are matched to definitions by name alone, so a call of any
    function or method of that name counts; a *args or **kwargs argument
    passes every parameter.
    """
    positional, keywords = {}, {}
    for tree in modules.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            positional[name] = max(positional.get(name, 0), float("inf") if starred else len(call.args))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    unpassed = set()
    for module, tree in modules.items():
        for qualname, called, bound, node in _defs(tree, module):
            if qualname in exempt:
                continue
            args = node.args
            ordered = args.posonlyargs + args.args
            first = len(ordered) - len(args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(ordered) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            most = max(positional.get(name, 0) for name in called)
            passed_kw = set().union(*(keywords.get(name, set()) for name in called))
            for param, index in params:
                by_position = index is not None and most > index
                if not by_position and param not in passed_kw and None not in passed_kw:
                    unpassed.add(f"{qualname}({param})")
    return sorted(unpassed)


def test_every_default_is_passed_somewhere():
    # a parameter that every caller leaves at its default is a knob nobody turns
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    assert _unpassed_defaults(modules, exempt={"cli.main"}) == []


def test_the_scan_sees_an_unpassed_default():
    # by position or keyword; a class call passes __init__'s; **kwargs passes all
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0, y=0, w=0):\n        pass\n\n"
        "    def m(self, z=1):\n        pass\n\n"
        "    @classmethod\n    def make(cls, v=0):\n        return cls(1, 2, v)\n\n"
        "def main(argv=None):\n    pass\n\n"
        "f(1, 2)\nf(1, d=4)\nK(5)\nk.m(**opts)\n"
    )
    assert _unpassed_defaults({"a": tree}) == ["a.K.make(v)", "a.f(c)", "a.main(argv)"]
    assert _unpassed_defaults({"a": tree}, exempt={"a.main"}) == ["a.K.make(v)", "a.f(c)"]


def _name_reads(node):
    """How often each Name id and attribute name occurs under node."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _unreferenced_methods(modules, exempt=()):
    """The methods, as "module.Class.method", whose name no statement outside their own body reads.

    Names are matched alone, so a read of any attribute or name of that
    spelling counts.  Dunders are called by the language and are skipped.
    """
    uses = sum(map(_name_reads, modules.values()), Counter())
    unread = []
    for module, tree in modules.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("__"):
                    continue
                qualname = f"{module}.{cls.name}.{node.name}"
                if uses[node.name] == _name_reads(node)[node.name] and qualname not in exempt:
                    unread.append(qualname)
    return sorted(unread)


# kept without a caller in the package: the tests use them as oracles
ORACLE_METHODS = {"sympoly.SymPoly.evaluate", "sympoly.SymPoly.is_homogeneous"}


def test_every_method_is_referenced():
    # a method only the tests call is a capability the library does not use
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    assert _unreferenced_methods(modules, exempt=ORACLE_METHODS) == []


def test_the_scan_sees_an_unreferenced_method():
    # a call from its own body does not count; a read in another module or class does
    a = ast.parse(
        "class K:\n    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return 1\n\n"
        "    def recursive(self, k):\n        return self.recursive(k - 1)\n\n"
        "    @classmethod\n    def kept(cls):\n        return cls()\n\n"
        "    def oracle(self):\n        return 2\n"
    )
    b = ast.parse("from a import K\nx = K().used()\ny = K.kept\n")
    assert _unreferenced_methods({"a": a, "b": b}, exempt={"a.K.oracle"}) == ["a.K.recursive"]
    assert _unreferenced_methods({"a": a}) == ["a.K.kept", "a.K.oracle", "a.K.recursive", "a.K.used"]


def _unraised_exceptions(trees):
    """The exception classes defined in the trees that no raise statement names.

    A class is an exception if one of its bases is a builtin exception or
    another exception class of the trees.  A raise names the class it
    calls or raises bare, by name or as an attribute.
    """
    classes = {
        node.name: [getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases]
        for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(map(is_exception, classes.get(name, ())))

    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return sorted(name for name in classes if is_exception(name) and name not in raised)


def test_every_exception_class_is_raised():
    # a class no raise names is a type no caller can tell apart
    trees = [ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))]
    assert _unraised_exceptions(trees) == []


def test_the_scan_sees_an_unraised_exception():
    # a base counts only if raised itself; a raise by attribute or bare name counts
    a = ast.parse(
        "class Base(Exception):\n    pass\n\nclass Used(Base):\n    pass\n\n"
        "class Unused(Base, ArithmeticError):\n    pass\n\nclass Bare(ValueError):\n    pass\n\n"
        "class Plain:\n    pass\n\nclass Sub(Plain):\n    pass\n"
    )
    b = ast.parse("import a\n\ndef f():\n    raise a.Used('x')\n\ndef g():\n    raise Bare\n")
    assert _unraised_exceptions([a, b]) == ["Base", "Unused"]
    assert _unraised_exceptions([a]) == ["Bare", "Base", "Unused", "Used"]


def _plain_value_errors(tree):
    """The lines that raise a plain ValueError, called or bare."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and getattr(node.exc.func if isinstance(node.exc, ast.Call) else node.exc, "id", None) == "ValueError"
    )


def test_no_plain_value_error_is_raised():
    # bad input raises MultdiscError, so a library caller catches one class
    found = {p.name: lines for p in sorted(SOURCE.glob("*.py")) if (lines := _plain_value_errors(ast.parse(p.read_text())))}
    assert found == {}


def test_the_scan_sees_a_plain_value_error():
    # a subclass, a re-raise and a ValueError that is only caught do not count
    tree = ast.parse(
        "try:\n    raise ValueError('x')\nexcept ValueError:\n    raise\n"
        "raise MultdiscError('y')\nraise ValueError\n"
    )
    assert _plain_value_errors(tree) == [2, 6]



def _import_time_work(tree):
    """The module-level statements, as source text, that do work when the module is imported.

    Allowed: imports, def and class (decorators included), the docstring,
    the __main__ guard, and assignments with no call and no comprehension.
    """
    computed = (ast.Call, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    work = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and not any(isinstance(s, computed) for s in ast.walk(node)):
            continue
        work.append(ast.unparse(node).splitlines()[0])
    return work


def test_no_import_time_work():
    # every fresh import pays for module-level work: a table or a prime list belongs in a function
    found = {p.name: work for p in sorted(SOURCE.glob("*.py")) if (work := _import_time_work(ast.parse(p.read_text())))}
    assert found == {}


def test_the_scan_sees_import_time_work():
    # constant arithmetic, decorators and the main guard do not count; a call or comprehension does
    tree = ast.parse(
        '"""Doc."""\nimport os\nfrom math import prod\nP = 2**31 - 1\nNAMES: tuple = ("a", "b")\n'
        "@dataclass(frozen=True)\nclass K:\n    x: int\n\ndef f(a=1):\n    return prod([a])\n\n"
        "PRIMES = [q for q in range(3, 99, 2)]\nSIZE = len(NAMES)\nTABLE = {k: 1 for k in NAMES}\n"
        "print(P)\nfor k in NAMES:\n    pass\n\nif __name__ == '__main__':\n    f()\n"
    )
    assert _import_time_work(tree) == [
        "PRIMES = [q for q in range(3, 99, 2)]", "SIZE = len(NAMES)", "TABLE = {k: 1 for k in NAMES}",
        "print(P)", "for k in NAMES:",
    ]
