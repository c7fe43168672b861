"""Every module-level import in the package is used by its module, and
every function, class and method in the package is used somewhere.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.
Imports: each module under src/ascontrol (package __init__ files
re-export, so they are skipped) is parsed, and every name bound by a
top-level import must occur as a name somewhere in the module. Dead code:
every non-dunder def or class under src/ascontrol must be referenced
outside its own body in src/, tests/ or perfbench/.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ascontrol"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source):
    """Names bound by top-level imports of `source` that it never uses."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_flags_unused_names():
    source = ("import json\nimport os.path\nfrom numpy import array as arr, zeros\n"
              "def f():\n    return os.path.join(zeros(1))\n")
    assert unused_imports(source) == ["json", "arr"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def references(tree):
    """(name, line) of every use of a name in `tree`: names, attributes,
    imported names, and string constants that are a dotted path (as the
    benchmark's tracer names its entry points)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield parts[-1], node.lineno


def unreferenced_defs(checked, others):
    """(file, name) of each non-dunder def or class in the `checked` sources
    ({file: text}) that no code in `checked` or `others` uses outside the
    definition's own lines."""
    trees = {f: ast.parse(text) for f, text in {**others, **checked}.items()}
    uses = {}
    for f, tree in trees.items():
        for name, line in references(tree):
            uses.setdefault(name, []).append((f, line))
    unused = []
    for f in checked:
        for node in ast.walk(trees[f]):
            if not isinstance(node, DEFS) or (
                    node.name.startswith("__") and node.name.endswith("__")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(g == f and line in own for g, line in uses.get(node.name, [])):
                unused.append((f, node.name))
    return unused


def test_dead_code_checker_flags_unused_defs():
    lib = ("class A:\n    def used(self):\n        return self.used\n"
           "    def __repr__(self):\n        return 'A'\n"
           "def fact(n):\n    return n * fact(n - 1)\n"
           "def traced():\n    pass\n"
           "def called():\n    def inner():\n        pass\n    return inner\n")
    user = "from lib import A, called\nA().used()\nNAMES = ('lib.traced',)\n"
    assert unreferenced_defs({"lib": lib}, {"user": user}) == [("lib", "fact")]
    # without `user`: `used` is named only in its own body and `traced` only
    # in user's string; `inner` is named by the def that encloses it
    assert sorted(name for _, name in unreferenced_defs({"lib": lib}, {})) == [
        "A", "called", "fact", "traced", "used"]


def test_every_package_def_is_referenced():
    def sources(top):
        return {p.relative_to(ROOT).as_posix(): p.read_text()
                for p in sorted((ROOT / top).rglob("*.py"))}

    assert unreferenced_defs(sources("src"), {**sources("tests"),
                                              **sources("perfbench")}) == []
