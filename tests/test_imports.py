"""Every module-level import in the package is used by its module, every
function, class, method and module-level assigned name in the package is
used somewhere, and every einsum that plans its contraction per call sums
an index.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.
Imports: each module under src/ascontrol (package __init__ files
re-export, so they are skipped) is parsed, and every name bound by a
top-level import must occur as a name somewhere in the module. Dead code:
every non-dunder def or class under src/ascontrol, and every non-dunder
name a module-level assignment binds (constants, tables, aliases), must be
referenced outside its own body or statement in src/, tests/ or
perfbench/. Contractions: an
`np.einsum(..., optimize=True)` computes its path on every call, so it is
kept for contractions that sum an index (numpy runs their steps through
matmul), and a contraction that sums none goes through `chains._product`,
which plans it once per shape; both take literal subscripts.
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


def definitions(tree):
    """(name, node) of each def or class in `tree`, and of each name bound
    by one of its module-level assignments."""
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unreferenced_defs(checked, others):
    """(file, name) of each non-dunder def, class or module-level assigned
    name in the `checked` sources ({file: text}) that no code in `checked` or
    `others` uses outside the definition's own lines."""
    trees = {f: ast.parse(text) for f, text in {**others, **checked}.items()}
    uses = {}
    for f, tree in trees.items():
        for name, line in references(tree):
            uses.setdefault(name, []).append((f, line))
    unused = []
    for f in checked:
        for name, node in definitions(trees[f]):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if all(g == f and line in own for g, line in uses.get(name, [])):
                unused.append((f, name))
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


def test_dead_code_checker_flags_unused_assignments():
    lib = ("import json\n"
           "_BLOCK = 1 << 16\n"
           "_CHARS = b'0123'\n"
           "_ALL = (_CHARS\n"
           "        + b'[]')\n"
           "_LOW, _HIGH = 0, 1\n"
           "_TOL: float = 1e-6\n"
           "__all__ = ['f']\n"
           "def f(x=_HIGH):\n"
           "    local = json.dumps(x)\n"
           "    return local\n")
    user = "from lib import f\nf()\n"
    # _CHARS is used only by _ALL, which nothing uses; names bound inside a
    # def (local) and dunders are not checked
    assert sorted(name for _, name in unreferenced_defs({"lib": lib}, {"user": user})) == [
        "_ALL", "_BLOCK", "_LOW", "_TOL"]


def test_every_package_def_is_referenced():
    def sources(top):
        return {p.relative_to(ROOT).as_posix(): p.read_text()
                for p in sorted((ROOT / top).rglob("*.py"))}

    assert unreferenced_defs(sources("src"), {**sources("tests"),
                                              **sources("perfbench")}) == []


def sums_an_index(subscripts):
    inputs, output = subscripts.split("->")
    return bool(set(inputs) - set(output) - {","})


def misplaced_contractions(source):
    """(line, subscripts) of each `np.einsum(..., optimize=True)` in `source`
    whose subscripts are not a literal that sums an index, and of each
    `_product(...)` whose subscripts are not a literal that sums none."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        planned = (isinstance(func, ast.Attribute) and func.attr == "einsum"
                   and any(k.arg == "optimize" and isinstance(k.value, ast.Constant)
                           and k.value.value is True for k in node.keywords))
        product = (func.attr if isinstance(func, ast.Attribute)
                   else getattr(func, "id", None)) == "_product"
        if not (planned or product):
            continue
        first = node.args[0] if node.args else None
        literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
        subscripts = first.value if literal else None
        if not literal or sums_an_index(subscripts) != planned:
            bad.append((node.lineno, subscripts))
    return bad


def test_contraction_checker_flags_misplaced_sites():
    source = ("a = np.einsum('xl,lo->xo', p, q, optimize=True)\n"
              "b = np.einsum('xoa,xoal->xola', m, q, optimize=True)\n"
              "c = np.einsum(subs, m, q, optimize=True)\n"
              "d = np.einsum('xoa,xoal->xola', m, q)\n"
              "e = chains._product('xoa,xoal->xola', m, q)\n"
              "f = _product('xl,lo->xo', p, q)\n")
    assert misplaced_contractions(source) == [
        (2, "xoa,xoal->xola"), (3, None), (6, "xl,lo->xo")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_planned_contractions_sum_an_index(path):
    assert misplaced_contractions(path.read_text()) == []
