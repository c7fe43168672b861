"""Every module-level import in the package and in the tests is used by its
module, every function, class, method, module-level assigned name and
instance attribute in the package is used somewhere, and every einsum that
plans its contraction per call sums an index.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.
Imports: each module under src/ascontrol (package __init__ files
re-export, so they are skipped) and under tests/ is parsed, and every name
bound by a top-level import must occur as a name somewhere in the module. Dead code:
every non-dunder def or class under src/ascontrol, every non-dunder
name a module-level assignment binds (constants, tables, aliases), and
every attribute a package class assigns on `self` must be referenced
outside its own body or statement in src/, tests/ or perfbench/ (an
attribute by a read: assigning it is no use). Contractions: an
`np.einsum(..., optimize=True)` computes its path on every call, so it is
kept for contractions that sum an index (numpy runs their steps through
matmul), and a contraction that sums none goes through `chains._product`,
which plans it once per shape; both take literal subscripts. Draws: a
categorical draw inverts a CDF in one of two places, `model.sample_categorical`
for one draw and `control._sample_paths` for rollouts, so no other package
code calls `searchsorted` or draws uniforms with `.random(` (but for
`instances.py`, whose `zero_some` masks entries at random). Conversion: the
bundle reader turns row text into floats in one place, `model._rows_block`,
which no package code but `model._rows_of` names. Masks: a ufunc's `where=`
pays for its mask on every entry, so in `chains.py` and `control.py`, whose
passes run over (..., N, O, A, L) arrays unmasked and zero their dead
entries once, only the small-array helpers `_safe_div` and `_norm` take it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ascontrol"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
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


def module_id(path):
    """A package module by its path in the package, a test by its path in
    the repository."""
    top = PACKAGE if path.is_relative_to(PACKAGE) else ROOT
    return path.relative_to(top).as_posix()


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=module_id)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def references(tree):
    """(name, line) of every use of a name in `tree`: names, attributes read
    (an assigned attribute is not a use), imported names, and string
    constants that are a dotted path (as the benchmark's tracer names its
    entry points)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield parts[-1], node.lineno


def assigned(stmt):
    """The targets of an assignment statement; none for another node."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    return [stmt.target] if isinstance(stmt, ast.AnnAssign) else []


def definitions(tree):
    """(name, node) of each def or class in `tree`, of each name bound by one
    of its module-level assignments, and of each attribute that a statement
    in one of its classes assigns on `self`."""
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for stmt in ast.walk(node):
                for attr in (a for t in assigned(stmt) for a in ast.walk(t)):
                    if (isinstance(attr, ast.Attribute) and isinstance(attr.value, ast.Name)
                            and attr.value.id == "self"):
                        yield attr.attr, stmt
    for node in tree.body:
        for target in assigned(node):
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


def test_dead_code_checker_flags_unread_instance_attributes():
    lib = ("class A:\n"
           "    def __init__(self, x):\n"
           "        self.read, self.unread = x, x\n"
           "        self.typed: int = 0\n"
           "        self.total = 0\n"
           "    def add(self, other):\n"
           "        self.total += 1\n"
           "        other.stored = self.read\n"
           "        return self\n")
    user = "from lib import A\nA(1).add(A(2))\n"
    # an assignment, augmented ones included, is not a read; `stored` is
    # assigned on another object, not on self
    assert sorted(name for _, name in unreferenced_defs({"lib": lib}, {"user": user})) == [
        "total", "typed", "unread"]


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


def nodes_inside(tree, sites):
    """The ids of every node in `tree` inside a def named in `sites`."""
    return {id(node) for site in ast.walk(tree)
            if isinstance(site, DEFS) and site.name in sites
            for node in ast.walk(site)}


# the functions that invert a CDF, and the module that may draw uniforms for
# other ends
INVERSE_CDF_SITES = ("sample_categorical", "_sample_paths")
FREE_DRAW_MODULES = ("instances.py",)


def stray_draws(source):
    """(line, call) of each `.searchsorted(...)` call and each uniform draw
    `.random(...)` in `source` outside the INVERSE_CDF_SITES; a class's own
    `random` constructor (`ConditionalTable.random`) draws no uniform."""
    tree = ast.parse(source)
    inside = nodes_inside(tree, INVERSE_CDF_SITES)
    bad = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)) \
                or id(node) in inside:
            continue
        func = node.func
        constructor = isinstance(func.value, ast.Name) and func.value.id[:1].isupper()
        if func.attr == "searchsorted" or (func.attr == "random" and not constructor):
            bad.append((node.lineno, ast.unparse(func)))
    return sorted(bad)


def test_draw_checker_flags_stray_sites():
    source = ("def sample_categorical(p, rng):\n"
              "    return np.searchsorted(np.cumsum(p), rng.random())\n"
              "def _sample_paths(cums, rng):\n"
              "    return rng.random(3)\n"
              "def walk(cum, rng):\n"
              "    u = rng.random(2)\n"
              "    return cum.searchsorted(u), np.searchsorted(cum, u)\n"
              "gen = GenerativeModel.random(spec, rng)\n"
              "x = np.random.default_rng(0).random()\n")
    assert stray_draws(source) == [(6, "rng.random"), (7, "cum.searchsorted"),
                                   (7, "np.searchsorted"),
                                   (9, "np.random.default_rng(0).random")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in FREE_DRAW_MODULES],
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_categorical_draws_go_through_the_inverse_cdf_sites(path):
    assert stray_draws(path.read_text()) == []


# the function that converts a bundle's row text to floats, and the one
# function that calls it
CONVERSION = "_rows_block"
CONVERSION_SITES = ("_rows_of",)


def stray_uses(source, name, sites):
    """(line, use) of each use of the function `name` in `source`, by its
    name or as an attribute, outside the defs in `sites`."""
    tree = ast.parse(source)
    inside = nodes_inside(tree, sites)
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if id(node) not in inside
                  and (isinstance(node, ast.Name) and node.id == name
                       or isinstance(node, ast.Attribute) and node.attr == name))


def test_conversion_checker_flags_stray_sites():
    source = ("def _rows_block(block, k):\n    return block\n"
              "def _rows_of(text):\n    return _rows_block(text, 2)\n"
              "def _gather(blocks):\n    return list(map(_rows_block, blocks))\n"
              "convert = model._rows_block\n")
    assert stray_uses(source, CONVERSION, CONVERSION_SITES) == [
        (6, "_rows_block"), (7, "model._rows_block")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_row_text_is_converted_in_one_place(path):
    assert stray_uses(path.read_text(), CONVERSION, CONVERSION_SITES) == []


# the modules of the (..., N, O, A, L) passes, and the helpers in them that
# may pass where=
MASKED_MODULES = ("chains.py", "control.py")
MASKED_SITES = ("_safe_div", "_norm")


def masked_calls(source):
    """(line, call) of each call in `source` that passes `where=`, outside
    the defs in MASKED_SITES."""
    tree = ast.parse(source)
    inside = nodes_inside(tree, MASKED_SITES)
    return sorted((node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and any(k.arg == "where" for k in node.keywords))


def test_mask_checker_flags_stray_sites():
    source = ("def _safe_div(num, den):\n"
              "    return np.divide(num, den, out=np.zeros(3), where=den > 0.0)\n"
              "def table(q):\n"
              "    def _norm(a):\n"
              "        return np.divide(a, 2.0, where=a > 0.0)\n"
              "    np.log(q, out=q, where=q > 0.0)\n"
              "    np.copyto(q, 0.0, where=q < 0.0)\n"
              "    q[q < 0.0] = 0.0\n"
              "    return np.where(q > 0.0, q, 1.0)\n")
    assert masked_calls(source) == [(6, "np.log"), (7, "np.copyto")]


@pytest.mark.parametrize("name", MASKED_MODULES)
def test_dense_passes_take_no_where(name):
    assert masked_calls((PACKAGE / name).read_text()) == []
