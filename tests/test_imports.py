"""Every module-level import in the package and in the tests is used by its
module, every function, class, method, module-level assigned name and
instance attribute in the package is used somewhere, and read by more than
its own unit tests, and every einsum that plans its contraction per call
sums an index.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules.
Imports: each module under src/ascontrol (package __init__ files
re-export, so they are skipped) and under tests/ is parsed, and every name
bound by a top-level import must occur as a name somewhere in the module.
Dead code: every non-dunder def or class under src/ascontrol, every
non-dunder name a module-level assignment binds (constants, tables,
aliases), every attribute a package class assigns on `self`, and every
field of a package dataclass (but for a class that serializes itself
through `asdict`, which reads every field by name) must be
referenced outside its own body or statement in src/, tests/ or
perfbench/ (an attribute or field by a read, `obj.name` or a dotted
string: assigning it is no use, and a bare name, such as a local of the
same spelling, reads none; a package `__init__` only re-exports, so its
imports read nothing). And a def or
dataclass field that no code in src/ or perfbench/ reads must be read by
a test module other than its own unit tests, `tests/test_<its module>.py`,
unless it is one of the ORACLES, the independent routes that only their
own tests read.
Contractions: an `np.einsum(..., optimize=True)` computes its path on
every call, so it is kept for contractions that sum an index (numpy runs
their steps through matmul), with literal subscripts; a product that sums
none is a broadcast product; and only `chains.py` and `control.py` call
`np.einsum`, so a context's belief is read off the one belief product,
`chains.belief_table`. Draws: a
categorical draw inverts a CDF in one of two places, `model.sample_categorical`
for one draw and `control._sample_paths` for rollouts, so no other package
code calls `searchsorted` or draws uniforms with `.random(` (but for
`instances.py`, whose `zero_some` masks entries at random). Conversion: the
bundle reader turns row text into floats in one place, `model._rows_block`,
which no package code but `model._rows_of` names. Beliefs: only `chains.py`
calls `belief_table`, so every whole belief is kept by its one cache rule,
`chains.recognition_belief`, which only `chains.py` and the validation
suite's normalization check call; only `chains.py` calls `qchain_matrix`,
so Qc and the whole belief are read through `chains.recognition_pieces`,
which builds them in its one order; and only `chains.py` reads or writes a
model's kept `.pieces`. Pushes: only `oracle.walk` pushes a
distribution forward through a chain (`<matrix>.T @ <vector>`), so every
forward propagation is its walk. Masks: a ufunc's `where=` pays for its mask
on every entry, so in `chains.py` and `control.py`, whose passes run over
(..., N, O, A, L) arrays unmasked and zero their dead entries once, only
the small-array helpers `_safe_div` and `_norm` take it. Defaults: a
defaulted parameter that no call in src/ or perfbench/ sets is a setting
only tests reach, so it is a constant, but for the commented
TEST_DEFAULTS.
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
    """(name, line, dotted) of every use of a name in `tree`: names,
    attributes read (an assigned attribute is not a use), imported names,
    and string constants that are a dotted path (as the benchmark's tracer
    names its entry points). `dotted` marks the uses that can read an
    attribute: an attribute read and a string with a dot."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield parts[-1], node.lineno, len(parts) > 1


def assigned(stmt):
    """The targets of an assignment statement; none for another node."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    return [stmt.target] if isinstance(stmt, ast.AnnAssign) else []


def is_dataclass(cls):
    """Whether the class `cls` is decorated `@dataclass` or `@dataclass(...)`."""
    return any(call_name(d) == "dataclass" if isinstance(d, ast.Call)
               else isinstance(d, ast.Name) and d.id == "dataclass"
               for d in cls.decorator_list)


def serializes_itself(cls):
    """Whether a method of `cls` passes `self` to `asdict`, which reads every
    field by its name."""
    return any(isinstance(node, ast.Call) and call_name(node) == "asdict"
               and any(isinstance(a, ast.Name) and a.id == "self" for a in node.args)
               for node in ast.walk(cls))


def dataclass_fields(tree):
    """(name, node, True) of each field of a dataclass in `tree`, but for the
    dataclasses that serialize themselves: a field is read as an attribute."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls) and not serializes_itself(cls):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield stmt.target.id, stmt, True


def definitions(tree):
    """(name, node, dotted) of each def or class in `tree`, of each name
    bound by one of its module-level assignments, and of each attribute that
    a statement in one of its classes assigns on `self`, which alone is read
    only as an attribute (`dotted`)."""
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for stmt in ast.walk(node):
                for attr in (a for t in assigned(stmt) for a in ast.walk(t)):
                    if (isinstance(attr, ast.Attribute) and isinstance(attr.value, ast.Name)
                            and attr.value.id == "self"):
                        yield attr.attr, stmt, True
    for node in tree.body:
        for target in assigned(node):
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node, False


def readers(checked, others, defined):
    """((file, name), files) of each non-dunder name that `defined` finds in
    the `checked` sources ({file: text}): the files of `checked` or `others`
    whose code uses it outside the definition's own lines, by a dotted use
    (references) if it is read only as an attribute, so that a bare name of
    the same spelling, a local, reads no field. A package `__init__.py`
    only re-exports, so it reads nothing."""
    trees = {f: ast.parse(text) for f, text in {**others, **checked}.items()}
    uses = {}
    for f, tree in trees.items():
        if Path(f).name != "__init__.py":
            for name, line, dotted in references(tree):
                uses.setdefault(name, []).append((f, line, dotted))
    for f in checked:
        for name, node, attribute in defined(trees[f]):
            if not (name.startswith("__") and name.endswith("__")):
                own = range(node.lineno, node.end_lineno + 1)
                yield (f, name), {g for g, line, dotted in uses.get(name, [])
                                  if (dotted or not attribute)
                                  and not (g == f and line in own)}


def defs_and_fields(tree):
    """definitions(tree), then dataclass_fields(tree)."""
    yield from definitions(tree)
    yield from dataclass_fields(tree)


def unreferenced_defs(checked, others):
    """(file, name) of each def or dataclass field in the `checked` sources
    that no code in `checked` or `others` uses outside its own lines."""
    return [key for key, files in readers(checked, others, defs_and_fields) if not files]


def own_tests(path):
    """The unit-test module of the package file `path`: tests/test_<module>.py
    for its top-level module (a subpackage by its name, less a leading
    underscore)."""
    module = Path(path).relative_to("src/ascontrol").parts[0]
    return f"tests/test_{module.removesuffix('.py').lstrip('_')}.py"


def unit_test_only_defs(checked, others):
    """(file, name) of each def or dataclass field in the package sources
    `checked` ({path in the repository: text}) that some code reads, but
    only its own unit-test module."""
    return [(f, name) for (f, name), files in readers(checked, others, defs_and_fields)
            if files == {own_tests(f)}]


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


def test_dead_code_checker_flags_unread_dataclass_fields():
    lib = ("@dataclass(frozen=True)\n"
           "class Summary:\n"
           "    mean: float\n"
           "    label: str\n"
           "    kind = 'summary'\n"
           "@dataclass\n"
           "class Report:\n"
           "    steps: list\n"
           "    def to_dict(self):\n"
           "        return asdict(self)\n"
           "class Plain:\n"
           "    size: int\n")
    user = ("from lib import Plain, Report, Summary\n"
            "s = Summary(mean=1.0, label='x')\n"
            "print(s.mean, Report([]).to_dict(), Plain, Summary.kind)\n")
    # a keyword at construction is not a read; asdict reads every field of
    # Report, and a plain class or a class attribute has no fields
    assert unreferenced_defs({"lib": lib}, {"user": user}) == [("lib", "label")]


def test_unit_test_checker_flags_defs_only_their_own_tests_read():
    lib = ("def run():\n    return step()\n"
           "def step():\n    return 1\n"
           "def oracle():\n    return 1\n"
           "def shared():\n    return 1\n"
           "def unused():\n    return 1\n"
           "@dataclass\n"
           "class Summary:\n"
           "    mean: float\n"
           "    spread: float\n")
    others = {"perfbench/bench.py": "NAMES = ('lib.run',)\n",
              "tests/test_lib.py": ("from ascontrol.lib import oracle, shared, step\n"
                                    "s = Summary(mean=1.0, spread=0.0)\n"
                                    "print(s.mean, s.spread)\n"),
              "tests/test_cli.py": ("from ascontrol.lib import Summary, shared\n"
                                    "spread = 'spread'\nprint(Summary.mean, spread)\n"),
              "src/ascontrol/__init__.py": "from .lib import oracle\n"}
    # step is read by run, shared and the field mean by another test module;
    # a local or a plain string named spread reads no field; a re-export
    # reads nothing, and unused is the unreferenced rule's
    assert unit_test_only_defs({"src/ascontrol/lib.py": lib}, others) == [
        ("src/ascontrol/lib.py", "oracle"), ("src/ascontrol/lib.py", "spread")]
    assert own_tests("src/ascontrol/_kernels/_py.py") == "tests/test_kernels.py"


def package_sources():
    """The package sources and the code that may read them ({path in the
    repository: text}): tests and perfbench, less this lint, which names
    defs but reads none."""
    def sources(top):
        return {p.relative_to(ROOT).as_posix(): p.read_text()
                for p in sorted((ROOT / top).rglob("*.py"))
                if p != Path(__file__).resolve()}

    return sources("src"), {**sources("tests"), **sources("perfbench")}


def test_every_package_def_is_referenced():
    assert unreferenced_defs(*package_sources()) == []


# the independent routes that only their own unit tests read, kept as the
# oracles those tests check the model against: the exact posterior's paths
# and its normalizer (checked against exact_marginal_likelihood), the
# trajectory sampler and the recognition log-probability of a trajectory
ORACLES = ("state_at", "log_marginal", "sample_trajectory", "recognition_logprob")


def test_every_package_def_is_read_beyond_its_unit_tests():
    assert sorted(name for _, name in unit_test_only_defs(*package_sources())) == sorted(
        ORACLES)


def sums_an_index(subscripts):
    inputs, output = subscripts.split("->")
    return bool(set(inputs) - set(output) - {","})


def misplaced_contractions(source):
    """(line, subscripts) of each `np.einsum(..., optimize=True)` in `source`
    whose subscripts are not a literal that sums an index."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and func.attr == "einsum"
                and any(k.arg == "optimize" and isinstance(k.value, ast.Constant)
                        and k.value.value is True for k in node.keywords)):
            continue
        first = node.args[0] if node.args else None
        literal = isinstance(first, ast.Constant) and isinstance(first.value, str)
        subscripts = first.value if literal else None
        if not literal or not sums_an_index(subscripts):
            bad.append((node.lineno, subscripts))
    return bad


def test_contraction_checker_flags_misplaced_sites():
    source = ("a = np.einsum('xl,lo->xo', p, q, optimize=True)\n"
              "b = np.einsum('xoa,xoal->xola', m, q, optimize=True)\n"
              "c = np.einsum(subs, m, q, optimize=True)\n"
              "d = np.einsum('xoa,xoal->xola', m, q)\n"
              "e = np.einsum('xoa,xoal->xola', m, q, optimize=False)\n")
    assert misplaced_contractions(source) == [(2, "xoa,xoal->xola"), (3, None)]


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


# the module that builds recognition beliefs: a whole belief is kept there by
# one cache rule (chains.recognition_belief, read through
# chains.recognition_pieces), which no other module gets round
BELIEF = "belief_table"
BELIEF_MODULE = "chains.py"


def test_belief_checker_flags_stray_sites():
    source = ("from .chains import belief_table, recognition_belief\n"
              "def check(rec):\n"
              "    q = chains.belief_table(rec, True, slice(None))\n"
              "    r = belief_table(rec, False, slice(0, 4))\n"
              "    return q, r, recognition_belief(rec, True)\n"
              "build = chains.belief_table\n")
    assert stray_uses(source, BELIEF, ()) == [
        (3, "chains.belief_table"), (4, "belief_table"), (6, "chains.belief_table")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != BELIEF_MODULE],
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_beliefs_are_built_in_one_module(path):
    assert stray_uses(path.read_text(), BELIEF, ()) == []


# the builders that only the modules named here call: Qc and the whole belief
# are read through chains.recognition_pieces, which builds them in its one
# order; the validation suite checks the whole belief's normalization
BUILDER_MODULES = {"recognition_belief": ("chains.py", "validate.py"),
                   "qchain_matrix": ("chains.py",)}


@pytest.mark.parametrize("name", BUILDER_MODULES)
def test_builder_checker_flags_stray_sites(name):
    source = ("from .chains import qchain_matrix, recognition_belief\n"
              "def rate(gen, rec, ref):\n"
              "    pc = chains.recognition_pieces(gen, rec, ref, True)\n"
              "    q = chains.recognition_belief(rec, True)\n"
              "    return qchain_matrix(gen.spec, pc['marg'], q), pc['qc']\n")
    # an import binds the name but calls nothing
    assert stray_uses(source, name, ()) == {
        "recognition_belief": [(4, "chains.recognition_belief")],
        "qchain_matrix": [(5, "qchain_matrix")]}[name]


@pytest.mark.parametrize("name, path", [(name, p) for name, sites in BUILDER_MODULES.items()
                                        for p in MODULES if p.name not in sites],
                         ids=lambda v: v if isinstance(v, str) else v.relative_to(PACKAGE).as_posix())
def test_builders_are_called_in_their_modules(name, path):
    assert stray_uses(path.read_text(), name, ()) == []


# the modules that call np.einsum: the product builders and the adjoint's
# contractions; a context's belief is a row of chains.belief_table, so no
# other module spells out a product of its own
EINSUM_MODULES = ("chains.py", "control.py")


def test_einsum_checker_flags_stray_sites():
    source = ("from numpy import einsum\n"
              "def joint(q_s2, q_a2):\n"
              "    return np.einsum('X,XA->XA', q_s2, q_a2)\n"
              "product = einsum\n")
    # an import binds the name but calls nothing
    assert stray_uses(source, "einsum", ()) == [(3, "np.einsum"), (4, "einsum")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in EINSUM_MODULES],
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_einsum_is_called_in_the_builder_modules(path):
    assert stray_uses(path.read_text(), "einsum", ()) == []


# the module that reads and writes the models' kept pieces; a model's own
# initializer sets its empty `self.pieces`
PIECES_MODULE = "chains.py"


def stray_pieces(source):
    """(line, expression) of each `<obj>.pieces` read or written in `source`
    on anything but `self`."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "pieces"
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self"))


def test_pieces_checker_flags_stray_sites():
    source = ("class Model:\n"
              "    def __init__(self):\n"
              "        self.pieces = {}\n"
              "def grad(gen, rec, ref):\n"
              "    pieces = _dfe_pieces(gen, rec, ref)\n"
              "    rec.pieces = {}\n"
              "    return pieces[True], gen.pieces.get(True), self_model().pieces\n")
    # a model's own slot and a local named pieces are no reads of a model's
    assert stray_pieces(source) == [(6, "rec.pieces"), (7, "gen.pieces"),
                                    (7, "self_model().pieces")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != PIECES_MODULE],
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_kept_pieces_are_read_in_one_module(path):
    assert stray_pieces(path.read_text()) == []


# the module, and the module-level function in it, that push a distribution
# forward through a chain
PUSH_MODULE, PUSH_SITE = "oracle.py", "walk"


def stray_pushes(source, site):
    """(line, expression) of each forward push `<matrix>.T @ <vector>` in
    `source` outside its module-level def named `site` (None for none)."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body if isinstance(top, DEFS) and top.name == site
              for node in ast.walk(top)}
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                  and isinstance(node.left, ast.Attribute) and node.left.attr == "T"
                  and id(node) not in inside)


def test_push_checker_flags_stray_sites():
    source = ("def walk(steps, mu):\n"
              "    for mat, ev in steps:\n"
              "        mu = mat.T @ mu\n"
              "    return mu\n"
              "def rate(mats, mu):\n"
              "    nxt = mats[0].T @ mu\n"
              "    def walk(m):\n"
              "        return m.T @ nxt\n"
              "    return self.qc.T @ walk(mu), mu @ mats[1], mats[2] @ mu.T\n")
    # a nested def of the site's name is no site; a row product or a
    # transposed right operand is no push
    assert stray_pushes(source, PUSH_SITE) == [
        (6, "mats[0].T @ mu"), (8, "m.T @ nxt"), (9, "self.qc.T @ walk(mu)")]
    assert [line for line, _ in stray_pushes(source, None)] == [3, 6, 8, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_distributions_are_pushed_forward_in_one_place(path):
    assert stray_pushes(path.read_text(), PUSH_SITE if path.name == PUSH_MODULE else None) == []


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


def call_name(call):
    """The name a call reaches its function by: `f(...)` or `obj.f(...)`."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def defaulted_params(tree):
    """(def, parameter, position) of each defaulted parameter of a def in
    `tree`, with the position it takes among a call's positional arguments
    (None for a keyword-only one): a method's calls pass no self or cls,
    and an `__init__` is called by its class's name."""
    owner = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        offset = 0 if cls is None or static else 1
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield name, arg.arg, i - offset
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def sets(call, param, position):
    """Whether `call` passes the parameter: by keyword, by position, or
    through `*` or `**`."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > position)


def unset_defaults(package, callers):
    """`def.parameter` of each defaulted parameter of a def in the `package`
    sources that no call in the `callers` sources sets (both {file: text}).
    Calls match a def by its name alone, so a same-named function's call
    counts."""
    calls = {}
    for text in callers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                calls.setdefault(call_name(node), []).append(node)
    return sorted({f"{name}.{param}" for text in package.values()
                   for name, param, position in defaulted_params(ast.parse(text))
                   if not any(sets(c, param, position) for c in calls.get(name, []))})


def default_callers(package, others):
    """The code whose calls count as setting a default: the package and the
    benchmark, not the tests."""
    return {**package, **{f: text for f, text in others.items() if f.startswith("perfbench/")}}


def test_default_checker_flags_defaults_no_caller_sets():
    lib = ("def solve(model, tol=1e-9, max_iter=100, h0=None, *, trace=False):\n"
           "    return model\n"
           "def rate(chain, horizon=8, burn=4):\n"
           "    return chain\n"
           "class Table:\n"
           "    def __init__(self, rows, strict=True):\n"
           "        self.rows = rows\n"
           "    def sample(self, rng, n=1, replace=False):\n"
           "        return rng\n"
           "    @staticmethod\n"
           "    def blank(n=2):\n"
           "        def pad(k=0):\n"
           "            return k\n"
           "        return pad() + n\n")
    cli = ("from lib import Table, rate, solve\n"
           "def main(args, opts):\n"
           "    solve(args.model, args.tol, max_iter=args.max_iter)\n"
           "    rate(*args.chain)\n"
           "    Table(args.rows, **opts).sample(args.rng, 3)\n"
           "    return Table.blank(4)\n")
    package = {"src/ascontrol/lib.py": lib, "src/ascontrol/cli.py": cli}
    tests = {"tests/test_lib.py": ("from ascontrol.lib import Table, solve\n"
                                   "solve(1, h0=0.0, trace=True)\n"
                                   "Table(1).sample(2, replace=True)\n")}
    # what only a test sets is still flagged
    assert unset_defaults(package, default_callers(package, tests)) == [
        "pad.k", "sample.replace", "solve.h0", "solve.trace"]
    assert unset_defaults({"lib": lib}, {}) == [
        "Table.strict", "blank.n", "pad.k", "rate.burn", "rate.horizon", "sample.n",
        "sample.replace", "solve.h0", "solve.max_iter", "solve.tol", "solve.trace"]


# the defaulted parameters that only tests set: an oracle's tick, the test
# instances' knobs, and the x0 the acceptance suite starts its episodes from
TEST_DEFAULTS = ("recognition_logprob.tick", "random_instance.floor", "random_value.scale",
                 "evaluate.x0")


def test_every_default_is_set_by_a_caller():
    package, others = package_sources()
    assert unset_defaults(package, default_callers(package, others)) == sorted(TEST_DEFAULTS)
