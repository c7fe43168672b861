"""Every module-level import in the package is used by its module.

A stdlib-only stand-in for a linter's unused-import rule: each module under
src/ascontrol (package __init__ files re-export, so they are skipped) is
parsed, and every name bound by a top-level import must occur as a name
somewhere in the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ascontrol"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


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
