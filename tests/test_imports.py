"""Every import is used: a static check over the package, tests, tools and demos.

A name bound by ``import`` or ``from ... import`` counts as used when the
same file loads it anywhere or lists it in ``__all__``.  A package
``__init__.py`` is exempt: its imports are the public re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "tools", "demos")


def unused_imports(source):
    """(line, name) of each imported name that the source never uses."""
    bound, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name)
                      for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from x import (y, z as w)\n__all__ = ['y']\nprint(a.b, w)\n")
    assert unused_imports(source) == [(1, "os"), (2, "np")]


@pytest.mark.parametrize("top", CHECKED)
def test_no_unused_imports(top):
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in sorted((ROOT / top).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "unused imports:\n" + "\n".join(found)
