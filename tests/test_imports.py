"""Every name a package module imports with ``from ... import`` is used there.

The package has no linter configured, so this is its guard against dead
imports: each module except ``__init__.py`` is parsed with ``ast``, and
every from-imported name must be read somewhere else in the module (as a
name, or as the base of an attribute) or listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coisotropy"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_from_imports(source: str) -> list[str]:
    """The names bound by from-imports of source that it never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in getattr(node.value, "elts", [])}
    return [name for name in imported if name not in used]


def test_the_guard_sees_an_unused_name():
    source = "from math import gcd, lcm\nfrom os import path as p\n\nprint(lcm(2, 3))\n"
    assert unused_from_imports(source) == ["gcd", "p"]
    assert unused_from_imports("from math import gcd\n__all__ = ['gcd']\n") == []


def test_the_package_modules_are_found():
    assert {"classify.py", "mforacle.py", "repdata.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path.read_text()) == []
