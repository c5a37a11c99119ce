"""Guards against dead code in the package modules.

The package has no linter configured, so these tests are its guard: each
module except ``__init__.py`` is parsed with ``ast``.  Every from-imported
name must be read somewhere else in its module (as a name, or as the base
of an attribute) or listed in its ``__all__``.  Every module-level function
or class, private or public, and every method or property of a
module-level class must be referenced somewhere in the package outside its
own definition; the public exceptions are listed, each with its reason.
A module-level function or class is referenced by a bare name that is
read, by an import, or as mod.name on a package module mod that the file
imports; an attribute of the same spelling on any other object, or an
annotated field name: int, does not count.  A method or property is
referenced only by an attribute read (x.name); a bare name of the same
spelling does not count.  A method counts as referenced wherever an
attribute of that name is read, on any object.  The modules each file
imports at module level are pinned (MODULE_IMPORTS).  Only
linalg._int_stack calls IntStack(...), so every stack is read-only, and
no module but matrep imports a private name of matrep.
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


def _attributes(node: ast.AST) -> set[str]:
    """The attribute names node reads (x.name)."""
    return {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _module_names(tree: ast.AST, modules) -> set[str]:
    """The names tree binds to the modules named in modules by its imports:
    import a, import a as b, from . import a."""
    names: set[str] = set()
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in sub.names if alias.name in modules}
    return names


def _referenced(node: ast.AST, module_names=frozenset()) -> set[str]:
    """The bare names node reads, the names it imports and the attributes it
    reads on one of module_names (mod.name)."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in module_names:
            names.add(sub.attr)
    return names


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level def or class in sources (module
    name -> source), and module:Class.name of each method or property of a
    module-level class, dunder names aside, that no statement outside its
    own definition refers to; a method may be referenced by the other
    statements of its class, and only by an attribute read."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    statements = [(mod, node) for mod, tree in trees.items() for node in tree.body]
    module_names = {mod: _module_names(tree, sources) for mod, tree in trees.items()}
    refs = [_referenced(node, module_names[mod]) for mod, node in statements]
    attrs = [_attributes(node) for _, node in statements]
    dead = []
    for i, (mod, node) in enumerate(statements):
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            continue
        outside = set().union(*(names for j, names in enumerate(refs) if j != i))
        if not node.name.startswith("__") and node.name not in outside:
            dead.append(f"{mod}:{node.name}")
        if not isinstance(node, ast.ClassDef):
            continue
        read = set().union(*(names for j, names in enumerate(attrs) if j != i))
        members = [_attributes(sub) for sub in node.body]
        for k, sub in enumerate(node.body):
            if not isinstance(sub, _FUNCTIONS) or sub.name.startswith("__"):
                continue
            if not any(sub.name in names for names in (read, *members[:k], *members[k + 1 :])):
                dead.append(f"{mod}:{node.name}.{sub.name}")
    return dead


def _private(dead: list[str]) -> list[str]:
    return [name for name in dead if name.split(":")[1].split(".")[-1].startswith("_")]


# Public definitions that nothing in the package calls, kept on purpose.
KEPT_PUBLIC = {
    "repdata:Dataset.mf_rows": "the rows of one MF table, as the benchmark's mf-check stream reads them",
    "mforacle:SymmetricPair.validate": "the tests' check of the pair constructions",
    "mforacle:principal_isotropy_rank": "the isotropy rank alone, whose answers the slice certificate is to certify",
}


def test_the_guard_sees_an_unreferenced_private_definition():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _dead():\n    return _dead()\n",
        "b": "from a import _used\n\nclass _Kept:\n    pass\n\nx = _Kept()\n",
        "c": "import a\n\ny = a._used()\n\nclass _Gone:\n    pass\n",
    }
    assert _private(unreferenced_definitions(sources)) == ["a:_dead", "c:_Gone"]


def test_the_guard_sees_an_unreferenced_public_definition():
    sources = {
        "a": "def used():\n    return 1\n\ndef dead():\n    return dead()\n",
        "b": "from a import used\n\nclass Gone:\n    pass\n",
        "c": "def main():\n    return 0\n\nif __name__ == '__main__':\n    main()\n",
    }
    assert unreferenced_definitions(sources) == ["a:dead", "b:Gone"]


def test_the_guard_sees_an_unreferenced_method_or_property():
    sources = {
        "a": (
            "class Rep:\n"
            "    def __post_init__(self):\n        self._check()\n\n"
            "    def _check(self):\n        return self.size\n\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    @property\n    def dim(self):\n        return self.dim\n\n"
            "    def _gone(self):\n        return 0\n\n"
            "    @classmethod\n    def zero(cls):\n        return cls()\n"
        ),
        "b": "from a import Rep\n\nclass Other:\n    def used(self):\n        pass\n\nx = Rep(), Other().used()\n",
        # a bare name of the same spelling does not reference a method
        "c": "def f():\n    zero = 0\n    return zero\n\nf()\n",
    }
    assert unreferenced_definitions(sources) == ["a:Rep.dim", "a:Rep._gone", "a:Rep.zero"]
    assert _private(unreferenced_definitions(sources)) == ["a:Rep._gone"]


def test_the_guard_counts_a_bare_name_that_is_read():
    sources = {
        "a": "def read():\n    return 1\n\ndef stored():\n    return 2\n",
        "b": "x = read()\nstored = 3\n",
    }
    assert unreferenced_definitions(sources) == ["a:stored"]


def test_the_guard_counts_an_import():
    sources = {
        "a": "def imported():\n    return 1\n\nclass Field:\n    pass\n",
        # an annotated dataclass field of the same spelling is no reference
        "b": "from a import imported\n\nclass Report:\n    Field: int\n\nReport()\n",
    }
    assert unreferenced_definitions(sources) == ["a:Field"]


def test_the_guard_counts_an_attribute_only_on_an_imported_package_module():
    sources = {
        "a": "def by_module():\n    return 1\n\ndef by_object():\n    return 2\n\ndef by_alias():\n    return 3\n",
        "b": "import a\nfrom . import a as m\n\nx = a.by_module(), m.by_alias()\n",
        # a read of .by_object on a report, not on the module a
        "c": "def f(report):\n    return report.by_object\n\nf(1)\n",
    }
    assert unreferenced_definitions(sources) == ["a:by_object"]


# The internals of the one exact elimination, linalg.int_kernel: its
# modular reduction and its first primes.
KERNEL_INTERNALS = {"_modp_reduce", "_RANK_PRIMES"}


def test_only_linalg_names_the_kernel_internals():
    for path in MODULES:
        tree = ast.parse(path.read_text())
        names = (_referenced(tree) | _attributes(tree)) & KERNEL_INTERNALS
        assert names == (KERNEL_INTERNALS if path.name == "linalg.py" else set()), path.name


def callers(sources: dict[str, str], name: str) -> set[str]:
    """module:definition of each module-level statement of sources that
    calls name, as name(...) or x.name(...)."""
    found = set()
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and name in (getattr(sub.func, "id", None), getattr(sub.func, "attr", None)):
                    found.add(f"{mod}:{getattr(node, 'name', node.lineno)}")
    return found


def test_the_guard_sees_every_caller():
    sources = {
        "a": "def make():\n    return Stack(1)\n\nclass Rep:\n    def view(self):\n        return a.Stack(2)\n",
        "b": "x = Stack(3)\ny = Stacks(4)\n",
    }
    assert callers(sources, "Stack") == {"a:make", "a:Rep", "b:1"}


def test_only_the_read_only_factory_makes_an_int_stack():
    # every stack is read-only: linalg._int_stack is the one constructor
    assert callers(_package_sources(), "IntStack") == {"linalg:_int_stack"}


def private_imports(source: str, module: str) -> list[str]:
    """The private names source imports from the package module module."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_the_guard_sees_a_private_import():
    source = "from .matrep import Factor, _weights\nfrom .linalg import _bracket\nfrom matrep import _x\n"
    assert private_imports(source, "matrep") == ["_weights"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "matrep.py"], ids=lambda p: p.name)
def test_only_matrep_reads_its_private_names(path):
    # what another module needs of the matrix models is public in matrep
    assert private_imports(path.read_text(), "matrep") == []


# The modules each package file imports at module level, a from-import by
# its module.  A process's set of loaded modules moves the timing of
# perfbench's scans workload, so this set changes only on purpose.
MODULE_IMPORTS = {
    "__init__.py": {".rootsys"},
    "classify.py": {".dsl", ".linalg", ".matrep", ".mforacle", ".repdata", ".rootsys", "__future__", "dataclasses", "numpy"},
    "cli.py": {".classify", ".dsl", ".linalg", ".matrep", ".mforacle", ".repdata", ".rootsys", "__future__", "argparse", "functools", "sys"},
    "dsl.py": {".matrep", "__future__", "ast", "dataclasses", "functools", "re"},
    "linalg.py": {"__future__", "functools", "math", "numpy", "typing"},
    "matrep.py": {".linalg", ".rootsys", "__future__", "dataclasses", "fractions", "functools", "itertools", "math", "numpy"},
    "mforacle.py": {".linalg", ".matrep", "__future__", "dataclasses", "functools", "numpy", "random", "typing"},
    "repdata.py": {".dsl", ".matrep", "__future__", "dataclasses", "functools", "importlib", "itertools", "math", "os", "re"},
    "rootsys.py": {"__future__", "dataclasses", "functools", "math", "operator", "weakref"},
}


def module_imports(source: str) -> set[str]:
    """The modules source imports outside any function or class: import a.b
    gives a.b, from a import b gives a, and from . import b gives .b."""
    found: set[str] = set()
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found |= {base + alias.name for alias in node.names} if node.module is None else {base}
        elif not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            nodes += [sub for sub in ast.iter_child_nodes(node) if isinstance(sub, ast.stmt)]
    return found


def test_the_guard_sees_module_level_imports_only():
    source = (
        "from __future__ import annotations\nimport os, a.b as c\nfrom . import x, y\n"
        "from ..p import q\nif os:\n    import json\n\ndef f():\n    import csv\n\n"
        "class K:\n    import abc\n"
    )
    assert module_imports(source) == {"__future__", "os", "a.b", ".x", ".y", "..p", "json"}


def test_the_module_level_imports_are_pinned():
    assert {p.name: module_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))} == MODULE_IMPORTS


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_definition_is_referenced():
    assert _private(unreferenced_definitions(_package_sources())) == []


def test_every_public_definition_is_referenced():
    dead = unreferenced_definitions(_package_sources())
    assert sorted(set(dead) - set(_private(dead))) == sorted(KEPT_PUBLIC)


def test_importing_the_package_leaves_numpy_unloaded():
    # rootsys imports numpy inside its functions, which keeps it out of the
    # package import and the peak memory down
    import os
    import subprocess
    import sys

    probe = "import sys, coisotropy; print('numpy' in sys.modules)"
    fresh = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == "False\n"
