"""Every name a difflat module lists in `__all__` exists, every name it
imports is used, and every private helper it defines is referenced, so
deleting a function cannot leave a stale export, a stale import or a dead
helper behind."""

import ast
import importlib
import importlib.util
import pkgutil

import pytest

import difflat

MODULES = sorted(m.name for m in pkgutil.walk_packages(difflat.__path__,
                                                       "difflat."))


def test_the_package_modules_are_found():
    assert {"difflat.analysis", "difflat.extension", "difflat.expr"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _unused_imports(source: str) -> list:
    """The names a module's imports bind but its code never reads: a read is
    a bare name, the root of an attribute chain included (`np` in
    `np.linalg.svd`)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_the_unused_import_check_finds_an_unused_name():
    assert _unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") == [
        "os (line 1)"]
    assert _unused_imports("from .expr import a, b as c\nprint(c)\n") == [
        "a (line 1)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    """The package `__init__` re-exports what it imports and is exempt."""
    path = importlib.util.find_spec(name).origin
    with open(path, encoding="utf-8") as fh:
        unused = _unused_imports(fh.read())
    assert not unused, f"{name} imports names it never uses: {unused}"


def _dead_private_helpers(sources: dict) -> list:
    """The module-level private functions and private methods (`_name`, not
    dunders) of `sources` ({module: source}) whose name no module reads, as
    a bare name or an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defined += [(module, f.name) for f in body
                        if isinstance(f, ast.FunctionDef)
                        and f.name.startswith("_") and not f.name.endswith("__")]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def test_the_dead_helper_check_finds_an_unreferenced_helper():
    sources = {"a": "def _used(): pass\ndef _dead(): pass\n"
                    "class C:\n    def _gone(self): pass\n"
                    "    def __init__(self): self._kept()\n"
                    "    def _kept(self): pass\n",
               "b": "from a import _used\n_used()\n"}
    assert _dead_private_helpers(sources) == ["a._dead", "a._gone"]


def test_no_private_helper_is_left_unreferenced():
    sources = {}
    for name in MODULES:
        with open(importlib.util.find_spec(name).origin, encoding="utf-8") as fh:
            sources[name] = fh.read()
    dead = _dead_private_helpers(sources)
    assert not dead, f"private helpers no module references: {dead}"
