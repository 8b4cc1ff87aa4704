"""Every name a difflat module lists in `__all__` exists, every name it
imports is used, every private helper it defines is referenced and every
parameter of its functions is read, so deleting code cannot leave a stale
export, a stale import, a dead helper or a pass-through parameter behind."""

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


def _functions(node, prefix=""):
    """(qualified name, node) of every function under `node`, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def _unread_parameters(sources: dict) -> list:
    """`module.function(parameter)` for each parameter of a function of
    `sources` ({module: source}) that its body, nested functions included,
    never reads as a bare name. A method's `self` or `cls` is not counted."""
    out = []
    for module, source in sources.items():
        for name, fn in _functions(ast.parse(source)):
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out += [f"{module}.{name}({p})" for p in params
                    if p not in read and p not in ("self", "cls")]
    return sorted(out)


def test_the_unread_parameter_check_finds_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n    return a + c\n"
              "def g(x):\n    def h():\n        return x\n    return h\n"
              "def k(y):\n    y = 1\n"
              "class C:\n    def m(self, z):\n        return self\n")
    assert _unread_parameters({"a": source}) == [
        "a.C.m(z)", "a.f(b)", "a.f(kw)", "a.f(rest)", "a.k(y)"]


# Parameters kept though no body reads them: the benchmark passes
# `certify_linearizing` its analysis options and `verify_parameterization`
# the model and candidate positionally, and `__setattr__` has the signature
# Python calls it with.
_UNREAD_ALLOWED = {
    "difflat.extension.certify_linearizing(opts)",
    "difflat.numeric.verify_parameterization(sys)",
    "difflat.numeric.verify_parameterization(cand)",
    "difflat.expr.Expr.__setattr__(value)",
}


def test_every_parameter_of_a_function_is_read():
    sources = {}
    for name in MODULES:
        with open(importlib.util.find_spec(name).origin, encoding="utf-8") as fh:
            sources[name] = fh.read()
    unread = sorted(set(_unread_parameters(sources)) - _UNREAD_ALLOWED)
    assert not unread, f"parameters no body reads: {unread}"


def _tower_readers(source: str) -> list:
    """The functions of `source`, methods and nested functions included,
    other than `verify_parameterization`, with a parameter named `tower` or
    `param`."""
    out = []
    for name, fn in _functions(ast.parse(source)):
        a = fn.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
        if name != "verify_parameterization" and params & {"tower", "param"}:
            out.append(name)
    return sorted(out)


def test_the_tower_reader_check_finds_a_tower_parameter():
    source = ("def verify_parameterization(sys, cand, param, traj, ks):\n"
              "    return param\n"
              "def windows(tower, traj):\n    return tower\n"
              "def fold(rows, *, param=None):\n    return rows\n")
    assert _tower_readers(source) == ["fold", "windows"]


def test_numeric_reads_no_tower():
    """`numeric` is the layer `analysis` imports: a tower is read along a
    trajectory by its own methods (`Tower.windows_along`,
    `Parameterization.check`), and only the entry point
    `verify_parameterization` takes a parameterization."""
    with open(importlib.util.find_spec("difflat.numeric").origin,
              encoding="utf-8") as fh:
        readers = _tower_readers(fh.read())
    assert not readers, f"numeric functions that take a tower: {readers}"
