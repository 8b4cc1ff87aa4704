"""Every name a difflat module lists in `__all__` exists, so deleting a
function cannot leave a stale export behind."""

import importlib
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
