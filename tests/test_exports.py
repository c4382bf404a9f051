"""Every public name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import diafact

MODULES = sorted(f"diafact.{info.name}" for info in pkgutil.iter_modules(diafact.__path__))


def test_the_package_modules_are_found():
    assert {"diafact.sparse", "diafact.factor", "diafact.patterns"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
