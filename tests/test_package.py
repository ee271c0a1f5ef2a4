"""The package's export lists."""

import importlib
import pkgutil

import pytest

import dropcap

MODULES = ["dropcap"] + [f"dropcap.{m.name}" for m in pkgutil.iter_modules(dropcap.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
