"""Every exported name resolves, so a deleted function cannot linger in an ``__all__``."""

import importlib
import pkgutil

import pytest

import taumres

MODULES = ["taumres"] + [f"taumres.{m.name}" for m in pkgutil.iter_modules(taumres.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
