"""Every exported name resolves, so a deleted function cannot linger in an ``__all__``;
no exported callable takes a private parameter."""

import importlib
import inspect
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


def public_callables(obj):
    """``obj`` if callable, and for a class also each of its public methods."""
    found = [obj] if callable(obj) else []
    if inspect.isclass(obj):
        found += [f for attr, f in inspect.getmembers(obj, inspect.isfunction)
                  if not attr.startswith("_")]
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_export_takes_a_private_parameter(name):
    # a private keyword on a public entry is a second, hidden construction path
    module = importlib.import_module(name)
    private = []
    for export in module.__all__:
        for f in public_callables(getattr(module, export)):
            try:
                parameters = inspect.signature(f).parameters
            except ValueError:   # a builtin without a signature, such as an exception class
                continue
            private += [f"{export}: {p}" for p in parameters if p.startswith("_")]
    assert not private, f"{name} exports callables with private parameters: {private}"
