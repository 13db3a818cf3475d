"""Every exported name resolves, so a deleted function cannot linger in an ``__all__``;
no exported callable takes a private parameter; the private names one module takes from
a sibling are an explicit list; numpy is the one dependency and third-party import."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

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


# every private name a module takes from a sibling, by ``from .x import _y`` or
# by reading ``x._y`` off a sibling module: a new reach-in is a one-line diff here
PRIVATE_REACH_INS = {
    "cli": {"discretization._SCHEMES", "discretization._check_alpha",
            "discretization._check_scheme", "pde._check_preconditioner", "transforms._count"},
    "discretization": {"transforms._as_real", "transforms._check_dims", "transforms._count"},
    "krylov": {"transforms._as_real", "transforms._count"},
    "pde": {"transforms._as_real", "transforms._count"},
    "selftest": {"transforms._axis_path", "transforms._sine_matrix"},
    "spectrum": {"toeplitz._kron_sum", "transforms._as_real"},
    "tau": {"discretization._directions", "transforms._as_real", "transforms._check_dims",
            "transforms._count", "transforms._dst1_fft_axis"},
    "toeplitz": {"transforms._as_real", "transforms._axis_matmul", "transforms._check_dims",
                 "transforms._count", "transforms._fibre_blocks"},
}


def private_reach_ins(path):
    """``sibling._name`` for each private name the module at ``path`` takes from a sibling."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings, found = {}, set()   # siblings: local name -> sibling module bound by ``from . import``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in siblings and node.attr.startswith("_"):
            found.add(f"{siblings[node.value.id]}.{node.attr}")
    return found


def test_private_names_taken_from_siblings_are_listed():
    taken = {path.stem: found for path in pathlib.Path(taumres.__file__).parent.glob("*.py")
             if (found := private_reach_ins(path))}
    assert taken == PRIVATE_REACH_INS



def private_definitions(tree):
    """(name, node) for each module-level single-underscore function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def reads(node, name):
    """Whether ``node`` loads ``name``: as a name, an attribute or an imported alias."""
    return (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and node.name == name)


def test_no_private_helper_is_dead():
    # a private name nothing in the package reads is code a deletion left behind
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(taumres.__file__).parent.glob("*.py")}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    dead = []
    for stem, tree in trees.items():
        for name, definition in private_definitions(tree):
            own = set(map(id, ast.walk(definition)))
            if not any(id(node) not in own and reads(node, name) for node in nodes):
                dead.append(f"{stem}.{name}")
    assert not dead, f"private names nothing in src/taumres reads: {dead}"


def absolute_imports(tree):
    """Top-level package of every absolute import under ``tree``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_numpy_is_the_only_third_party_import():
    # numpy is the one runtime dependency and the one third-party package src/ imports:
    # the dense eigensolve calls numpy's own LAPACK, so no second BLAS joins a process
    tomllib = pytest.importorskip("tomllib")
    package = pathlib.Path(taumres.__file__).parent
    pyproject = tomllib.loads((package.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in pyproject["project"]["dependencies"]}
    third_party = {top for path in package.glob("*.py")
                   for top in absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
                   if top not in sys.stdlib_module_names}
    assert declared == third_party == {"numpy"}, (declared, third_party)
