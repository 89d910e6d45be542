"""Module boundaries: no package module imports another one's private names,
no code outside the profile classes dispatches on their type, and every
public name, and every public method of a profile class, is used by some
module of the package."""

import ast
from functools import cached_property
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import agdsmooth
from agdsmooth.smoothness import EllModel

MODULES = sorted(Path(agdsmooth.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_import_of_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)  # function-level imports included
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


PROFILE_CLASSES = {cls.__name__ for cls in EllModel.__subclasses__()} | {"EllModel"}


def _names(node):
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_isinstance_on_profile_classes(path):
    # each profile owns its maths; callers dispatch through its methods
    tree = ast.parse(path.read_text(), filename=str(path))
    ladders = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and PROFILE_CLASSES & set(_names(node.args[1]))
    ]
    assert not ladders, f"{path.name} tests profile classes with isinstance: {ladders}"


@pytest.mark.parametrize("name", ["solvers", "config", "verify"])
def test_no_profile_class_imports(name):
    path = Path(agdsmooth.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not imported & (PROFILE_CLASSES - {"EllModel"}), f"{name} imports a profile class"


def test_solvers_builds_trace_rows_in_one_place():
    # _Run.row makes every trace row, so per-row columns are added there
    path = Path(agdsmooth.__file__).parent / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _names(node.func) == ["TraceRecord"]
    ]
    assert len(calls) == 1, f"TraceRecord is built at lines {calls}"


def test_solvers_leaves_psi_geometry_to_smoothness():
    # the warm-start predicate lives in smoothness, next to the psi geometry
    # it reads; solvers asks it and does not restate it
    path = Path(agdsmooth.__file__).parent / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not imported & {"admissible_delta", "delta_left_right"}


def test_every_public_name_is_used_by_the_package():
    # a name in __all__ that no package module reads is surface nothing
    # in the system needs; its tests can keep a private copy
    used = set()
    for path in MODULES:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            used.update(name for node in ast.walk(tree)
                        if isinstance(node, (ast.Name, ast.Attribute))
                        for name in _names(node))
    public = {name for name in agdsmooth.__all__
              if not isinstance(getattr(agdsmooth, name), ModuleType)}
    assert not public - used, f"public names no module uses: {sorted(public - used)}"


def _reads_outside_namesakes(tree):
    """Names read in ``tree`` (plain or as attributes), leaving out reads
    inside a function of the same name, such as a method calling its
    ``super()`` version or a module function dispatching to its model."""
    reads = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            reads.update(set(_names(node)) - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return reads


def test_every_profile_method_is_used_by_the_package():
    # a public method or property on a profile class that nothing outside
    # its own namesakes reads is maths the package does not run; its tests
    # can keep a private copy
    kinds = (FunctionType, property, cached_property, classmethod, staticmethod)
    defined = {
        name
        for cls in (EllModel, *EllModel.__subclasses__()) if cls.__module__ == EllModel.__module__
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, kinds)
    }
    read = set()
    for path in MODULES:
        read |= _reads_outside_namesakes(ast.parse(path.read_text(), filename=str(path)))
    assert not defined - read, f"profile methods no module uses: {sorted(defined - read)}"
