"""Module boundaries: no package module imports another one's private names,
no code outside the profile classes dispatches on their type, every norm is
``problems.norm``, defined once, and every distance ``problems.distance``,
no inner product is the BLAS's (no ``.dot`` and no ``@``), every catalog
oracle sums Python floats with ``math.fsum``,
solvers calls ell without ``ell_eval`` and its accelerated loop leaves each
step to the variant's rule, no module imports SciPy, and none imports NumPy
at load time,
every public top-level name, and every public method of a profile class, is
used by some module of the package, ``psi_inverse`` is one function,
``verify`` names no quadrature and builds its generator in one reader, and
the claimed profile lives on the problem: no run takes one beside it, and
one function swaps in another."""

import ast
import inspect
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import agdsmooth
from agdsmooth import solvers
from agdsmooth.smoothness import EllModel

MODULES = sorted(Path(agdsmooth.__file__).parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_norm(path):
    """Every Euclidean norm is ``problems.norm``, ``math.hypot`` of the
    components, and every distance ``problems.distance``, ``math.dist``,
    whose bits depend on neither the BLAS nor the NumPy build: no module
    takes NumPy's norm, and none takes ``norm`` of a subtraction, which
    builds the difference that ``distance`` does without."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "norm"
            and _names(node.value) == ["linalg"])
        or (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
            and any(alias.name == "norm" for alias in node.names))
    ]
    assert not calls, f"{path.name} takes numpy.linalg's norm: {calls}"
    differences = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _names(node.func) == ["norm"]
        and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                for arg in node.args for sub in ast.walk(arg))
    ]
    assert not differences, f"{path.name} takes norm of a subtraction: {differences}"


def test_norm_is_defined_once():
    # evaluate returns the gradient's norm, so no module restates a guarded
    # gradient norm of its own
    defined = [
        (path.name, node.name) for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in {"norm", "grad_norm"}
    ]
    assert defined == [("problems.py", "norm")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_blas_inner_product(path):
    # no value bit comes from the BLAS: an inner product is a math.fsum of
    # Python floats, never .dot or @, whose bits follow the BLAS kernel
    tree = ast.parse(path.read_text(), filename=str(path))
    ops = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr == "dot")
    ]
    assert not ops, f"{path.name} takes a BLAS inner product: {ops}"


def test_catalog_oracles_sum_with_fsum_on_floats():
    # every catalog oracle (a builder's nested fn) computes on Python floats:
    # no NumPy call, no .dot or .sum, and no builtin sum, whose bits differ
    # by interpreter; its sums are math.fsum
    path = Path(agdsmooth.__file__).parent / "problems.py"
    oracles = [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.FunctionDef) and node.name == "fn"]
    assert len(oracles) == 5
    uses = [
        f"line {node.lineno}"
        for oracle in oracles for node in ast.walk(oracle)
        if (isinstance(node, ast.Name) and node.id in {"np", "sum"})
        or (isinstance(node, ast.Attribute) and node.attr in {"dot", "sum"})
    ]
    assert not uses, f"a catalog oracle leaves Python floats or sums with sum: {uses}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_import_at_load_time(path):
    # the package integrates with its own Gauss-Kronrod rule and needs no
    # SciPy at load time or later; function-level imports count too
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "scipy")
        # importlib.import_module("scipy...") and __import__("scipy...")
        or (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).split(".")[0] == "scipy")
    ]
    assert not imports, f"{path.name} imports scipy: {imports}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_import_at_load_time(path):
    # importing the package loads no NumPy: a function that needs it (the
    # array path, a random draw, an error message) imports it itself, so
    # no import of numpy runs when the module loads, in any of its
    # top-level statements or the class bodies among them
    def load_time(node):
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                yield from load_time(child)

    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [
        f"line {node.lineno}"
        for node in load_time(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "numpy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "numpy")
    ]
    assert not imports, f"{path.name} imports numpy at load time: {imports}"


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


def test_solvers_calls_ell_directly():
    # every ell argument in solvers is a gradient norm from evaluate, which
    # refuses a NaN gradient, or a computed level, so ell_eval's argument
    # check has nothing left to catch there
    path = Path(agdsmooth.__file__).parent / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and any(a.name == "ell_eval" for a in node.names))
        or (isinstance(node, (ast.Name, ast.Attribute)) and _names(node) == ["ell_eval"])
    ]
    assert not uses, f"solvers uses ell_eval at lines {uses}"


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


def _top_level_names(tree):
    """The names a module binds at its top level: by def, class or
    assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def test_every_public_name_is_used_by_the_package():
    # a public top-level name of a package module (every name in __all__
    # is one) that no module reads outside its own namesakes is surface
    # nothing in the system needs, such as a constant left behind by the
    # code that read it; its tests can keep a private copy
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    read = set().union(*map(_reads_outside_namesakes, trees.values()))
    unread = sorted(f"{module}: {name}" for module, tree in trees.items()
                    for name in _top_level_names(tree)
                    if not name.startswith("_") and name not in read)
    assert not unread, f"public names no module uses: {unread}"


def test_psi_inverse_is_one_function():
    # ``smoothness.psi_inverse(model, t)`` is the package's one psi inverse;
    # a profile answers it through its private ``_psi_root``
    owners = [cls.__name__ for cls in (EllModel, *EllModel.__subclasses__())
              if "psi_inverse" in vars(cls)]
    assert not owners, f"profile classes with their own psi_inverse: {owners}"


def test_accelerated_loop_leaves_the_step_to_its_rule():
    # each variant's step rule owns its step size and the check on it, so
    # the shared loop takes the rule and restates neither step: it calls no
    # psi_inverse and no kbar, and notes neither WARM_REGION nor
    # GRAD_ENVELOPE itself
    path = Path(agdsmooth.__file__).parent / "solvers.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (loop,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_run_agd"]
    assert [arg.arg for arg in loop.args.args] == ["run", "state", "rule"]
    uses = [
        f"line {node.lineno}" for node in ast.walk(loop)
        if (isinstance(node, ast.Call) and _names(node.func) in (["psi_inverse"], ["kbar"]))
        or (isinstance(node, ast.Attribute) and _names(node.value) == ["Flag"]
            and node.attr in {"WARM_REGION", "GRAD_ENVELOPE"})
    ]
    assert not uses, f"_run_agd restates a step rule: {uses}"



def _verify_reads_of(name):
    """The functions of ``verify`` that read ``name``, once per read, and the
    lines of every read or import of it."""
    path = Path(agdsmooth.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    owners = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func)
              if isinstance(node, (ast.Name, ast.Attribute)) and _names(node) == [name]]
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, (ast.Name, ast.Attribute)) and _names(node) == [name])
             or (isinstance(node, ast.ImportFrom) and name in {a.name for a in node.names})]
    return owners, lines


def test_verify_integrates_nothing():
    # the convexity weight is the profile's (``smoothness.convexity_weight``),
    # in closed form where it has one, so verify names no quadrature
    _, lines = _verify_reads_of("quad")
    assert not lines, f"verify names quad at lines {lines}"


def test_verify_builds_its_generator_in_one_reader():
    # every sweep reads its doubles from one buffered stream, ``_draws``,
    # the one place that names NumPy's generator
    owners, lines = _verify_reads_of("default_rng")
    assert owners == ["_draws"] and len(lines) == 1, f"default_rng at lines {lines} in {owners}"


@pytest.mark.parametrize("run", [solvers.gd_run, solvers.algorithm1_run,
                                 solvers.algorithm2_run, solvers._Run.__init__],
                         ids=lambda f: f.__qualname__)
def test_runs_read_the_claim_from_the_problem(run):
    # a run steps by problem.ell_model, the profile verify checks, so no
    # run function takes a second one
    assert "model" not in inspect.signature(run).parameters


def _calls_by_function(tree):
    """Every call in ``tree`` with the innermost function around it (None at
    module level)."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node
        if isinstance(node, ast.Call):
            yield func, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def test_one_function_swaps_the_claim():
    # config.claimed_problem is the one place outside smoothness that builds
    # a profile from its config; execute, the CLI's verify and the golden
    # replay all ask it
    calls = [
        f"{path.name}: {func.name}" if func else f"{path.name}: module level"
        for path in MODULES + SCRIPTS if path.name != "smoothness.py"
        for func, node in _calls_by_function(ast.parse(path.read_text(), filename=str(path)))
        if _names(node.func) == ["model_from_config"]
    ]
    assert calls == ["config.py: claimed_problem"]
