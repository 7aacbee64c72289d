"""Static checks over the package source, with the standard library's ast,
and over what importing the package loads.

Every import in src/specangle must be referenced in its module or listed in
its __all__; every name in an __all__ must be bound at the top level of its
module; every exception class of errors.py must be named by another module;
every top-level private function or class must be named somewhere outside
its own definition. A helper whose last caller is removed then takes its
import with it, a private helper of deleted code leaves with that code, an
error that nothing raises any more takes its class with it, and the public
lists cannot name what is gone.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "specangle").glob("*.py"))


def imported_names(tree):
    """The names each import of the module binds, mapped to their line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def top_level_names(tree):
    """The names bound by the module's top-level statements."""
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def exported_names(tree):
    """The strings of the module's __all__, or none when it has no __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unused = {
        name: line
        for name, line in imported_names(tree).items()
        if name not in loaded and name not in exported_names(tree)
    }
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = set(exported_names(tree)) - top_level_names(tree)
    assert not missing, f"{path.name}: __all__ lists unbound names {sorted(missing)}"


def test_every_error_is_used():
    errors = SRC / "specangle" / "errors.py"
    classes = {
        node.name
        for node in ast.parse(errors.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    named = set()
    for path in SOURCES:
        if path != errors:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
    assert classes <= named, f"errors.py: classes no module names {sorted(classes - named)}"


def named(node):
    """The names, attributes and imported names that appear under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_definition_is_named_elsewhere():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    unnamed = []
    for path, tree in trees.items():
        for node in tree.body:
            if not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            others = [other for other in tree.body if other is not node]
            others += [t for p, t in trees.items() if p != path]
            if not any(node.name in named(other) for other in others):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unnamed, f"private definitions nothing names: {unnamed}"


def calls(path, name):
    """The calls in path's module of a function or attribute called name."""
    return [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_eigen_path():
    # Every eigendecomposition runs one eigh core, and the four pencil fits
    # one solve, so a change of solver changes one function.
    assert sum(len(calls(path, "eigh")) for path in SOURCES) == 1
    assert len(calls(SRC / "specangle" / "projections.py", "gen_eig_desc")) == 1


def loaded(code, modules):
    """Which of ``modules`` are in sys.modules after ``code`` runs in a fresh
    interpreter: the tests import scipy themselves, so only a new process
    shows what the package alone loads."""
    code += f"\nimport sys; print(*(m in sys.modules for m in {modules!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    return dict(zip(modules, (word == "True" for word in out.stdout.split())))


@pytest.mark.parametrize("package", ["specangle", "specangle.cli"])
@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.linalg", "scipy.sparse"])
def test_import_leaves_out_scipy(package, module):
    # The dense pdist references live in the tests; the eigensolver uses
    # numpy alone, and only block pursuit imports scipy.sparse, when it runs.
    assert loaded(f"import {package}", [module]) == {module: False}


def test_fits_and_nn_cos_labelling_leave_out_scipy_linalg_and_sparse():
    code = """
from specangle.data import synth_scene
from specangle.evaluate import ExperimentConfig, run_experiment
from specangle.projections import METHODS
cube, gt = synth_scene(12, 12, 8, 3, seed=1)
for method in METHODS:
    config = ExperimentConfig(method=method, classifier="nn-cos", r=2, window=3,
                              n_train=4, n_test=4, trials=1)
    run_experiment(cube, gt, config)
"""
    modules = ["scipy.linalg", "scipy.sparse"]
    assert loaded(code, modules) == dict.fromkeys(modules, False)
