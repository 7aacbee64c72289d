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


def test_import_leaves_out_scipy_spatial():
    # The dense pdist references live in the tests, which import scipy.spatial
    # themselves; a fresh interpreter shows what the package alone loads.
    code = "import sys, specangle; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
