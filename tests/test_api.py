"""Source-level checks in place of a linter: no unused imports or private
helpers in the package, ``sudfer.__all__`` lists exactly the public names,
scalar arguments are type-checked in one module only, and the benchmark
tracer's layers name functions that exist."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import sudfer

MODULES = sorted(Path(sudfer.__file__).parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def used_names(tree):
    """Every bare name the module reads, plus the names its ``__all__`` re-exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(set(imported_names(tree)) - used_names(tree)) == []


def private_definitions(tree):
    """Private names the module binds at top level (dunder names excepted)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [
        f"{module}:{name}" for module, tree in trees.items() for name in private_definitions(tree) if name not in read
    ]
    assert orphans == []


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(sudfer).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sudfer.__all__) == len(set(sudfer.__all__))
    assert set(sudfer.__all__) == public


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_errors_module_reads_the_numbers_abcs(path):
    # errors.check_integer and errors.check_real are the package's only type checks of a scalar argument: a module
    # that imports ``numbers`` is hand-rolling a third.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    uses = "numbers" in set(imported_names(tree)) | used_names(tree) | {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert uses == (path.name == "errors.py")


# The only layers allowed to name a missing function: the tracer still points
# them at functions that were folded into common_draw_values and
# phi_derivative, and the benchmark reports them absent.
STALE_LAYERS = {"gaussian.rng", "interpolation.explicit", "interpolation.fd"}


def test_benchmark_layers_resolve_in_the_package():
    # Read from the source, so the benchmark package is never imported.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    (layers,) = (
        ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    )
    missing = set()
    for layer, (module, name) in layers.items():
        if not callable(getattr(importlib.import_module(module), name, None)):
            missing.add(layer)
    assert missing <= STALE_LAYERS
