"""Layering rules of the package, checked on its source: no module
imports another module's private (underscore) names or reads a private
attribute of anything but `self` or `cls`, the runtime imports nothing
outside the standard library and numpy, and the CLI takes its analytic
numbers from `outage.evaluate_point` alone."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "ehrelay").glob("*.py"))
ALLOWED_THIRD_PARTY = {"numpy"}


def imports(path):
    return [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"battery.py", "cli.py", "outage.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    private = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in imports(path)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names: {private}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_attributes_of_other_objects(path):
    # obj._name reaches into another object's internals (a ChainFamily's
    # Toeplitz views, say); dunders such as object.__setattr__ are protocol
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not (node.attr.startswith("__") and node.attr.endswith("__"))
               and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    assert not private, f"{path.name} reads private attributes: {private}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_stdlib_and_numpy(path):
    tops = []
    for node in imports(path):
        if isinstance(node, ast.Import):
            tops += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif node.level == 0:
            tops.append((node.lineno, node.module.split(".")[0]))
    foreign = [f"line {lineno}: {top}" for lineno, top in tops
               if top not in sys.stdlib_module_names and top not in ALLOWED_THIRD_PARTY]
    assert not foreign, f"{path.name} imports outside the stdlib and numpy: {foreign}"


# the closed-form stages that evaluate_point chains together for the CLI
POINT_STAGES = {"ChainFamily", "build_transition_matrix", "reachable_steady_state",
                "outage_probability", "optimize_threshold"}


def test_cli_evaluates_points_only_through_evaluate_point():
    cli = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    used = [f"line {node.lineno}: {name}" for node in ast.walk(tree)
            for name in ([alias.name for alias in node.names]
                         if isinstance(node, ast.ImportFrom)
                         else [node.id] if isinstance(node, ast.Name) else [])
            if name in POINT_STAGES]
    assert not used, f"cli.py bypasses evaluate_point: {used}"
