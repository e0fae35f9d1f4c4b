"""Layering rules of the package, checked on its source: no module
imports another module's private (underscore) names or reads a private
attribute of anything but `self` or `cls`, the runtime imports nothing
outside the standard library and numpy, and the CLI takes its analytic
numbers from `outage.evaluate_points` alone (`evaluate_point` is its
batch of one). The test suite's one-block protocol reference shares no
code with the simulator it checks, and every package name the benchmark
calls stays public."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "ehrelay").glob("*.py"))
HELPERS = pathlib.Path(__file__).parent / "helpers.py"
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
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


# the closed-form stages that evaluate_points chains together for the CLI
POINT_STAGES = {"ChainFamily", "harvest_grid", "build_transition_matrix",
                "reachable_steady_state", "stacked_steady_states", "outage_probability"}


def test_cli_evaluates_points_only_through_evaluate_points():
    # a sweep's grid goes through the batch entry, a single point through
    # evaluate_point, its batch of one; no stage of either in between
    cli = next(p for p in SOURCES if p.name == "cli.py")
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    names = [(node.lineno, name) for node in ast.walk(tree)
             for name in ([alias.name for alias in node.names]
                          if isinstance(node, ast.ImportFrom)
                          else [node.id] if isinstance(node, ast.Name) else [])]
    used = [f"line {lineno}: {name}" for lineno, name in names if name in POINT_STAGES]
    assert not used, f"cli.py bypasses evaluate_points: {used}"
    assert "evaluate_points" in {name for _, name in names}


def test_reference_block_shares_no_simulator_code():
    # helpers.reference_block is the oracle simulate is compared with, block
    # for block; reusing the simulator's protocol rules would let a fault in
    # them reach both sides of that comparison
    tree = ast.parse(HELPERS.read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "reference_block"
               for node in tree.body)
    package = {alias.asname or alias.name for node in imports(HELPERS)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name.split(".")[0] == "ehrelay"}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used += [alias.name for alias in node.names
                     if alias.name.startswith("ehrelay.simulator")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ehrelay":
            used += [f"{node.module}.{alias.name}" for alias in node.names
                     if node.module.startswith("ehrelay.simulator")
                     or alias.name.startswith("_") or alias.name == "simulator"]
        elif isinstance(node, ast.Attribute) and (node.attr == "simulator"
                                                  or node.attr.startswith("_")):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in package:
                used.append(ast.unparse(node))
    assert not used, f"helpers.py reaches into the package: {used}"


def test_benchmark_calls_only_public_names():
    # the benchmark drives the package from outside, by attribute: a name
    # dropped from __all__ would break its runs, not this suite
    import ehrelay
    from ehrelay import cli
    public = {"package": ehrelay, "ehrelay": ehrelay,
              "package.cli": cli, "ehrelay.cli": cli, "cli": cli}
    called, missing = set(), []
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "run.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = ast.unparse(node.func.value)
            if owner in public:
                called.add(f"{owner}.{node.func.attr}")
                if node.func.attr not in public[owner].__all__:
                    missing.append(f"{path.name} line {node.lineno}: {owner}.{node.func.attr}")
    assert {"ehrelay.build_transition_matrix", "ehrelay.reachable_steady_state",
            "ehrelay.outage_probability", "package.simulate",
            "package.cli.run_sweep"} <= called
    assert not missing, f"the benchmark calls names that are not public: {missing}"
