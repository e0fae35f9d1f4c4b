"""Layering rules of the package, checked on its source: no module
imports another module's private (underscore) names or reads a private
attribute of anything but `self` or `cls`, the runtime imports nothing
outside the standard library and numpy, no module uses numpy's exp or
log functions, importing the package does not load `numpy.random`, and
the CLI takes its analytic numbers from `outage.evaluate_points` alone
(`evaluate_point` is its batch of one). The test suite's one-block protocol reference shares no
code with the simulator it checks, and every package name the benchmark
calls stays public."""

import ast
import os
import pathlib
import subprocess
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


# np.exp and np.log differ from math.exp and math.log in the last bit on
# some doubles (np.exp on several percent of them); the CDF tables keep the
# bits of one scalar evaluation per entry by taking the math functions
NUMPY_EXP_LOG = {"exp", "log", "log1p", "expm1"}


def numpy_exp_log_uses(source):
    """Lines that name numpy's exp, log, log1p or expm1, called or not."""
    tree = ast.parse(source)
    numpy_names = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name == "numpy"}
    uses = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in NUMPY_EXP_LOG
            and isinstance(node.value, ast.Name) and node.value.id in numpy_names]
    uses += [f"line {node.lineno}: from numpy import {alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "numpy"
             for alias in node.names if alias.name in NUMPY_EXP_LOG]
    return uses


def test_numpy_exp_log_check_finds_every_form():
    source = ("import numpy as np\nimport numpy\nfrom numpy import log1p\n"
              "y = np.exp(x)\nf = numpy.log\nz = np.expm1.reduce(x)\nw = np.sqrt(x)\n")
    assert sorted(use.split(":")[0] for use in numpy_exp_log_uses(source)) == [
        "line 3", "line 4", "line 5", "line 6"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_exp_or_log(path):
    uses = numpy_exp_log_uses(path.read_text(encoding="utf-8"))
    assert not uses, f"{path.name} uses numpy's exp or log: {uses}"


def test_import_does_not_load_numpy_random(tmp_path):
    # numpy loads numpy.random lazily, and it costs some 17 ms of start-up
    # (secrets, hashlib, hmac); the import and config load every CLI verb
    # makes must not pull it in (simulate's default_rng does, on call)
    config = tmp_path / "empty.cfg"
    config.write_text("", encoding="utf-8")
    code = ("import sys, ehrelay, ehrelay.cli\n"
            "ehrelay.cli.load_config(sys.argv[1])\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    src = str(SOURCES[0].parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, str(config)], capture_output=True,
                          text=True, timeout=60, check=True, env=env)
    assert done.stdout.strip() == "[]"

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
