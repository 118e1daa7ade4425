"""What a fresh interpreter loads: the package imports its submodules lazily
and the command line imports only what its subcommand runs."""

import ast
import os
import subprocess
import sys

import pytest

import diamondlemma
from diamondlemma import monomial_theories
from diamondlemma.monomial_theories import THEORIES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CLI_SCRIPT = """
import sys
from diamondlemma.cli_io import main

never = ("dataclasses", "inspect", "ast", "json")
deferred = ("completion", "ambiguity", "power_series")
loaded = [m for m in never + tuple("diamondlemma." + m for m in deferred) if m in sys.modules]
assert not loaded, loaded
assert main(["nf", "bench/systems/cli/assoc.sys", "y^2*x"]) == 0
loaded = [m for m in ("completion", "ambiguity") if "diamondlemma." + m in sys.modules]
assert not loaded, loaded
others = ("power_products", "mixed", "magma", "paths")
loaded = [m for m in others if "diamondlemma." + m in sys.modules]
assert not loaded, loaded
"""

# Checks the system file argv[1] names, then lists the theory modules loaded.
_THEORY_SCRIPT = """
import sys
from diamondlemma.cli_io import main
from diamondlemma.monomial_theories import THEORIES

assert main(["check", sys.argv[1]]) in (0, 1)
modules = sorted(module for module, _ in THEORIES.values())
print(" ".join(m for m in modules if "diamondlemma." + m in sys.modules))
"""

_PACKAGE_SCRIPT = """
import sys
import diamondlemma

assert not [m for m in sys.modules if m.startswith("diamondlemma.")]
listed = dir(diamondlemma)
missing = [name for name in diamondlemma.__all__ if name not in listed]
assert not missing, missing
for name in diamondlemma.__all__:
    getattr(diamondlemma, name)
namespace = {}
exec("from diamondlemma import *", namespace)
assert set(diamondlemma.__all__) <= set(namespace)
try:
    diamondlemma.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown names must raise AttributeError")
"""

_SUBMODULE_SCRIPT = """
import importlib, sys
import diamondlemma

module = getattr(diamondlemma, sys.argv[1])
assert module is importlib.import_module("diamondlemma." + sys.argv[1])
assert sys.argv[1] in dir(diamondlemma)
"""

_SUBMODULES = (
    "algebra_core",
    "monomial_theories",
    "words",
    "power_products",
    "mixed",
    "magma",
    "paths",
    "rewriting_engine",
    "ambiguity",
    "completion",
    "power_series",
    "cli_io",
)


def _run(script: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_loads_only_what_its_subcommand_runs():
    _run(_CLI_SCRIPT)


def test_package_names_resolve_lazily():
    _run(_PACKAGE_SCRIPT)


def test_submodules_are_package_attributes():
    for name in _SUBMODULES:
        _run(_SUBMODULE_SCRIPT, name)


@pytest.mark.parametrize("keyword", sorted(THEORIES))
def test_check_loads_only_the_theory_in_use(keyword):
    path = os.path.join("bench", "systems", "cli", keyword + ".sys")
    last = _run(_THEORY_SCRIPT, path).splitlines()[-1]
    assert last == THEORIES[keyword][0]


def test_no_theory_module_imports_another():
    modules = {module for module, _ in THEORIES.values()}
    for module in sorted(modules):
        path = os.path.join(REPO, "src", "diamondlemma", module + ".py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert not imported & modules, (module, imported & modules)


def test_kernel_resolves_the_theory_classes_by_name():
    for keyword, (module, name) in THEORIES.items():
        cls = getattr(monomial_theories, name)
        assert cls is getattr(diamondlemma, name)
        assert (cls.keyword, cls.__module__) == (keyword, "diamondlemma." + module)
    with pytest.raises(AttributeError):
        monomial_theories.NoSuchTheory


# Every ``diamond`` process that reads a system file compiles cli_io.py, and
# compiling is about half of its start-up when PYTHONDONTWRITEBYTECODE=1 is
# set, as the benchmark sets it (see the FOUND line on
# PYTHONDONTWRITEBYTECODE in CHANGES.md). Growing the module takes a
# deliberate raise of this bound, counted as the test counts.
CLI_IO_MAX_AST_NODES = 6216


def test_cli_io_compile_size_is_bounded():
    path = os.path.join(REPO, "src", "diamondlemma", "cli_io.py")
    with open(path, encoding="utf-8") as handle:
        nodes = sum(1 for _ in ast.walk(ast.parse(handle.read())))
    assert nodes <= CLI_IO_MAX_AST_NODES, nodes


# The kernel, the ambiguity and completion layers and the module of its
# theory are compiled by every ``diamond`` process that checks or completes
# a system, so the same holds for the eight modules together.
KERNEL_MODULES = (
    "monomial_theories",
    "ambiguity",
    "completion",
    "words",
    "power_products",
    "mixed",
    "magma",
    "paths",
)
KERNEL_MAX_AST_NODES = 11600


def test_kernel_compile_size_is_bounded():
    nodes = 0
    for module in KERNEL_MODULES:
        path = os.path.join(REPO, "src", "diamondlemma", module + ".py")
        with open(path, encoding="utf-8") as handle:
            nodes += sum(1 for _ in ast.walk(ast.parse(handle.read())))
    assert nodes <= KERNEL_MAX_AST_NODES, nodes


# Every ``diamond`` process that checks or completes a system compiles the
# shared modules below besides cli_io.py and its theory's module, so code
# moved out of the theory modules into them still counts here.
PROCESS_MODULES = (
    "algebra_core",
    "rewriting_engine",
    "monomial_theories",
    "ambiguity",
    "completion",
)
PROCESS_MAX_AST_NODES = 11246


def test_process_compile_size_is_bounded():
    nodes = 0
    for module in PROCESS_MODULES:
        path = os.path.join(REPO, "src", "diamondlemma", module + ".py")
        with open(path, encoding="utf-8") as handle:
            nodes += sum(1 for _ in ast.walk(ast.parse(handle.read())))
    assert nodes <= PROCESS_MAX_AST_NODES, nodes
