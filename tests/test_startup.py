"""What a fresh interpreter loads: the package imports its submodules lazily
and the command line imports only what its subcommand runs."""

import ast
import functools
import importlib.util
import os
import subprocess
import sys

import pytest

import diamondlemma
from diamondlemma import monomial_theories
from diamondlemma.monomial_theories import THEORIES

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs main on the arguments after the script, then prints the ``ast.walk``
# node count of every diamondlemma module the process loaded, and their
# names. Importing cli_io loads none of ``deferred``, and the process never
# loads the stdlib modules of ``never``.
_CLI_SCRIPT = """
import io
import sys
from diamondlemma.cli_io import main

never = ("dataclasses", "inspect", "ast", "json")
deferred = ("completion", "confluence", "ambiguity", "irreducible", "packed_codes", "power_series")
loaded = [m for m in deferred if "diamondlemma." + m in sys.modules]
assert not loaded, loaded
sys.stdout = io.StringIO()
code = main(sys.argv[1:])
sys.stdout = sys.__stdout__
assert code in (0, 1, 2), code
loaded = [m for m in never if m in sys.modules]
assert not loaded, loaded
import ast

loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "diamondlemma")
nodes = 0
for name in loaded:
    with open(sys.modules[name].__file__, encoding="utf-8") as handle:
        nodes += sum(1 for _ in ast.walk(ast.parse(handle.read())))
print(nodes, *(name.rpartition(".")[2] for name in loaded))
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

# Parses the system file argv[1] through the package; only ``main`` needs
# argparse, which loads gettext.
_LIBRARY_SCRIPT = """
import sys
import diamondlemma

with open(sys.argv[1], encoding="utf-8") as handle:
    diamondlemma.parse_system_file(handle.read())
loaded = [m for m in ("argparse", "gettext") if m in sys.modules]
assert not loaded, loaded
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
    "confluence",
    "irreducible",
    "packed_codes",
    "power_series",
    "cli_io",
    "cli_check",
    "cli_complete",
    "cli_irr",
    "cli_member",
    "cli_nf",
    "cli_pairs",
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


def _bench_cli_tasks() -> dict:
    """argv by task id of one pass of the bench's cli workload: each
    subcommand on each system of ``bench/systems/cli``. ``bench/cases.py``
    is stdlib only, so it loads here from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_cases", os.path.join(REPO, "bench", "cases.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.cli_tasks())


CLI_TASKS = _bench_cli_tasks()


@functools.cache
def _process(task: str) -> tuple:
    """(AST nodes compiled, names of the diamondlemma modules loaded) of the
    ``diamond`` process of a bench cli task."""
    nodes, *loaded = _run(_CLI_SCRIPT, *CLI_TASKS[task]).split()
    return int(nodes), set(loaded)


def test_cli_loads_only_what_its_subcommand_runs():
    theories = {module for module, _ in THEORIES.values()}
    packed = {"power_products", "mixed"}
    for task, argv in sorted(CLI_TASKS.items()):
        command, keyword = argv[0], os.path.basename(argv[1]).partition(".")[0]
        loaded = _process(task)[1]
        assert loaded & theories == {THEORIES[keyword][0]}, task
        handlers = {m for m in loaded if m.startswith("cli_")}
        assert handlers == {"cli_io", "cli_" + command}, task
        assert ("ambiguity" in loaded) == (command in ("check", "complete", "pairs", "member")), task
        assert ("confluence" in loaded) == (command in ("check", "complete", "member")), task
        assert ("completion" in loaded) == (command == "complete"), task
        assert ("irreducible" in loaded) == (command == "irr"), task
        assert ("packed_codes" in loaded) == (THEORIES[keyword][0] in packed), task
        assert "power_series" not in loaded, task


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


@pytest.mark.parametrize("keyword", sorted(THEORIES))
def test_parsing_a_system_file_loads_no_argparse(keyword):
    _run(_LIBRARY_SCRIPT, os.path.join("bench", "systems", "cli", keyword + ".sys"))


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


# The AST nodes, counted by ``ast.walk`` over every diamondlemma module the
# process loads, that the ``diamond`` process of each bench cli task
# compiles: each subcommand on each system of ``bench/systems/cli``, so that
# every theory module is counted in every subcommand's process. Compiling is
# about half of a process's start-up when PYTHONDONTWRITEBYTECODE=1 is set,
# as the benchmark sets it (see the FOUND line on PYTHONDONTWRITEBYTECODE in
# CHANGES.md), so a process that compiles more takes a deliberate raise of
# its bound.
TASK_MAX_AST_NODES = {
    "assoc-nf": 13104,
    "assoc-check": 14051,
    "assoc-complete": 16217,
    "assoc-pairs": 13603,
    "assoc-irr": 13274,
    "assoc-member": 13964,
    "commutative-nf": 14591,
    "commutative-check": 15538,
    "commutative-complete": 17704,
    "commutative-pairs": 15090,
    "commutative-irr": 14761,
    "commutative-member": 15451,
    "mixed-nf": 15289,
    "mixed-check": 16236,
    "mixed-complete": 18402,
    "mixed-pairs": 15788,
    "mixed-irr": 15459,
    "mixed-member": 16149,
    "magma-nf": 13606,
    "magma-check": 14553,
    "magma-complete": 16719,
    "magma-pairs": 14105,
    "magma-irr": 13776,
    "magma-member": 14466,
    "path-nf": 14099,
    "path-check": 15046,
    "path-complete": 17212,
    "path-pairs": 14598,
    "path-irr": 14269,
    "path-member": 14959,
}


@pytest.mark.parametrize("task", sorted(CLI_TASKS))
def test_task_compile_size_is_bounded(task):
    nodes = _process(task)[0]
    assert nodes <= TASK_MAX_AST_NODES[task], nodes
