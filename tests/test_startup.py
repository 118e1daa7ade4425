"""What a fresh interpreter loads: the package imports its submodules lazily
and the command line imports only what its subcommand runs."""

import os
import subprocess
import sys

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
    "rewriting_engine",
    "ambiguity",
    "completion",
    "power_series",
    "cli_io",
)


def _run(script: str, *argv: str) -> None:
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


def test_cli_loads_only_what_its_subcommand_runs():
    _run(_CLI_SCRIPT)


def test_package_names_resolve_lazily():
    _run(_PACKAGE_SCRIPT)


def test_submodules_are_package_attributes():
    for name in _SUBMODULES:
        _run(_SUBMODULE_SCRIPT, name)
