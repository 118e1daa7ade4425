"""The fixed task lists of the four workloads, shared by run.py and worker.py.

Stdlib only: the parent process reads these to check results without
importing the library.
"""

from __future__ import annotations

import math
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SYSTEMS_DIR = os.path.join(BENCH_DIR, "systems")
DATA_DIR = os.path.join(BENCH_DIR, "data")

WORKLOADS = ("groebner", "nf-large", "corpus-sweep", "cli")

# Seconds of --seconds that one pass stands for. A run makes
# ceil(--seconds / PASS_SECONDS) passes: 1, 5, 3 and 3 at --seconds 15. A
# pass process takes 10-17 s, 2-3 s, 7-12 s and 6-8 s on a shared 2-core
# x86-64 VM with Python 3.11; corpus-sweep gets an extra pass because one
# pass of its short tasks is the least steady. The count depends on nothing
# measured, so every run with the same --seconds attempts the same tasks.
PASS_SECONDS = {"groebner": 15.0, "nf-large": 3.0, "corpus-sweep": 5.0, "cli": 5.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / PASS_SECONDS[workload]))

# groebner: (case, system file, complete() caps, field modulus or None).
# Reference bases in data/groebner_reference.json come from sympy's
# groebner(..., order="grlex") with the generators listed greatest first.
GROEBNER_CASES = (
    ("cyclic5_qq", "cyclic5_qq.sys", {"max_degree": 14, "max_rules": 500}, None),
    ("katsura5_gf", "katsura5_gf.sys", {"max_degree": 12, "max_rules": 500}, 32003),
)
# Step budgets per library call, over 50 times the most steps one call
# takes at the seed commit (158 here, 9455 for nf-large, 19 for the corpus).
GROEBNER_MAX_STEPS = 20_000

# nf-large: (case, system file, expression, precision for the series case).
NF_CASES = (
    ("sl2_pow7", "sl2.sys", "(h+f+e)^7", None),
    ("weyl_pow10", "weyl.sys", "(x+y)^10", None),
    ("weyl_y30x30", "weyl.sys", "y^30*x^30", None),
    ("series_pow8", "series.sys", "(x+y)^8", 11),
)
NF_MAX_STEPS = 500_000
SL2_REPRESENTATIONS = 12  # check in V(0) .. V(11)

# corpus-sweep: systems per theory and the small caps used when completing.
CORPUS_PER_THEORY = 1000
CORPUS_MAX_STEPS = 2_000
CORPUS_COMPLETE_CAPS = {"max_degree": 5, "max_rules": 8}

# cli: one process per subcommand and theory, 30 per pass.
CLI_EXPRESSIONS = {
    "assoc": "y^2*x",
    "commutative": "x^2*y^2 - z^2",
    "mixed": "y^2*x^2",
    "magma": "((y*x)*(x*x))",
    "path": "a^4*b",
}
CLI_MAX_STEPS = "100000"

# What the `diamond` console script runs: the package is not installed, so
# the entry point diamondlemma.cli_io:main is called the same way, from src/.
CLI_LAUNCH = "import sys; from diamondlemma.cli_io import main; sys.exit(main())"


def cli_command(argv) -> list:
    return [sys.executable, "-c", CLI_LAUNCH] + list(argv)


def child_env() -> dict:
    """Environment for workers and CLI processes.

    A fixed hash seed makes every process hash strings alike, so repeated
    passes do the same work and traced counts repeat exactly.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_tasks() -> list:
    """(task id, argv) for one CLI pass; paths are relative to the checkout root."""
    tasks = []
    for theory, expr in CLI_EXPRESSIONS.items():
        path = "bench/systems/cli/%s.sys" % theory
        budget = ["--max-steps", CLI_MAX_STEPS]
        tasks += [
            ("%s-nf" % theory, ["nf", path, expr] + budget),
            ("%s-check" % theory, ["check", path] + budget),
            ("%s-complete" % theory, ["complete", path, "--max-degree", "6"] + budget),
            ("%s-pairs" % theory, ["pairs", path] + budget),
            ("%s-irr" % theory, ["irr", path, "--max-degree", "6"] + budget),
            ("%s-member" % theory, ["member", path, expr] + budget),
        ]
    return tasks


def system_path(name: str) -> str:
    return os.path.join(SYSTEMS_DIR, name)
