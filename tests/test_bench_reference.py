"""The benchmark's two completions against its stored reference bases.

The benchmark's check reads the stored bases through ``bench/oracles.py``
and the system files and caps through ``bench/cases.py``; both modules are
stdlib only, so they load here from their files, and a wrong basis fails
this test before a benchmark run would count it as an incorrect output.
"""

import importlib.util
import json
import os

import pytest

from diamondlemma import CompletionStatus, Fp, complete, parse_system_file

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_module(name: str):
    """A module of ``bench/`` loaded from its file under a name of its own,
    as ``tests/`` has an ``oracles`` module too."""
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(REPO, "bench", name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = bench_module("cases")
ORACLES = bench_module("oracles")


@pytest.mark.parametrize("case", CASES.GROEBNER_CASES, ids=lambda case: case[0])
def test_completion_matches_the_stored_reference_basis(case):
    name, filename, caps, modulus = case
    with open(CASES.system_path(filename), encoding="utf-8") as handle:
        system = parse_system_file(handle.read()).system
    report = complete(system, max_steps=CASES.GROEBNER_MAX_STEPS, **caps)
    assert report.status is CompletionStatus.COMPLETE
    # The rules as the benchmark's worker writes them.
    rules = [
        [rule.lead, [[m, str(c.value if isinstance(c, Fp) else c)] for m, c in rule.lower.terms]]
        for rule in report.system.rules
    ]
    with open(os.path.join(CASES.DATA_DIR, "groebner_reference.json"), encoding="utf-8") as handle:
        stored = json.load(handle)[name]["basis"]
    got = ORACLES.rules_as_polynomials(rules, modulus)
    assert got == ORACLES.reference_polynomials(stored, modulus)
