"""The traced benchmark run wraps library names; they must keep existing."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs the tracer on a fresh interpreter, then completes a small system
# over QQ and over GF(7), and a mixed, a magma and a path system, through the
# wrapped names, and checks that the wrappers counted the work, the residue
# operators included. No library path calls a theory's ``overlaps`` or
# ``divisions``, since ambiguities and pairs are listed on lead codes, so a
# direct ``overlaps`` call on each system's theory checks that the wrapper is
# installed on every theory class. Completion orients its remainders on
# residues, so the residue operators are counted on ``orient`` of a GF(7)
# element. Parsing and
# completion build their systems of rules already checked, so the system
# build span is timed on one system built through ``RewritingSystem``.
_SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import diamondlemma
from tracer import Tracer

# The tracer is installed before any submodule is loaded.
assert not [m for m in sys.modules if m.startswith("diamondlemma.")]
tracer = Tracer()
tracer.install(diamondlemma)
texts = [
    "theory commutative\\n" + field
    + "vars x y z\\nrule x*y -> z\\nrule y*z -> x\\nrule x*z -> y\\n"
    for field in ("", "field 7\\n")
] + [
    "theory mixed\\ncvars t\\nvars x y\\nrule y*x -> t*x\\nrule t^2*x -> y\\n",
    "theory magma\\nvars x y\\nrule y*x -> x*y\\nrule (y*x)*x -> x\\n",
    "theory path\\nvertices 1 2\\narrow a: 1 -> 2\\narrow b: 2 -> 1\\nrule a*b*a -> a\\n",
]
for text in texts:
    before = tracer.layer_metrics()
    system = diamondlemma.parse_system_file(text).system
    report = diamondlemma.complete(system)
    assert report.status is diamondlemma.CompletionStatus.COMPLETE
    lead = system.rules[0].lead
    system.theory.overlaps(lead, lead)
    after = tracer.layer_metrics()
    for name in (
        "completion.pairs_processed",
        "rewriting_engine.nf_calls",
        "monomial_theories.overlaps_calls",
    ):
        assert after[name] > before[name], (text, name)
system = diamondlemma.parse_system_file(texts[1]).system
diamondlemma.RewritingSystem(system.theory, system.order, system.rules, system.field)
diamondlemma.orient(
    system.order, diamondlemma.parse_expression("3*x*y + z", system.theory, system.field)
)
layers = tracer.layer_metrics()
assert layers["completion.pairs_processed"] > 0, layers
assert layers["algebra_core.sort_key_calls"] > 0, layers
assert layers["algebra_core.fp_ops"] > 0, layers
assert layers["rewriting_engine.system_build_s"] > 0, layers
"""


def test_tracer_installs_on_the_package():
    script = _SCRIPT.format(bench=os.path.join(REPO, "bench"), src=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
