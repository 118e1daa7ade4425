"""The traced benchmark run wraps library names; they must keep existing."""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs the tracer on a fresh interpreter, then completes a small system
# over QQ and over GF(7) through the wrapped names and checks that the
# wrappers counted the work, the residue operators included.
_SCRIPT = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import diamondlemma
from tracer import Tracer

tracer = Tracer()
tracer.install(diamondlemma)
for field in ("", "field 7\\n"):
    system = diamondlemma.parse_system(
        "theory commutative\\n" + field
        + "vars x y z\\nrule x*y -> z\\nrule y*z -> x\\nrule x*z -> y\\n"
    )
    report = diamondlemma.complete(system)
    assert report.status is diamondlemma.CompletionStatus.COMPLETE
layers = tracer.layer_metrics()
assert layers["completion.pairs_processed"] > 0, layers
assert layers["algebra_core.sort_key_calls"] > 0, layers
assert layers["algebra_core.fp_ops"] > 0, layers
"""


def test_tracer_installs_on_the_package():
    script = _SCRIPT.format(bench=os.path.join(REPO, "bench"), src=os.path.join(REPO, "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
