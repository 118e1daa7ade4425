"""Regenerate the stored references in bench/data/.

    python3 bench/make_reference.py

- groebner_reference.json: for each groebner case, the reduced basis from
  sympy's groebner(..., order="grlex") over the case's field.
- cli_golden.json: exit code and stdout of every cli task.

The CLI goldens record the library's output at the commit that defined the
benchmark; rerun this only for a change that is meant to alter CLI output,
and say so in that change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cases  # noqa: E402
import oracles  # noqa: E402


def main() -> int:
    os.makedirs(cases.DATA_DIR, exist_ok=True)
    reference = {}
    for case, filename, _, modulus in cases.GROEBNER_CASES:
        gens, polys, declared = oracles.read_polynomial_system(cases.system_path(filename))
        if declared != modulus:
            raise SystemExit("field of %s does not match cases.py" % filename)
        basis = oracles.sympy_groebner(gens, polys, modulus)
        reference[case] = {"modulus": modulus, "basis": oracles.basis_terms(basis, modulus)}
    with open(os.path.join(cases.DATA_DIR, "groebner_reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")

    golden = {}
    for task_id, argv in cases.cli_tasks():
        proc = subprocess.run(
            cases.cli_command(argv),
            cwd=cases.ROOT,
            env=cases.child_env(),
            capture_output=True,
            text=True,
            check=False,
        )
        golden[task_id] = {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout}
    with open(os.path.join(cases.DATA_DIR, "cli_golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
