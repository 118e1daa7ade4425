"""Seeded fuzzing of the ``diamond`` command line: mutations of the bench's
command lines, each run by ``main`` in-process, end with one of the
README's exit codes (0, 1, 2 or 3) and never raise."""

import os
import random
import shutil

from diamondlemma.cli_io import main
from oracles import REPO, bench_cli_tasks

SEED = 27
MUTATIONS = 500
BUDGET = "200"

# What replaces an integer token: junk, a number past the digits int()
# reads, and negative values. A huge step budget is also tried; a huge
# --max-degree is not, since ``irr`` counts every degree up to it.
JUNK = ("abc", "", "0x10", "1e3", "2.5", "٣", "9" * 5000, "-1", "-200", "0")
HUGE = str(10**30)
UNKNOWN = ("--bogus", "-x", "--max", "--=", "-o", "--trail=1", "---", "-h5", "--max-steps=")


def _base_argvs() -> list:
    """The bench's command lines, with a step budget of BUDGET."""
    argvs = []
    for argv in bench_cli_tasks().values():
        argv = list(argv)
        argv[argv.index("--max-steps") + 1] = BUDGET
        argvs.append(argv)
    return argvs


def _mutate(argv: list, rng) -> list:
    argv = list(argv)
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(argv) + 1)
        kind = rng.randrange(6)
        if kind == 0 and i < len(argv):
            del argv[i]
        elif kind == 1 and i < len(argv):
            argv.insert(i, argv[i])
        elif kind == 2 and len(argv) > 1:
            j = rng.randrange(len(argv))
            i %= len(argv)
            argv[i], argv[j] = argv[j], argv[i]
        elif kind == 3:
            numbers = [k for k, token in enumerate(argv) if token.isdecimal()]
            if numbers:
                k = rng.choice(numbers)
                argv[k] = rng.choice(JUNK + ((HUGE,) if argv[k] == BUDGET else ()))
        elif kind == 4:
            argv.insert(i, rng.choice(UNKNOWN))
        elif "--" in argv:
            argv.remove("--")
            argv.insert(i % (len(argv) + 1), "--")
        else:
            argv.insert(i, "--")
    return argv


def test_mutated_command_lines_exit_with_a_readme_code(monkeypatch, capsys, tmp_path):
    # -o may name any token, a system file included, so the runs read copies
    # of the bench's systems at the same relative paths.
    shutil.copytree(os.path.join(REPO, "bench", "systems", "cli"), tmp_path / "bench" / "systems" / "cli")
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    bases = _base_argvs()
    codes = {}
    for _ in range(MUTATIONS):
        argv = _mutate(rng.choice(bases), rng)
        code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        codes[code] = codes.get(code, 0) + 1
        err = capsys.readouterr().err
        assert "Traceback" not in err, (argv, err)
    # The mutations reach both the handlers and the usage errors.
    assert codes.get(3, 0) > MUTATIONS // 20 and codes.get(0, 0) > MUTATIONS // 20, codes

