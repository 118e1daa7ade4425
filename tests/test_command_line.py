"""The ``diamond`` command line, read by its own table: every command line
the argparse parser it replaced accepted reads to the same attributes, and
every other one makes ``main`` return 3 with a usage and an error line."""

import pytest

from diamondlemma.cli_io import main
from diamondlemma.command_line import read
from oracles import bench_cli_tasks, reference_argument_parser

REFERENCE = reference_argument_parser()
FILE = "bench/systems/cli/commutative.sys"

# The spellings of a command line that the reader accepts, as argparse did.
SPELLINGS = [
    # options anywhere after the subcommand
    ["nf", "--max-steps", "5", FILE, "x"],
    ["nf", FILE, "--trail", "x"],
    ["complete", "--format", "json-lines", FILE],
    # --name value and --name=value
    ["check", FILE, "--max-steps=7"],
    ["check", FILE, "--format", "json-lines"],
    ["check", FILE, "--format=json-lines"],
    ["irr", FILE, "--max-degree", "4"],
    # unique prefixes of long options
    ["check", FILE, "--max-s", "5"],
    ["check", FILE, "--max", "5"],
    ["check", FILE, "--f", "text"],
    ["complete", FILE, "--max-d", "3", "--max-r=9", "--out", "done.sys"],
    ["nf", FILE, "x", "--tr", "--prec", "4"],
    # -o PATH
    ["complete", FILE, "-o", "done.sys"],
    ["complete", FILE, "-o=done.sys"],
    # a repeated option: the last one wins
    ["check", FILE, "--max-steps", "5", "--max-steps", "6"],
    ["complete", FILE, "-o", "a.sys", "--output", "b.sys"],
    # -- before an expression that starts with -
    ["nf", FILE, "--", "-x"],
    ["nf", "--", FILE, "-x"],
    ["member", FILE, "--max-steps", "3", "--", "-x + y"],
    # a token that reads as a negative number is a positional or a value
    ["nf", FILE, "-1"],
    ["nf", FILE, "x", "--precision", "-5"],
    ["nf", FILE, "x", "--precision=-2"],
    # the defaults
    ["pairs", FILE],
    ["member", FILE, "x"],
]

# Command lines the argparse parser refused too.
USAGE_ERRORS = [
    [],
    ["frob"],
    ["check"],
    ["nf", FILE],
    ["check", FILE, "extra"],
    ["check", FILE, "--bogus"],
    ["check", FILE, "--max-steps"],
    ["check", FILE, "--max-steps", "abc"],
    ["check", FILE, "--format", "xml"],
    ["complete", FILE, "--max", "5"],
    ["irr", FILE, "--max", "5"],
    ["nf", FILE, "x", "--trail=1"],
    ["nf", FILE, "-x"],
    ["nf", FILE, "x", "--", "--"],
    ["--", "check", FILE],
    ["--bogus", "check", FILE],
    ["check", FILE, "-o", "done.sys"],
    ["complete", FILE, "-o"],
    ["complete", FILE, "--output", "--", "x"],
    ["complete", FILE, "--output", "--trail"],
    ["check", FILE, "--max-steps="],
    ["check", FILE, "---"],
]

# Negative bounds, which argparse read and ran; the reader refuses them.
NEGATIVE_BOUNDS = [
    ["irr", "bench/systems/cli/assoc.sys", "--max-degree", "-4"],
    ["complete", "bench/systems/cli/mixed.sys", "--max-rules", "-3"],
    ["check", "bench/systems/cli/assoc.sys", "--max-steps", "-5"],
]

HELP = [["--help"], ["-h"], ["--he"], ["nf", "--help"], ["nf", FILE, "x", "-h"], ["complete", "--he"]]


def _ids(argv) -> str:
    return " ".join(argv) or "(none)"


@pytest.mark.parametrize(
    "argv", list(bench_cli_tasks().values()) + SPELLINGS, ids=_ids
)
def test_reader_agrees_with_argparse(argv):
    assert vars(read(argv)) == vars(REFERENCE.parse_args(argv))


@pytest.mark.parametrize("argv", USAGE_ERRORS + NEGATIVE_BOUNDS, ids=_ids)
def test_usage_errors_exit_3_with_a_usage_and_an_error_line(argv, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: diamond "), err
    assert lines[-1].startswith("error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=_ids)
def test_argparse_refused_the_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        REFERENCE.parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", HELP, ids=_ids)
def test_help_prints_the_usage_and_returns_0(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: diamond ")
    assert err == ""
    with pytest.raises(SystemExit) as exc:
        REFERENCE.parse_args(argv)
    assert exc.value.code == 0


def test_subcommand_help_names_its_positionals_and_options(capsys):
    assert main(["complete", "--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.startswith("usage: diamond complete FILE ")
    for option in ("--max-steps", "--format", "--max-degree", "--max-rules", "--output"):
        assert option in usage
