"""The ``diamond`` command line: one table of subcommands and the reader
that turns an argv into the attributes their handlers read. Only
``cli_io.main`` imports this module, so parsing through the library
compiles none of it.
"""

import re
from types import SimpleNamespace

from .algebra_core import DiamondError
from .rewriting_engine import DEFAULT_STEP_BUDGET


def _flag(text):
    if text is not None:
        raise ValueError("a flag takes no value")
    return True


def _bound(text):
    value = int(text)
    if value < 0:
        raise ValueError("a bound is a nonnegative integer, not %d" % value)
    return value


def _format(text):
    if text in ("text", "json-lines"):
        return text
    raise ValueError("the format is text or json-lines")


# An option maps its attribute name to (type, default): the type turns the
# option's text into its value, or raises ValueError, a flag, of type _flag,
# takes no text, and a bound, of type _bound, is never negative. Its long
# spelling is the name with dashes; no name is a prefix of another. Every
# subcommand takes these two.
COMMON = {"max_steps": (_bound, DEFAULT_STEP_BUDGET), "format": (_format, "text")}

# Each subcommand's one-line help, its positional names, separated by spaces,
# and its further options.
COMMANDS = {
    "check": ("decide confluence by resolving every ambiguity", "file", {}),
    "complete": (
        "saturate the system with oriented remainders (-o is --output)",
        "file",
        {"max_degree": (_bound, 12), "max_rules": (_bound, 500), "output": (str, None)},
    ),
    "nf": (
        "reduce an expression to normal form",
        "file expression",
        {"precision": (int, None), "trail": (_flag, False)},
    ),
    "pairs": ("list the critical ambiguities", "file", {}),
    "irr": ("describe and count irreducible monomials", "file", {"max_degree": (_bound, 6)}),
    "member": ("decide ideal membership on a confluent system", "file expression", {}),
}

# A token is a positional when it starts with no dash, is empty, "-" or
# "--", or reads as a negative number.
_POSITIONAL = re.compile(r"[^-]|-{0,2}\Z|-\d*\.?\d+\Z")


def _usage(command):
    """The usage line and help of the subcommand, or of every one."""
    if command not in COMMANDS:
        return "\n".join(map(_usage, COMMANDS))
    summary, positionals, options = COMMANDS[command]
    spelled = "] [--".join({**COMMON, **options}).replace("_", "-")
    return "usage: diamond %s %s [--%s]\n  %s" % (command, positionals.upper(), spelled, summary)


def _option(token, options):
    """(name, text or None) of an option token, by its long spelling, a
    unique prefix of it, ``-o`` or ``-h``; None for a positional token."""
    if _POSITIONAL.match(token):
        return None
    head, eq, text = token.partition("=")
    long = {"-h": "--help", "-o": "--output"}.get(head, head)
    names = [name for name in (*options, "help") if ("--" + name).replace("_", "-").startswith(long)]
    if len(names) != 1:
        raise ValueError("%s matches %d options" % (head, len(names)))
    return names[0], text if eq else None


def read(argv):
    """The attributes of argv's subcommand, by the table; None once ``-h``
    or ``--help`` has printed the usage. Options may come anywhere after the
    subcommand and the last of a repeated one wins; every token after ``--``
    is a positional. Any other command line raises DiamondError with the
    usage and an error line."""
    tokens = iter(argv)
    command = next(tokens, "")
    try:
        if command not in COMMANDS:
            if _option(command, {}):
                print(_usage(None))
                return None
            raise ValueError("expected a subcommand, not %r" % command)
        _, positionals, options = COMMANDS[command]
        positionals = positionals.split()
        options = {**COMMON, **options}
        values = {name: default for name, (_, default) in options.items()}
        words = []
        for token in tokens:
            option = _option(token, options)
            if not option:
                words += tokens if token == "--" else (token,)
                continue
            name, text = option
            if name == "help":
                print(_usage(command))
                return None
            kind = options[name][0]
            if text is None and kind is not _flag:
                text = next(tokens, "--")
                if text == "--" or _option(text, options):
                    raise ValueError("%s needs a value" % token)
            values[name] = kind(text)
        if len(words) != len(positionals):
            raise ValueError("wrong number of positional arguments: %r" % words)
    except ValueError as exc:
        raise DiamondError("%s\nerror: %s" % (_usage(command), exc))
    return SimpleNamespace(command=command, **dict(zip(positionals, words)), **values)
