"""The ``member`` subcommand: decide ideal membership on a confluent
system."""

from __future__ import annotations

import sys

from .cli_io import _emit, _load, parse_expression
from .confluence import NotConfluentSystemError, ideal_member
from .rewriting_engine import _well_founded


def run(args) -> int:
    system = _well_founded(_load(args.file).system, "membership")
    element = parse_expression(args.expression, system.theory, system.field)
    try:
        verdict = ideal_member(system, element, args.max_steps)
    except NotConfluentSystemError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    _emit(
        [
            {
                "event": "member",
                "value": verdict,
                "text": "member" if verdict else "not a member",
            }
        ],
        args,
    )
    return 0 if verdict else 1
