"""The ``check`` subcommand: decide confluence and print the verdict."""

from __future__ import annotations

import sys

from .cli_io import _emit, _load, format_element
from .confluence import ConfluenceStatus, check_confluence


def run(args) -> int:
    system = _load(args.file).system
    th, order = system.theory, system.order
    verdict = check_confluence(system, args.max_steps)
    if verdict.status is ConfluenceStatus.CONFLUENT:
        _emit(
            [
                {
                    "event": "verdict",
                    "status": "confluent",
                    "checked": verdict.checked,
                    "text": "confluent (%d ambiguities resolved)" % verdict.checked,
                }
            ],
            args,
        )
        return 0
    if verdict.status is ConfluenceStatus.NOT_CONFLUENT:
        cert = verdict.witness
        sup = th.serialize(cert.ambiguity.superposition)
        remainder = format_element(th, order, cert.remainder)
        _emit(
            [
                {
                    "event": "verdict",
                    "status": "not-confluent",
                    "checked": verdict.checked,
                    "superposition": sup,
                    "remainder": remainder,
                    "text": "not confluent: ambiguity at %s leaves %s" % (sup, remainder),
                }
            ],
            args,
        )
        return 1
    print("inconclusive: step budget exhausted %s" % verdict.stop_point(th), file=sys.stderr)
    return 2
