"""The ``pairs`` subcommand: list the critical ambiguities."""

from __future__ import annotations

from .ambiguity import critical_ambiguities
from .cli_io import _emit, _load
from .monomial_theories import OverlapKind


def run(args) -> int:
    system = _load(args.file).system
    th = system.theory
    records = []
    for amb in critical_ambiguities(system):
        sup = th.serialize(amb.superposition)
        kind = "overlap" if amb.kind is OverlapKind.OVERLAP else "inclusion"
        records.append(
            {
                "event": "pair",
                "kind": kind,
                "rules": [amb.rule1, amb.rule2],
                "superposition": sup,
                "text": "%s rules (%d, %d) at %s" % (kind, amb.rule1, amb.rule2, sup),
            }
        )
    records.append({"event": "total", "count": len(records), "text": "%d ambiguities" % len(records)})
    _emit(records, args)
    return 0
