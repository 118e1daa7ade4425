"""The ``irr`` subcommand: describe the irreducible monomials and count
them by degree."""

from __future__ import annotations

from .cli_io import _emit, _load
from .irreducible import count_irreducible, irr_description


def run(args) -> int:
    system = _load(args.file).system
    th = system.theory
    description = irr_description(system)
    leads = [th.serialize(m) for m in description.leads]
    records = [
        {
            "event": "irr",
            "semantics": description.semantics,
            "forbidden": leads,
            "text": "forbidden %ss: %s" % (description.semantics, ", ".join(leads) or "none"),
        }
    ]
    for d, count in enumerate(count_irreducible(system, args.max_degree, args.max_steps)):
        records.append(
            {"event": "count", "degree": d, "count": count, "text": "degree %d: %d" % (d, count)}
        )
    _emit(records, args)
    return 0
