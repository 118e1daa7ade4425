"""The ``complete`` subcommand: complete a system and print its rules."""

from __future__ import annotations

from .cli_io import _emit, _load, format_rule, format_system
from .completion import CompletionStatus, complete


def run(args) -> int:
    sf = _load(args.file)
    report = complete(sf.system, args.max_degree, args.max_rules, args.max_steps)
    system = report.system
    text = format_system(system, sf.weight_data)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    records = [
        {
            "event": "completion",
            "status": report.status.value,
            "rules": len(system.rules),
            "added": len(report.added),
            "dropped": len(report.dropped),
            "pairs_processed": report.pairs_processed,
            "pairs_skipped": report.pairs_skipped,
            "pairs_filtered": report.pairs_filtered,
            "text": "status: %s (%d rules, %d added, %d dropped)"
            % (report.status.value, len(system.rules), len(report.added), len(report.dropped)),
        }
    ]
    th, order = system.theory, system.order
    for rule in system.rules:
        rendered = format_rule(th, order, rule)
        records.append({"event": "rule", "rule": rendered, "text": "rule %s" % rendered})
    _emit(records, args)
    return 0 if report.status is CompletionStatus.COMPLETE else 2
