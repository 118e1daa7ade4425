"""The ``nf`` subcommand: reduce an expression to normal form, plainly or
to a precision."""

from __future__ import annotations

import sys

from .cli_io import _emit, _load, format_element, parse_expression
from .rewriting_engine import normal_form, normal_form_with_trail


def run(args) -> int:
    sf = _load(args.file)
    system = sf.system
    th, order = system.theory, system.order
    element = parse_expression(args.expression, th, system.field)
    if args.precision is not None:
        from .power_series import truncated_normal_form

        if sf.weight_data is None:
            print("no weights declared in the system file", file=sys.stderr)
            return 3
        result = truncated_normal_form(
            system, sf.weight_data, element, args.precision, args.max_steps
        )
        rendered = format_element(th, order, result.representative)
        record = {
            "event": "normal-form",
            "result": rendered,
            "precision": result.precision,
            "truncated": result.truncated,
            "text": rendered,
        }
        _emit([record], args)
        return 0
    if not order.is_well_founded():
        print(
            "the order is not well-founded, so plain reduction may not terminate;"
            " pass --precision N",
            file=sys.stderr,
        )
        return 3
    records = []
    if args.trail:
        result, trail = normal_form_with_trail(system, element, args.max_steps)
        for i, step in enumerate(trail, start=1):
            mono = th.serialize(step.monomial)
            records.append(
                {
                    "event": "step",
                    "index": i,
                    "rule": step.rule_index,
                    "monomial": mono,
                    "text": "step %d: rule %d at %s" % (i, step.rule_index, mono),
                }
            )
    else:
        result = normal_form(system, element, args.max_steps)
    rendered = format_element(th, order, result)
    records.append({"event": "normal-form", "result": rendered, "text": rendered})
    _emit(records, args)
    return 0
