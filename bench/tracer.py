"""Spans and counts at each call into the library's modules, for the traced run.

``install`` replaces public functions at every module attribute that refers
to them, so calls between the library's own modules are caught too, and
replaces the public methods on the theory, order, element and residue
classes. Each wrapped call measures its duration and its self time (the
duration minus the time spent in wrapped calls made inside it).

Calls at module boundaries (normal forms, ambiguity enumeration, completion,
parsing, ...) are kept as spans: name, start, end, parent span and task id,
held in memory and written out when the run ends. The per-monomial and
per-scalar methods (``divisions``, ``sort_key``, ``Fp`` operators, ...) run
millions of times in one pass, so they are only counted and timed, and their
time is subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, layer metric stem); attributes are public functions.
SPAN_FUNCTIONS = (
    ("rewriting_engine", "normal_form", "nf"),
    ("rewriting_engine", "normal_form_with_trail", "nf"),
    ("rewriting_engine", "orient", "orient"),
    ("ambiguity", "critical_ambiguities", "critical"),
    ("ambiguity", "resolve", "resolve"),
    ("ambiguity", "s_polynomial", "s_polynomial"),
    ("completion", "check_confluence", "check_confluence"),
    ("completion", "complete", "complete"),
    ("completion", "drop_redundant", "drop_redundant"),
    ("completion", "ideal_member", "ideal_member"),
    ("power_series", "truncated_normal_form", "truncated_nf"),
    ("cli_io", "parse_system_file", "parse"),
    ("cli_io", "parse_expression", "parse"),
    ("cli_io", "format_element", "format"),
    ("cli_io", "format_rule", "format"),
    ("cli_io", "format_system", "format"),
    ("cli_io", "main", "cli_main"),
)

# (module, class, method, stem) counted and timed without a stored span.
LEAF_METHODS = (
    ("algebra_core", "MonomialOrder", "sort_key", "sort_key"),
    ("algebra_core", "Element", "__add__", "element_arith"),
    ("algebra_core", "Element", "__sub__", "element_arith"),
    ("algebra_core", "Element", "scaled", "element_arith"),
    ("algebra_core", "Element", "from_dict", "element_arith"),
    ("algebra_core", "Fp", "__add__", "fp"),
    ("algebra_core", "Fp", "__sub__", "fp"),
    ("algebra_core", "Fp", "__mul__", "fp"),
    ("algebra_core", "Fp", "__truediv__", "fp"),
    ("algebra_core", "Fp", "__neg__", "fp"),
) + tuple(
    ("monomial_theories", cls, method, method)
    for cls in (
        "FreeMonoidTheory",
        "CommutativeTheory",
        "MixedTheory",
        "FreeMagmaTheory",
        "PathAlgebraTheory",
    )
    for method in ("divisions", "overlaps", "apply_context")
)

# RewritingSystem validation is a span of its own.
SPAN_METHODS = (("rewriting_engine", "RewritingSystem", "__post_init__", "system_build"),)

# Callers of normal_form inside completion, by code name.
_NF_CALLERS = {"complete": "pairs", "_interreduce": "interreduce", "_drop_pass": "drop"}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # One frame per active wrapped call: [start, time in wrapped children].
        self.stack = [[0.0, 0.0]]
        self.spans: list = []
        self.current = -1  # index of the innermost open span
        self.task = ""
        self.names: list = []
        self.calls: dict = {}  # stem -> [count, self seconds]
        self.counts: dict = {}  # named exact counts
        self.nf_by_caller: dict = {}  # caller -> inclusive seconds

    def count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, stem: str, fn, keep_span: bool, after=None):
        """Wrap fn; its calls add to the totals of ``stem``."""
        stack, clock, calls = self.stack, self.clock, self.calls
        calls.setdefault(stem, [0, 0.0])
        record = calls[stem]
        name_id = len(self.names)
        self.names.append("%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__qualname__))
        tracer = self

        if not keep_span:

            def leaf(*args, **kwargs):
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - frame[0]
                    stack.pop()
                    stack[-1][1] += dur
                    record[0] += 1
                    record[1] += dur - frame[1]

            return leaf

        def span(*args, **kwargs):
            parent = tracer.current
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.current = index
            frame = [clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                dur = end - frame[0]
                stack.pop()
                stack[-1][1] += dur
                record[0] += 1
                record[1] += dur - frame[1]
                tracer.current = parent
                tracer.spans[index] = (name_id, frame[0], end, parent, tracer.task)
                if after is not None:
                    after(args, result, dur)

        return span

    # Hooks that read exact counts off arguments and results.

    def _after_nf(self, args, result, dur):
        caller = _NF_CALLERS.get(sys._getframe(2).f_code.co_name)
        if result is None:
            return
        out = result[0] if isinstance(result, tuple) else result
        self.count("nf_terms_in", len(args[1].terms))
        self.count("nf_terms_out", len(out.terms))
        if caller is not None:
            self.nf_by_caller[caller] = self.nf_by_caller.get(caller, 0.0) + dur
            if caller == "pairs" and out.is_zero():
                self.count("pairs_to_zero", 1)

    def _after_complete(self, args, result, dur):
        if result is not None:
            self.count("pairs_processed", result.pairs_processed)
            self.count("rules_added", len(result.added))

    def _after_critical(self, args, result, dur):
        if result is not None:
            self.count("ambiguities", len(result))

    def install(self, package) -> None:
        """Wrap the library's functions and methods in place."""
        modules = [package] + [
            getattr(package, name)
            for name in (
                "algebra_core",
                "monomial_theories",
                "rewriting_engine",
                "ambiguity",
                "completion",
                "power_series",
                "cli_io",
            )
        ]
        hooks = {
            "nf": self._after_nf,
            "complete": self._after_complete,
            "critical": self._after_critical,
        }
        for mod_name, attr, stem in SPAN_FUNCTIONS:
            original = getattr(getattr(package, mod_name), attr)
            wrapper = self._wrap(stem, original, True, hooks.get(stem))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for mod_name, cls_name, method, stem in SPAN_METHODS + LEAF_METHODS:
            cls = getattr(getattr(package, mod_name), cls_name)
            raw = cls.__dict__[method]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(stem, fn, (mod_name, cls_name, method, stem) in SPAN_METHODS)
            setattr(cls, method, staticmethod(wrapper) if is_static else wrapper)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\ttask\n")
            for name_id, start, end, parent, task in self.spans:
                handle.write(
                    "%s\t%.9f\t%.9f\t%d\t%s\n" % (self.names[name_id], start, end, parent, task)
                )

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times, keyed by the names in BENCHMARK.json."""
        calls, counts = self.calls, self.counts

        def n(stem):
            return calls.get(stem, [0, 0.0])[0]

        def s(*stems):
            return sum(calls.get(stem, [0, 0.0])[1] for stem in stems)

        processed = counts.get("pairs_processed", 0)
        return {
            "algebra_core.sort_key_calls": n("sort_key"),
            "algebra_core.element_arith_calls": n("element_arith"),
            "algebra_core.element_arith_s": s("element_arith"),
            "algebra_core.fp_ops": n("fp"),
            "algebra_core.fp_s": s("fp"),
            "monomial_theories.divisions_calls": n("divisions"),
            "monomial_theories.divisions_s": s("divisions"),
            "monomial_theories.overlaps_calls": n("overlaps"),
            "monomial_theories.overlaps_s": s("overlaps"),
            "monomial_theories.apply_context_calls": n("apply_context"),
            "rewriting_engine.nf_calls": n("nf"),
            "rewriting_engine.nf_s": s("nf"),
            "rewriting_engine.nf_terms_in": counts.get("nf_terms_in", 0),
            "rewriting_engine.nf_terms_out": counts.get("nf_terms_out", 0),
            "rewriting_engine.system_build_s": s("system_build"),
            "ambiguity.critical_s": s("critical"),
            "ambiguity.ambiguities": counts.get("ambiguities", 0),
            "ambiguity.resolve_s": s("resolve"),
            "ambiguity.s_polynomial_s": s("s_polynomial"),
            "completion.pairs_processed": processed,
            "completion.pairs_to_zero": counts.get("pairs_to_zero", 0),
            "completion.useful_ratio": counts.get("rules_added", 0) / processed if processed else 0.0,
            "completion.nf_pairs_s": self.nf_by_caller.get("pairs", 0.0),
            "completion.nf_interreduce_s": self.nf_by_caller.get("interreduce", 0.0),
            "completion.nf_drop_s": self.nf_by_caller.get("drop", 0.0),
            "completion.check_confluence_s": s("check_confluence"),
            "power_series.truncated_nf_s": s("truncated_nf"),
            "cli_io.parse_ms": 1000.0 * s("parse"),
            "cli_io.format_ms": 1000.0 * s("format"),
        }
