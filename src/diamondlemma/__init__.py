"""Reduction systems, confluence and completion over five monomial theories.

Submodules load on first use (PEP 562): ``import diamondlemma`` runs none of
them, and each public name imports its submodule when it is first read.
"""

import importlib

# Public names by the submodule that defines them; every submodule is listed.
_EXPORTS = {
    "algebra_core": (
        "DiamondError",
        "Element",
        "Fp",
        "MonomialOrder",
        "OrderError",
        "OrderKind",
        "PrimeField",
        "RationalField",
        "ScalarError",
        "TheoryMismatchError",
    ),
    "ambiguity": (
        "Ambiguity",
        "ResolutionCertificate",
        "critical_ambiguities",
        "resolve",
        "s_polynomial",
    ),
    "cli_check": (),
    "cli_complete": (),
    "cli_io": (
        "ParseError",
        "SystemFile",
        "format_element",
        "format_rule",
        "format_scalar",
        "format_system",
        "main",
        "parse_expression",
        "parse_system_file",
    ),
    "cli_irr": (),
    "cli_member": (),
    "cli_nf": (),
    "cli_pairs": (),
    "command_line": (),
    "completion": (
        "AddedRule",
        "CompletionReport",
        "CompletionStatus",
        "complete",
        "drop_redundant",
    ),
    "confluence": (
        "ConfluenceStatus",
        "ConfluenceVerdict",
        "NotConfluentSystemError",
        "check_confluence",
        "ideal_member",
    ),
    "irreducible": (
        "ForbiddenFactorSet",
        "count_irreducible",
        "irr_description",
    ),
    "magma": ("FreeMagmaTheory",),
    "mixed": ("MixedTheory",),
    "monomial_theories": (
        "OverlapKind",
        "Theory",
    ),
    "packed_codes": (),
    "paths": ("PathAlgebraTheory",),
    "power_products": ("CommutativeTheory",),
    "power_series": (
        "EquicontinuityReport",
        "SeriesAdmissionError",
        "SeriesNormalForm",
        "TdccReport",
        "WeightData",
        "check_equicontinuity",
        "check_tdcc",
        "norm",
        "truncated_normal_form",
    ),
    "rewriting_engine": (
        "DEFAULT_STEP_BUDGET",
        "RewriteStep",
        "RewritingSystem",
        "Rule",
        "RuleError",
        "StepBudgetExceededError",
        "ZeroElementError",
        "is_irreducible_monomial",
        "normal_form",
        "normal_form_with_trail",
        "orient",
        "reduce_once",
    ),
    "words": ("FreeMonoidTheory",),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(importlib.import_module("." + module, __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
