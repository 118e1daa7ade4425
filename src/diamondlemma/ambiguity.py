"""Critical ambiguities between rules and their resolution certificates."""

from __future__ import annotations

from math import lcm

from .algebra_core import Element, _accumulate, _Value
from .rewriting_engine import DEFAULT_STEP_BUDGET, _Boxed, _decoded, normal_form_with_trail


class Ambiguity(_Value):
    """Two rule applications meeting on one superposition monomial.

    Canonically oriented so that (rule1, context key) <= (rule2, context key);
    for inclusions ``inner`` names the slot whose lead occurs inside the other.
    """

    _fields = ("rule1", "ctx1", "rule2", "ctx2", "superposition", "kind", "inner")
    _defaults = {"inner": None}


def _ambiguity(i, j, superposition, ctx1, ctx2, kind, inner) -> Ambiguity:
    """The ambiguity of rules i <= j at a decoded item of ``overlaps``. What
    a self-pair has left are overlaps, which name no inner slot, so its
    contexts are put in ``repr`` order."""
    if i == j and repr(ctx2) < repr(ctx1):
        ctx1, ctx2 = ctx2, ctx1
    return Ambiguity(i, ctx1, j, ctx2, superposition, kind, inner)


def _pair_ambiguities(theory, i, lead_i, j, lead_j) -> list:
    """Enumerate the minimal ambiguities of one rule pair, i <= j, from the
    theory's ``overlaps``. The same rule applied identically is a single
    reduction, not an ambiguity, so a self-pair drops its identity
    inclusion."""
    return [
        _ambiguity(i, j, *item)
        for item in theory.overlaps(lead_i, lead_j)
        if i != j or item[1] != item[2]
    ]


def critical_ambiguities(system) -> tuple:
    """The critical ambiguities of a system, montages discarded, ordered by
    superposition degree, then superposition, rules and contexts; the
    system's own ``ambiguities``, so each system enumerates them once."""
    return system.ambiguities


def _enumerate_ambiguities(system) -> dict:
    """The ambiguities of each rule pair (i, j), i <= j, that has any, by
    the pair, each pair's in the order of the theory's ``overlaps``."""
    th, leads = system.theory, [rule.lead for rule in system.rules]
    pairs = {}
    for j, lead in enumerate(leads):
        for i in range(j + 1):
            found = _pair_ambiguities(th, i, leads[i], j, lead)
            if found:
                pairs[i, j] = found
    return pairs


def _sorted_ambiguities(system) -> tuple:
    """The system's ``pair_ambiguities`` in ``critical_ambiguities`` order;
    a single one is not keyed."""
    th = system.theory
    ambs = [amb for found in system.pair_ambiguities.values() for amb in found]
    if len(ambs) > 1:
        ambs.sort(
            key=lambda a: (
                th.degree(a.superposition),
                th.serialize(a.superposition),
                a.rule1,
                a.rule2,
                repr(a.ctx1),
                repr(a.ctx2),
            )
        )
    return tuple(ambs)


def _s_box(system, rule1, ctx1, rule2, ctx2) -> list:
    """The s-polynomial of the ambiguity of two rules at encoded contexts,
    contexts that ``overlaps`` of the system's lead index lists, as a
    ``_rewrites`` box of that index: the images of the two rules' encoded
    lower parts under the contexts, the second side negated, as numerators
    over the lcm of the two lower parts' denominators (residues over
    GF(p)). Images lie below the superposition, so one too large for its
    code raises DiamondError, from ``check_superposition``, before any image
    is built."""
    index, lowers = system.lead_index, system.raw_lowers
    apply, p = index.apply, system.field.characteristic
    index.check_superposition(index.entries[rule1], ctx1)
    (lower1, d1), (lower2, d2) = lowers[rule1], lowers[rule2]
    den = lcm(d1, d2)
    out: dict = {}
    for ctx, lower, r in ((ctx1, lower1, den // d1), (ctx2, lower2, -den // d2)):
        for m, c in lower:
            _accumulate(out, apply(m, ctx), c * r, p)
    return [out, den]


def _ambiguity_box(system, amb: Ambiguity) -> list:
    """``_s_box`` of an ambiguity, its contexts encoded."""
    encode = system.lead_index.encode_context
    return _s_box(system, amb.rule1, encode(amb.ctx1), amb.rule2, encode(amb.ctx2))


def s_polynomial(system, amb: Ambiguity) -> Element:
    """Difference of the two one-step reductions of the superposition."""
    return _decoded(system, _ambiguity_box(system, amb))


class ResolutionCertificate(_Value):
    """Outcome of reducing an ambiguity's s-polynomial to normal form."""

    _fields = ("ambiguity", "resolved", "remainder", "trail")


def resolve(system, amb: Ambiguity, max_steps: int = DEFAULT_STEP_BUDGET) -> ResolutionCertificate:
    """Reduce the s-polynomial and certify whether the ambiguity resolves."""
    spoly = _Boxed(system, _ambiguity_box(system, amb))
    remainder, trail = normal_form_with_trail(system, spoly, max_steps)
    return ResolutionCertificate(amb, remainder.is_zero(), remainder, trail)
