"""Critical ambiguities between rules and their resolution certificates."""

from __future__ import annotations

from math import lcm
from operator import itemgetter

from .algebra_core import Element, _accumulate, _set, _Value
from .monomial_theories import _keyed
from .rewriting_engine import (
    DEFAULT_STEP_BUDGET,
    _Boxed,
    _decoded,
    _pair_overlaps,
    normal_form_with_trail,
)


class Ambiguity(_Value):
    """Two rule applications meeting on one superposition monomial.

    Canonically oriented so that (rule1, context key) <= (rule2, context key);
    for inclusions ``inner`` names the slot whose lead occurs inside the other.
    """

    _fields = ("rule1", "ctx1", "rule2", "ctx2", "superposition", "kind", "inner")
    _defaults = {"inner": None}


def _ambiguity(codec, i, j, item) -> tuple:
    """(sort key, the ambiguity, its encoded contexts) of rules i <= j at an
    item of the codec's ``overlaps``, decoded as ``Theory.overlaps`` lists
    it, through the decode cache ``_keyed``. What a self-pair has left are
    overlaps, which name no inner slot, so its contexts are put in ``repr``
    order, the encoded ones with them. The key is the one of
    ``critical_ambiguities`` order."""
    (sup, ctx1, ctx2, kind, inner), (deg, text, key1, key2) = _keyed(codec, item)
    codes = item[1:3]
    if i == j and key2 < key1:
        ctx1, ctx2, key1, key2, codes = ctx2, ctx1, key2, key1, codes[::-1]
    return (deg, text, i, j, key1, key2), Ambiguity(i, ctx1, j, ctx2, sup, kind, inner), codes


def critical_ambiguities(system) -> tuple:
    """The critical ambiguities of a system, montages discarded, ordered by
    superposition degree, then superposition, rules and contexts; the
    system's own ``ambiguities``, so each system enumerates them once."""
    return system.ambiguities


def _sorted_ambiguities(system) -> tuple:
    """The ambiguities of each rule pair i <= j, what the overlap kernel of
    the system's ``lead_index`` lists on the leads' codes, the identity
    inclusion of a self-pair dropped, as the same applied rule is a single
    reduction; in ``critical_ambiguities`` order, sorted on the keys that
    the decode cache keeps with each item. Sets their encoded contexts, in
    that order, as the system's ``_contexts``."""
    codec, entries = system.order.codec, system.lead_index.entries
    found = [
        _ambiguity(codec, i, j, item)
        for j, lead in enumerate(entries)
        for i in range(j + 1)
        for item in _pair_overlaps(codec, entries[i], lead)
        if i != j or item[1] != item[2]
    ]
    found.sort(key=itemgetter(0))
    _set(system, "_contexts", tuple([codes for _, _, codes in found]))
    return tuple([amb for _, amb, _ in found])


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
