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


def _pair_ambiguities(theory, i, lead_i, j, lead_j) -> list:
    """Enumerate the minimal ambiguities of one rule pair, i <= j, from the
    theory's ``overlaps``."""
    out = []
    for superposition, ctx1, ctx2, kind, inner in theory.overlaps(lead_i, lead_j):
        if i == j:
            if ctx1 == ctx2:
                # Same rule applied identically is a single reduction, not an
                # ambiguity; this removes the identity inclusion of a self-pair.
                continue
            # What a self-pair has left are overlaps, which name no inner
            # slot, so its contexts are put in ``repr`` order.
            if repr(ctx2) < repr(ctx1):
                ctx1, ctx2 = ctx2, ctx1
        out.append(Ambiguity(i, ctx1, j, ctx2, superposition, kind, inner))
    return out


def critical_ambiguities(system) -> tuple:
    """The critical ambiguities of a system, montages discarded, ordered by
    superposition degree, then superposition, rules and contexts; the
    system's own ``ambiguities``, so each system enumerates them once."""
    return system.ambiguities


def _enumerate_ambiguities(system) -> tuple:
    th = system.theory
    leads = [rule.lead for rule in system.rules]
    ambs = []
    for i in range(len(leads)):
        for j in range(i, len(leads)):
            ambs += _pair_ambiguities(th, i, leads[i], j, leads[j])
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


def _s_box(system, amb: Ambiguity) -> list:
    """The s-polynomial of an ambiguity as a ``_rewrites`` box of the
    system's lead index: the images of the two rules' encoded lower parts
    under the encoded contexts, the second side negated, as numerators over
    the lcm of the two lower parts' denominators (residues over GF(p)).
    Images lie below the superposition, which is encoded first, so that one
    too large for its code raises DiamondError before any image is built."""
    index, lowers = system.lead_index, system.raw_lowers
    apply, p = index.apply, system.field.characteristic
    index.encode(amb.superposition)
    (lower1, d1), (lower2, d2) = lowers[amb.rule1], lowers[amb.rule2]
    den = lcm(d1, d2)
    out: dict = {}
    for ctx, lower, r in (
        (amb.ctx1, lower1, den // d1),
        (amb.ctx2, lower2, -den // d2),
    ):
        ctx = index.encode_context(ctx)
        for m, c in lower:
            _accumulate(out, apply(m, ctx), c * r, p)
    return [out, den]


def s_polynomial(system, amb: Ambiguity) -> Element:
    """Difference of the two one-step reductions of the superposition."""
    return _decoded(system, _s_box(system, amb))


class ResolutionCertificate(_Value):
    """Outcome of reducing an ambiguity's s-polynomial to normal form."""

    _fields = ("ambiguity", "resolved", "remainder", "trail")


def resolve(system, amb: Ambiguity, max_steps: int = DEFAULT_STEP_BUDGET) -> ResolutionCertificate:
    """Reduce the s-polynomial and certify whether the ambiguity resolves."""
    spoly = _Boxed(system, _s_box(system, amb))
    remainder, trail = normal_form_with_trail(system, spoly, max_steps)
    return ResolutionCertificate(amb, remainder.is_zero(), remainder, trail)
