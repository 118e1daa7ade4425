"""Oriented rules, the reduction strategy and normal forms."""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction

from .algebra_core import DiamondError, Element, MonomialOrder, RationalField, _set, _Value

DEFAULT_STEP_BUDGET = 10**6


class RuleError(DiamondError):
    """Raised when a rule violates compatibility or uniformity."""


class ZeroElementError(DiamondError):
    """Raised when orienting the zero element."""


class StepBudgetExceededError(DiamondError):
    """Raised when a reduction exceeds its step budget."""


class Rule(_Value):
    """Monic rewriting rule: lead rewrites to the lower-part element."""

    _fields = ("lead", "lower")

    def __init__(self, lead, lower: Element) -> None:
        _set(self, "lead", lead)
        _set(self, "lower", lower)


class RewriteStep(_Value):
    """One applied reduction: which rule, at which monomial, in which context."""

    _fields = ("rule_index", "monomial", "context", "coefficient")

    def __init__(self, rule_index: int, monomial, context, coefficient) -> None:
        _set(self, "rule_index", rule_index)
        _set(self, "monomial", monomial)
        _set(self, "context", context)
        _set(self, "coefficient", coefficient)


class RewritingSystem(_Value):
    """A theory, a monomial order and a tuple of compatible rules.

    ``lead_index`` and ``raw_lowers`` are built from the rules on first use
    and kept on the instance; they are no fields, so equality, hashing and
    repr ignore them. ``__init__`` validates the rules in ``__post_init__``,
    a method of its own so that a tracer can time every system build.
    """

    _fields = ("theory", "order", "rules", "field")

    def __init__(self, theory, order: MonomialOrder, rules: tuple, field=RationalField()) -> None:
        _set(self, "theory", theory)
        _set(self, "order", order)
        _set(self, "rules", rules)
        _set(self, "field", field)
        self.__post_init__()

    def __post_init__(self) -> None:
        th, order = self.theory, self.order
        if order.theory != th:
            raise RuleError("order does not belong to the system's theory")
        for i, rule in enumerate(self.rules):
            th.check_monomial(rule.lead)
            lead_key = order.sort_key(rule.lead) if rule.lower.terms else None
            for m, c in rule.lower.terms:
                th.check_monomial(m)
                if not self.field.contains(c):
                    raise RuleError(
                        "rule %d: coefficient %s of %s is not in the field %s"
                        % (i, c, th.serialize(m), self.field.describe())
                    )
                if not order.sort_key(m) < lead_key:
                    raise RuleError(
                        "rule %d: lower-part monomial %s is not below the lead %s"
                        % (i, th.serialize(m), th.serialize(rule.lead))
                    )
                if not th.uniform_equivalent(m, rule.lead):
                    raise RuleError(
                        "rule %d: non-uniform path rule (%s vs %s)"
                        % (i, th.serialize(m), th.serialize(rule.lead))
                    )

    @functools.cached_property
    def lead_index(self):
        """The theory's lead index over the rule leads, in rule order."""
        return self.theory.lead_index([rule.lead for rule in self.rules])

    @functools.cached_property
    def raw_lowers(self) -> tuple:
        """Each rule's lower-part terms in the field's raw values, in rule order."""
        raw = self.field.raw_terms
        return tuple(raw(rule.lower.terms) for rule in self.rules)


def orient(order: MonomialOrder, element: Element) -> Rule:
    """Turn an element into a monic rule with its greatest monomial as lead."""
    if element.is_zero():
        raise ZeroElementError("cannot orient the zero element")
    lead, c = max(element.terms, key=lambda term: order.sort_key(term[0]))
    if isinstance(c, int):
        # Divide exactly: int / int would give a float.
        c = Fraction(c)
    lower = {m: -(k / c) for m, k in element.terms if m != lead}
    return Rule(lead, Element.from_dict(lower))


def _first_site(index, monomial, memo):
    """Look up (rule index, first canonical context) or None, with memoization."""
    hit = memo.get(monomial, 0)
    if hit != 0:
        return hit
    site = memo[monomial] = index.first_site(monomial)
    return site


class _Queued(tuple):
    """A (sort key, monomial) heap entry; heapq's min-heap pops the greatest key.

    sort_key is injective, so entries never tie and monomials, which need not
    be comparable, are never compared.
    """

    __slots__ = ()
    __lt__ = tuple.__gt__


def _rewrites(system, coeffs: dict, budget: int, keep=None):
    """Reduce coeffs in place, yielding (rule index, monomial, context, raw
    coefficient) for each step as it is applied.

    Strategy: rewrite the P-greatest reducible support monomial, using the
    lowest rule index and the first canonical context, which the system's
    ``lead_index`` finds. A max-heap holds every reducible support monomial,
    so a step costs its images, not a rescan; entries whose coefficient
    cancelled are skipped when popped. Monomials failing ``keep``, input and
    images alike, are dropped. StepBudgetExceededError is raised before step
    ``budget + 1``.

    On entry every monomial of coeffs is checked against the theory, which
    raises TheoryMismatchError for one outside it; rules map the theory's
    monomials to the theory's monomials, so images need no check. The loop
    runs on the field's raw values against the system's ``raw_lowers``: the
    coefficients are converted on entry, which raises ScalarError for one
    outside the field, and converted back however the loop ends. A caller
    that stops early must close the generator before reading coeffs.
    """
    th, order, field = system.theory, system.order, system.field
    lowers, index = system.raw_lowers, system.lead_index
    p = field.characteristic
    check = th.check_monomial
    for m in coeffs:
        check(m)
    if keep is not None:
        for m in [m for m in coeffs if not keep(m)]:
            del coeffs[m]
    field.into_raw(coeffs)
    try:
        site_memo: dict = {}
        queued = {m for m in coeffs if _first_site(index, m, site_memo)}
        heap = [_Queued((order.sort_key(m), m)) for m in queued]
        heapq.heapify(heap)
        steps = 0
        while heap:
            m = heapq.heappop(heap)[1]
            queued.discard(m)
            if m not in coeffs:
                continue
            if steps >= budget:
                raise StepBudgetExceededError(
                    "step budget of %d exceeded before rewriting %s" % (budget, th.serialize(m))
                )
            ridx, ctx = site_memo[m]
            c = coeffs.pop(m)
            for mm, cc in lowers[ridx]:
                image = th.apply_context(ctx, mm)
                if image is None:
                    continue
                if keep is not None and not keep(image):
                    continue
                prev = coeffs.get(image)
                s = cc * c if prev is None else prev + cc * c
                if p:
                    s %= p
                if s:
                    coeffs[image] = s
                    if (
                        prev is None
                        and image not in queued
                        and _first_site(index, image, site_memo)
                    ):
                        heapq.heappush(heap, _Queued((order.sort_key(image), image)))
                        queued.add(image)
                elif prev is not None:
                    del coeffs[image]
            steps += 1
            yield ridx, m, ctx, c
    finally:
        field.from_raw(coeffs)


def _step(field, step) -> RewriteStep:
    """The trail entry of a step ``_rewrites`` yielded, with a field coefficient."""
    ridx, m, ctx, c = step
    return RewriteStep(ridx, m, ctx, field.scalar(c))


def reduce_once(system, element: Element):
    """Apply the first step of the normal-form strategy.

    Irreducible input comes back unchanged with step None.
    """
    coeffs = dict(element.terms)
    rewrites = _rewrites(system, coeffs, 1)
    step = next(rewrites, None)
    rewrites.close()
    if step is None:
        return element, None
    return Element.from_dict(coeffs), _step(system.field, step)


def normal_form(system, element: Element, max_steps: int = DEFAULT_STEP_BUDGET) -> Element:
    """Reduce an element to its persistent normal form."""
    coeffs = dict(element.terms)
    for _ in _rewrites(system, coeffs, max_steps):
        pass
    return Element.from_dict(coeffs)


def normal_form_with_trail(system, element: Element, max_steps: int = DEFAULT_STEP_BUDGET):
    """Reduce to normal form and return the full rewrite trail."""
    coeffs = dict(element.terms)
    field = system.field
    trail = tuple(_step(field, step) for step in _rewrites(system, coeffs, max_steps))
    return Element.from_dict(coeffs), trail


def is_irreducible_monomial(system, monomial) -> bool:
    """Decide whether no rule lead divides a monomial of the system's theory;
    one outside it raises TheoryMismatchError."""
    system.theory.check_monomial(monomial)
    return system.lead_index.first_site(monomial) is None


class ForbiddenFactorSet(_Value):
    """Irreducible monomials are those avoiding these leads.

    ``semantics`` is "factor" when avoidance means containing no lead as a
    contiguous factor (words, mixed words, paths) and "divisor" when it means
    being divisible by no lead (power products, subtrees).
    """

    _fields = ("semantics", "leads")

    def __init__(self, semantics: str, leads: tuple) -> None:
        _set(self, "semantics", semantics)
        _set(self, "leads", leads)


def irr_description(system) -> ForbiddenFactorSet:
    """Describe the irreducible monomials by their forbidden lead set."""
    th = system.theory
    leads = sorted({rule.lead for rule in system.rules}, key=th.serialize)
    return ForbiddenFactorSet(th.irr_semantics, tuple(leads))


def count_irreducible(system, max_degree: int) -> list:
    """Count irreducible monomials per degree from 0 to max_degree."""
    th, first_site = system.theory, system.lead_index.first_site
    counts = []
    for d in range(max_degree + 1):
        # The theory's own monomials need no check.
        counts.append(sum(1 for m in th.monomials_of_degree(d) if first_site(m) is None))
    return counts
