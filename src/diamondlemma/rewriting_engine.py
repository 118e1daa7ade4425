"""Oriented rules, the reduction strategy and normal forms."""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction
from math import gcd

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


class RewriteStep(_Value):
    """One applied reduction: which rule, at which monomial, in which context."""

    _fields = ("rule_index", "monomial", "context", "coefficient")


class RewritingSystem(_Value):
    """A theory, a monomial order and a tuple of compatible rules.

    ``lead_index``, ``raw_lowers`` and ``ambiguities`` are built from the
    rules on first use, unless completion hands over the first two, and
    kept on the instance; they are no fields, so equality, hashing and repr
    ignore them. The lead index is made with the system's order, and
    ``raw_lowers`` holds each rule's lower part in its codes and as integer
    numerators over one denominator, so reduction runs on codes and ints
    alone. ``__init__`` validates the rules in ``__post_init__``, a method
    of its own so that a tracer can time every system build.
    """

    _fields = ("theory", "order", "rules", "field")

    def __init__(self, theory, order: MonomialOrder, rules: tuple, field=RationalField()) -> None:
        _Value.__init__(self, theory, order, rules, field)
        self.__post_init__()

    def __post_init__(self) -> None:
        th, order, field = self.theory, self.order, self.field
        if order.theory != th:
            raise RuleError("order does not belong to the system's theory")
        problem = _rule_problem(th, order, field, self.rules)
        if problem is not None:
            raise RuleError("rule %d: %s" % problem)

    @classmethod
    def _of_checked_rules(cls, theory, order: MonomialOrder, rules: tuple, field):
        """The system of rules whose monomials belong to the theory and each
        of which ``_rule_problem`` passed, under an order of the theory;
        nothing is checked again."""
        system = object.__new__(cls)
        _Value.__init__(system, theory, order, rules, field)
        return system

    @functools.cached_property
    def lead_index(self):
        """The theory's lead index over the rule leads, in rule order, made
        with the system's order."""
        return self.theory.lead_index([rule.lead for rule in self.rules], self.order)

    @functools.cached_property
    def raw_lowers(self) -> tuple:
        """Each rule's ``_raw_lower``, in rule order."""
        return tuple(_raw_lower(self, rule) for rule in self.rules)

    @functools.cached_property
    def ambiguities(self) -> tuple:
        """The critical ambiguities, enumerated once per system."""
        from .ambiguity import _enumerate_ambiguities

        return _enumerate_ambiguities(self)

    def _adopt(self, lead_index, raw_lowers) -> None:
        """Take an index and lower parts made for these very rules under
        this order and field, in place of building them on first use."""
        _set(self, "lead_index", lead_index)
        _set(self, "raw_lowers", tuple(raw_lowers))

    # Each reduction's memo is its own, so ``_rewrites`` may forget codes.
    _private_memo = True

    @property
    def site_memo(self) -> dict:
        """A fresh ``_rewrites`` memo for each reduction, so that a system
        keeps none."""
        return {}


def _raw_lower(system, rule: Rule) -> tuple:
    """A rule's lower part as (pairs, d): (code, raw value) pairs in the
    codes of the system's ``lead_index`` and the field's raw values, which
    are numerators over d, the lcm of the coefficients' denominators (always
    1 over GF(p))."""
    codes, d = _encoded(system, rule.lower)
    return tuple(codes.items()), d


def _rule_problem(theory, order: MonomialOrder, field, rules):
    """(index, what makes it unfit) of the first of the rules that does not
    fit a system under the order and field, or None: a coefficient outside
    the field, a lower-part monomial not below the lead or one of another
    uniform class. Each monomial is keyed, lead first and each lower one
    before its coefficient is read, and the key's code is the membership
    check: one outside the theory raises TheoryMismatchError, and a power
    product too large for its code DiamondError."""
    for i, rule in enumerate(rules):
        lead = rule.lead
        lead_key = order.sort_key(lead)
        for m, c in rule.lower.terms:
            key = order.sort_key(m)
            if not field.contains(c):
                return i, "coefficient %s of %s is not in the field %s" % (
                    c, theory.serialize(m), field.describe()
                )
            if not key < lead_key:
                return i, "lower-part monomial %s is not below the lead %s" % (
                    theory.serialize(m), theory.serialize(lead)
                )
            if theory.uniform_class(m) != theory.uniform_class(lead):
                return i, "non-uniform path rule (%s vs %s)" % (
                    theory.serialize(m), theory.serialize(lead)
                )
    return None


def _well_founded(system, what: str):
    """The system, or a DiamondError when its order is not well-founded,
    since plain reduction then need not terminate."""
    if not system.order.is_well_founded():
        raise DiamondError(
            "%s needs a well-founded order; this system reduces only to a precision" % what
        )
    return system


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


def _rewrites(system, box: list, budget: int, keep=None):
    """Reduce box = [code dict, D] in place, yielding (rule index, code,
    encoded context, raw coefficient, denominator) for each step as it is
    applied.

    Strategy: rewrite the P-greatest reducible support monomial, using the
    lowest rule index and the first canonical context, which the system's
    ``lead_index`` finds. A ``heapq`` of (``descending_key(code)``, code)
    pairs holds every reducible support monomial, so a step costs its
    images, not a rescan. The keys compare natively in the reverse of the
    order and are injective, so the heap pops the greatest monomial first
    and compares two codes only when they are equal. An entry whose monomial
    left the support is skipped when popped. A popped code never comes back,
    as images lie below it and pops descend. Images failing ``keep`` are
    dropped. StepBudgetExceededError, which names the decoded monomial, is
    raised before step ``budget + 1``.

    The box holds the codes of the system's ``lead_index`` with the raw
    values of its field: integer numerators over one denominator D for the
    whole reduction. A step pops a numerator c and reads its rule's lower
    part, numerators a over d. When d divides c the images take a * (c //
    d); otherwise, with g = gcd(c, d), every value and D are multiplied by
    d // g in place and the images take a * (c // g). Over GF(p) d is always
    1, so no step rescales. A step yields c over the D from before its
    rescale, the exact coefficient it removed. The box is up to date after
    every step, so a caller that stops early may close the generator and
    read it. ``_encoded`` and ``_decoded`` convert an element at the
    boundary; images ``apply(code, ctx)`` of the encoded lower parts in
    ``raw_lowers`` need no check but the one ``apply`` makes that a code
    still fits; rules are uniform, so no image vanishes. ``_step`` decodes a
    yielded step.

    Site lookups go through ``system.site_memo``, which maps a code to its
    ``site``, or to the number of leads ``site`` found no divisor among.
    Leads are only appended, so a system whose rules grow may keep one memo
    across reductions: a site stays the answer and a count tells ``site``
    where to resume. ``RewritingSystem`` gives a fresh memo to each, and
    says so with ``_private_memo``: such a memo forgets each code that a
    step rewrites, as the code never comes back, so a long reduction keeps
    no site of the monomials it has rewritten.
    """
    index, lowers = system.lead_index, system.raw_lowers
    site, apply, key = index.site, index.apply, index.descending_key
    memo, n = system.site_memo, len(index.entries)
    private = system._private_memo
    p = system.field.characteristic
    work, den = box
    heap = []
    for m in work:
        found = memo.get(m, 0)
        if found.__class__ is int and found < n:
            found = memo[m] = site(m, found) or n
        if found.__class__ is not int:
            heap.append((key(m), m))
    heapq.heapify(heap)
    steps = 0
    while heap:
        m = heapq.heappop(heap)[1]
        if m not in work:
            continue
        if steps >= budget:
            raise StepBudgetExceededError(
                "step budget of %d exceeded before rewriting %s"
                % (budget, system.theory.serialize(index.decode(m)))
            )
        ridx, ctx = memo.pop(m) if private else memo[m]
        c = work.pop(m)
        step = ridx, m, ctx, c, den
        lower, d = lowers[ridx]
        if d != 1:
            g = gcd(c, d)
            if g != d:
                r = d // g
                den = box[1] = den * r
                for k in work:
                    work[k] *= r
            c //= g
        for mm, cc in lower:
            image = apply(mm, ctx)
            if keep is not None and not keep(image):
                continue
            prev = work.get(image)
            s = cc * c if prev is None else prev + cc * c
            if p:
                s %= p
            if s:
                work[image] = s
                if prev is None:
                    found = memo.get(image, 0)
                    if found.__class__ is int and found < n:
                        found = memo[image] = site(image, found) or n
                    if found.__class__ is not int:
                        heapq.heappush(heap, (key(image), image))
            elif prev is not None:
                del work[image]
        steps += 1
        yield step


class _Boxed(Element):
    """An element held as a box of one system, which ``_encoded`` copies
    for that system and ``normal_form`` reduces into a box again; its
    ``terms`` are decoded when first read. It is zero when its box is, and
    equals and hashes as the ``Element`` of its terms."""

    def __init__(self, system, box: list) -> None:
        _set(self, "system", system)
        _set(self, "box", box)

    @functools.cached_property
    def terms(self) -> tuple:
        work, den = self.box
        return _decoded(self.system, [dict(work), den]).terms

    def is_zero(self) -> bool:
        return not self.box[0]

    def __eq__(self, other):
        return self.terms == other.terms if isinstance(other, Element) else NotImplemented

    __hash__ = Element.__hash__


def _encoded(system, element: Element, keep=None) -> list:
    """The box [code dict, D] that ``_rewrites`` reduces: an element's terms
    in the codes of the system's ``lead_index``, those failing ``keep``
    dropped, as raw values over D. Raises TheoryMismatchError for a monomial
    outside the theory (and DiamondError for a power product too large for
    its code) and ScalarError for a coefficient outside the field. The box
    of a ``_Boxed`` element of the system is copied, not decoded."""
    if element.__class__ is _Boxed and element.system is system:
        work, den = element.box
        work = dict(work)
    else:
        encode = system.lead_index.encode
        work = {encode(m): c for m, c in element.terms}
        den = None
    if keep is not None:
        for m in [m for m in work if not keep(m)]:
            del work[m]
    return [work, system.field.into_raw(work) if den is None else den]


def _decoded(system, box: list) -> Element:
    """The element of a box: its decoded terms, divided by D. The field's
    ``from_raw`` converts the box's values in place, so a box read again
    afterwards holds field values, not raw ones; ``_Boxed.terms`` decodes a
    copy for that reason."""
    decode = system.lead_index.decode
    work, den = box
    return Element.from_dict({decode(m): c for m, c in system.field.from_raw(work, den).items()})


def _step(system, step) -> RewriteStep:
    """The trail entry of a step ``_rewrites`` yielded: the public monomial
    and context, and a field coefficient."""
    ridx, m, ctx, c, den = step
    index = system.lead_index
    return RewriteStep(
        ridx, index.decode(m), index.decode_context(ctx, m), system.field.scalar(c, den)
    )


def reduce_once(system, element: Element):
    """Apply the first step of the normal-form strategy.

    Irreducible input comes back unchanged with step None.
    """
    box = _encoded(system, element)
    rewrites = _rewrites(system, box, 1)
    step = next(rewrites, None)
    rewrites.close()
    if step is None:
        return element, None
    return _decoded(system, box), _step(system, step)


def normal_form(system, element: Element, max_steps: int = DEFAULT_STEP_BUDGET) -> Element:
    """Reduce an element to its persistent normal form, which stays a
    ``_Boxed`` one for a ``_Boxed`` element of the system."""
    box = _encoded(system, element)
    for _ in _rewrites(system, box, max_steps):
        pass
    if element.__class__ is _Boxed and element.system is system:
        return _Boxed(system, box)
    return _decoded(system, box)


def normal_form_with_trail(system, element: Element, max_steps: int = DEFAULT_STEP_BUDGET):
    """Reduce to normal form and return the full rewrite trail."""
    box = _encoded(system, element)
    trail = tuple(_step(system, step) for step in _rewrites(system, box, max_steps))
    return _decoded(system, box), trail


def is_irreducible_monomial(system, monomial) -> bool:
    """Decide whether no rule lead divides a monomial of the system's theory;
    one outside it raises TheoryMismatchError."""
    return system.lead_index.first_site(monomial) is None


class ForbiddenFactorSet(_Value):
    """Irreducible monomials are those avoiding these leads.

    ``semantics`` is "factor" when avoidance means containing no lead as a
    contiguous factor (words, mixed words, paths) and "divisor" when it means
    being divisible by no lead (power products, subtrees).
    """

    _fields = ("semantics", "leads")


def irr_description(system) -> ForbiddenFactorSet:
    """Describe the irreducible monomials by their forbidden lead set."""
    th = system.theory
    leads = sorted({rule.lead for rule in system.rules}, key=th.serialize)
    return ForbiddenFactorSet(th.irr_semantics, tuple(leads))


def count_irreducible(system, max_degree: int, max_steps: int = DEFAULT_STEP_BUDGET) -> list:
    """Count irreducible monomials per degree from 0 to max_degree.

    Past degree 1 only products of irreducible monomials are tested, since
    every factor of an irreducible monomial is irreducible. In an
    associative theory a monomial of degree d is u*g for a u of degree d-1
    and a g of degree 1: its last letter or arrow, or a variable it is
    divisible by. A tree of degree d is the product of its two subtrees.
    Each monomial tested is one step of ``max_steps``; past the budget
    StepBudgetExceededError names the degree being counted.
    """
    th, index = system.theory, system.lead_index
    site, encode = index.site, index.encode
    layers = []  # the irreducible monomials of each degree so far
    tested = 0
    for d in range(max_degree + 1):
        if d < 2:
            candidates = th.monomials_of_degree(d)
        elif th.associative:
            candidates = (th.multiply(u, g) for u in layers[d - 1] for g in layers[1])
        else:
            candidates = (
                th.multiply(a, b) for k in range(1, d) for a in layers[k] for b in layers[d - k]
            )
        seen, layer = set(), []
        for m in candidates:
            if m is None or m in seen:
                continue
            if tested == max_steps:
                raise StepBudgetExceededError(
                    "step budget of %d exceeded while counting irreducible monomials of degree %d"
                    % (max_steps, d)
                )
            tested += 1
            seen.add(m)
            if site(encode(m)) is None:
                layer.append(m)
        layers.append(layer)
    return list(map(len, layers))
