"""Oriented rules, the reduction strategy and normal forms."""

from __future__ import annotations

import functools
import heapq
from fractions import Fraction
from math import gcd

from .algebra_core import DiamondError, Element, MonomialOrder, RationalField, _set, _Value
from .monomial_theories import _term

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

    ``lead_index``, ``raw_lowers`` and ``ambiguities``, with the encoded
    contexts of the ambiguities, are kept on the instance; they are no
    fields, so equality, hashing and repr ignore them. ``__init__`` checks
    the rules in ``__post_init__``, a method of its own so that a tracer can
    time every system build, through ``_rule_codes``, and keeps the codes
    that walk computes: the lead index is the order's ``codec`` over the
    leads' codes, and ``raw_lowers`` holds each rule's lower part in those
    codes and as integer numerators over one denominator, so reduction runs
    on codes and ints alone. A system of checked rules,
    ``_of_checked_rules``, builds both on first use through the same walk,
    unless completion hands them over. The ambiguities are built on first
    use, from what the overlap kernel of the lead index lists on the leads'
    codes.
    """

    _fields = ("theory", "order", "rules", "field")

    def __init__(self, theory, order: MonomialOrder, rules: tuple, field=RationalField()) -> None:
        _Value.__init__(self, theory, order, rules, field)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.order.theory != self.theory:
            raise RuleError("order does not belong to the system's theory")
        problem = self._encode_rules()
        if problem is not None:
            raise RuleError("rule %d: %s" % problem)

    @classmethod
    def _of_checked_rules(cls, theory, order: MonomialOrder, rules: tuple, field, *codes):
        """The system of rules that ``_rule_codes`` passed under an order of
        the theory; nothing is checked again. ``codes``, when given, are the
        lead index and raw lower parts of these very rules under this order
        and field, kept in place of building them on first use."""
        # The parser hands over no codes, though its check computed them, so
        # that a parsed system stays lazy: the bench's corpus-sweep rebuilds
        # each of its 5,000 parsed systems before use, which would keep 5.03
        # MB of codes that nothing reads (tracemalloc), 5 % of its peak RSS.
        system = object.__new__(cls)
        _Value.__init__(system, theory, order, rules, field)
        if codes:
            _set(system, "lead_index", codes[0])
            _set(system, "raw_lowers", tuple(codes[1]))
        return system

    def _encode_rules(self):
        """Keep the lead index and raw lower parts of ``_rule_codes`` over
        the rules on the instance, where they shadow the properties that
        build them; returns its problem."""
        index = self.order.codec.copy()
        index.entries, lowers, problem = _rule_codes(self.theory, self.order, self.field, self.rules)
        _set(self, "lead_index", index)
        _set(self, "raw_lowers", tuple(lowers))
        return problem

    @functools.cached_property
    def lead_index(self):
        """The order's codec over the rule leads' codes, in rule order."""
        self._encode_rules()
        return self.lead_index

    @functools.cached_property
    def raw_lowers(self) -> tuple:
        """Each rule's lower part as (pairs, d), in rule order: (code, raw
        value) pairs in the codes of ``lead_index``, in the order of the
        lower part's terms, and the field's raw values, which are numerators
        over d, the lcm of the coefficients' denominators (always 1 over
        GF(p))."""
        self._encode_rules()
        return self.raw_lowers

    @functools.cached_property
    def ambiguities(self) -> tuple:
        """The critical ambiguities in ``critical_ambiguities`` order; the
        walk that lists them sets their encoded contexts beside them, as
        ``_contexts``."""
        from .ambiguity import _sorted_ambiguities

        return _sorted_ambiguities(self)

    # Each reduction's memo is its own, so ``_rewrites`` may forget codes.
    _private_memo = True

    @property
    def site_memo(self) -> dict:
        """A fresh ``_rewrites`` memo for each reduction, so that a system
        keeps none."""
        return {}


# Overlap kernel items by (codec, code, code), the least recently used
# dropped first. Every rule pair a system lists ambiguities for, or
# completion queues, is read through the kernel here, and small systems of
# one theory share leads: one seed-1 pass of the bench's corpus-sweep
# workload asks for 50,950 lists over 4,451 keys, and a table of this size
# serves 91.2 % of them (``cache_info``: 4,491 misses; 8,192 entries serve
# every repeat, 91.3 %, 2,048 serve 85.6 % and 1,024 74.1 %).
@functools.lru_cache(maxsize=4096)
def _pair_overlaps(codec, code1, code2) -> list:
    """``codec.overlaps(code1, code2)``; callers only read the list."""
    return codec.overlaps(code1, code2)


def _rule_codes(theory, order: MonomialOrder, field, rules) -> tuple:
    """(lead codes, raw lower parts, problem): one walk over the rules that
    encodes each monomial once, with the order's ``codec``, and checks each
    rule on those codes. ``problem`` is None, or (index, what makes it
    unfit) for the first rule that does not fit a system under the order
    and field, and then the codes are partial: a coefficient outside the
    field, a lower-part monomial whose key is not below the lead's or one
    of another uniform class. Each monomial is encoded, lead first and each
    lower one before its coefficient is read, and its code is the
    membership check: one outside the theory raises TheoryMismatchError,
    and a power product too large for its code DiamondError. A raw lower
    part is as ``raw_lowers`` holds it."""
    codec = order.codec
    entries, lowers = [], []
    for i, rule in enumerate(rules):
        lead = rule.lead
        entries.append(codec.encode(lead))
        lead_key = codec.sort_key(entries[-1])
        lower = {}
        for m, c in rule.lower.terms:
            code = codec.encode(m)
            if not field.contains(c):
                why = "coefficient %s of %s is not in the field %s" % (
                    c, theory.serialize(m), field.describe()
                )
            elif not codec.sort_key(code) < lead_key:
                why = "lower-part monomial %s is not below the lead %s" % (
                    theory.serialize(m), theory.serialize(lead)
                )
            elif theory.uniform_class(m) != theory.uniform_class(lead):
                why = "non-uniform path rule (%s vs %s)" % (
                    theory.serialize(m), theory.serialize(lead)
                )
            else:
                lower[code] = c
                continue
            return entries, lowers, (i, why)
        den = field.into_raw(lower)
        lowers.append((tuple(lower.items()), den))
    return entries, lowers, None


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
    """The element of a box: its decoded terms, divided by D, in the order
    of ``Element.from_dict``. Each code's monomial and term key come from
    the decode cache ``_term`` under the order's ``codec``, so equal codes
    share one monomial. The field's ``from_raw`` converts the box's values
    in place, so a box read again afterwards holds field values, not raw
    ones; ``_Boxed.terms`` decodes a copy for that reason."""
    codec = system.order.codec
    work, den = box
    terms = [(*_term(codec, m), c) for m, c in system.field.from_raw(work, den).items() if c]
    # Sorted on the keys alone, as no two are equal.
    return Element(tuple([term[1:] for term in sorted(terms)]))


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
