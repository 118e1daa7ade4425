"""Confluence decisions, completion into confluent systems, redundancy removal."""

from __future__ import annotations

import functools
import heapq
import itertools
from enum import Enum
from math import gcd

from .algebra_core import DiamondError, Element, _term_key, _Value
from .ambiguity import Ambiguity, ResolutionCertificate, _ambiguity, _ambiguity_box, _s_box
from .monomial_theories import Theory
from .rewriting_engine import (
    DEFAULT_STEP_BUDGET,
    RewritingSystem,
    Rule,
    StepBudgetExceededError,
    normal_form,
    _Boxed,
    _decoded,
    _rewrites,
    _step,
    _well_founded,
)


class ConfluenceStatus(Enum):
    CONFLUENT = "confluent"
    NOT_CONFLUENT = "not-confluent"
    INCONCLUSIVE = "inconclusive"


class ConfluenceVerdict(_Value):
    """Outcome of resolving every critical ambiguity of a system.

    An inconclusive verdict keeps the ambiguity whose resolution ran out of
    steps in ``stopped_at``.
    """

    _fields = ("status", "checked", "witness", "stopped_at")
    _defaults = {"witness": None, "stopped_at": None}

    def stop_point(self, theory) -> str:
        """Say where an inconclusive check stopped."""
        amb = self.stopped_at
        sup = theory.serialize(amb.superposition)
        return "after %d ambiguities, while resolving rules (%d, %d) at %s" % (
            self.checked, amb.rule1, amb.rule2, sup
        )


def check_confluence(system, max_steps: int = DEFAULT_STEP_BUDGET) -> ConfluenceVerdict:
    """Resolve all critical ambiguities and report the verdict.

    Each s-polynomial is reduced on codes, keeping the raw steps; only the
    witness, the first ambiguity that does not resolve, gets a certificate,
    the one ``resolve`` gives. A system whose order is not well-founded
    raises DiamondError, since plain reduction then need not terminate.
    """
    _well_founded(system, "confluence checking")
    checked = 0
    for amb in system.ambiguities:
        box = _ambiguity_box(system, amb)
        try:
            steps = list(_rewrites(system, box, max_steps))
        except StepBudgetExceededError:
            return ConfluenceVerdict(ConfluenceStatus.INCONCLUSIVE, checked, None, amb)
        checked += 1
        if box[0]:
            trail = tuple([_step(system, step) for step in steps])
            cert = ResolutionCertificate(amb, False, _decoded(system, box), trail)
            return ConfluenceVerdict(ConfluenceStatus.NOT_CONFLUENT, checked, cert, None)
    return ConfluenceVerdict(ConfluenceStatus.CONFLUENT, checked, None, None)


class CompletionStatus(Enum):
    COMPLETE = "complete"
    DEGREE_CAPPED = "degree-capped"
    RULE_CAPPED = "rule-capped"


class AddedRule(_Value):
    """A rule created during completion plus the ambiguity that forced it."""

    _fields = ("rule", "source")


class CompletionReport(_Value):
    """Result of the completion loop.

    ``pairs_filtered`` counts the pairs that the theory's pair criteria
    removed without reducing them.
    """

    _fields = (
        "status",
        "system",
        "added",
        "dropped",
        "pairs_processed",
        "pairs_skipped",
        "pairs_filtered",
    )


class _Working:
    """Unvalidated view of a rule list with the attributes the engine reads.

    Its lead index, made with the order, its public ``leads`` and its lower
    parts in ``_raw_lower`` form (codes with integer numerators over one
    denominator per rule) cover its rules; ``of(system)`` takes over a
    system's own. ``append`` and ``renormalize`` keep them in step, so one
    view serves a whole completion. A rule is written only encoded when
    appended or renormalized, and joins ``stale``: its entry in ``rules``
    is None or the rule with an outdated lower part. Pairs read only the
    leads and the encoded lower parts, so ``decode`` builds the stale rules
    once, before the drop pass and the report. Its
    ``site_memo`` serves every reduction of that completion, since leads
    are only appended and a renormalized rule keeps its lead. ``marks``
    holds, per rule, how many leads its lower part is known to be
    irreducible against, 0 unless told. ``without(i)`` is the view of the
    other rules, recomputing no encoding, for the drop pass, and gives it a
    fresh memo.
    """

    __slots__ = (
        "theory", "order", "field", "rules", "leads", "raw_lowers", "lead_index",
        "site_memo", "marks", "stale",
    )
    # Reductions share the memo, so ``_rewrites`` keeps every code.
    _private_memo = False

    def __init__(
        self, theory, order, field, rules: list, leads: list, lead_index, raw_lowers: list
    ):
        self.theory = theory
        self.order = order
        self.field = field
        self.rules = rules
        self.leads = leads
        self.lead_index = lead_index
        self.raw_lowers = raw_lowers
        self.site_memo = {}
        self.marks = [0] * len(rules)
        self.stale = set()

    @classmethod
    def of(cls, system) -> "_Working":
        """The view of a system's rules, on copies of its lead index and raw
        lower parts."""
        return cls(
            system.theory,
            system.order,
            system.field,
            list(system.rules),
            [rule.lead for rule in system.rules],
            system.lead_index.copy(),
            list(system.raw_lowers),
        )

    def append(self, box: list, mark: int = 0) -> None:
        """Add the monic rule of a nonzero box [code dict, D] of this view,
        whose lower part is irreducible against the first ``mark`` leads; a
        rule appended right after them is marked past itself, as its lead
        divides nothing below it. The rule is made on codes and stale until
        decoded; only its lead, the code of least descending key, is decoded
        now. With a the lead's value, the others c give -c * a^-1 over 1 over
        GF(p) and -c // g over a // g over QQ, g the gcd of all values with
        the sign of a: ``_raw_lower`` of ``orient``, up to pair order."""
        work, p, index = box[0], self.field.characteristic, self.lead_index
        lead = min(work, key=index.descending_key)
        a = work[lead]
        if p:
            r = -pow(a, -1, p)
            lower = tuple([(m, c * r % p) for m, c in work.items() if m != lead]), 1
        else:
            g = gcd(*work.values())
            if a < 0:
                g = -g
            lower = tuple([(m, -c // g) for m, c in work.items() if m != lead]), a // g
        if mark == len(self.rules):
            mark += 1
        self.stale.add(len(self.rules))
        self.rules.append(None)
        self.leads.append(index.decode(lead))
        index.entries.append(lead)
        self.raw_lowers.append(lower)
        self.marks.append(mark)

    def renormalize(self, i: int, box: list) -> None:
        """Put the reduced lower part in box = [code dict, D] in place of
        rule i's raw one, with the numerators and D divided by their gcd, so
        that D is the lcm of the reduced denominators; rule i is stale until
        decoded."""
        work, den = box
        g = gcd(den, *work.values())
        pairs = tuple(work.items()) if g == 1 else tuple([(m, c // g) for m, c in work.items()])
        self.raw_lowers[i] = pairs, den // g
        self.stale.add(i)

    def decode(self) -> None:
        """Rebuild the stale rules from their raw lower parts, whose pairs
        are put in the order of the decoded terms, as ``_raw_lower`` gives
        them."""
        decode, scalar = self.lead_index.decode, self.field.scalar
        for i in self.stale:
            lower, den = self.raw_lowers[i]
            terms = []
            for m, c in lower:
                x = decode(m)
                terms.append((_term_key(x), x, m, c))
            terms.sort()
            self.rules[i] = Rule(
                self.leads[i], Element(tuple([(x, scalar(c, den)) for _, x, _, c in terms]))
            )
            self.raw_lowers[i] = tuple([(m, c) for _, _, m, c in terms]), den
        self.stale.clear()

    def without(self, i: int) -> "_Working":
        rules, leads, lowers = self.rules, self.leads, self.raw_lowers
        return _Working(
            self.theory,
            self.order,
            self.field,
            rules[:i] + rules[i + 1 :],
            leads[:i] + leads[i + 1 :],
            self.lead_index.without(i),
            lowers[:i] + lowers[i + 1 :],
        )


def _interreduce(work: _Working, max_steps: int) -> None:
    """Renormalize rule lower parts against the other rules' leads, in rule
    order.

    A rule's mark says how many leads its lower part is known to be
    irreducible against. A rule whose mark covers every lead is skipped.
    For the others the working memo, which outlives this call, tells
    whether a lead divides a code of the lower part, resuming each scan
    where the memo says, or at the rule's mark for a code it lacks. Only
    then is the encoded lower part reduced and written back. Leads never
    change, so a skipped rule would come back unchanged.
    """
    lowers, marks, memo = work.raw_lowers, work.marks, work.site_memo
    site, n = work.lead_index.site, len(work.rules)
    for i in range(n):
        mark = marks[i]
        if mark >= n:
            continue
        marks[i] = n
        lower, d = lowers[i]
        for m, _ in lower:
            found = memo.get(m, mark)
            if found.__class__ is int and found < n:
                found = memo[m] = site(m, found) or n
            if found.__class__ is not int:
                break
        else:
            continue
        # A lead divides no monomial below it, so rule i never fires here.
        box = [dict(lower), d]
        for _ in _rewrites(work, box, max_steps):
            pass
        work.renormalize(i, box)


def complete(
    system,
    max_degree: int = 12,
    max_rules: int = 500,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> CompletionReport:
    """Saturate a system with oriented s-polynomial remainders.

    An s-polynomial and its remainder stay boxed on codes, and ``append``
    orients a nonzero remainder there, decoding only its lead; the added
    rules are built once, by ``decode``, for the drop pass and the report.
    Pairs are processed FIFO by superposition degree then insertion order.
    Each new rule first marks queued pairs that the theory's chain criterion
    certifies as dead, then queues its pairs with the partners the theory's
    ``pair_update`` selects. Pairs of input rules are the system's own
    ``pair_ambiguities``, and a pair with an added rule is what the lead
    index's ``overlaps`` lists on the leads' codes; such a pair stays
    encoded and is decoded into an ``Ambiguity`` only as the source of the
    rule its remainder becomes. Returns Complete when the queue empties,
    DegreeCapped when pairs above the degree cap were skipped and RuleCapped
    when the rule cap was reached. A system whose order is not well-founded
    raises DiamondError.
    """
    _well_founded(system, "completion")
    th, order = system.theory, system.order
    work = _Working.of(system)
    rules, leads, index = work.rules, work.leads, work.lead_index
    listed, base = system.pair_ambiguities, len(rules)
    # Only a theory with a chain criterion reads the queued superpositions.
    chains = type(th).chain_criterion is not Theory.chain_criterion
    heap: list = []  # (degree, counter, rule1, rule2, superposition, pair)
    counter = itertools.count()
    dead: set = set()  # insertion counters of queued pairs a criterion removed
    active: list = []
    filtered = 0

    def add_pairs(new: int) -> None:
        nonlocal active, filtered
        lead = leads[new]
        if chains:
            for _, key, i, j, sup, _ in heap:
                if key not in dead and th.chain_criterion(lead, leads[i], leads[j], sup):
                    dead.add(key)
                    filtered += 1
        partners, removed, active = th.pair_update(leads, active, new)
        filtered += removed
        for j in partners:
            if new < base:
                for amb in listed.get((j, new), ()):
                    sup = amb.superposition
                    heapq.heappush(heap, (th.degree(sup), next(counter), j, new, sup, amb))
                continue
            for item in index.overlaps(index.entries[j], index.entries[new]):
                if j != new or item[1] != item[2]:
                    sup = chains and index.decode(item[0])
                    heapq.heappush(heap, (index.degree(item[0]), next(counter), j, new, sup, item))

    for idx in range(len(rules)):
        add_pairs(idx)

    processed = 0
    skipped = 0
    sources: list = []
    degree_capped = False
    rule_capped = False
    while heap:
        deg, key, i, j, _, pair = heapq.heappop(heap)
        if key in dead:
            continue
        if deg > max_degree:
            skipped += 1
            degree_capped = True
            continue
        coded = pair.__class__ is not Ambiguity
        box = _s_box(work, i, pair[1], j, pair[2]) if coded else _ambiguity_box(work, pair)
        reduced_by = len(rules)
        remainder = normal_form(work, _Boxed(work, box), max_steps)
        processed += 1
        if remainder.is_zero():
            continue
        # Rules are uniform, and s-polynomials and their images keep the
        # class of their superposition, so the remainder is one rule.
        work.append(remainder.box, reduced_by)
        sources.append(_ambiguity(i, j, *index.decoded(pair)) if coded else pair)
        if len(rules) > max_rules:
            rule_capped = True
            break
        add_pairs(len(rules) - 1)
        _interreduce(work, max_steps)

    if rule_capped:
        status = CompletionStatus.RULE_CAPPED
    elif degree_capped:
        status = CompletionStatus.DEGREE_CAPPED
    else:
        status = CompletionStatus.COMPLETE

    work.decode()
    added = tuple(map(AddedRule, rules[base:], sources))
    dropped: tuple = ()
    if status is CompletionStatus.COMPLETE:
        work, dropped = _drop_pass(work, max_steps)
    final = RewritingSystem(th, order, tuple(work.rules), system.field)
    if status is CompletionStatus.COMPLETE:
        final._adopt(work.lead_index, work.raw_lowers)
    return CompletionReport(status, final, added, dropped, processed, skipped, filtered)


def _drop_pass(work: _Working, max_steps: int):
    """Greedily remove rules certified redundant by the remaining ones.

    A rule is redundant when the other rules reduce its lead and its
    defining element, lead minus lower part, to zero; that element is
    reduced encoded, as numerators over the lower part's denominator. The
    view without the rule is built only when another lead divides its lead.
    Returns the view of the remaining rules, a new one when a rule was
    dropped, and the drops.
    """
    theory, p = work.theory, work.field.characteristic
    dropped = []
    i = 0
    while i < len(work.rules):
        rule, index = work.rules[i], work.lead_index
        lead = index.entries[i]
        # Rule i's own lead divides its lead, so the scan resumes past it
        # when it comes first.
        found = index.site(lead)
        if found[0] == i:
            found = index.site(lead, i + 1)
        if found is not None:
            others = work.without(i)
            lower, d = work.raw_lowers[i]
            codes = {m: (-c % p if p else -c) for m, c in lower}
            codes[lead] = d
            try:
                for _ in _rewrites(others, [codes, d], max_steps):
                    pass
                redundant = not codes
            except StepBudgetExceededError:
                redundant = False
            if redundant:
                dropped.append(
                    (
                        rule,
                        "lead %s is reducible and the defining element reduces to zero"
                        % theory.serialize(rule.lead),
                    )
                )
                work = others
                continue
        i += 1
    return work, tuple(dropped)


def drop_redundant(system, max_steps: int = DEFAULT_STEP_BUDGET):
    """Remove redundant rules; returns the trimmed system and the drops."""
    remaining, dropped = _drop_pass(_Working.of(system), max_steps)
    trimmed = RewritingSystem(system.theory, system.order, tuple(remaining.rules), system.field)
    return trimmed, dropped


class NotConfluentSystemError(DiamondError):
    """Raised when ideal membership is queried on a non-confluent system."""


@functools.lru_cache(maxsize=64)
def _cached_verdict(system, max_steps: int) -> ConfluenceVerdict:
    """Confluence verdict per (system, budget), for repeated membership queries."""
    return check_confluence(system, max_steps)


def ideal_member(system, element: Element, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    """Decide ideal membership by normal form; requires a confluent system.

    ``max_steps`` bounds each reduction of the confluence check as well as
    the final normal form; a check cut short raises StepBudgetExceededError.
    """
    verdict = _cached_verdict(system, max_steps)
    if verdict.status is ConfluenceStatus.INCONCLUSIVE:
        raise StepBudgetExceededError(
            "confluence check exceeded the step budget of %d %s"
            % (max_steps, verdict.stop_point(system.theory))
        )
    if verdict.status is not ConfluenceStatus.CONFLUENT:
        raise NotConfluentSystemError(
            "membership test needs a confluent system; verdict was %s" % verdict.status.value
        )
    return normal_form(system, element, max_steps).is_zero()
