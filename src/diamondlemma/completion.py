"""Confluence decisions, completion into confluent systems, redundancy removal."""

from __future__ import annotations

import functools
import heapq
import itertools
from enum import Enum

from .algebra_core import DiamondError, Element, _Value
from .ambiguity import (
    _pair_ambiguities,
    critical_ambiguities,
    resolve,
    s_polynomial,
)
from .rewriting_engine import (
    DEFAULT_STEP_BUDGET,
    RewritingSystem,
    Rule,
    StepBudgetExceededError,
    normal_form,
    orient,
    _raw_lower,
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

    A system whose order is not well-founded raises DiamondError, since
    plain reduction then need not terminate.
    """
    _well_founded(system, "confluence checking")
    checked = 0
    for amb in critical_ambiguities(system):
        try:
            cert = resolve(system, amb, max_steps)
        except StepBudgetExceededError:
            return ConfluenceVerdict(ConfluenceStatus.INCONCLUSIVE, checked, None, amb)
        checked += 1
        if not cert.resolved:
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

    Its lead index, made with the order, and its lower parts in
    ``_raw_lower`` form (codes with integer numerators over one denominator
    per rule) cover the rules it is made with; ``append`` and ``replace``
    keep them in step with ``rules``, so one view serves a whole
    completion. Its ``site_memo`` serves every reduction of that completion,
    since leads are only appended and a replaced rule keeps its lead.
    ``without(i)`` slices all three for the view of the other rules,
    recomputing nothing, for the drop pass, and gives it a fresh memo.
    """

    __slots__ = ("theory", "order", "field", "rules", "raw_lowers", "lead_index", "site_memo")

    def __init__(self, theory, order, field, rules: list) -> None:
        self.theory = theory
        self.order = order
        self.field = field
        self.rules = rules
        self.lead_index = theory.lead_index([rule.lead for rule in rules], order)
        self.raw_lowers = [_raw_lower(self, rule) for rule in rules]
        self.site_memo = {}

    def append(self, rule: Rule) -> None:
        self.rules.append(rule)
        self.lead_index.add(rule.lead)
        self.raw_lowers.append(_raw_lower(self, rule))

    def replace(self, i: int, rule: Rule) -> None:
        """Put a rule with the same lead in place of rule i."""
        self.rules[i] = rule
        self.raw_lowers[i] = _raw_lower(self, rule)

    def without(self, i: int) -> "_Working":
        view = _Working.__new__(_Working)
        view.theory, view.order, view.field = self.theory, self.order, self.field
        view.rules = self.rules[:i] + self.rules[i + 1 :]
        view.raw_lowers = self.raw_lowers[:i] + self.raw_lowers[i + 1 :]
        view.lead_index = self.lead_index.without(i)
        view.site_memo = {}
        return view


def _uniform_components(theory, element: Element) -> list:
    """Split an element into rule-sized pieces, one per uniform class."""
    groups: dict = {}
    for m, c in element.terms:
        groups.setdefault(theory.uniform_class(m), []).append((m, c))
    return [Element(tuple(groups[k])) for k in sorted(groups)]


def _interreduce(work: _Working, max_steps: int, since: int = 0) -> None:
    """Renormalize rule lower parts against the other rules' leads.

    Rules before ``since`` were interreduced already. Leads never change, so
    their lower parts are still irreducible unless a monomial is divisible by
    a lead from ``since`` on, which ``site(code, since)`` of the working
    index tells from the encoded lower parts; the other rules are skipped,
    which leaves the result unchanged. Each renormalization reads and fills
    the working memo, which outlives this call.
    """
    rules, lowers = work.rules, work.raw_lowers
    site = work.lead_index.site
    for i in range(len(rules)):
        if i < since and not any(site(m, since) for m, _ in lowers[i][0]):
            continue
        # A lead divides no monomial below it, so rule i never fires here.
        lower = normal_form(work, rules[i].lower, max_steps)
        if lower != rules[i].lower:
            work.replace(i, Rule(rules[i].lead, lower))


def complete(
    system,
    max_degree: int = 12,
    max_rules: int = 500,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> CompletionReport:
    """Saturate a system with oriented s-polynomial remainders.

    Pairs are processed FIFO by superposition degree then insertion order.
    Each new rule first marks queued pairs that the theory's chain criterion
    certifies as dead, then queues its pairs with the partners the theory's
    ``pair_update`` selects. Returns Complete when the queue empties,
    DegreeCapped when pairs above the degree cap were skipped and RuleCapped
    when the rule cap was reached. A system whose order is not well-founded
    raises DiamondError.
    """
    _well_founded(system, "completion")
    th, order = system.theory, system.order
    work = _Working(th, order, system.field, list(system.rules))
    rules = work.rules
    heap: list = []
    counter = itertools.count()
    dead: set = set()  # insertion counters of queued pairs a criterion removed
    active: list = []
    filtered = 0

    def add_pairs(new: int) -> None:
        nonlocal active, filtered
        lead = rules[new].lead
        for _, key, amb in heap:
            if key not in dead and th.chain_criterion(
                lead, rules[amb.rule1].lead, rules[amb.rule2].lead, amb.superposition
            ):
                dead.add(key)
                filtered += 1
        partners, removed, active = th.pair_update([r.lead for r in rules], active, new)
        filtered += removed
        for j in partners:
            for amb in _pair_ambiguities(th, j, rules[j].lead, new, lead):
                heapq.heappush(heap, (th.degree(amb.superposition), next(counter), amb))

    for idx in range(len(rules)):
        add_pairs(idx)

    processed = 0
    skipped = 0
    sources: list = []
    interreduced = 0
    degree_capped = False
    rule_capped = False
    while heap:
        deg, key, amb = heapq.heappop(heap)
        if key in dead:
            continue
        if deg > max_degree:
            skipped += 1
            degree_capped = True
            continue
        remainder = normal_form(work, s_polynomial(work, amb), max_steps)
        processed += 1
        if remainder.is_zero():
            continue
        for component in _uniform_components(th, remainder):
            work.append(orient(order, component))
            sources.append(amb)
            if len(rules) > max_rules:
                rule_capped = True
                break
            add_pairs(len(rules) - 1)
            _interreduce(work, max_steps, interreduced)
            interreduced = len(rules)
        if rule_capped:
            break

    if rule_capped:
        status = CompletionStatus.RULE_CAPPED
    elif degree_capped:
        status = CompletionStatus.DEGREE_CAPPED
    else:
        status = CompletionStatus.COMPLETE

    base = len(system.rules)
    added = tuple(
        AddedRule(rules[base + k], sources[k]) for k in range(len(rules) - base)
    )
    dropped: tuple = ()
    if status is CompletionStatus.COMPLETE:
        rules, dropped = _drop_pass(work, max_steps)
    final = RewritingSystem(th, order, tuple(rules), system.field)
    return CompletionReport(status, final, added, dropped, processed, skipped, filtered)


def _drop_pass(work: _Working, max_steps: int):
    """Greedily remove rules certified redundant by the remaining ones.

    Returns the remaining rules, a new list, and the drops; ``work`` is left
    as it was.
    """
    theory, field = work.theory, work.field
    dropped = []
    i = 0
    while i < len(work.rules):
        rule = work.rules[i]
        others = work.without(i)
        if others.lead_index.first_site(rule.lead) is not None:
            defining = Element(((rule.lead, field.one),)) - rule.lower
            try:
                residue = normal_form(others, defining, max_steps)
            except StepBudgetExceededError:
                residue = None
            if residue is not None and residue.is_zero():
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
    return list(work.rules), tuple(dropped)


def drop_redundant(system, max_steps: int = DEFAULT_STEP_BUDGET):
    """Remove redundant rules; returns the trimmed system and the drops."""
    work = _Working(system.theory, system.order, system.field, list(system.rules))
    remaining, dropped = _drop_pass(work, max_steps)
    trimmed = RewritingSystem(system.theory, system.order, tuple(remaining), system.field)
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
