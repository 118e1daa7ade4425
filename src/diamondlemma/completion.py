"""Confluence decisions, completion into confluent systems, redundancy removal."""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from enum import Enum

from .algebra_core import DiamondError, Element
from .ambiguity import (
    Ambiguity,
    ResolutionCertificate,
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
)


class ConfluenceStatus(Enum):
    CONFLUENT = "confluent"
    NOT_CONFLUENT = "not-confluent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConfluenceVerdict:
    """Outcome of resolving every critical ambiguity of a system.

    An inconclusive verdict keeps the ambiguity whose resolution ran out of
    steps in ``stopped_at``.
    """

    status: ConfluenceStatus
    checked: int
    witness: ResolutionCertificate | None = None
    stopped_at: Ambiguity | None = None

    def stop_point(self, theory) -> str:
        """Say where an inconclusive check stopped."""
        amb = self.stopped_at
        sup = theory.serialize(amb.superposition)
        return "after %d ambiguities, while resolving rules (%d, %d) at %s" % (
            self.checked, amb.rule1, amb.rule2, sup
        )


def check_confluence(system, max_steps: int = DEFAULT_STEP_BUDGET) -> ConfluenceVerdict:
    """Resolve all critical ambiguities and report the verdict."""
    checked = 0
    for amb in critical_ambiguities(system):
        try:
            cert = resolve(system, amb, max_steps)
        except StepBudgetExceededError:
            return ConfluenceVerdict(ConfluenceStatus.INCONCLUSIVE, checked, stopped_at=amb)
        checked += 1
        if not cert.resolved:
            return ConfluenceVerdict(ConfluenceStatus.NOT_CONFLUENT, checked, cert)
    return ConfluenceVerdict(ConfluenceStatus.CONFLUENT, checked)


class CompletionStatus(Enum):
    COMPLETE = "complete"
    DEGREE_CAPPED = "degree-capped"
    RULE_CAPPED = "rule-capped"


@dataclass(frozen=True)
class AddedRule:
    """A rule created during completion plus the ambiguity that forced it."""

    rule: Rule
    source: object


@dataclass(frozen=True)
class CompletionReport:
    """Result of the completion loop.

    ``pairs_filtered`` counts the pairs that the theory's pair criteria
    removed without reducing them.
    """

    status: CompletionStatus
    system: RewritingSystem
    added: tuple
    dropped: tuple
    pairs_processed: int
    pairs_skipped: int
    pairs_filtered: int


class _Working:
    """Unvalidated view of a rule list with the attributes the engine reads.

    Its lead index covers the rules it is made with; ``append`` extends both,
    so one view serves a whole completion.
    """

    __slots__ = ("theory", "order", "rules", "lead_index")

    def __init__(self, theory, order, rules) -> None:
        self.theory = theory
        self.order = order
        self.rules = rules
        self.lead_index = theory.lead_index([rule.lead for rule in rules])

    def append(self, rule: Rule) -> None:
        self.rules.append(rule)
        self.lead_index.add(rule.lead)


def _uniform_components(theory, element: Element) -> list:
    """Split an element into rule-sized pieces, one per uniform class."""
    groups: dict = {}
    for m, c in element.terms:
        groups.setdefault(theory.uniform_class(m), []).append((m, c))
    return [Element(tuple(groups[k])) for k in sorted(groups)]


def _interreduce(theory, order, rules: list, max_steps: int, since: int = 0) -> None:
    """Renormalize rule lower parts against the other rules' leads.

    Rules before ``since`` were interreduced already. Leads never change, so
    their lower parts are still irreducible unless a monomial is divisible by
    a lead from ``since`` on; the other rules are skipped, which leaves the
    result unchanged.
    """
    fresh = theory.lead_index([rule.lead for rule in rules[since:]])
    for i in range(len(rules)):
        if i < since and not any(fresh.first_site(m) for m, _ in rules[i].lower.terms):
            continue
        others = _Working(theory, order, rules[:i] + rules[i + 1 :])
        lower = normal_form(others, rules[i].lower, max_steps)
        if lower != rules[i].lower:
            rules[i] = Rule(rules[i].lead, lower)


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
    when the rule cap was reached.
    """
    th, order = system.theory, system.order
    work = _Working(th, order, list(system.rules))
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
            _interreduce(th, order, rules, max_steps, interreduced)
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
        rules, dropped = _drop_pass(th, order, rules, system.field, max_steps)
    final = RewritingSystem(th, order, tuple(rules), system.field)
    return CompletionReport(status, final, added, dropped, processed, skipped, filtered)


def _drop_pass(theory, order, rules, field, max_steps):
    """Greedily remove rules certified redundant by the remaining ones."""
    remaining = list(rules)
    dropped = []
    i = 0
    while i < len(remaining):
        rule = remaining[i]
        others = remaining[:i] + remaining[i + 1 :]
        if others and any(theory.divisions(rule.lead, o.lead) for o in others):
            defining = Element(((rule.lead, field.one),)) - rule.lower
            work = _Working(theory, order, others)
            try:
                residue = normal_form(work, defining, max_steps)
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
                remaining.pop(i)
                continue
        i += 1
    return remaining, tuple(dropped)


def drop_redundant(system, max_steps: int = DEFAULT_STEP_BUDGET):
    """Remove redundant rules; returns the trimmed system and the drops."""
    remaining, dropped = _drop_pass(
        system.theory, system.order, list(system.rules), system.field, max_steps
    )
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
