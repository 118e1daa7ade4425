"""Independent reference implementations used to check the library."""

from __future__ import annotations

import argparse
import heapq
import importlib.util
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from diamondlemma import (
    AddedRule,
    Ambiguity,
    CommutativeTheory,
    CompletionReport,
    CompletionStatus,
    DiamondError,
    Element,
    FreeMagmaTheory,
    Fp,
    FreeMonoidTheory,
    MixedTheory,
    MonomialOrder,
    OrderKind,
    OverlapKind,
    PathAlgebraTheory,
    PrimeField,
    RationalField,
    RewriteStep,
    RewritingSystem,
    Rule,
    ParseError,
    ScalarError,
    StepBudgetExceededError,
    DEFAULT_STEP_BUDGET,
    critical_ambiguities,
    normal_form,
    orient,
)
from diamondlemma.algebra_core import _accumulate
from diamondlemma.cli_io import MAX_EXPONENT, MAX_NESTING, MAX_PRODUCT_TERMS


def merge_terms(pairs) -> tuple:
    """Combine (monomial, coefficient) pairs by list scan, no dict involved."""
    merged: list = []
    for m, c in pairs:
        for i, (mm, cc) in enumerate(merged):
            if mm == m:
                merged[i] = (mm, cc + c)
                break
        else:
            merged.append((m, c))
    merged = [(m, c) for m, c in merged if c]
    merged.sort(key=lambda item: repr(item[0]))
    return tuple(merged)


def multiply_elements(theory, a: Element, b: Element) -> Element:
    """Bilinear product of two elements, dropping vanishing monomial products."""
    out: dict = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            m = theory.multiply(m1, m2)
            if m is not None:
                _accumulate(out, m, c1 * c2)
    return Element.from_dict(out)


def word_divisions(haystack: tuple, needle: tuple) -> list:
    """All (left, right) splits with left + needle + right == haystack."""
    out = []
    for i in range(len(haystack) + 1):
        for j in range(i, len(haystack) + 1):
            if haystack[i:j] == needle:
                out.append((haystack[:i], haystack[j:]))
    return out


def _compositions(total: int, parts: int):
    """Yield tuples of nonnegative integers with the given sum, the first
    entry highest first."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def monomials_of_degree(theory, d: int):
    """Yield every monomial of degree d of a theory, none for d < 0: words
    and the words of mixed monomials in ``itertools.product`` order, the
    mixed ones by ascending central degree, exponent vectors as
    ``_compositions`` gives them, trees by the degree of their left factor,
    and paths from each vertex in turn, extended arrow by arrow."""
    if d < 0:
        return
    kind = theory.keyword
    if kind == "assoc":
        yield from itertools.product(theory.letters, repeat=d)
    elif kind == "commutative":
        yield from _compositions(d, len(theory.letters))
    elif kind == "mixed":
        for k in range(d + 1):
            for word in itertools.product(theory.word_letters, repeat=d - k):
                for exps in _compositions(k, len(theory.commutative_letters)):
                    yield (exps, word)
    elif kind == "magma":
        if d == 1:
            yield from theory.letters
        for k in range(1, d):
            for left in monomials_of_degree(theory, k):
                for right in monomials_of_degree(theory, d - k):
                    yield (left, right)
    else:
        layer = [(v, v, ()) for v in theory.vertices]
        for _ in range(d):
            layer = [
                (p[0], t, p[2] + (a,)) for p in layer for a, s, t in theory.arrows if s == p[1]
            ]
        yield from layer


def lead_index(leads, order):
    """The order's codec over the codes of ``leads``, in their order: the
    lead index of a system whose rules have these leads."""
    index = order.codec.copy()
    index.entries += map(index.encode, leads)
    return index


def visits(theory, m) -> list:
    """The vertices a path passes through, endpoints included."""
    return [m[0]] + [theory.endpoints[name][1] for name in m[2]]


def exp_divides(nu: tuple, mu: tuple) -> bool:
    """Componentwise exponent comparison by explicit loop."""
    for a, b in zip(nu, mu):
        if a > b:
            return False
    return True


def magma_occurrences(tree, target) -> int:
    """Count occurrences of target as a subtree, by direct recursion."""
    count = 1 if tree == target else 0
    if not isinstance(tree, str):
        count += magma_occurrences(tree[0], target)
        count += magma_occurrences(tree[1], target)
    return count


def reference_magma_divisions(tree, target) -> list:
    """Contexts placing target as a subtree of tree, in preorder: the whole
    tree, then the places in its left factor, then in its right factor. The
    hole is None."""
    found = [None] if tree == target else []
    if not isinstance(tree, str):
        left, right = tree
        found += [(ctx, right) for ctx in reference_magma_divisions(left, target)]
        found += [(left, ctx) for ctx in reference_magma_divisions(right, target)]
    return found


def reference_magma_overlaps(mu1, mu2) -> list:
    """Minimal superpositions of two trees: a tree paired with itself meets
    only in its identity inclusion, and otherwise the tree with fewer leaves
    meets the other wherever it is a subtree of it, in preorder; the hole is
    None. Trees with as many leaves meet nowhere."""
    if mu1 == mu2:
        return [(mu1, None, None, OverlapKind.INCLUSION, 2)]
    n1, n2 = magma_leaves(mu1), magma_leaves(mu2)
    if n2 < n1:
        inside = reference_magma_divisions(mu1, mu2)
        return [(mu1, None, ctx, OverlapKind.INCLUSION, 2) for ctx in inside]
    if n1 < n2:
        inside = reference_magma_divisions(mu2, mu1)
        return [(mu2, ctx, None, OverlapKind.INCLUSION, 1) for ctx in inside]
    return []


def magma_leaves(tree) -> int:
    """The number of leaves of a tree, by direct recursion."""
    return 1 if isinstance(tree, str) else magma_leaves(tree[0]) + magma_leaves(tree[1])


def reference_apply_context(theory, ctx, m):
    """``m`` in the context, by each theory's monomial arithmetic rather
    than its codec: words and paths join, exponents add, a tree fills its
    hole; None where a path's endpoints do not meet."""
    if isinstance(theory, CommutativeTheory):
        return tuple(a + b for a, b in zip(ctx, m))
    if isinstance(theory, MixedTheory):
        mult, left, right = ctx
        return (tuple(a + b for a, b in zip(mult, m[0])), left + m[1] + right)
    if isinstance(theory, FreeMagmaTheory):
        if ctx is None:
            return m
        if isinstance(ctx, str):
            return ctx
        return tuple(reference_apply_context(theory, side, m) for side in ctx)
    if isinstance(theory, PathAlgebraTheory):
        left, right = ctx
        if left[1] != m[0] or m[1] != right[0]:
            return None
        return (left[0], right[1], left[2] + m[2] + right[2])
    left, right = ctx
    return left + m + right


def apply_context_to_element(theory, ctx, element: Element) -> Element:
    """Apply a context to every term, dropping products that vanish."""
    out: dict = {}
    for m, c in element.terms:
        image = reference_apply_context(theory, ctx, m)
        if image is not None:
            _accumulate(out, image, c)
    return Element.from_dict(out)


def one_step_results(system, element: Element) -> list:
    """Every element reachable by one reduction anywhere, deduplicated."""
    th = system.theory
    seen = set()
    out = []
    for m, c in element.terms:
        for rule in system.rules:
            for ctx in th.divisions(m, rule.lead):
                image = apply_context_to_element(th, ctx, rule.lower)
                result = element - Element(((m, c),)) + image.scaled(c)
                if result not in seen:
                    seen.add(result)
                    out.append(result)
    return out


def all_normal_forms(system, element: Element, state_cap: int = 20000) -> set:
    """Set of irreducible elements reachable by exhaustive rewriting."""
    seen = set()
    stack = [element]
    normal = set()
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        if len(seen) > state_cap:
            raise RuntimeError("exhaustive rewriting exceeded the state cap")
        nexts = one_step_results(system, e)
        if not nexts:
            normal.add(e)
        else:
            stack.extend(nexts)
    return normal


def all_sites(theory, rules, monomial) -> list:
    """Every (rule index, context) reducing the monomial."""
    out = []
    for i, rule in enumerate(rules):
        for ctx in theory.divisions(monomial, rule.lead):
            out.append((i, ctx))
    return out


def random_strategy_normal_form(system, element: Element, rng, site_cache: dict, max_steps: int = 50000) -> Element:
    """Reduce with random site choices until irreducible."""
    th = system.theory
    rules = system.rules
    coeffs = dict(element.terms)
    for _ in range(max_steps):
        reducible = []
        for m in coeffs:
            sites = site_cache.get(m)
            if sites is None:
                sites = all_sites(th, rules, m)
                site_cache[m] = sites
            if sites:
                reducible.append((m, sites))
        if not reducible:
            return Element.from_dict(coeffs)
        m, sites = reducible[rng.randrange(len(reducible))]
        ridx, ctx = sites[rng.randrange(len(sites))]
        c = coeffs.pop(m)
        for mm, cc in rules[ridx].lower.terms:
            image = reference_apply_context(th, ctx, mm)
            if image is None:
                continue
            add = cc * c
            prev = coeffs.get(image)
            s = add if prev is None else prev + add
            if s:
                coeffs[image] = s
            elif prev is not None:
                del coeffs[image]
    raise RuntimeError("random strategy exceeded its step cap")


def _reference_site(theory, rules, monomial, memo):
    """Lowest rule index reducing the monomial and its first context, or None."""
    if monomial not in memo:
        memo[monomial] = None
        for i, rule in enumerate(rules):
            ctxs = theory.divisions(monomial, rule.lead)
            if ctxs:
                memo[monomial] = (i, ctxs[0])
                break
    return memo[monomial]


def _pick_greatest(order, candidates, key_memo):
    """Select the candidate with the greatest sort key."""
    best = None
    best_key = None
    for m in candidates:
        k = key_memo.get(m)
        if k is None:
            k = order.sort_key(m)
            key_memo[m] = k
        if best is None or k > best_key:
            best, best_key = m, k
    return best


def reference_reduce(system, coeffs: dict, budget: int, keep=None) -> tuple:
    """The reduction strategy by full rescan: rebuild the reducible support
    every step and rewrite its greatest monomial with the lowest rule index
    and the first context. Returns (coeffs, trail)."""
    th, order, rules = system.theory, system.order, system.rules
    site_memo: dict = {}
    key_memo: dict = {}
    trail = []
    while True:
        candidates = [m for m in coeffs if _reference_site(th, rules, m, site_memo)]
        if not candidates:
            return coeffs, tuple(trail)
        if len(trail) >= budget:
            raise StepBudgetExceededError("step budget of %d exceeded" % budget)
        m = _pick_greatest(order, candidates, key_memo)
        ridx, ctx = site_memo[m]
        c = coeffs.pop(m)
        for mm, cc in rules[ridx].lower.terms:
            image = reference_apply_context(th, ctx, mm)
            if image is None:
                continue
            if keep is not None and not keep(image):
                continue
            add = cc * c
            prev = coeffs.get(image)
            s = add if prev is None else prev + add
            if s:
                coeffs[image] = s
            elif prev is not None:
                del coeffs[image]
        trail.append(RewriteStep(ridx, m, ctx, c))


def reference_reduce_once(system, element: Element):
    """One step of the strategy by element arithmetic; step None if irreducible."""
    th, rules = system.theory, system.rules
    site_memo: dict = {}
    candidates = [m for m, _ in element.terms if _reference_site(th, rules, m, site_memo)]
    if not candidates:
        return element, None
    m = _pick_greatest(system.order, candidates, {})
    ridx, ctx = site_memo[m]
    c = dict(element.terms)[m]
    image = apply_context_to_element(th, ctx, rules[ridx].lower)
    result = element - Element(((m, c),)) + image.scaled(c)
    return result, RewriteStep(ridx, m, ctx, c)


# One small instance of every theory, for randomized tests.
THEORIES = {
    "assoc": FreeMonoidTheory(("x", "y")),
    "commutative": CommutativeTheory(("x", "y", "z")),
    "mixed": MixedTheory(("t",), ("x", "y")),
    "magma": FreeMagmaTheory(("x", "y")),
    "path": PathAlgebraTheory(
        ("1", "2"), (("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1"))
    ),
}


def shipped_orders(th):
    """One order of every shipped kind the theory admits."""
    gens = tuple(th.generator_names())
    positive = tuple((g, Fraction(i + 1)) for i, g in enumerate(gens))
    negative = tuple((g, Fraction(-1 - i % 2, 2)) for i, g in enumerate(gens))
    orders = [
        MonomialOrder(OrderKind.DEGLEX, th, gens),
        MonomialOrder(OrderKind.DEGLEX, th, tuple(reversed(gens))),
        MonomialOrder(OrderKind.WEIGHTED_DEGLEX, th, gens, positive),
        MonomialOrder(OrderKind.SERIES_DEGLEX, th, gens, negative),
    ]
    if th.supports_lex():
        orders.append(MonomialOrder(OrderKind.LEX, th, gens))
    return orders


def _reference_interreduce(theory, order, field, rules: list, max_steps: int) -> None:
    """Renormalize every rule's lower part against the other rules' leads."""
    for i in range(len(rules)):
        others = RewritingSystem(theory, order, tuple(rules[:i] + rules[i + 1 :]), field)
        lower = normal_form(others, rules[i].lower, max_steps)
        if lower != rules[i].lower:
            rules[i] = Rule(rules[i].lead, lower)


def reference_drop_redundant(system, max_steps: int = 10**6):
    """``drop_redundant`` on elements: rule i goes when the other rules
    reduce its lead and reduce its defining element, lead minus lower part,
    to zero within the budget."""
    th, order, field = system.theory, system.order, system.field
    rules, dropped = list(system.rules), []
    i = 0
    while i < len(rules):
        rule, others = rules[i], rules[:i] + rules[i + 1 :]
        if _reference_site(th, others, rule.lead, {}) is not None:
            rest = RewritingSystem(th, order, tuple(others), field)
            defining = Element(((rule.lead, field.one),)) - rule.lower
            try:
                residue = normal_form(rest, defining, max_steps)
            except StepBudgetExceededError:
                residue = None
            if residue is not None and residue.is_zero():
                why = "lead %s is reducible and the defining element reduces to zero"
                dropped.append((rule, why % th.serialize(rule.lead)))
                rules = others
                continue
        i += 1
    return RewritingSystem(th, order, tuple(rules), field), tuple(dropped)


def reference_pair_ambiguities(theory, i: int, lead_i, j: int, lead_j) -> list:
    """The ambiguities of rules i <= j in the order of ``theory.overlaps``:
    a self-pair drops its identity inclusion, where both contexts agree, and
    puts the contexts of what it has left in ``repr`` order."""
    out = []
    for sup, ctx1, ctx2, kind, inner in theory.overlaps(lead_i, lead_j):
        if i == j and ctx1 == ctx2:
            continue
        if i == j and repr(ctx2) < repr(ctx1):
            ctx1, ctx2 = ctx2, ctx1
        out.append(Ambiguity(i, ctx1, j, ctx2, sup, kind, inner))
    return out


def reference_ambiguities(system) -> tuple:
    """``critical_ambiguities`` from ``theory.overlaps``: every rule pair
    i <= j, sorted by superposition degree, then serialized superposition,
    rules and the ``repr`` of both contexts."""
    th, leads = system.theory, [rule.lead for rule in system.rules]
    found = [
        amb
        for j in range(len(leads))
        for i in range(j + 1)
        for amb in reference_pair_ambiguities(th, i, leads[i], j, leads[j])
    ]
    found.sort(
        key=lambda a: (
            th.degree(a.superposition),
            th.serialize(a.superposition),
            a.rule1,
            a.rule2,
            repr(a.ctx1),
            repr(a.ctx2),
        )
    )
    return tuple(found)


def reference_complete(system, max_degree: int = 12, max_rules: int = 500, max_steps: int = 10**6):
    """Completion without pair criteria: every rule pair is queued, pairs are
    processed by superposition degree then insertion order, and every rule
    is renormalized after each new rule. Pairs come from
    ``theory.overlaps`` and each s-polynomial is the difference of the
    images of the two lower parts, so no enumeration or s-polynomial code
    is shared with ``complete``. Reports no filtered pairs."""
    th, order = system.theory, system.order
    rules = list(system.rules)
    heap: list = []
    counter = 0

    def push_pairs(new_idx: int) -> None:
        nonlocal counter
        for j in range(new_idx + 1):
            for amb in reference_pair_ambiguities(
                th, j, rules[j].lead, new_idx, rules[new_idx].lead
            ):
                heapq.heappush(heap, (th.degree(amb.superposition), counter, amb))
                counter += 1

    for idx in range(len(rules)):
        push_pairs(idx)

    processed = 0
    skipped = 0
    sources: list = []
    degree_capped = False
    rule_capped = False
    while heap:
        deg, _, amb = heapq.heappop(heap)
        if deg > max_degree:
            skipped += 1
            degree_capped = True
            continue
        left = apply_context_to_element(th, amb.ctx1, rules[amb.rule1].lower)
        right = apply_context_to_element(th, amb.ctx2, rules[amb.rule2].lower)
        work = RewritingSystem(th, order, tuple(rules), system.field)
        remainder = normal_form(work, left - right, max_steps)
        processed += 1
        if remainder.is_zero():
            continue
        # Rules are uniform and s-polynomials keep their superposition's
        # class, so every remainder is one rule; ``complete`` relies on it.
        classes = {th.uniform_class(m) for m, _ in remainder.terms}
        assert classes == {th.uniform_class(amb.superposition)}, classes
        rules.append(orient(order, remainder))
        sources.append(amb)
        if len(rules) > max_rules:
            rule_capped = True
            break
        push_pairs(len(rules) - 1)
        _reference_interreduce(th, order, system.field, rules, max_steps)

    if rule_capped:
        status = CompletionStatus.RULE_CAPPED
    elif degree_capped:
        status = CompletionStatus.DEGREE_CAPPED
    else:
        status = CompletionStatus.COMPLETE
    base = len(system.rules)
    added = tuple(AddedRule(rules[base + k], sources[k]) for k in range(len(rules) - base))
    final = RewritingSystem(th, order, tuple(rules), system.field)
    dropped: tuple = ()
    if status is CompletionStatus.COMPLETE:
        final, dropped = reference_drop_redundant(final, max_steps)
    return CompletionReport(status, final, added, dropped, processed, skipped, 0)


def critical_ambiguities_with_montages(system) -> tuple:
    """``critical_ambiguities`` followed by the montages: the superpositions
    of coprime leads of two distinct rules, which the first criterion
    discards. Only power products have finitely many."""
    th = system.theory
    if not isinstance(th, CommutativeTheory):
        raise DiamondError("montage enumeration is only finite for the commutative theory")
    leads = [rule.lead for rule in system.rules]
    montages = []
    for i in range(len(leads)):
        for j in range(i + 1, len(leads)):
            if not any(min(a, b) for a, b in zip(leads[i], leads[j])):
                sup, ctx1, ctx2, kind, inner = reference_lcm_overlap(leads[i], leads[j])
                montages.append(Ambiguity(i, ctx1, j, ctx2, sup, kind, inner))
    return critical_ambiguities(system) + tuple(montages)


def second_criterion_filter(system, ambiguities) -> tuple:
    """Drop ambiguities certified by chains through a third rule.

    An ambiguity of rules (i, j) at superposition m is dropped when the
    theory's chain criterion holds for some third rule; for power products
    that means its lead divides m and both chained superpositions lcm(i, k),
    lcm(k, j) properly divide m. The kept subset certifies the same
    confluence verdict. Theories without a chain criterion keep everything.
    """
    th = system.theory
    leads = [rule.lead for rule in system.rules]
    return tuple(
        amb
        for amb in ambiguities
        if not any(
            th.chain_criterion(lead_k, leads[amb.rule1], leads[amb.rule2], amb.superposition)
            for k, lead_k in enumerate(leads)
            if k not in (amb.rule1, amb.rule2)
        )
    )


def make_random_system(
    theory,
    order,
    rng,
    lead_degree: int = 3,
    lower_degree: int = 3,
    field=RationalField(),
    sample=None,
    min_lead_degree: int = 1,
):
    """Random system of 1-3 rules with leads of degree
    min_lead_degree..lead_degree; degree 0 admits the vertices of paths.

    Lower parts hold up to two monomials of degree <= lower_degree that lie
    below the lead and, for paths, share its endpoints. Coefficients are
    drawn from ``sample``, by default ``field_coeffs(field)``.
    """
    if sample is None:
        sample = field_coeffs(field)
    pool = []
    for d in range(max(lead_degree, lower_degree) + 1):
        pool.extend(monomials_of_degree(theory, d))
    leads = [m for m in pool if min_lead_degree <= theory.degree(m) <= lead_degree]
    rules = []
    for _ in range(rng.randint(1, 3)):
        lead = leads[rng.randrange(len(leads))]
        lead_key = order.sort_key(lead)
        below = [
            m
            for m in pool
            if theory.degree(m) <= lower_degree
            and order.sort_key(m) < lead_key
            and theory.uniform_class(m) == theory.uniform_class(lead)
        ]
        lower = {}
        for _ in range(rng.randint(0, 2) if below else 0):
            m = below[rng.randrange(len(below))]
            lower[m] = lower.get(m, field.zero) + sample[rng.randrange(len(sample))]
        rules.append(Rule(lead, Element.from_dict(lower)))
    return RewritingSystem(theory, order, tuple(rules), field)


def words_up_to(letters: tuple, max_degree: int) -> list:
    """All words over the alphabet with length 0..max_degree."""
    out: list = [()]
    layer: list = [()]
    for _ in range(max_degree):
        layer = [w + (x,) for w in layer for x in letters]
        out.extend(layer)
    return out


def irreducible_by_substring(word: tuple, leads: list) -> bool:
    """Word-level check that no lead occurs as a contiguous factor."""
    for lead in leads:
        n = len(lead)
        for i in range(len(word) - n + 1):
            if word[i : i + n] == lead:
                return False
    return True


class RowSpace:
    """Row space with incremental Gaussian elimination, over the rationals or,
    for a prime ``modulus``, over GF(modulus) on int residues."""

    def __init__(self, modulus: int = 0) -> None:
        self.pivots: dict = {}
        self.modulus = modulus

    def _reduce(self, vec: dict) -> dict:
        p, pivots = self.modulus, self.pivots
        vec = {k: v % p for k, v in vec.items() if v % p} if p else dict(vec)
        changed = True
        while changed:
            changed = False
            for key in sorted(vec, key=repr):
                if key in pivots and vec.get(key):
                    row = pivots[key]
                    if p:
                        factor = vec[key] * pow(row[key], -1, p) % p
                    else:
                        factor = vec[key] / row[key]
                    for k, v in row.items():
                        s = vec.get(k, 0) - factor * v
                        if p:
                            s %= p
                        if s:
                            vec[k] = s
                        elif k in vec:
                            del vec[k]
                    changed = True
                    break
        return {k: v for k, v in vec.items() if v}

    def add(self, vec: dict) -> bool:
        """Insert a vector; report whether it enlarged the space."""
        residue = self._reduce(vec)
        if not residue:
            return False
        pivot = sorted(residue, key=repr)[0]
        self.pivots[pivot] = residue
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(vec)

    def rank(self) -> int:
        return len(self.pivots)


def macaulay_row_space(theory, generators, max_degree: int) -> RowSpace:
    """Span of all monomial multiples of the generators up to a degree cap."""
    space = RowSpace()
    for g in generators:
        top = max(theory.degree(m) for m in g.support())
        for d in range(max_degree - top + 1):
            for mult in monomials_of_degree(theory, d):
                row = {}
                for m, c in g.terms:
                    key = theory.multiply(mult, m)
                    row[key] = row.get(key, Fraction(0)) + c
                space.add({k: v for k, v in row.items() if v})
    return space


def macaulay_member(space: RowSpace, element: Element) -> bool:
    """Membership of an element in the truncated ideal row space."""
    return space.contains({m: c for m, c in element.terms})


def two_sided_product(theory, a, m, b):
    """a*m*b, or None when ``multiply`` refuses a product."""
    p = theory.multiply(a, m)
    return None if p is None else theory.multiply(p, b)


def one_hole_contexts(theory, leaves: int):
    """Yield every tree context with one hole and ``leaves`` leaves besides
    it, as the function that fills its hole, by direct recursion."""
    if leaves == 0:
        yield lambda filler: filler
        return
    for inner in range(leaves):  # leaves beside the hole in its factor
        for tree in monomials_of_degree(theory, leaves - inner):
            for fill in one_hole_contexts(theory, inner):
                yield lambda filler, fill=fill, tree=tree: (fill(filler), tree)
                yield lambda filler, fill=fill, tree=tree: (tree, fill(filler))


def irr_dependence(system, max_degree: int) -> int:
    """dim(V ∩ span Irr(S)) for V the span of the products a*g*b of degree
    at most max_degree, over rules g = lead - lower and monomials a, b; in
    a non-associative theory, of the trees c[g] for contexts c with one
    hole.

    V lies in the ideal, so by the diamond lemma a confluent system gives 0;
    a positive value refutes confluence. It is rank V minus the rank of V
    projected onto the reducible monomials, which ``all_sites`` decides, or
    for trees a subtree search of its own. Products ``multiply`` refuses
    are skipped. Over GF(p) the ranks are taken modulo p, on the residues
    of the rules' coefficients.
    """
    th, rules = system.theory, system.rules
    modulus = getattr(system.field, "p", 0)
    zero = 0 if modulus else Fraction(0)
    if th.associative:
        by_degree = [list(monomials_of_degree(th, d)) for d in range(max_degree + 1)]

        def placements(room):
            for da in range(room + 1):
                for db in range(room - da + 1):
                    for a in by_degree[da]:
                        for b in by_degree[db]:
                            yield lambda m, a=a, b=b: two_sided_product(th, a, m, b)

        def reducible(m):
            return all_sites(th, rules, m)

    else:

        def placements(room):
            for leaves in range(room + 1):
                yield from one_hole_contexts(th, leaves)

        def reducible(m):
            return any(magma_occurrences(m, rule.lead) for rule in rules)

    space, projected = RowSpace(modulus), RowSpace(modulus)
    seen = set()
    for rule in rules:
        g = ((rule.lead, zero + 1),) + tuple(
            (m, -(c.value if modulus else c)) for m, c in rule.lower.terms
        )
        for place in placements(max_degree - max(th.degree(m) for m, _ in g)):
            row = {}
            for m, c in g:
                p = place(m)
                if p is not None:
                    row[p] = row.get(p, zero) + c
            key = frozenset(row.items())
            if key in seen:
                continue
            seen.add(key)
            space.add({k: v for k, v in row.items() if v})
            projected.add({k: v for k, v in row.items() if v and reducible(k)})
    return space.rank() - projected.rank()


_COEFFS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(3),
)

# Rationals whose denominators are pairwise coprime, and one huge numerator:
# reductions over QQ with these rescale and grow their common denominator.
COPRIME_FRACTIONS = (
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(-3, 5),
    Fraction(5, 7),
    Fraction(1, 11),
    Fraction(10**20, 3),
    Fraction(-1),
)

# Prime fields for the randomized tests: the smallest, a small one, the
# benchmark's and a Mersenne prime whose products exceed 64 bits.
PRIME_FIELDS = (PrimeField(2), PrimeField(7), PrimeField(32003), PrimeField(2**61 - 1))


def field_coeffs(field) -> tuple:
    """The sample coefficients as values of the field, leaving out those
    whose denominator vanishes in it; over QQ, all of them in order."""
    out = []
    for c in _COEFFS:
        try:
            out.append(field.coeff(c))
        except ScalarError:
            pass
    return tuple(out)


def max_superposition_degree(leads: list) -> int:
    """Largest word formed by overlapping or nesting two leads, by string scan."""
    worst = 0
    for u in leads:
        for v in leads:
            if len(u) <= len(v) and word_divisions(v, u):
                worst = max(worst, len(v))
            for k in range(1, min(len(u), len(v))):
                if u[len(u) - k :] == v[:k]:
                    worst = max(worst, len(u) + len(v) - k)
    return worst


def make_word_corpus(seed: int = 20260814, count: int = 200):
    """Random two-letter word systems: up to 3 rules, lead degree up to 4.

    Systems are conditioned so every two-lead superposition fits in degree 6;
    that keeps any failure of confluence visible inside the degree-6 window
    that the randomized-strategy comparison scans.
    """
    rng = random.Random(seed)
    theory = FreeMonoidTheory(("x", "y"))
    order = MonomialOrder(OrderKind.DEGLEX, theory, ("x", "y"))
    pool = [w for w in words_up_to(("x", "y"), 4) if w]
    systems = []
    while len(systems) < count:
        rules = []
        for _ in range(rng.randint(1, 3)):
            lead = pool[rng.randrange(len(pool))]
            lead_key = order.sort_key(lead)
            below = [w for w in words_up_to(("x", "y"), len(lead)) if order.sort_key(w) < lead_key]
            lower = {}
            for _ in range(rng.randint(0, 2)):
                m = below[rng.randrange(len(below))]
                lower[m] = lower.get(m, Fraction(0)) + _COEFFS[rng.randrange(len(_COEFFS))]
            rules.append(Rule(lead, Element.from_dict(lower)))
        if max_superposition_degree([r.lead for r in rules]) > 6:
            continue
        systems.append(RewritingSystem(theory, order, tuple(rules)))
    return systems


def polynomial_action_vector(word: tuple, top_degree: int) -> dict:
    """Flattened matrix of a two-letter word acting on polynomials in t.

    The letter x multiplies by t and y differentiates; entries are keyed by
    (input degree, output degree). Words of degree <= d act with linearly
    independent matrices on t^0 .. t^(2d) exactly when their classes in the
    quotient by yx - xy - 1 are independent, because a dependency in normal
    form sum c_ij x^i y^j sends t^k to a falling-factorial polynomial in k
    of degree <= d on each diagonal i - j, and 2d + 1 sample points force
    such a polynomial to vanish identically.
    """
    columns = {k: {k: Fraction(1)} for k in range(top_degree + 1)}
    for letter in reversed(word):
        for k, column in columns.items():
            image: dict = {}
            for degree, coeff in column.items():
                if letter == "x":
                    image[degree + 1] = image.get(degree + 1, Fraction(0)) + coeff
                elif degree:
                    image[degree - 1] = image.get(degree - 1, Fraction(0)) + coeff * degree
            columns[k] = image
    flat = {}
    for k, column in columns.items():
        for degree, coeff in column.items():
            if coeff:
                flat[(k, degree)] = coeff
    return flat


def make_commutative_corpus(seed: int, count: int, names: tuple, max_rules: int, max_degree: int):
    """Random commutative systems under deglex with bounded rules and degrees."""
    from diamondlemma import CommutativeTheory

    rng = random.Random(seed)
    theory = CommutativeTheory(names)
    order = MonomialOrder(OrderKind.DEGLEX, theory, names)
    pool = []
    for d in range(max_degree + 1):
        pool.extend(monomials_of_degree(theory, d))
    leads = [m for m in pool if sum(m)]
    systems = []
    for _ in range(count):
        rules = []
        for _ in range(rng.randint(1, max_rules)):
            lead = leads[rng.randrange(len(leads))]
            lead_key = order.sort_key(lead)
            below = [m for m in pool if order.sort_key(m) < lead_key]
            lower = {}
            for _ in range(rng.randint(0, 2)):
                m = below[rng.randrange(len(below))]
                lower[m] = lower.get(m, Fraction(0)) + _COEFFS[rng.randrange(len(_COEFFS))]
            rules.append(Rule(lead, Element.from_dict(lower)))
        systems.append(RewritingSystem(theory, order, tuple(rules)))
    return systems


def truncate_below(element: Element, weight_data, n: int) -> Element:
    """Drop every monomial whose weight sum falls outside the precision ball."""
    floor = Fraction(1 - n)
    th, weights = weight_data.theory, weight_data.weights
    kept = {m: c for m, c in element.terms if reference_weight_sum(th, weights, m) >= floor}
    return Element.from_dict(kept)


def reference_weight_sum(theory, weights: tuple, m) -> Fraction:
    """Weight sum of a monomial as first written: a sum of ``Fraction``s,
    each weight found by a scan of the (generator, weight) pairs."""

    def weight_of(name):
        for n, w in weights:
            if n == name:
                return Fraction(w)
        raise KeyError(name)

    if isinstance(theory, CommutativeTheory):
        return sum((weight_of(x) * e for x, e in zip(theory.letters, m)), Fraction(0))
    if isinstance(theory, MixedTheory):
        exps, word = m
        total = sum(
            (weight_of(x) * e for x, e in zip(theory.commutative_letters, exps)), Fraction(0)
        )
        return total + sum((weight_of(x) for x in word), Fraction(0))
    if isinstance(theory, FreeMagmaTheory):
        if isinstance(m, str):
            return weight_of(m)
        return reference_weight_sum(theory, weights, m[0]) + reference_weight_sum(
            theory, weights, m[1]
        )
    if isinstance(theory, PathAlgebraTheory):
        return sum((weight_of(x) for x in m[2]), Fraction(0))
    return sum((weight_of(x) for x in m), Fraction(0))


def random_element(
    theory, order, rng, max_degree: int, max_terms: int = 3, field=RationalField(), sample=None
) -> Element:
    """Random element supported on monomials up to a degree cap, with
    coefficients drawn from ``sample``, by default ``field_coeffs(field)``."""
    if sample is None:
        sample = field_coeffs(field)
    pool = []
    for d in range(max_degree + 1):
        pool.extend(monomials_of_degree(theory, d))
    coeffs: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        m = pool[rng.randrange(len(pool))]
        coeffs[m] = coeffs.get(m, field.zero) + sample[rng.randrange(len(sample))]
    return Element.from_dict(coeffs)


# Overlap search as first written for each word-based theory, one loop per
# case; the shared kernel must reproduce these lists, order included.


def reference_word_overlaps(mu1: tuple, mu2: tuple) -> list:
    """Minimal superpositions of two words."""
    data = []
    l1, l2 = len(mu1), len(mu2)
    if mu1 == mu2:
        ident = ((), ())
        data.append((mu1, ident, ident, OverlapKind.INCLUSION, 2))
        for t in range(1, l1):
            if mu1[l1 - t :] == mu1[:t]:
                sup = mu1 + mu1[t:]
                data.append(
                    (sup, ((), mu1[t:]), (mu1[: l1 - t], ()), OverlapKind.OVERLAP, None)
                )
        return data
    for t in range(1, min(l1, l2)):
        if mu1[l1 - t :] == mu2[:t]:
            sup = mu1 + mu2[t:]
            data.append((sup, ((), mu2[t:]), (mu1[: l1 - t], ()), OverlapKind.OVERLAP, None))
        if mu2[l2 - t :] == mu1[:t]:
            sup = mu2 + mu1[t:]
            data.append((sup, (mu2[: l2 - t], ()), ((), mu1[t:]), OverlapKind.OVERLAP, None))
    if l2 < l1:
        for ctx in word_divisions(mu1, mu2):
            data.append((mu1, ((), ()), ctx, OverlapKind.INCLUSION, 2))
    elif l1 < l2:
        for ctx in word_divisions(mu2, mu1):
            data.append((mu2, ctx, ((), ()), OverlapKind.INCLUSION, 1))
    return data


def reference_lcm_overlap(mu1: tuple, mu2: tuple) -> tuple:
    """The lcm of two power products with the cofactors placing each, an
    inclusion when one divides the other."""
    lcm, ctx1, ctx2 = [], [], []
    for a, b in zip(mu1, mu2):
        top = max(a, b)
        lcm.append(top)
        ctx1.append(top - a)
        ctx2.append(top - b)
    if exp_divides(mu2, mu1):
        kind, inner = OverlapKind.INCLUSION, 2
    elif exp_divides(mu1, mu2):
        kind, inner = OverlapKind.INCLUSION, 1
    else:
        kind, inner = OverlapKind.OVERLAP, None
    return tuple(lcm), tuple(ctx1), tuple(ctx2), kind, inner


def reference_power_product_overlaps(mu1: tuple, mu2: tuple) -> list:
    """Superpositions of two power products: none when they share no
    variable, else their lcm."""
    for a, b in zip(mu1, mu2):
        if a and b:
            return [reference_lcm_overlap(mu1, mu2)]
    return []


def reference_mixed_overlaps(mu1: tuple, mu2: tuple) -> list:
    """Minimal superpositions of two (central exponents, word) monomials."""
    (c1, w1), (c2, w2) = mu1, mu2
    shared = tuple(min(a, b) for a, b in zip(c1, c2))
    lcm = tuple(max(a, b) for a, b in zip(c1, c2))
    m1 = tuple(a - b for a, b in zip(lcm, c1))
    m2 = tuple(a - b for a, b in zip(lcm, c2))
    data = []

    def emit(word, ctx1_words, ctx2_words, kind, inner=None):
        sup = (lcm, word)
        ctx1 = (m1,) + ctx1_words
        ctx2 = (m2,) + ctx2_words
        data.append((sup, ctx1, ctx2, kind, inner))

    if mu1 == mu2:
        emit(w1, ((), ()), ((), ()), OverlapKind.INCLUSION, inner=2)
        l1 = len(w1)
        for t in range(1, l1):
            if w1[l1 - t :] == w1[:t]:
                emit(w1 + w1[t:], ((), w1[t:]), (w1[: l1 - t], ()), OverlapKind.OVERLAP)
        if w1 and any(shared):
            emit(w1 + w1, ((), w1), (w1, ()), OverlapKind.OVERLAP)
        return data

    l1, l2 = len(w1), len(w2)
    for t in range(1, min(l1, l2)):
        if w1[l1 - t :] == w2[:t]:
            emit(w1 + w2[t:], ((), w2[t:]), (w1[: l1 - t], ()), OverlapKind.OVERLAP)
        if w2[l2 - t :] == w1[:t]:
            emit(w2 + w1[t:], (w2[: l2 - t], ()), ((), w1[t:]), OverlapKind.OVERLAP)
    if w1 == w2:
        if exp_divides(c2, c1):
            emit(w1, ((), ()), ((), ()), OverlapKind.INCLUSION, inner=2)
        elif exp_divides(c1, c2):
            emit(w1, ((), ()), ((), ()), OverlapKind.INCLUSION, inner=1)
        else:
            emit(w1, ((), ()), ((), ()), OverlapKind.OVERLAP)
    elif l2 < l1 and (w2 or any(shared)):
        for left, right in word_divisions(w1, w2):
            emit(w1, ((), ()), (left, right), OverlapKind.INCLUSION, inner=2)
    elif l1 < l2 and (w1 or any(shared)):
        for left, right in word_divisions(w2, w1):
            emit(w2, (left, right), ((), ()), OverlapKind.INCLUSION, inner=1)
    if w1 and w2 and any(shared):
        emit(w1 + w2, ((), w2), (w1, ()), OverlapKind.OVERLAP)
        emit(w2 + w1, (w2, ()), ((), w1), OverlapKind.OVERLAP)
    return data


def reference_rank_encoding(theory, order, m) -> tuple:
    """Rank encodings as first written: generator ranks by ``tuple.index``
    and the variable map rebuilt on every call."""
    rank = order.generators.index
    if isinstance(theory, CommutativeTheory):
        index = {x: i for i, x in enumerate(theory.letters)}
        return tuple(m[index[g]] for g in reversed(order.generators))
    if isinstance(theory, MixedTheory):
        exps, word = m
        index = {x: i for i, x in enumerate(theory.commutative_letters)}
        comm = tuple(exps[index[g]] for g in reversed(order.generators) if g in index)
        return (len(word), tuple(rank(x) for x in word), comm)
    if isinstance(theory, FreeMagmaTheory):
        if isinstance(m, str):
            return (0, rank(m))
        return (
            1,
            reference_rank_encoding(theory, order, m[0]),
            reference_rank_encoding(theory, order, m[1]),
        )
    if isinstance(theory, PathAlgebraTheory):
        return (
            tuple(rank(x) for x in m[2]),
            theory.vertices.index(m[0]),
            theory.vertices.index(m[1]),
        )
    return tuple(rank(x) for x in m)


def reference_raw_lowers(theory, order, field, rules) -> tuple:
    """Each rule's lower part as ``RewritingSystem.raw_lowers`` holds it,
    built apart from the library's walk: each monomial encoded by a fresh
    lead index of the theory under the order, in the order of the lower
    part's terms, with its coefficient as a numerator over the lcm of the
    denominators, or as a residue over 1 over GF(p)."""
    index = lead_index([], order)
    out = []
    for rule in rules:
        terms = rule.lower.terms
        if field.characteristic:
            den, values = 1, [c.value for _, c in terms]
        else:
            den = math.lcm(1, *(Fraction(c).denominator for _, c in terms))
            values = [int(Fraction(c) * den) for _, c in terms]
        out.append((tuple((index.encode(m), v) for (m, _), v in zip(terms, values)), den))
    return tuple(out)


def reference_sort_key(theory, order, m) -> tuple:
    """The order's comparison key as first written: the rank encoding under
    lex, otherwise the degree and the rank encoding, led by the ``Fraction``
    weight sum under the weighted kinds."""
    if order.kind is OrderKind.LEX:
        return reference_rank_encoding(theory, order, m)
    key = (theory.degree(m), reference_rank_encoding(theory, order, m))
    if order.kind is OrderKind.DEGLEX:
        return key
    return (reference_weight_sum(theory, order.weights, m),) + key


def reference_path_divisions(theory, mu, nu) -> list:
    """Contexts placing path nu inside path mu, checking every vertex."""
    src, tgt, names = mu
    nsrc, ntgt, nnames = nu
    vis = visits(theory, mu)
    out = []
    n = len(nnames)
    for i in range(len(names) - n + 1):
        if names[i : i + n] == nnames and vis[i] == nsrc and vis[i + n] == ntgt:
            out.append(((src, nsrc, names[:i]), (ntgt, tgt, names[i + n :])))
    return out


def reference_path_overlaps(theory, mu1, mu2) -> list:
    """Minimal superpositions of two paths of a quiver."""
    data = []
    a1, a2 = mu1[2], mu2[2]
    l1, l2 = len(a1), len(a2)
    vis1, vis2 = visits(theory, mu1), visits(theory, mu2)

    def vertex_path(v):
        return (v, v, ())

    def seam(tail_of, head_of, t):
        return (tail_of[0], head_of[1], tail_of[2] + head_of[2][t:])

    if mu1 == mu2:
        ident = (vertex_path(mu1[0]), vertex_path(mu1[1]))
        data.append((mu1, ident, ident, OverlapKind.INCLUSION, 2))
        for t in range(1, l1):
            if a1[l1 - t :] == a1[:t] and vis1[l1 - t] == vis1[0]:
                sup = seam(mu1, mu1, t)
                ctx1 = (vertex_path(mu1[0]), (vis1[t], sup[1], a1[t:]))
                ctx2 = ((mu1[0], vis1[l1 - t], a1[: l1 - t]), vertex_path(mu1[1]))
                data.append((sup, ctx1, ctx2, OverlapKind.OVERLAP, None))
        return data

    for t in range(1, min(l1, l2)):
        if a1[l1 - t :] == a2[:t] and vis1[l1 - t] == vis2[0]:
            sup = seam(mu1, mu2, t)
            ctx1 = (vertex_path(mu1[0]), (vis2[t], mu2[1], a2[t:]))
            ctx2 = ((mu1[0], vis1[l1 - t], a1[: l1 - t]), vertex_path(mu2[1]))
            data.append((sup, ctx1, ctx2, OverlapKind.OVERLAP, None))
        if a2[l2 - t :] == a1[:t] and vis2[l2 - t] == vis1[0]:
            sup = seam(mu2, mu1, t)
            ctx1 = ((mu2[0], vis2[l2 - t], a2[: l2 - t]), vertex_path(mu1[1]))
            ctx2 = (vertex_path(mu2[0]), (vis1[t], mu1[1], a1[t:]))
            data.append((sup, ctx1, ctx2, OverlapKind.OVERLAP, None))
    if l2 < l1:
        ident = (vertex_path(mu1[0]), vertex_path(mu1[1]))
        for ctx in reference_path_divisions(theory, mu1, mu2):
            data.append((mu1, ident, ctx, OverlapKind.INCLUSION, 2))
    elif l1 < l2:
        ident = (vertex_path(mu2[0]), vertex_path(mu2[1]))
        for ctx in reference_path_divisions(theory, mu2, mu1):
            data.append((mu2, ctx, ident, OverlapKind.INCLUSION, 1))
    return data


def cyclic_polynomials(n: int) -> list:
    """The cyclic-n system in variables x0..x(n-1), as {exponents: coefficient}."""
    polys = []
    for d in range(1, n):
        poly: dict = {}
        for i in range(n):
            exps = [0] * n
            for k in range(d):
                exps[(i + k) % n] += 1
            poly[tuple(exps)] = poly.get(tuple(exps), Fraction(0)) + 1
        polys.append(poly)
    polys.append({(1,) * n: Fraction(1), (0,) * n: Fraction(-1)})
    return polys


def katsura_polynomials(n: int) -> list:
    """The katsura-n system in variables u0..un, as {exponents: coefficient}."""
    size = n + 1

    def unit(*indices) -> tuple:
        exps = [0] * size
        for i in indices:
            exps[i] += 1
        return tuple(exps)

    linear = {unit(0): Fraction(1), (0,) * size: Fraction(-1)}
    for i in range(1, size):
        linear[unit(i)] = Fraction(2)
    polys = [linear]
    for m in range(n):
        poly = {unit(m): Fraction(-1)}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                key = unit(abs(l), abs(m - l))
                poly[key] = poly.get(key, Fraction(0)) + 1
        polys.append({k: c for k, c in poly.items() if c})
    return polys


def sympy_reduced_basis(polys: list, order_name: str, modulus: int | None = None) -> set:
    """sympy's reduced Groebner basis, each element made monic: over QQ, or
    over GF(modulus) with ``groebner(..., modulus=modulus)``.

    Exponent tuples list the generators ascending, the library's convention,
    so sympy gets them reversed (greatest first). Elements are frozensets of
    (exponents, coefficient) items, the coefficients Fractions over QQ and
    ``Fp`` over GF(modulus).
    """
    import sympy

    nvars = len(next(iter(polys[0])))
    symbols = sympy.symbols(" ".join("v%d" % i for i in reversed(range(nvars))))
    if modulus is None:
        convert = lambda c: sympy.Rational(c.numerator, c.denominator)
        options = {"domain": sympy.QQ}
    else:
        convert = lambda c: c.numerator * pow(c.denominator, -1, modulus) % modulus
        options = {"modulus": modulus}
    flipped = [
        sympy.Poly.from_dict(
            {tuple(reversed(m)): convert(c) for m, c in p.items()}, *symbols, **options
        )
        for p in polys
    ]
    basis = sympy.groebner(flipped, *symbols, order=order_name, **options)
    out = set()
    for poly in basis.polys:
        if modulus is None:
            lead = Fraction(str(poly.LC(order=order_name)))
            terms = [(m, Fraction(str(c)) / lead) for m, c in poly.terms()]
        else:
            inverse = pow(int(poly.LC(order=order_name)), -1, modulus)
            terms = [(m, Fp(int(c) * inverse % modulus, modulus)) for m, c in poly.terms()]
        out.add(frozenset((tuple(reversed(m)), c) for m, c in terms))
    return out


def rules_as_polynomials(rules, field=RationalField()) -> set:
    """Rules lead -> lower over the field as monic polynomials lead - lower,
    in the same form."""
    return {
        frozenset([(rule.lead, field.one)] + [(m, -c) for m, c in rule.lower.terms])
        for rule in rules
    }


# The expression parser before it carried raw coefficient dicts, kept verbatim
# as an oracle for cli_io.parse_expression.


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_SYMBOLS = "+-*^()/"


def _tokenize(text: str, line: int, col0: int) -> list:
    """Split an expression into tokens; columns are 1-based within the line."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = col0 + i
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("num", text[i:j], line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], line, col))
            i = j
            continue
        if ch in _SYMBOLS:
            out.append(_Token(ch, ch, line, col))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    return out


class _ExprParser:
    """Recursive-descent parser for linear combinations of monomials."""

    def __init__(self, tokens: list, theory, field, line: int, end_col: int) -> None:
        self.toks = tokens
        self.pos = 0
        self.depth = 0
        self.theory = theory
        self.field = field
        self.line = line
        self.end_col = end_col

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self):
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def _fail(self, message: str, tok=None):
        col = tok.col if tok is not None else self.end_col
        raise ParseError(message, self.line, col)

    def _top_degree(self, element: Element) -> int:
        return max((self.theory.degree(m) for m, _ in element.terms), default=0)

    def _check_degree(self, degree: int, tok) -> None:
        if degree > MAX_EXPONENT:
            self._fail("result of degree %d exceeds %d" % (degree, MAX_EXPONENT), tok)

    def _multiply(self, a: Element, b: Element, tok) -> Element:
        pairs = len(a.terms) * len(b.terms)
        if pairs > MAX_PRODUCT_TERMS:
            self._fail("product of %d term pairs exceeds %d" % (pairs, MAX_PRODUCT_TERMS), tok)
        self._check_degree(self._top_degree(a) + self._top_degree(b), tok)
        return multiply_elements(self.theory, a, b)

    def parse(self) -> Element:
        if not self.toks:
            self._fail("empty expression")
        value = self._expr()
        tok = self._peek()
        if tok is not None:
            self._fail("unexpected %r" % tok.text, tok)
        return self._to_element(value)

    def _to_element(self, value) -> Element:
        tag, payload = value
        if tag == "elem":
            return payload
        if not payload:
            return Element.zero()
        try:
            unit = self.theory.one()
        except DiamondError:
            self._fail("a bare scalar is not an element of this theory")
        return Element(((unit, payload),))

    def _expr(self):
        terms = []
        sign = 1
        tok = self._peek()
        if tok is not None and tok.kind in "+-":
            sign = -1 if tok.kind == "-" else 1
            self._take()
        terms.append((sign, self._term()))
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in "+-":
                break
            self._take()
            terms.append((-1 if tok.kind == "-" else 1, self._term()))
        if all(tag == "scalar" for _, (tag, _) in terms):
            total = self.field.zero
            for s, (_, c) in terms:
                total = total + c if s > 0 else total - c
            return ("scalar", total)
        total: dict = {}
        for s, value in terms:
            for m, c in self._to_element(value).terms:
                _accumulate(total, m, c if s > 0 else -c)
        return ("elem", Element.from_dict(total))

    def _term(self):
        factors = [(None, self._factor())]
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "*":
                break
            star = self._take()
            factors.append((star, self._factor()))
        scalar = self.field.one
        elems = []
        for star, (tag, payload) in factors:
            if tag == "scalar":
                scalar = scalar * payload
            else:
                elems.append((star, payload))
        if not elems:
            return ("scalar", scalar)
        if not self.theory.associative and len(elems) > 2:
            self._fail("the product is nonassociative; parenthesize it explicitly")
        product = elems[0][1]
        for star, e in elems[1:]:
            product = self._multiply(product, e, star)
        return ("elem", product.scaled(scalar))

    def _factor(self):
        value = self._atom()
        tok = self._peek()
        if tok is None or tok.kind != "^":
            return value
        caret = self._take()
        num = self._take()
        if num is None or num.kind != "num":
            self._fail("'^' needs a nonnegative integer exponent", caret)
        k = int(num.text)
        if k > MAX_EXPONENT:
            self._fail("exponent %d exceeds %d" % (k, MAX_EXPONENT), num)
        tag, payload = value
        if tag == "scalar":
            return ("scalar", payload**k)
        if not self.theory.associative:
            self._fail("powers are ambiguous in a nonassociative product", caret)
        if k == 0:
            return ("elem", self._to_element(("scalar", self.field.one)))
        self._check_degree(k * self._top_degree(payload), caret)
        if len(payload.terms) == 1:
            # A power of one term is one term: multiply monomials, not elements.
            ((m, c),) = payload.terms
            power = m
            for _ in range(k - 1):
                power = self.theory.multiply(power, m)
                if power is None:
                    return ("elem", Element.zero())
            return ("elem", Element(((power, c**k),)))
        result = payload
        for _ in range(k - 1):
            result = self._multiply(result, payload, caret)
        return ("elem", result)

    def _atom(self):
        tok = self._take()
        if tok is None:
            self._fail("unexpected end of expression")
        if tok.kind == "num":
            numerator = int(tok.text)
            denominator = 1
            nxt = self._peek()
            if nxt is not None and nxt.kind == "/":
                self._take()
                den = self._take()
                if den is None or den.kind != "num":
                    self._fail("expected a denominator", nxt)
                denominator = int(den.text)
                if denominator == 0:
                    self._fail("zero denominator", den)
            try:
                return ("scalar", self.field.coeff(Fraction(numerator, denominator)))
            except ScalarError as exc:
                self._fail(str(exc), tok)
        if tok.kind == "name":
            m = self.theory.monomial_named(tok.text)
            if m is None:
                self._fail("unknown generator %r" % tok.text, tok)
            return ("elem", Element(((m, self.field.one),)))
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                self._fail("parentheses nested deeper than %d levels" % MAX_NESTING, tok)
            self.depth += 1
            value = self._expr()
            self.depth -= 1
            closing = self._take()
            if closing is None or closing.kind != ")":
                self._fail("unbalanced parenthesis", tok)
            return value
        self._fail("unexpected %r" % tok.text, tok)


def reference_parse_expression(text: str, theory, field, line: int = 1, col0: int = 1) -> Element:
    """The expression parser as it was before it worked on raw coefficient
    dicts: a character loop of ``_Token``s and one ``Element`` per value."""
    tokens = _tokenize(text, line, col0)
    return _ExprParser(tokens, theory, field, line, col0 + len(text)).parse()


def reference_argument_parser() -> argparse.ArgumentParser:
    """The argparse parser the ``diamond`` command line was read with before
    it read its own table; ``vars`` of what it parses is what the handlers
    read."""
    parser = argparse.ArgumentParser(
        prog="diamond",
        description="Reduction systems, confluence checks and completion over five monomial theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system file")
        p.add_argument("--max-steps", type=int, default=DEFAULT_STEP_BUDGET)
        p.add_argument("--format", choices=("text", "json-lines"), default="text")

    p = sub.add_parser("check", help="decide confluence by resolving every ambiguity")
    common(p)

    p = sub.add_parser("complete", help="saturate the system with oriented remainders")
    common(p)
    p.add_argument("--max-degree", type=int, default=12)
    p.add_argument("--max-rules", type=int, default=500)
    p.add_argument("--output", "-o", default=None)

    p = sub.add_parser("nf", help="reduce an expression to normal form")
    common(p)
    p.add_argument("expression")
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--trail", action="store_true")

    p = sub.add_parser("pairs", help="list the critical ambiguities")
    common(p)

    p = sub.add_parser("irr", help="describe and count irreducible monomials")
    common(p)
    p.add_argument("--max-degree", type=int, default=6)

    p = sub.add_parser("member", help="decide ideal membership on a confluent system")
    common(p)
    p.add_argument("expression")

    return parser


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_cli_tasks() -> dict:
    """argv by task id of one pass of the bench's cli workload: each
    subcommand on each system of ``bench/systems/cli``, paths relative to
    the checkout root. ``bench/cases.py`` is stdlib only, so it loads here
    from its file."""
    spec = importlib.util.spec_from_file_location(
        "bench_cases", os.path.join(REPO, "bench", "cases.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.cli_tasks())
