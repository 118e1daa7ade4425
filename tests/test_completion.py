"""Confluence checking, completion and rule dropping."""

import functools
import math
import os
import random
import re
from fractions import Fraction

import pytest

from diamondlemma import (
    AddedRule,
    CommutativeTheory,
    CompletionStatus,
    ConfluenceStatus,
    DiamondError,
    Element,
    Fp,
    FreeMonoidTheory,
    MonomialOrder,
    NotConfluentSystemError,
    OrderKind,
    PrimeField,
    RationalField,
    RewritingSystem,
    Rule,
    StepBudgetExceededError,
    check_confluence,
    complete,
    critical_ambiguities,
    drop_redundant,
    format_element,
    ideal_member,
    normal_form,
    normal_form_with_trail,
    orient,
    parse_expression,
    parse_system_file,
    reduce_once,
    resolve,
    truncated_normal_form,
)
from diamondlemma import ambiguity, completion, rewriting_engine
from diamondlemma.completion import _interreduce, _Working
from diamondlemma.rewriting_engine import _decoded, _encoded

from oracles import (
    COPRIME_FRACTIONS,
    PRIME_FIELDS,
    THEORIES,
    _reference_interreduce,
    cyclic_polynomials,
    irr_dependence,
    katsura_polynomials,
    macaulay_member,
    macaulay_row_space,
    make_random_system,
    random_element,
    reference_complete,
    reference_drop_redundant,
    reference_raw_lowers,
    rules_as_polynomials,
    shipped_orders,
    sympy_reduced_basis,
)

WORD_TH = FreeMonoidTheory(("x", "y"))
WORD_DEGLEX = MonomialOrder(OrderKind.DEGLEX, WORD_TH, ("x", "y"))
COMM_TH = CommutativeTheory(("x", "y"))
COMM_LEX = MonomialOrder(OrderKind.LEX, COMM_TH, ("y", "x"))
COMM_DEGLEX = MonomialOrder(OrderKind.DEGLEX, COMM_TH, ("x", "y"))
QQ = RationalField()
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELD_IDS = [field.describe() for field in PRIME_FIELDS]


def welem(*pairs) -> Element:
    return Element.from_dict({m: Fraction(c) for m, c in pairs})


def weyl() -> RewritingSystem:
    return RewritingSystem(
        WORD_TH, WORD_DEGLEX, (Rule(("y", "x"), welem((("x", "y"), 1), ((), 1))),)
    )


def buchberger_input() -> RewritingSystem:
    # x^2 -> y and xy -> 1 under lex with x greater than y.
    return RewritingSystem(
        COMM_TH,
        COMM_LEX,
        (
            Rule((2, 0), Element((((0, 1), Fraction(1)),))),
            Rule((1, 1), Element((((0, 0), Fraction(1)),))),
        ),
    )


class TestCheckConfluence:
    def test_weyl_confluent_with_zero_ambiguities(self):
        verdict = check_confluence(weyl())
        assert verdict.status is ConfluenceStatus.CONFLUENT
        assert verdict.checked == 0
        assert verdict.witness is None

    def test_bergman_confluent(self):
        s = RewritingSystem(
            WORD_TH,
            WORD_DEGLEX,
            (Rule(("x", "x"), welem(((), 1))), Rule(("y", "y"), welem(((), 1)))),
        )
        verdict = check_confluence(s)
        assert verdict.status is ConfluenceStatus.CONFLUENT
        assert verdict.checked == 2

    def test_not_confluent_with_witness(self):
        verdict = check_confluence(buchberger_input())
        assert verdict.status is ConfluenceStatus.NOT_CONFLUENT
        assert verdict.witness is not None
        assert not verdict.witness.resolved
        assert verdict.witness.remainder == Element.from_dict(
            {(0, 2): Fraction(1), (1, 0): Fraction(-1)}
        )

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_witness_is_the_resolution_of_its_ambiguity(self, name, field):
        """The witness, certified without a trail for the ambiguities that
        resolve, is the certificate ``resolve`` gives its ambiguity, which
        is the ``checked``-th of ``critical_ambiguities``, and every earlier
        one resolves."""
        th = THEORIES[name]
        rng = random.Random("witness-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == QQ else None
        orders = [o for o in shipped_orders(th) if o.is_well_founded()]
        refuted = 0
        for _ in range(80):
            order = orders[rng.randrange(len(orders))]
            s = make_random_system(th, order, rng, field=field, sample=sample)
            verdict = check_confluence(s, 20_000)
            if verdict.status is not ConfluenceStatus.NOT_CONFLUENT:
                continue
            refuted += 1
            ambiguities = critical_ambiguities(s)
            witness = verdict.witness
            assert witness == resolve(s, witness.ambiguity, 20_000)
            assert ambiguities[verdict.checked - 1] == witness.ambiguity
            assert all(resolve(s, a).resolved for a in ambiguities[: verdict.checked - 1])
        assert refuted >= 10

    def test_budget_exhaustion_is_inconclusive(self):
        s = RewritingSystem(
            WORD_TH,
            WORD_DEGLEX,
            (
                Rule(("y", "x"), welem((("x", "y"), 1))),
                Rule(("y", "y"), welem((("x", "x"), 1))),
            ),
        )
        assert check_confluence(s).status is ConfluenceStatus.CONFLUENT
        assert check_confluence(s).stopped_at is None
        verdict = check_confluence(s, max_steps=0)
        assert verdict.status is ConfluenceStatus.INCONCLUSIVE
        # The verdict keeps the ambiguity whose resolution ran out of steps.
        assert (verdict.checked, verdict.stopped_at) == (0, critical_ambiguities(s)[0])


# Under a series order this system's words keep lengthening, so plain
# reduction of its ambiguities need not end.
SERIES_PROBE = (
    "theory assoc; vars x y; weights x:-1 y:-1; order series x<y;"
    " rule y*x -> x*y + x^2*y; rule y*y -> x*y*y"
)


class TestNonWellFoundedOrder:
    def test_check_confluence_and_complete_refuse_it(self):
        s = parse_system_file(SERIES_PROBE).system
        with pytest.raises(DiamondError) as info:
            check_confluence(s)
        assert str(info.value) == (
            "confluence checking needs a well-founded order;"
            " this system reduces only to a precision"
        )
        with pytest.raises(DiamondError) as info:
            complete(s)
        assert str(info.value) == (
            "completion needs a well-founded order; this system reduces only to a precision"
        )

    def test_single_steps_and_truncated_normal_forms_still_run(self):
        sf = parse_system_file(SERIES_PROBE)
        e = parse_expression("y*y*x", sf.system.theory, sf.system.field)
        reduced, step = reduce_once(sf.system, e)
        assert step.monomial == ("y", "y", "x") and step.context == (("y",), ())
        assert reduced == parse_expression("y*x*y + y*x^2*y", sf.system.theory, sf.system.field)
        yx = parse_expression("y*x", sf.system.theory, sf.system.field)
        for precision, text, truncated in ((3, "x*y", True), (4, "x*y + x^2*y", False)):
            result = truncated_normal_form(sf.system, sf.weight_data, yx, precision)
            want = parse_expression(text, sf.system.theory, sf.system.field)
            assert (result.representative, result.truncated) == (want, truncated)


class TestComplete:
    def test_buchberger_end_to_end(self):
        report = complete(buchberger_input())
        assert report.status is CompletionStatus.COMPLETE
        got = {(r.lead, r.lower.terms) for r in report.system.rules}
        assert got == {
            ((1, 0), (((0, 2), Fraction(1)),)),
            ((0, 3), (((0, 0), Fraction(1)),)),
        }
        assert [r.rule.lead for r in report.added] == [(1, 0), (0, 3)]
        dropped_leads = {rule.lead for rule, _ in report.dropped}
        assert dropped_leads == {(2, 0), (1, 1)}

    def test_added_rules_carry_their_source_ambiguity(self):
        report = complete(buchberger_input())
        assert all(isinstance(a, AddedRule) for a in report.added)
        sources = [COMM_TH.serialize(a.source.superposition) for a in report.added]
        assert sources == ["x^2*y", "x*y"]

    def test_already_confluent_adds_nothing(self):
        report = complete(weyl())
        assert report.status is CompletionStatus.COMPLETE
        assert report.added == ()
        assert report.dropped == ()
        assert report.system.rules == weyl().rules
        assert report.pairs_processed == 0

    def test_resolvable_pairs_processed_without_rules(self):
        s = RewritingSystem(
            WORD_TH,
            WORD_DEGLEX,
            (Rule(("x", "x"), welem(((), 1))), Rule(("y", "y"), welem(((), 1)))),
        )
        report = complete(s)
        assert report.status is CompletionStatus.COMPLETE
        assert report.added == ()
        assert report.pairs_processed == 2

    def test_degree_cap_skips_pairs(self):
        s = RewritingSystem(
            WORD_TH,
            WORD_DEGLEX,
            (
                Rule(("x", "x"), welem((("y",), 1))),
                Rule(("x", "y"), welem(((), 1))),
            ),
        )
        report = complete(s, max_degree=2)
        assert report.status is CompletionStatus.DEGREE_CAPPED
        assert report.pairs_skipped == 2
        assert report.added == ()
        assert report.dropped == ()

    def test_rule_cap(self):
        report = complete(buchberger_input(), max_rules=2)
        assert report.status is CompletionStatus.RULE_CAPPED
        assert [r.rule.lead for r in report.added] == [(1, 0)]

    def test_completed_system_is_confluent(self):
        report = complete(buchberger_input())
        assert check_confluence(report.system).status is ConfluenceStatus.CONFLUENT

    def test_added_rules_stay_inside_the_original_ideal(self):
        report = complete(buchberger_input())
        generators = [
            Element(((r.lead, Fraction(1)),)) - r.lower for r in buchberger_input().rules
        ]
        space = macaulay_row_space(COMM_TH, generators, 12)
        for added in report.added:
            defining = Element(((added.rule.lead, Fraction(1)),)) - added.rule.lower
            assert macaulay_member(space, defining)

    def test_lowers_are_interreduced(self):
        report = complete(buchberger_input())
        rules = report.system.rules
        for i in range(len(rules)):
            others = RewritingSystem(
                report.system.theory,
                report.system.order,
                rules[:i] + rules[i + 1 :],
                report.system.field,
            )
            assert normal_form(others, rules[i].lower) == rules[i].lower


class TestRandomCommutativeCompletions:
    def completions(self, count=30):
        rng = random.Random(31)
        pool = [(i, j) for i in range(3) for j in range(3) if 0 < i + j <= 2]
        out = []
        while len(out) < count:
            leads = rng.sample(pool, 2)
            rules = []
            for lead in leads:
                below = [
                    m
                    for m in pool + [(0, 0)]
                    if COMM_DEGLEX.sort_key(m) < COMM_DEGLEX.sort_key(lead) and rng.random() < 0.5
                ]
                lower = Element.from_dict(
                    {m: Fraction(rng.choice((1, -1, 2, -2))) for m in below}
                )
                rules.append(Rule(lead, lower))
            s = RewritingSystem(COMM_TH, COMM_DEGLEX, tuple(rules))
            report = complete(s, max_degree=8, max_rules=40, max_steps=200000)
            if report.status is CompletionStatus.COMPLETE:
                out.append((s, report))
        return out

    def test_complete_implies_confluent_and_preserves_ideal(self):
        for original, report in self.completions():
            assert (
                check_confluence(report.system, max_steps=200000).status
                is ConfluenceStatus.CONFLUENT
            )
            generators = [
                Element(((r.lead, Fraction(1)),)) - r.lower for r in original.rules
            ]
            space = macaulay_row_space(COMM_TH, generators, 10)
            for added in report.added:
                defining = Element(((added.rule.lead, Fraction(1)),)) - added.rule.lower
                assert macaulay_member(space, defining)
            # The original generators reduce to zero in the completed system.
            for g in generators:
                assert normal_form(report.system, g, 200000).is_zero()


def polynomial_system(polys, kind=OrderKind.DEGLEX, field=QQ) -> RewritingSystem:
    """One rule per polynomial, in variables v0 < v1 < ... under ``kind``,
    over the field."""
    th = CommutativeTheory(tuple("v%d" % i for i in range(len(next(iter(polys[0]))))))
    order = MonomialOrder(kind, th, th.letters)
    rules = tuple(
        orient(order, Element.from_dict({m: field.coeff(c) for m, c in p.items()})) for p in polys
    )
    return RewritingSystem(th, order, rules, field)


def random_completions(name: str, count: int, caps: dict, field=QQ):
    """(system, reference report) pairs for random systems of one theory."""
    th = THEORIES[name]
    seed = "complete-" + name if field == QQ else "complete-%s-%s" % (name, field.describe())
    rng = random.Random(seed)
    orders = [o for o in shipped_orders(th) if o.is_well_founded()]
    for _ in range(count):
        s = make_random_system(th, orders[rng.randrange(len(orders))], rng, field=field)
        yield s, reference_complete(s, **caps)


def assert_completes_as_reference(got, want):
    """Without pair criteria, complete() repeats the reference run exactly."""
    assert got.status is want.status
    assert got.added == want.added
    assert got.dropped == want.dropped
    assert got.system.rules == want.system.rules
    assert (got.pairs_processed, got.pairs_skipped, got.pairs_filtered) == (
        want.pairs_processed,
        want.pairs_skipped,
        0,
    )


def assert_same_basis(got, want) -> bool:
    """With pair criteria, a complete reference run gives the same basis from
    no more pairs; says whether there were fewer."""
    assert got.status is CompletionStatus.COMPLETE
    # The basis is unique; the order in which rules were found is not.
    assert set(got.system.rules) == set(want.system.rules)
    assert got.pairs_processed <= want.pairs_processed
    return got.pairs_processed < want.pairs_processed


class TestAgainstReference:
    """complete() against the criterion-free loop kept in oracles."""

    CAPS = {"max_degree": 6, "max_rules": 100, "max_steps": 20_000}

    @pytest.mark.parametrize("name", ["assoc", "magma", "mixed", "path"])
    def test_other_theories_complete_exactly_as_before(self, name):
        for s, want in random_completions(name, 40, self.CAPS):
            assert_completes_as_reference(complete(s, **self.CAPS), want)

    def test_commutative_reaches_the_same_basis_with_fewer_pairs(self):
        complete_runs = fewer = 0
        for s, want in random_completions("commutative", 300, self.CAPS):
            got = complete(s, **self.CAPS)
            if want.status is not CompletionStatus.COMPLETE:
                continue
            complete_runs += 1
            fewer += assert_same_basis(got, want)
        assert complete_runs > 250 and fewer > 20

    @pytest.mark.parametrize("field", PRIME_FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_prime_fields_complete_as_the_reference(self, name, field):
        complete_runs = 0
        for s, want in random_completions(name, 40, self.CAPS, field):
            got = complete(s, **self.CAPS)
            if name != "commutative":
                assert_completes_as_reference(got, want)
            elif want.status is CompletionStatus.COMPLETE:
                complete_runs += 1
                assert_same_basis(got, want)
        if name == "commutative":
            assert complete_runs > 30

    def test_pairs_by_fate_on_cyclic_4(self):
        s = polynomial_system(cyclic_polynomials(4))
        got, want = complete(s), reference_complete(s)
        assert (got.pairs_processed, got.pairs_filtered, got.pairs_skipped) == (11, 24, 0)
        assert (want.pairs_processed, want.pairs_skipped) == (35, 0)
        assert set(got.system.rules) == set(want.system.rules)

    def test_chain_criterion_cancels_a_queued_pair(self):
        # x*y and y*z meet at x*y*z; y divides it and meets each of them at a
        # proper divisor, so the queued pair is cancelled when y arrives.
        s = parse_system_file(
            "theory commutative; vars x y z; rule x*y -> x + z; rule y*z -> x; rule y -> x"
        ).system
        got, want = complete(s), reference_complete(s)
        assert (got.pairs_processed, got.pairs_filtered) == (4, 1)
        assert want.pairs_processed == 9
        assert set(got.system.rules) == set(want.system.rules)

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_selective_interreduction_matches_full(self, name):
        """Selective passes match the full pass, and the full pass, which
        renormalizes against every rule, matches the reference, which leaves
        rule i out; under every well-founded shipped order."""
        th = THEORIES[name]
        rng = random.Random("interreduce-" + name)
        for order in [o for o in shipped_orders(th) if o.is_well_founded()]:
            for _ in range(60):
                done = _Working.of(make_random_system(th, order, rng))
                _interreduce(done, 20_000)
                done.decode()
                fresh = list(make_random_system(th, order, rng).rules)
                both = RewritingSystem._of_checked_rules(th, order, tuple(done.rules + fresh), QQ)
                full = _Working.of(both)
                selective = _Working.of(both)
                reference = done.rules + fresh
                _interreduce(full, 20_000)
                # The done rules' lower parts are irreducible against their
                # own leads.
                k = len(done.rules)
                selective.marks[:k] = [k] * k
                _interreduce(selective, 20_000)
                full.decode()
                selective.decode()
                _reference_interreduce(th, order, QQ, reference, 20_000)
                assert selective.rules == full.rules == reference
                # Over QQ the raw lower parts are int numerators over the
                # lcm of the denominators and decode to the rules' own terms.
                decode = selective.lead_index.decode
                assert len(selective.raw_lowers) == len(full.rules)
                for (lower, d), rule in zip(selective.raw_lowers, full.rules):
                    assert all(type(c) is int for _, c in lower)
                    assert d == math.lcm(*(c.denominator for _, c in rule.lower.terms))
                    decoded = tuple((decode(code), Fraction(c, d)) for code, c in lower)
                    assert decoded == rule.lower.terms

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_working_memo_survives_appended_rules(self, name):
        """One ``site_memo`` serves every reduction through a growing
        ``_Working``: normal forms match a system built afresh, each hit is
        the site a fresh scan finds and each miss count n is a prefix of
        leads none of which divides the code."""
        th = THEORIES[name]
        rng = random.Random("working-memo-" + name)
        for order in [o for o in shipped_orders(th) if o.is_well_founded()]:
            for _ in range(4):
                rules = [r for _ in range(3) for r in make_random_system(th, order, rng).rules]
                first = RewritingSystem._of_checked_rules(th, order, tuple(rules[:1]), QQ)
                work = _Working.of(first)
                memo = work.site_memo
                for k in range(1, len(rules) + 1):
                    if k > 1:
                        rule = rules[k - 1]
                        defining = Element(((rule.lead, Fraction(1)),)) - rule.lower
                        work.append(_encoded(work, defining))
                    assert work.site_memo is memo
                    fresh = RewritingSystem._of_checked_rules(th, order, tuple(rules[:k]), QQ)
                    for _ in range(4):
                        element = random_element(th, order, rng, 4, max_terms=4)
                        got = normal_form(work, element, 20_000)
                        assert got == normal_form(fresh, element, 20_000)
                    index = work.lead_index
                    for code, found in memo.items():
                        if isinstance(found, int):
                            assert found <= k
                            hit = index.site(code)
                            assert hit is None or hit[0] >= found
                        else:
                            assert found == index.site(code)
                assert memo
                assert work.without(0).site_memo == {}

    def test_rewriting_system_keeps_no_memo(self):
        s = parse_system_file("theory assoc; vars x y; rule y*x -> x*y + 1").system
        element = parse_expression("y^3*x^3", s.theory, s.field)
        assert normal_form(s, element) == normal_form(s, element)
        assert s.site_memo == {}
        assert s.site_memo is not s.site_memo
        assert "site_memo" not in vars(s)

    def test_private_memo_forgets_rewritten_codes(self, monkeypatch):
        """A ``RewritingSystem`` reduction owns its memo, so each code a step
        rewrites leaves it, while the memo a ``_Working`` shares between
        reductions keeps the site of every code."""
        s = parse_system_file("theory assoc; vars x y; rule y*x -> x*y + x").system
        element = parse_expression("y^6*x^6", s.theory, s.field)
        memos = []

        def fresh_memo(system):
            memos.append({})
            return memos[-1]

        monkeypatch.setattr(RewritingSystem, "site_memo", property(fresh_memo))
        got, trail = normal_form_with_trail(s, element)
        rewritten = {s.lead_index.encode(step.monomial) for step in trail}
        (memo,) = memos
        assert memo and rewritten and not rewritten & memo.keys()
        work = _Working.of(s)
        assert normal_form(work, element) == got
        assert rewritten <= work.site_memo.keys()

    def test_interreduction_with_two_rules_sharing_a_lead(self):
        s = parse_system_file(
            "theory assoc; vars x y; rule y*x -> x*x + y; rule y*x -> x*y; rule y -> x"
        ).system
        work = _Working.of(s)
        reference = list(s.rules)
        _interreduce(work, 20_000)
        work.decode()
        _reference_interreduce(s.theory, s.order, s.field, reference, 20_000)
        assert work.rules == reference
        assert [format_element(s.theory, s.order, r.lower) for r in work.rules] == [
            "x^2 + x",
            "x^2",
            "x",
        ]


@pytest.mark.parametrize(
    "polys, order_name, modulus",
    [
        pytest.param(cyclic_polynomials(4), "grlex", None, id="cyclic-4-grlex"),
        pytest.param(katsura_polynomials(3), "grlex", None, id="katsura-3-grlex"),
        pytest.param(katsura_polynomials(4), "grlex", None, id="katsura-4-grlex"),
        # The benchmark's QQ case, which the integer loop rescales through.
        pytest.param(cyclic_polynomials(5), "grlex", None, id="cyclic-5-grlex"),
        pytest.param(cyclic_polynomials(4), "lex", None, id="cyclic-4-lex"),
        pytest.param(katsura_polynomials(2), "lex", None, id="katsura-2-lex"),
        # Raw residues under the deglex and the lex code layout.
        pytest.param(katsura_polynomials(4), "grlex", 32003, id="katsura-4-grlex-gf32003"),
        pytest.param(cyclic_polynomials(4), "lex", 32003, id="cyclic-4-lex-gf32003"),
    ],
)
def test_reduced_basis_matches_sympy(polys, order_name, modulus):
    pytest.importorskip("sympy")
    field = QQ if modulus is None else PrimeField(modulus)
    kind = OrderKind.DEGLEX if order_name == "grlex" else OrderKind.LEX
    report = complete(polynomial_system(polys, kind, field))
    assert report.status is CompletionStatus.COMPLETE
    assert rules_as_polynomials(report.system.rules, field) == sympy_reduced_basis(
        polys, order_name, modulus
    )


class TestDropRedundant:
    def test_specialized_rule_dropped(self):
        s = RewritingSystem(
            COMM_TH,
            COMM_LEX,
            (
                Rule((1, 0), Element((((0, 2), Fraction(1)),))),
                Rule((0, 3), Element((((0, 0), Fraction(1)),))),
                Rule((2, 0), Element((((0, 1), Fraction(1)),))),
            ),
        )
        trimmed, dropped = drop_redundant(s)
        assert [r.lead for r in trimmed.rules] == [(1, 0), (0, 3)]
        ((rule, why),) = dropped
        assert rule.lead == (2, 0)
        assert "reduces to zero" in why

    def test_duplicate_rule_loses_one_copy(self):
        rule = Rule(("y", "x"), welem((("x", "y"), 1), ((), 1)))
        s = RewritingSystem(WORD_TH, WORD_DEGLEX, (rule, rule))
        trimmed, dropped = drop_redundant(s)
        assert trimmed.rules == (rule,)
        assert len(dropped) == 1

    def test_minimal_system_unchanged(self):
        s = weyl()
        trimmed, dropped = drop_redundant(s)
        assert trimmed.rules == s.rules
        assert dropped == ()

    def test_irredundant_pair_kept_despite_divisible_lead(self):
        # x^2 -> y is not implied by x^2*y -> 0 alone; nothing drops.
        s = RewritingSystem(
            WORD_TH,
            WORD_DEGLEX,
            (
                Rule(("x", "x"), welem((("y",), 1))),
                Rule(("x", "x", "y"), Element.zero()),
            ),
        )
        trimmed, dropped = drop_redundant(s)
        assert len(trimmed.rules) == 2
        assert dropped == ()

    def test_rule_kept_when_its_defining_element_exhausts_the_budget(self):
        # x*y*x*y - z*z needs two steps to reach zero, so one step keeps it.
        s = parse_system_file("theory assoc; vars x y z; rule x*y -> z; rule x*y*x*y -> z*z").system
        trimmed, dropped = drop_redundant(s, max_steps=1)
        assert trimmed.rules == s.rules
        assert dropped == ()
        trimmed, dropped = drop_redundant(s)
        assert trimmed.rules == s.rules[:1]
        assert [rule for rule, _ in dropped] == [s.rules[1]]

    def test_normal_forms_unchanged_after_drop(self):
        s = RewritingSystem(
            COMM_TH,
            COMM_LEX,
            (
                Rule((1, 0), Element((((0, 2), Fraction(1)),))),
                Rule((0, 3), Element((((0, 0), Fraction(1)),))),
                Rule((2, 0), Element((((0, 1), Fraction(1)),))),
            ),
        )
        trimmed, _ = drop_redundant(s)
        rng = random.Random(17)
        for _ in range(40):
            e = random_element(COMM_TH, COMM_LEX, rng, 5)
            assert normal_form(s, e, 200000) == normal_form(trimmed, e, 200000)


class TestCheckedRules:
    """Completion and the drop pass build their systems of rules they hold
    checked, without checking them again, and completion reads repeated
    pair overlaps from a bounded table."""

    CAPS = {"max_degree": 4, "max_rules": 8, "max_steps": 20_000}

    @staticmethod
    def systems(name, field, count):
        th = THEORIES[name]
        rng = random.Random("checked-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == QQ else None
        orders = [o for o in shipped_orders(th) if o.is_well_founded()]
        for _ in range(count):
            order = orders[rng.randrange(len(orders))]
            rules = [
                rule
                for _ in range(2)
                for rule in make_random_system(th, order, rng, field=field, sample=sample).rules
            ]
            yield RewritingSystem(th, order, tuple(rules), field)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_every_report_passes_the_system_check(self, name, field):
        """Each report's rules, capped reports included, and each trimmed
        system's make a system that ``RewritingSystem(...)`` accepts, with
        the codes the report's system holds."""
        statuses = set()
        for k, s in enumerate(self.systems(name, field, 20)):
            # Every other run is capped at one added rule.
            caps = dict(self.CAPS, max_rules=len(s.rules) + 1) if k % 2 else self.CAPS
            report = complete(s, **caps)
            statuses.add(report.status)
            system = report.system
            checked = RewritingSystem(s.theory, s.order, system.rules, s.field)
            assert checked == system
            assert system.lead_index.entries == checked.lead_index.entries
            assert system.raw_lowers == checked.raw_lowers
            trimmed, _ = drop_redundant(s, 20_000)
            assert "lead_index" in vars(trimmed)
            checked = RewritingSystem(s.theory, s.order, trimmed.rules, s.field)
            assert vars(trimmed)["lead_index"].entries == checked.lead_index.entries
            assert vars(trimmed)["raw_lowers"] == checked.raw_lowers
        assert CompletionStatus.COMPLETE in statuses and len(statuses) > 1

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_pair_table_cold_warm_and_bounded(self, name, monkeypatch):
        """A completion with the pair table cleared reports as one with it
        warm, and as one under a table of three entries, which never holds
        more."""
        table = rewriting_engine._pair_overlaps
        small = functools.lru_cache(maxsize=3)(table.__wrapped__)
        filled = 0
        for s in self.systems(name, QQ, 15):
            table.cache_clear()
            cold = complete(s, **self.CAPS)
            filled += table.cache_info().currsize > 0
            assert complete(s, **self.CAPS) == cold
            assert table.cache_info().currsize <= table.cache_info().maxsize
            with monkeypatch.context() as patch:
                for module in (ambiguity, completion):
                    patch.setattr(module, "_pair_overlaps", small)
                small.cache_clear()
                assert complete(s, **self.CAPS) == cold
                assert small.cache_info().currsize <= 3
        assert filled >= 5


class TestCompletionOnCodes:
    """Interreduction and the drop pass reduce encoded lower parts, and a
    COMPLETE report's system takes over the working index."""

    CAPS = {"max_degree": 5, "max_rules": 40, "max_steps": 20_000}

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_complete_report_holds_the_index_of_its_rules(self, name, field):
        """Over fractions with coprime denominators and over GF(7), the
        report's lead index and raw lower parts are those a fresh system
        builds, normal forms agree, and completion repeats the reference
        run (the basis, for power products)."""
        th = THEORIES[name]
        rng = random.Random("codes-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == QQ else None
        orders = [o for o in shipped_orders(th) if o.is_well_founded()]
        grown = fractional = 0
        for _ in range(25):
            order = orders[rng.randrange(len(orders))]
            rules = [
                rule
                for _ in range(2)
                for rule in make_random_system(th, order, rng, field=field, sample=sample).rules
            ]
            s = RewritingSystem(th, order, tuple(rules), field)
            got, want = complete(s, **self.CAPS), reference_complete(s, **self.CAPS)
            if name == "commutative":
                if want.status is CompletionStatus.COMPLETE:
                    assert_same_basis(got, want)
            else:
                assert_completes_as_reference(got, want)
            system = got.system
            if got.status is not CompletionStatus.COMPLETE:
                assert "lead_index" not in vars(system)
                continue
            fresh = RewritingSystem(th, order, system.rules, field)
            assert vars(system)["lead_index"].entries == fresh.lead_index.entries
            assert vars(system)["raw_lowers"] == fresh.raw_lowers
            for _ in range(3):
                e = random_element(th, order, rng, 4, max_terms=4, field=field, sample=sample)
                assert normal_form(system, e, 20_000) == normal_form(fresh, e, 20_000)
            grown += len(got.added) > 0
            fractional += any(d != 1 for _, d in vars(system)["raw_lowers"])
        assert grown >= 10
        assert (fractional > 0) == (field == QQ)

    def test_untouched_rule_keeps_its_object(self):
        """A rule whose lower part no new lead divides keeps its ``Rule`` and
        raw lower part; the renormalized one is written back over the lcm
        of its reduced denominators; the new rule is left alone."""
        s = parse_system_file(
            "theory commutative; vars x y z; rule x^3 -> 1/2*y*z; rule y^2 -> 2/3*x"
        ).system
        work = _Working.of(s)
        element = parse_expression("y*z - 3/5*x", s.theory, s.field)
        work.append(_encoded(work, element), 2)
        _interreduce(work, 100)
        work.decode()
        assert work.rules[1] is s.rules[1]
        assert work.raw_lowers[1] is s.raw_lowers[1]
        assert work.rules[2] == orient(s.order, element)
        assert work.rules[0] == orient(s.order, parse_expression("x^3 - 3/10*x", s.theory, s.field))
        fresh = RewritingSystem(s.theory, s.order, tuple(work.rules), s.field)
        assert work.raw_lowers == list(fresh.raw_lowers)
        assert work.raw_lowers[0][1] == 10

    def test_marks_of_appended_rules(self):
        """A rule reduced by the first n leads and appended right after them
        is marked past itself and never renormalized; one appended after a
        sibling is reduced against the sibling's lead."""
        s = parse_system_file("theory commutative; vars x y z; rule x^3 -> y").system
        work = _Working.of(s)
        first = parse_expression("y^2 - x", s.theory, s.field)
        second = parse_expression("z^3 - y^2 - z", s.theory, s.field)
        work.append(_encoded(work, first), 1)
        work.append(_encoded(work, second), 1)
        assert work.marks == [0, 2, 1]
        _interreduce(work, 100)
        work.decode()
        assert work.marks == [3, 3, 3]
        assert work.rules[:2] == [s.rules[0], orient(s.order, first)]
        assert work.rules[2] == orient(s.order, parse_expression("z^3 - x - z", s.theory, s.field))

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_append_orients_a_box_as_orient_does(self, name, field):
        """``append`` orients a box on codes as ``orient`` orients its
        element: the same lead and, up to pair order, the raw lower part of
        that rule, to which it decodes. The boxes are random elements times
        a random scalar, so leading numerators are negative, D is not 1 and
        the numerators share factors."""
        th = THEORIES[name]
        rng = random.Random("append-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == QQ else None
        p = field.characteristic
        negative = fractional = 0
        for order in [o for o in shipped_orders(th) if o.is_well_founded()]:
            for _ in range(20):
                s = make_random_system(th, order, rng, field=field, sample=sample)
                work = _Working.of(s)
                element = random_element(th, order, rng, 4, max_terms=5, field=field, sample=sample)
                work_codes, den = _encoded(work, element)
                k = rng.choice([-6, -4, -1, 1, 3, 10])
                if p:
                    box = [{m: c * k % p for m, c in work_codes.items()}, 1]
                else:
                    box = [{m: c * k for m, c in work_codes.items()}, den * rng.randint(1, 4)]
                want = orient(order, _decoded(work, [dict(box[0]), box[1]]))
                work.append(box)
                index = work.lead_index
                lower, d = work.raw_lowers[-1]
                ((want_lower, want_d),) = reference_raw_lowers(th, order, field, (want,))
                assert work.leads[-1] == want.lead
                assert index.entries[-1] == index.encode(want.lead)
                assert (dict(lower), d) == (dict(want_lower), want_d)
                assert len(lower) == len(want_lower)
                work.decode()
                assert work.rules[-1] == want
                lead = index.encode(want.lead)
                negative += box[0][lead] < 0
                fractional += box[1] != 1
        assert negative and fractional if field == QQ else not fractional

    def test_interreduction_out_of_budget_names_the_monomial(self):
        s = parse_system_file("theory assoc; vars x y; rule y*x -> x*y; rule y^5 -> y^2*x^2").system
        work = _Working.of(s)
        after_one, _ = reduce_once(s, s.rules[1].lower)
        ((m, _),) = after_one.terms
        with pytest.raises(StepBudgetExceededError, match=re.escape(s.theory.serialize(m))):
            _interreduce(work, 1)

    @pytest.mark.parametrize("field_line", ["", "field 7\n"], ids=["QQ", "GF(7)"])
    def test_drop_of_a_rule_with_fractional_coefficients(self, field_line):
        """x^3 - 1/2*x*y reduces to zero by x^2 -> 1/2*y and goes; x^2*y -
        1/3*y^2 leaves 1/6*y^2 and stays."""
        s = parse_system_file(
            "theory commutative\n" + field_line + "vars x y\n"
            "rule x^2 -> 1/2*y\nrule x^3 -> 1/2*x*y\nrule x^2*y -> 1/3*y^2\n"
        ).system
        assert s.raw_lowers[1][1] == (1 if field_line else 2)
        trimmed, dropped = drop_redundant(s)
        assert trimmed.rules == (s.rules[0], s.rules[2])
        assert [rule for rule, _ in dropped] == [s.rules[1]]
        assert (trimmed, dropped) == reference_drop_redundant(s)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_drop_redundant_matches_the_reference(self, name, field):
        th = THEORIES[name]
        rng = random.Random("drop-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == QQ else None
        orders = [o for o in shipped_orders(th) if o.is_well_founded()]
        drops = fractional = 0
        for _ in range(60):
            order = orders[rng.randrange(len(orders))]
            rules = [
                rule
                for _ in range(2)
                for rule in make_random_system(th, order, rng, field=field, sample=sample).rules
            ]
            s = RewritingSystem(th, order, tuple(rules), field)
            got = drop_redundant(s, 2_000)
            assert got == reference_drop_redundant(s, 2_000)
            drops += len(got[1])
            fractional += sum(
                any(getattr(c, "denominator", 1) != 1 for _, c in rule.lower.terms)
                for rule, _ in got[1]
            )
        assert drops >= 10
        assert (fractional > 0) == (field == QQ)


class TestLazyDecoding:
    """An added or renormalized rule stays encoded while pairs are
    processed, since s-polynomials are built from the encoded lower parts
    and remainders are oriented on codes, and is decoded once, before the
    drop pass and the report."""

    @staticmethod
    def watch(monkeypatch) -> dict:
        """Count, from now on, the ``Rule``s completion builds, which are its
        decodes, the renormalizations and the distinct rules they rewrote,
        the rules stale when ``decode`` runs, the calls of every theory's
        ``apply_context`` and the field divisions. A rule built outside
        ``decode`` fails the test."""
        seen = {
            "built": 0,
            "renormalized": 0,
            "rewritten": 0,
            "stale": 0,
            "apply_context": 0,
            "divided": 0,
        }
        rewritten = set()
        decoding = []
        rule, renormalize, decode = completion.Rule, _Working.renormalize, _Working.decode

        def counting_rule(*args):
            assert decoding, "a rule was decoded while pairs were processed"
            seen["built"] += 1
            return rule(*args)

        def tracking_renormalize(work, i, box):
            seen["renormalized"] += 1
            if (work, i) not in rewritten:
                rewritten.add((work, i))
                seen["rewritten"] += 1
            renormalize(work, i, box)

        def tracking_decode(work):
            seen["stale"] += len(work.stale)
            decoding.append(work)
            try:
                decode(work)
            finally:
                decoding.pop()

        def counting(name, method):
            def wrapper(*args):
                seen[name] += 1
                return method(*args)

            return wrapper

        monkeypatch.setattr(completion, "Rule", counting_rule)
        monkeypatch.setattr(_Working, "renormalize", tracking_renormalize)
        monkeypatch.setattr(_Working, "decode", tracking_decode)
        for cls in {type(th) for th in THEORIES.values()}:
            monkeypatch.setattr(cls, "apply_context", counting("apply_context", cls.apply_context))
        for cls in (Fraction, Fp):
            monkeypatch.setattr(cls, "__truediv__", counting("divided", cls.__truediv__))
        return seen

    @pytest.mark.parametrize(
        "name, caps, counts",
        [
            ("cyclic5_qq.sys", {"max_degree": 14, "max_rules": 500}, (229, 56, 30)),
            ("katsura5_gf.sys", {"max_degree": 12, "max_rules": 500}, (115, 36, 32)),
        ],
        ids=["cyclic5_qq", "katsura5_gf"],
    )
    def test_benchmark_systems_decode_only_what_is_read(self, name, caps, counts, monkeypatch):
        """On the benchmark's two completions, in their rule order, the rules
        built are exactly the rules stale when the loop ends, each added one
        among them, and no ``apply_context`` is called and no scalar
        divided: (renormalized, decoded, final rules) = ``counts``."""
        with open(os.path.join(REPO, "bench", "systems", name), encoding="utf-8") as handle:
            s = parse_system_file(handle.read()).system
        seen = self.watch(monkeypatch)
        report = complete(s, **caps)
        assert report.status is CompletionStatus.COMPLETE
        assert seen["built"] == seen["stale"]
        assert seen["apply_context"] == seen["divided"] == 0
        assert (seen["renormalized"], seen["built"], len(report.system.rules)) == counts
        fresh = RewritingSystem(s.theory, s.order, report.system.rules, s.field)
        assert vars(report.system)["raw_lowers"] == fresh.raw_lowers

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_complete_matches_the_reference(self, name, field, monkeypatch):
        """Over fractions with coprime denominators and over GF(7), lazy
        decoding repeats the reference run (the basis, for power products),
        ``complete`` calls no ``apply_context`` and divides no scalar, each
        rule stale when the loop ends is built once, and some renormalized
        lower parts are never decoded, as their rule is renormalized
        again."""
        th = THEORIES[name]
        rng = random.Random("lazy-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == QQ else None
        orders = [o for o in shipped_orders(th) if o.is_well_founded()]
        caps = {"max_degree": 6, "max_rules": 60, "max_steps": 20_000}
        seen = self.watch(monkeypatch)
        for _ in range(30):
            order = orders[rng.randrange(len(orders))]
            rules = [
                rule
                for _ in range(2)
                for rule in make_random_system(th, order, rng, field=field, sample=sample).rules
            ]
            s = RewritingSystem(th, order, tuple(rules), field)
            calls, divided = seen["apply_context"], seen["divided"]
            got = complete(s, **caps)
            assert (seen["apply_context"], seen["divided"]) == (calls, divided)
            want = reference_complete(s, **caps)
            assert seen["built"] == seen["stale"]
            if name == "commutative":
                if want.status is CompletionStatus.COMPLETE:
                    assert_same_basis(got, want)
            else:
                assert_completes_as_reference(got, want)
        assert 0 < seen["rewritten"] < seen["renormalized"]
        assert seen["rewritten"] < seen["built"]


class TestIdealMember:
    def test_membership_on_completed_system(self):
        completed = complete(buchberger_input()).system
        x2_minus_y = Element.from_dict({(2, 0): Fraction(1), (0, 1): Fraction(-1)})
        assert ideal_member(completed, x2_minus_y)
        assert ideal_member(completed, Element.zero())
        assert not ideal_member(completed, Element.from_dict({(0, 0): Fraction(1)}))
        assert not ideal_member(completed, Element.from_dict({(1, 0): Fraction(1)}))

    def test_rejects_non_confluent_system(self):
        with pytest.raises(NotConfluentSystemError):
            ideal_member(buchberger_input(), Element.zero())

    def test_budget_bounds_the_confluence_check(self):
        # U(sl2): resolving the ambiguity h*f*e takes more than two steps,
        # while the member below reduces to zero in one.
        s = parse_system_file(
            "theory assoc\nvars e f h\norder deglex e<f<h\n"
            "rule f*e -> e*f - h\nrule h*e -> e*h + 2*e\nrule h*f -> f*h - 2*f\n"
        ).system
        member = parse_expression("f*e - e*f + h", s.theory, s.field)
        with pytest.raises(StepBudgetExceededError):
            ideal_member(s, member, max_steps=2)
        assert ideal_member(s, member, max_steps=100)
        with pytest.raises(StepBudgetExceededError):
            ideal_member(s, member, max_steps=2)

    def test_agrees_with_normal_form_kernel(self):
        completed = complete(buchberger_input()).system
        rng = random.Random(23)
        for _ in range(30):
            e = random_element(COMM_TH, COMM_LEX, rng, 5)
            assert ideal_member(completed, e) == normal_form(completed, e).is_zero()


def irr_verdicts(name: str, seed: int, count: int, field=RationalField()):
    """(what, system) for each CONFLUENT verdict and COMPLETE report on
    ``count`` random systems over ``field`` per well-founded shipped order
    of a theory."""
    th = THEORIES[name]
    rng = random.Random(seed)
    for order in shipped_orders(th):
        if not order.is_well_founded():
            continue
        for _ in range(count):
            system = make_random_system(th, order, rng, lead_degree=2, field=field)
            if check_confluence(system).status is ConfluenceStatus.CONFLUENT:
                yield "confluent", system
            report = complete(system, max_degree=6, max_rules=20)
            if report.status is CompletionStatus.COMPLETE:
                yield "complete", report.system


class TestIrrIndependence:
    """The diamond lemma's independence half as a verdict oracle: no nonzero
    combination of irreducible monomials lies in the ideal of a confluent
    system."""

    @pytest.mark.parametrize("name", ["assoc", "commutative", "magma", "path"])
    def test_confluent_verdicts_keep_irr_independent(self, name):
        seen = set()
        for what, system in irr_verdicts(name, 7, 15):
            assert irr_dependence(system, 4) == 0, (what, system)
            seen.add(what)
        assert seen == {"confluent", "complete"}

    @pytest.mark.parametrize("name", ["assoc", "commutative", "magma", "path"])
    def test_confluent_verdicts_over_gf7_keep_irr_independent(self, name):
        seen = set()
        for what, system in irr_verdicts(name, 7, 15, PrimeField(7)):
            assert irr_dependence(system, 4) == 0, (what, system)
            seen.add(what)
        assert seen == {"confluent", "complete"}

    def test_refutes_every_not_confluent_magma_verdict(self):
        """The one-hole contexts reach far enough to refute each magma
        system ``check_confluence`` calls NOT_CONFLUENT."""
        th, rng, refuted = THEORIES["magma"], random.Random(7), 0
        for order in [o for o in shipped_orders(th) if o.is_well_founded()]:
            for _ in range(15):
                system = make_random_system(th, order, rng, lead_degree=2)
                if check_confluence(system).status is ConfluenceStatus.NOT_CONFLUENT:
                    assert irr_dependence(system, 4) >= 1, system
                    refuted += 1
        assert refuted >= 10

    @pytest.mark.parametrize("rule", ["t*y -> 2", "t^3 -> -y"])
    def test_refutes_the_item_1_mixed_verdicts(self, rule):
        text = "theory mixed; cvars t; vars x y; order deglex; rule " + rule
        system = parse_system_file(text).system
        assert check_confluence(system).status is ConfluenceStatus.CONFLUENT
        assert irr_dependence(system, 4) >= 1

    @pytest.mark.parametrize("rule", ["t*y -> 2", "t^3 -> -y"])
    def test_refutes_the_item_1_mixed_verdicts_over_gf7(self, rule):
        text = "theory mixed; cvars t; vars x y; order deglex; field 7; rule " + rule
        system = parse_system_file(text).system
        assert check_confluence(system).status is ConfluenceStatus.CONFLUENT
        assert irr_dependence(system, 4) >= 1

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="mixed overlaps miss empty-word and gap ambiguities (ROADMAP.md, item 1)",
    )
    def test_confluent_mixed_verdicts_keep_irr_independent(self):
        for what, system in irr_verdicts("mixed", 7, 15):
            assert irr_dependence(system, 4) == 0, (what, system)
