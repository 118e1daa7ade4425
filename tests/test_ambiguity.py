"""Critical ambiguity enumeration and resolution certificates."""

import random
from fractions import Fraction

import pytest

from diamondlemma import (
    Ambiguity,
    CommutativeTheory,
    ConfluenceStatus,
    DiamondError,
    Element,
    FreeMonoidTheory,
    MixedTheory,
    MonomialOrder,
    OrderKind,
    OverlapKind,
    PathAlgebraTheory,
    PrimeField,
    RationalField,
    RewritingSystem,
    Rule,
    check_confluence,
    complete,
    critical_ambiguities,
    normal_form,
    normal_form_with_trail,
    parse_system_file,
    resolve,
    s_polynomial,
)
from diamondlemma.algebra_core import _Value
from diamondlemma.ambiguity import _ambiguity_box
from diamondlemma.rewriting_engine import _Boxed

from oracles import (
    COPRIME_FRACTIONS,
    THEORIES,
    all_normal_forms,
    apply_context_to_element,
    critical_ambiguities_with_montages,
    make_random_system,
    make_word_corpus,
    reference_ambiguities,
    second_criterion_filter,
    shipped_orders,
    words_up_to,
)

TH = FreeMonoidTheory(("x", "y"))
DEGLEX = MonomialOrder(OrderKind.DEGLEX, TH, ("x", "y"))


def elem(*pairs) -> Element:
    return Element.from_dict({m: Fraction(c) for m, c in pairs})


def word_system(*rules) -> RewritingSystem:
    return RewritingSystem(TH, DEGLEX, tuple(rules))


class TestEnumeration:
    def test_weyl_has_no_ambiguities(self):
        s = word_system(Rule(("y", "x"), elem((("x", "y"), 1), ((), 1))))
        assert critical_ambiguities(s) == ()

    def test_single_commutative_overlap_pair(self):
        th = CommutativeTheory(("x", "y"))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        s = RewritingSystem(
            th,
            order,
            (
                Rule((2, 0), Element((((0, 1), Fraction(1)),))),
                Rule((1, 1), Element((((0, 0), Fraction(1)),))),
            ),
        )
        (amb,) = critical_ambiguities(s)
        assert amb.superposition == (2, 1)
        assert amb.kind is OverlapKind.OVERLAP
        assert (amb.rule1, amb.rule2) == (0, 1)

    def test_word_pair_adds_self_overlap(self):
        s = word_system(
            Rule(("x", "x"), elem((("y",), 1))),
            Rule(("x", "y"), elem(((), 1))),
        )
        sups = {a.superposition for a in critical_ambiguities(s)}
        assert sups == {("x", "x", "x"), ("x", "x", "y")}

    def test_self_overlap(self):
        s = word_system(Rule(("x", "x"), elem(((), 1))))
        (amb,) = critical_ambiguities(s)
        assert amb.superposition == ("x", "x", "x")
        assert amb.rule1 == amb.rule2 == 0

    def test_identity_self_pair_is_not_an_ambiguity(self):
        s = word_system(Rule(("x", "y"), elem(((), 1))))
        assert critical_ambiguities(s) == ()

    def test_duplicate_leads_give_inclusion(self):
        s = word_system(
            Rule(("x", "y"), elem(((), 1))),
            Rule(("x", "y"), elem((("x",), 1), (("y",), -1))),
        )
        ambs = critical_ambiguities(s)
        assert any(
            a.kind is OverlapKind.INCLUSION and a.superposition == ("x", "y") for a in ambs
        )

    def test_sorted_by_superposition_degree(self):
        for s in make_word_corpus(count=25):
            degs = [len(a.superposition) for a in critical_ambiguities(s)]
            assert degs == sorted(degs)

    def test_canonical_rule_order_and_dedup(self):
        for s in make_word_corpus(seed=5, count=25):
            ambs = critical_ambiguities(s)
            keys = set()
            for a in ambs:
                assert a.rule1 <= a.rule2
                if a.rule1 == a.rule2:
                    assert repr(a.ctx1) <= repr(a.ctx2)
                key = (a.rule1, repr(a.ctx1), a.rule2, repr(a.ctx2), repr(a.superposition))
                assert key not in keys
                keys.add(key)

    def test_contexts_rebuild_superposition(self):
        for s in make_word_corpus(seed=6, count=25):
            th = s.theory
            for a in critical_ambiguities(s):
                assert th.apply_context(a.ctx1, s.rules[a.rule1].lead) == a.superposition
                assert th.apply_context(a.ctx2, s.rules[a.rule2].lead) == a.superposition

    def test_deterministic(self):
        s = make_word_corpus(seed=7, count=1)[0]
        twin = RewritingSystem(s.theory, s.order, s.rules, s.field)
        assert critical_ambiguities(s) == critical_ambiguities(twin)

    def test_enumerated_once_per_system(self):
        """The tuple is cached on the system, which stays the same value."""
        s = make_word_corpus(seed=7, count=1)[0]
        before = (repr(s), hash(s))
        first = critical_ambiguities(s)
        assert first and critical_ambiguities(s) is first
        assert (repr(s), hash(s)) == before
        twin = RewritingSystem(s.theory, s.order, s.rules, s.field)
        assert twin == s and "ambiguities" not in vars(twin)
        assert check_confluence(twin).checked and vars(twin)["ambiguities"] == first

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_one_value_per_ambiguity(self, name, monkeypatch):
        """Enumerating a fresh system's ambiguities builds each one as an
        ``Ambiguity`` and no other value on the way."""
        th = THEORIES[name]
        rng = random.Random("one-value-" + name)
        order = shipped_orders(th)[0]
        systems = [make_random_system(th, order, rng, lead_degree=4) for _ in range(30)]
        built = []
        init = _Value.__init__

        def counting_init(self, *values, **named):
            built.append(type(self))
            init(self, *values, **named)

        monkeypatch.setattr(_Value, "__init__", counting_init)
        found = sum(len(critical_ambiguities(s)) for s in systems)
        monkeypatch.undo()
        assert found > 0
        assert built == [Ambiguity] * found

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_enumeration_yields_no_duplicates(self, name):
        # critical_ambiguities keeps every ambiguity the theory's overlaps
        # give, so no two rule pairs or overlaps may produce the same entry.
        th = THEORIES[name]
        rng = random.Random("no-duplicates-" + name)
        enumerate_all = (
            critical_ambiguities_with_montages
            if isinstance(th, CommutativeTheory)
            else critical_ambiguities
        )
        for order in shipped_orders(th):
            for _ in range(150):
                s = make_random_system(th, order, rng, lead_degree=4)
                keys = [
                    (a.rule1, a.ctx1, a.rule2, a.ctx2, a.superposition)
                    for a in enumerate_all(s)
                ]
                assert len(set(keys)) == len(keys)


def _outcome(call, *args, **kwargs):
    """What a call returns, or the class and message of the DiamondError it
    raises."""
    try:
        return call(*args, **kwargs)
    except DiamondError as exc:
        return type(exc), str(exc)


class TestLeadCodesAreTheOnlySource:
    """Ambiguities and completion pairs are read off the system's own lead
    codes: with every theory's ``overlaps`` and ``divisions`` made to raise,
    a system lists what the reference built from ``theory.overlaps`` lists,
    and checks and completes as it does with them in place."""

    @pytest.mark.parametrize("name", sorted(THEORIES))
    @pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["QQ", "GF7"])
    def test_no_library_path_asks_the_theory(self, name, field, monkeypatch):
        th = THEORIES[name]
        rng = random.Random("lead-codes-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == RationalField() else None
        cases = []
        for order in shipped_orders(th):
            for _ in range(6):
                s = make_random_system(th, order, rng, field=field, sample=sample)
                cases.append((s, reference_ambiguities(s)))

        def run(s):
            twin = RewritingSystem(s.theory, s.order, s.rules, s.field)
            return (
                critical_ambiguities(twin),
                _outcome(check_confluence, twin, 20_000),
                _outcome(complete, twin, max_degree=6, max_rules=4, max_steps=20_000),
            )

        unpatched = [run(s) for s, _ in cases]

        def refuse(*args):
            raise AssertionError("a library path asked the theory for its geometry")

        for cls in {type(t) for t in THEORIES.values()}:
            monkeypatch.setattr(cls, "overlaps", refuse)
            monkeypatch.setattr(cls, "divisions", refuse)
        assert any(ref for _, ref in cases)
        for (s, ref), before in zip(cases, unpatched):
            got = run(s)
            assert got[0] == ref, s
            assert got == before, s


class TestSPolynomial:
    def test_buchberger_pair_difference(self):
        th = CommutativeTheory(("x", "y"))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        s = RewritingSystem(
            th,
            order,
            (
                Rule((2, 0), Element((((0, 1), Fraction(1)),))),
                Rule((1, 1), Element((((0, 0), Fraction(1)),))),
            ),
        )
        (amb,) = critical_ambiguities(s)
        assert s_polynomial(s, amb) == Element.from_dict(
            {(0, 2): Fraction(1), (1, 0): Fraction(-1)}
        )

    def test_self_overlap_cancels(self):
        s = word_system(Rule(("x", "x"), elem(((), 1))))
        (amb,) = critical_ambiguities(s)
        assert s_polynomial(s, amb).is_zero()

    def test_path_seam_cancels(self):
        th = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("a", "b"))
        s = RewritingSystem(
            th,
            order,
            (
                Rule(th.path("a", "b"), Element(((th.vertex_path("1"), Fraction(1)),))),
                Rule(th.path("b", "a"), Element(((th.vertex_path("2"), Fraction(1)),))),
            ),
        )
        ambs = critical_ambiguities(s)
        assert {a.superposition for a in ambs} == {
            th.path("a", "b", "a"),
            th.path("b", "a", "b"),
        }
        for amb in ambs:
            assert s_polynomial(s, amb).is_zero()


    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_equals_the_difference_of_the_two_images(self, name):
        """Also with coefficients whose denominators are coprime, so that the
        two lower parts meet over the lcm of their denominators."""
        th = THEORIES[name]
        rng = random.Random("s-polynomial-" + name)
        for field, sample in (
            (RationalField(), None),
            (RationalField(), COPRIME_FRACTIONS),
            (PrimeField(7), None),
        ):
            for order in shipped_orders(th):
                for _ in range(10):
                    s = make_random_system(th, order, rng, field=field, sample=sample)
                    for amb in critical_ambiguities(s):
                        left = apply_context_to_element(th, amb.ctx1, s.rules[amb.rule1].lower)
                        right = apply_context_to_element(th, amb.ctx2, s.rules[amb.rule2].lower)
                        assert repr(s_polynomial(s, amb)) == repr(left - right)


class TestResolve:
    def test_reduction_leaves_a_boxed_s_polynomial_as_it_was(self):
        """``complete`` and ``resolve`` hand the normal form an s-polynomial
        held as its box. The reduction works on a copy, so the element read
        afterwards, as a tracer reads it, is still the s-polynomial; another
        system reads it through its terms."""
        s = parse_system_file(
            "theory assoc\nvars e f h\norder deglex e<f<h\n"
            "rule f*e -> e*f - h\nrule h*e -> e*h + 2*e\nrule h*f -> f*h - 2*f\n"
        ).system
        other = RewritingSystem(s.theory, s.order, s.rules[:1], s.field)
        for amb in critical_ambiguities(s):
            spoly = s_polynomial(s, amb)
            boxed = _Boxed(s, _ambiguity_box(s, amb))
            work, den = boxed.box
            before = dict(work), den
            assert normal_form(s, boxed) == normal_form(s, spoly)
            assert (boxed.box[0], boxed.box[1]) == before
            assert boxed.terms == spoly.terms
            fresh = _Boxed(s, _ambiguity_box(s, amb))
            assert normal_form(other, fresh) == normal_form(other, spoly)

    def test_boxed_element_is_the_element_of_its_terms(self):
        """A ``_Boxed`` s-polynomial is zero when its box is, without
        decoding it, and compares and hashes equal to the ``Element`` of its
        terms from either side."""
        rng = random.Random("boxed-element")
        for th in THEORIES.values():
            for field, sample in ((RationalField(), COPRIME_FRACTIONS), (PrimeField(7), None)):
                for order in shipped_orders(th):
                    for _ in range(4):
                        s = make_random_system(th, order, rng, field=field, sample=sample)
                        for amb in critical_ambiguities(s):
                            spoly = s_polynomial(s, amb)
                            boxed = _Boxed(s, _ambiguity_box(s, amb))
                            assert boxed.is_zero() == spoly.is_zero()
                            assert "terms" not in vars(boxed)
                            assert boxed == spoly and spoly == boxed
                            assert not (boxed != spoly or spoly != boxed)
                            assert hash(boxed) == hash(spoly)
                            assert {spoly: amb}[boxed] is amb
                            assert boxed != spoly + spoly or spoly.is_zero()

    def test_public_results_are_plain_elements(self):
        """``_Boxed`` never leaks: normal forms, trails' remainders,
        certificates and completion reports hold plain ``Element``s."""
        rng = random.Random("plain-elements")
        added = 0
        for th in THEORIES.values():
            order = [o for o in shipped_orders(th) if o.is_well_founded()][0]
            for field, sample in ((RationalField(), COPRIME_FRACTIONS), (PrimeField(7), None)):
                for _ in range(6):
                    s = make_random_system(th, order, rng, field=field, sample=sample)
                    for rule in s.rules:
                        assert type(normal_form(s, rule.lower)) is Element
                        assert type(normal_form_with_trail(s, rule.lower)[0]) is Element
                    for amb in critical_ambiguities(s):
                        assert type(resolve(s, amb).remainder) is Element
                    report = complete(s, max_degree=6, max_rules=60, max_steps=20_000)
                    added += len(report.added)
                    rules = report.system.rules + tuple(new.rule for new in report.added)
                    for rule in rules + tuple(rule for rule, _ in report.dropped):
                        assert type(rule) is Rule and type(rule.lower) is Element
        assert added

    def test_unresolvable_pair(self):
        th = CommutativeTheory(("x", "y"))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        s = RewritingSystem(
            th,
            order,
            (
                Rule((2, 0), Element((((0, 1), Fraction(1)),))),
                Rule((1, 1), Element((((0, 0), Fraction(1)),))),
            ),
        )
        (amb,) = critical_ambiguities(s)
        cert = resolve(s, amb)
        assert not cert.resolved
        assert cert.remainder == Element.from_dict({(0, 2): Fraction(1), (1, 0): Fraction(-1)})

    def test_resolvable_with_trail(self):
        # x^2 -> xy needs one more step after the s-polynomial forms.
        s = word_system(
            Rule(("y", "x"), elem((("x", "y"), 1))),
            Rule(("y", "y"), elem((("x", "x"), 1))),
        )
        ambs = critical_ambiguities(s)
        for amb in ambs:
            cert = resolve(s, amb)
            if cert.trail:
                break
        else:
            pytest.fail("expected at least one nontrivial resolution")
        assert cert.ambiguity in ambs

    def test_trail_stays_below_superposition(self):
        for s in make_word_corpus(seed=8, count=30):
            for amb in critical_ambiguities(s):
                cert = resolve(s, amb, max_steps=20000)
                for step in cert.trail:
                    assert s.order.sort_key(step.monomial) < s.order.sort_key(amb.superposition)

    def test_certificate_remainder_is_irreducible(self):
        for s in make_word_corpus(seed=9, count=30):
            for amb in critical_ambiguities(s):
                cert = resolve(s, amb, max_steps=20000)
                assert normal_form(s, cert.remainder) == cert.remainder

    @pytest.mark.parametrize("name", sorted(THEORIES))
    @pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["QQ", "GF7"])
    def test_witness_is_what_resolve_certifies(self, name, field):
        """``check_confluence`` certifies its witness from the steps of its
        own reduction, and that certificate is the one ``resolve`` gives
        under the same budget, trail and remainder alike, for every
        not-confluent verdict on random systems."""
        th = THEORIES[name]
        rng = random.Random("witness-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == RationalField() else None
        witnesses = 0
        for order in shipped_orders(th):
            if not order.is_well_founded():
                continue
            for _ in range(10):
                s = make_random_system(th, order, rng, field=field, sample=sample)
                verdict = check_confluence(s, 2000)
                if verdict.status is ConfluenceStatus.NOT_CONFLUENT:
                    witnesses += 1
                    cert = verdict.witness
                    again = resolve(s, cert.ambiguity, 2000)
                    assert cert == again and repr(cert) == repr(again)
                    assert not cert.resolved and not cert.remainder.is_zero()
        assert witnesses >= 5


class TestMixedCounterexamples:
    def test_central_inclusion_detects_divergence(self):
        # a*x^2 -> 0 and a*x -> a diverge at a*x^2 (to 0 and to a).
        th = MixedTheory(("a",), ("x",))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("a", "x"))
        s = RewritingSystem(
            th,
            order,
            (
                Rule(((1,), ("x", "x")), Element.zero()),
                Rule(((1,), ("x",)), Element(((((1,), ()), Fraction(1)),))),
            ),
        )
        sups = {a.superposition for a in critical_ambiguities(s)}
        assert ((1,), ("x", "x")) in sups
        verdict = check_confluence(s)
        assert verdict.status is ConfluenceStatus.NOT_CONFLUENT

    def test_equal_word_parts_with_skew_central_parts(self):
        # x*a -> 1 and x*b -> 1 force a = b, which stays irreducible.
        th = MixedTheory(("a", "b"), ("x",))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("a", "b", "x"))
        s = RewritingSystem(
            th,
            order,
            (
                Rule(((1, 0), ("x",)), Element(((th.one(), Fraction(1)),))),
                Rule(((0, 1), ("x",)), Element(((th.one(), Fraction(1)),))),
            ),
        )
        sups = {a.superposition for a in critical_ambiguities(s)}
        assert ((1, 1), ("x",)) in sups
        verdict = check_confluence(s)
        assert verdict.status is ConfluenceStatus.NOT_CONFLUENT


class TestLocalConfluenceAgainstExhaustiveRewriting:
    def test_confluent_verdict_matches_bfs_on_small_monomials(self):
        for s in make_word_corpus(seed=11, count=30):
            verdict = check_confluence(s, max_steps=200000)
            if verdict.status is not ConfluenceStatus.CONFLUENT:
                continue
            for w in words_up_to(("x", "y"), 5):
                e = Element(((w, Fraction(1)),))
                assert len(all_normal_forms(s, e)) == 1


class TestSecondCriterionFilter:
    def setup_method(self):
        self.th = CommutativeTheory(("x", "y"))
        self.order = MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"))

    def system(self, *leads):
        return RewritingSystem(
            self.th, self.order, tuple(Rule(lead, Element.zero()) for lead in leads)
        )

    def test_chained_pair_dropped(self):
        # lcm(x^2y, xy^2) = x^2y^2 factors through xy on both sides.
        s = self.system((2, 1), (1, 2), (1, 1))
        ambs = critical_ambiguities(s)
        kept = second_criterion_filter(s, ambs)
        dropped = set(ambs) - set(kept)
        assert {a.superposition for a in dropped} == {(2, 2)}

    def test_two_rule_system_unchanged(self):
        s = self.system((2, 0), (1, 1))
        ambs = critical_ambiguities(s)
        assert second_criterion_filter(s, ambs) == ambs

    def test_empty_input(self):
        s = self.system((2, 0))
        assert second_criterion_filter(s, ()) == ()

    def test_non_commutative_passthrough(self):
        s = word_system(Rule(("x", "x"), elem(((), 1))))
        ambs = critical_ambiguities(s)
        assert second_criterion_filter(s, ambs) == ambs

    def test_filter_preserves_verdict(self):
        rng = random.Random(12)
        pool = [(i, j) for i in range(4) for j in range(4) if 0 < i + j <= 3]
        for _ in range(40):
            leads = rng.sample(pool, rng.randint(2, 3))
            lowers = []
            for lead in leads:
                below = [
                    m
                    for m in pool + [(0, 0)]
                    if self.order.sort_key(m) < self.order.sort_key(lead) and rng.random() < 0.4
                ]
                lowers.append(
                    Element.from_dict({m: Fraction(rng.choice((1, -1, 2))) for m in below})
                )
            s = RewritingSystem(
                self.th,
                self.order,
                tuple(Rule(lead, low) for lead, low in zip(leads, lowers)),
            )
            ambs = critical_ambiguities(s)
            kept = second_criterion_filter(s, ambs)
            full = all(resolve(s, a, max_steps=100000).resolved for a in ambs)
            filtered = all(resolve(s, a, max_steps=100000).resolved for a in kept)
            assert full == filtered


class TestMontages:
    def setup_method(self):
        self.th = CommutativeTheory(("x", "y"))
        self.order = MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"))

    def test_coprime_pair_appears_only_with_montages(self):
        s = RewritingSystem(
            self.th,
            self.order,
            (Rule((2, 0), Element.zero()), Rule((0, 2), Element.zero())),
        )
        assert critical_ambiguities(s) == ()
        (amb,) = critical_ambiguities_with_montages(s)
        assert amb.superposition == (2, 2)

    def test_montages_only_commutative(self):
        s = word_system(Rule(("x", "x"), elem(((), 1))))
        with pytest.raises(DiamondError):
            critical_ambiguities_with_montages(s)

    def test_montage_of_a_rule_with_itself_is_empty(self):
        s = RewritingSystem(self.th, self.order, (Rule((2, 0), Element.zero()),))
        ambs = critical_ambiguities_with_montages(s)
        assert all(a.superposition != (4, 0) for a in ambs)
