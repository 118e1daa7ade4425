"""End-to-end acceptance checks, one timed criterion per test."""

import functools
import random
import time
from fractions import Fraction

from diamondlemma import (
    CommutativeTheory,
    CompletionStatus,
    ConfluenceStatus,
    Element,
    FreeMagmaTheory,
    FreeMonoidTheory,
    MonomialOrder,
    OrderKind,
    PathAlgebraTheory,
    RewritingSystem,
    Rule,
    WeightData,
    check_confluence,
    check_equicontinuity,
    complete,
    count_irreducible,
    critical_ambiguities,
    drop_redundant,
    ideal_member,
    normal_form,
    reduce_once,
    resolve,
    truncated_normal_form,
)
from oracles import (
    RowSpace,
    all_normal_forms,
    critical_ambiguities_with_montages,
    macaulay_member,
    macaulay_row_space,
    make_commutative_corpus,
    make_word_corpus,
    multiply_elements,
    one_step_results,
    polynomial_action_vector,
    random_element,
    random_strategy_normal_form,
    truncate_below,
    words_up_to,
)

COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3))


def criterion(number: int, budget: float):
    """Wrap a test so it prints one pass/fail line and enforces its budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                print("criterion %02d: FAIL" % number)
                raise
            elapsed = time.perf_counter() - started
            if elapsed >= budget:
                print("criterion %02d: FAIL (%.2fs over the %gs budget)" % (number, elapsed, budget))
                raise AssertionError("criterion %02d took %.2fs, budget %gs" % (number, elapsed, budget))
            print("criterion %02d: PASS (%.2fs, budget %gs)" % (number, elapsed, budget))

        return run

    return wrap


@functools.lru_cache(maxsize=None)
def word_corpus():
    return tuple(make_word_corpus())


def welem(word) -> Element:
    return Element(((tuple(word), Fraction(1)),))


@criterion(1, 1.0)
def test_criterion_01_commutative_completion_and_membership():
    theory = CommutativeTheory(("x", "y"))
    order = MonomialOrder(OrderKind.LEX, theory, ("y", "x"))
    system = RewritingSystem(
        theory,
        order,
        (
            Rule((2, 0), Element((((0, 1), Fraction(1)),))),
            Rule((1, 1), Element((((0, 0), Fraction(1)),))),
        ),
    )
    report = complete(system)
    assert report.status is CompletionStatus.COMPLETE
    got = {(r.lead, r.lower.terms) for r in report.system.rules}
    assert got == {
        ((1, 0), (((0, 2), Fraction(1)),)),
        ((0, 3), (((0, 0), Fraction(1)),)),
    }

    generators = [
        Element.from_dict({(2, 0): Fraction(1), (0, 1): Fraction(-1)}),
        Element.from_dict({(1, 1): Fraction(1), (0, 0): Fraction(-1)}),
    ]
    space = macaulay_row_space(theory, generators, 14)
    assert space.rank() == 116
    monomials = [(i, j) for i in range(7) for j in range(7 - i)]
    assert len(monomials) == 28
    for m in monomials:
        e = Element.from_dict({m: Fraction(1)})
        assert ideal_member(report.system, e) == macaulay_member(space, e)
    for g in generators:
        assert ideal_member(report.system, g)
        assert macaulay_member(space, g)


@criterion(2, 1.0)
def test_criterion_02_two_letter_quotient_dimensions():
    theory = FreeMonoidTheory(("x", "y"))
    order = MonomialOrder(OrderKind.DEGLEX, theory, ("x", "y"))
    bergman = RewritingSystem(
        theory,
        order,
        (Rule(("x", "x"), welem(())), Rule(("y", "y"), welem(()))),
    )
    assert check_confluence(bergman).status is ConfluenceStatus.CONFLUENT
    counts = [0] * 7
    for w in words_up_to(("x", "y"), 6):
        e = welem(w)
        assert len(all_normal_forms(bergman, e)) == 1
        if not one_step_results(bergman, e):
            counts[len(w)] += 1
    assert counts == [1, 2, 2, 2, 2, 2, 2]
    assert count_irreducible(bergman, 6) == counts

    weyl = RewritingSystem(
        theory,
        order,
        (Rule(("y", "x"), Element(((("x", "y"), Fraction(1)), ((), Fraction(1))))),),
    )
    assert critical_ambiguities(weyl) == ()
    assert check_confluence(weyl).status is ConfluenceStatus.CONFLUENT
    space = RowSpace()
    ranks = []
    for d in range(7):
        for w in words_up_to(("x", "y"), d):
            if len(w) == d:
                space.add(polynomial_action_vector(w, 12))
        ranks.append(space.rank())
    dimensions = [ranks[0]] + [ranks[d] - ranks[d - 1] for d in range(1, 7)]
    assert dimensions == [1, 2, 3, 4, 5, 6, 7]
    assert count_irreducible(weyl, 6) == dimensions


@criterion(3, 5.0)
def test_criterion_03_ambiguity_count_bound():
    for system in word_corpus():
        bound = len(system.rules) * sum(len(r.lead) for r in system.rules)
        assert len(critical_ambiguities(system)) <= bound


@criterion(4, 60.0)
def test_criterion_04_confluence_matches_strategy_independence():
    words = list(words_up_to(("x", "y"), 6))
    confluent_seen = 0
    for idx, system in enumerate(word_corpus()):
        status = check_confluence(system).status
        assert status is not ConfluenceStatus.INCONCLUSIVE
        rng = random.Random(1000 + idx)
        cache: dict = {}
        unique = True
        for w in words:
            e = welem(w)
            base = random_strategy_normal_form(system, e, rng, cache)
            for _ in range(19):
                if random_strategy_normal_form(system, e, rng, cache) != base:
                    unique = False
                    break
            if not unique:
                break
        assert (status is ConfluenceStatus.CONFLUENT) == unique
        confluent_seen += status is ConfluenceStatus.CONFLUENT
    assert 0 < confluent_seen < len(word_corpus())


@criterion(5, 10.0)
def test_criterion_05_coprime_pair_filter_soundness():
    systems = make_commutative_corpus(20260815, 100, ("x", "y", "z"), 3, 3)
    confluent_seen = 0
    for system in systems:
        filtered = all(
            resolve(system, a, max_steps=100000).resolved
            for a in critical_ambiguities(system)
        )
        full = all(
            resolve(system, a, max_steps=100000).resolved
            for a in critical_ambiguities_with_montages(system)
        )
        assert filtered == full
        confluent_seen += filtered
    assert 0 < confluent_seen < len(systems)


@criterion(6, 10.0)
def test_criterion_06_redundant_rule_dropping():
    candidates = make_commutative_corpus(20260816, 120, ("x", "y"), 2, 2)
    rng = random.Random(99)
    done = 0
    for candidate in candidates:
        if done >= 50:
            break
        report = complete(candidate, max_degree=8, max_rules=40, max_steps=200000)
        if report.status is not CompletionStatus.COMPLETE or not report.system.rules:
            continue
        completed = report.system
        theory, order = completed.theory, completed.order
        base = completed.rules[rng.randrange(len(completed.rules))]
        multipliers = list(theory.monomials_of_degree(1)) + list(theory.monomials_of_degree(2))
        nu = multipliers[rng.randrange(len(multipliers))]
        lead = theory.multiply(nu, base.lead)
        lower = normal_form(
            completed,
            multiply_elements(theory, Element(((nu, Fraction(1)),)), base.lower),
        )
        augmented = RewritingSystem(theory, order, completed.rules + (Rule(lead, lower),))

        trimmed, dropped = drop_redundant(augmented)
        assert any(r.lead == lead and r.lower == lower for r, _ in dropped)
        assert set(trimmed.rules) == set(completed.rules)
        for _ in range(100):
            e = random_element(theory, order, rng, 5)
            assert normal_form(augmented, e) == normal_form(trimmed, e)
        done += 1
    assert done == 50


@criterion(7, 1.0)
def test_criterion_07_path_quiver_seam():
    theory = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    order = MonomialOrder(OrderKind.DEGLEX, theory, ("a", "b"))
    e1 = ("1", "1", ())
    e2 = ("2", "2", ())
    system = RewritingSystem(
        theory,
        order,
        (
            Rule(("1", "1", ("a", "b")), Element(((e1, Fraction(1)),))),
            Rule(("2", "2", ("b", "a")), Element(((e2, Fraction(1)),))),
        ),
    )
    aba = ("1", "2", ("a", "b", "a"))
    ambiguities = [a for a in critical_ambiguities(system) if a.superposition == aba]
    assert len(ambiguities) == 1
    a_path = Element(((("1", "2", ("a",)), Fraction(1)),))
    assert one_step_results(system, Element(((aba, Fraction(1)),))) == [a_path]
    assert resolve(system, ambiguities[0]).resolved
    assert check_confluence(system).status is ConfluenceStatus.CONFLUENT
    abab = Element(((("1", "1", ("a", "b", "a", "b")), Fraction(1)),))
    assert normal_form(system, abab) == Element(((e1, Fraction(1)),))


@criterion(8, 1.0)
def test_criterion_08_magma_idempotent_collapse():
    theory = FreeMagmaTheory(("x",))
    order = MonomialOrder(OrderKind.DEGLEX, theory, ("x",))
    system = RewritingSystem(
        theory,
        order,
        (Rule(("x", "x"), Element((("x", Fraction(1)),))),),
    )
    assert critical_ambiguities(system) == ()
    assert check_confluence(system).status is ConfluenceStatus.CONFLUENT
    squared_twice = Element((((("x", "x"), ("x", "x")), Fraction(1)),))
    x = Element((("x", Fraction(1)),))
    assert normal_form(system, squared_twice) == x
    assert all_normal_forms(system, squared_twice) == {x}


@criterion(9, 1.0)
def test_criterion_09_series_truncation():
    theory = FreeMonoidTheory(("x",))
    weights = WeightData(theory, (("x", -1),))
    series_order = MonomialOrder(
        OrderKind.SERIES_DEGLEX, theory, ("x",), (("x", Fraction(-1)),)
    )
    raising = RewritingSystem(
        theory,
        series_order,
        (Rule(("x",), Element(((("x", "x"), Fraction(1)),))),),
    )
    assert check_equicontinuity(raising, weights).admitted

    x = Element(((("x",), Fraction(1)),))
    chains = {}
    for n in (3, 5, 8):
        result = truncated_normal_form(raising, weights, x, n)
        assert result.representative.is_zero()
        assert result.truncated
        chain = [truncate_below(x, weights, n)]
        while not chain[-1].is_zero():
            stepped, step = reduce_once(raising, chain[-1])
            assert step is not None
            chain.append(truncate_below(stepped, weights, n))
        assert chain[-1] == result.representative
        chains[n] = chain
    # Coarser precision must see exactly the truncation of the finer chain.
    for coarse, fine in ((3, 5), (3, 8), (5, 8)):
        for k, intermediate in enumerate(chains[coarse]):
            assert intermediate == truncate_below(chains[fine][k], weights, coarse)

    deglex = MonomialOrder(OrderKind.DEGLEX, theory, ("x",))
    lowering = RewritingSystem(
        theory,
        deglex,
        (Rule(("x", "x"), Element(((("x",), Fraction(1)),))),),
    )
    report = check_equicontinuity(lowering, weights)
    assert not report.admitted
    assert report.failures == ((0, Fraction(-1), Fraction(-2)),)


@criterion(10, 10.0)
def test_criterion_10_normal_form_linearity():
    confluent_seen = 0
    for idx, system in enumerate(word_corpus()):
        if check_confluence(system).status is not ConfluenceStatus.CONFLUENT:
            continue
        rng = random.Random(3000 + idx)
        for _ in range(50):
            a = random_element(system.theory, system.order, rng, 4)
            b = random_element(system.theory, system.order, rng, 4)
            alpha = COEFFS[rng.randrange(len(COEFFS))]
            beta = COEFFS[rng.randrange(len(COEFFS))]
            lhs = normal_form(system, a.scaled(alpha) + b.scaled(beta))
            rhs = normal_form(system, a).scaled(alpha) + normal_form(system, b).scaled(beta)
            assert lhs == rhs
        confluent_seen += 1
    assert confluent_seen > 0
