"""Rule orientation and the reduction engine."""

import itertools
import math
import os
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diamondlemma import (
    CommutativeTheory,
    DiamondError,
    Element,
    ForbiddenFactorSet,
    Fp,
    FreeMagmaTheory,
    FreeMonoidTheory,
    MixedTheory,
    MonomialOrder,
    OrderKind,
    PathAlgebraTheory,
    PrimeField,
    RationalField,
    RewriteStep,
    RewritingSystem,
    Rule,
    RuleError,
    ScalarError,
    StepBudgetExceededError,
    TheoryMismatchError,
    WeightData,
    ZeroElementError,
    check_confluence,
    complete,
    count_irreducible,
    ideal_member,
    irr_description,
    is_irreducible_monomial,
    norm,
    normal_form,
    normal_form_with_trail,
    orient,
    parse_expression,
    parse_system_file,
    reduce_once,
    truncated_normal_form,
)

from diamondlemma import algebra_core
from diamondlemma.cli_io import MAX_NESTING
from diamondlemma.confluence import _cached_verdict

from oracles import (
    COPRIME_FRACTIONS,
    PRIME_FIELDS,
    THEORIES,
    _reference_site,
    all_normal_forms,
    apply_context_to_element,
    cyclic_polynomials,
    lead_index,
    make_random_system,
    monomials_of_degree,
    random_element,
    random_strategy_normal_form,
    reference_apply_context,
    reference_raw_lowers,
    reference_sort_key,
    reference_reduce,
    reference_reduce_once,
    shipped_orders,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QQ = RationalField()
FIELD_IDS = [field.describe() for field in PRIME_FIELDS]
TH = FreeMonoidTheory(("x", "y"))
DEGLEX = MonomialOrder(OrderKind.DEGLEX, TH, ("x", "y"))


def elem(*pairs) -> Element:
    return Element.from_dict({m: Fraction(c) for m, c in pairs})


def weyl() -> RewritingSystem:
    # yx -> xy + 1
    return RewritingSystem(
        TH, DEGLEX, (Rule(("y", "x"), elem((("x", "y"), 1), ((), 1))),)
    )


def bergman() -> RewritingSystem:
    # x^2 -> 1, y^2 -> 1
    return RewritingSystem(
        TH,
        DEGLEX,
        (Rule(("x", "x"), elem(((), 1))), Rule(("y", "y"), elem(((), 1)))),
    )


class TestOrient:
    def test_scales_to_monic_and_flips_sign(self):
        rule = orient(DEGLEX, elem((("y", "x"), 2), (("x", "y"), -2)))
        assert rule.lead == ("y", "x")
        assert rule.lower == elem((("x", "y"), 1))

    def test_constant_tail(self):
        rule = orient(DEGLEX, elem((("x", "x"), 3), ((), -6)))
        assert rule.lead == ("x", "x")
        assert rule.lower == elem(((), 2))

    def test_zero_rejected(self):
        with pytest.raises(ZeroElementError):
            orient(DEGLEX, Element.zero())

    def test_int_coefficients_divide_exactly(self):
        rule = orient(DEGLEX, Element.from_dict({("x",): 2, ("y",): 3}))
        assert rule.lead == ("y",)
        ((m, c),) = rule.lower.terms
        assert m == ("x",) and type(c) is Fraction and c == Fraction(-2, 3)
        RewritingSystem(TH, DEGLEX, (rule,))

    def test_prime_field_coefficients(self):
        gf7 = PrimeField(7)
        rule = orient(DEGLEX, Element.from_dict({("x",): gf7.coeff(2), ("y",): gf7.coeff(3)}))
        assert rule.lower == Element.from_dict({("x",): gf7.coeff(Fraction(-2, 3))})
        RewritingSystem(TH, DEGLEX, (rule,), gf7)


class TestSystemValidation:
    def test_rejects_lower_not_below_lead(self):
        with pytest.raises(RuleError):
            RewritingSystem(TH, DEGLEX, (Rule(("x",), elem((("x", "x"), 1))),))

    def test_rejects_equal_monomial(self):
        with pytest.raises(RuleError):
            RewritingSystem(TH, DEGLEX, (Rule(("x",), elem((("x",), 1))),))

    def test_rejects_foreign_order(self):
        other = CommutativeTheory(("x", "y"))
        o = MonomialOrder(OrderKind.DEGLEX, other, ("x", "y"))
        with pytest.raises(RuleError):
            RewritingSystem(TH, o, ())

    def test_rejects_non_uniform_path_rule(self):
        from diamondlemma import PathAlgebraTheory

        th = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
        o = MonomialOrder(OrderKind.DEGLEX, th, ("a", "b"))
        with pytest.raises(RuleError):
            RewritingSystem(
                th, o, (Rule(th.path("a", "b"), Element(((th.path("a"), Fraction(1)),))),)
            )

    def test_rejects_coefficients_outside_the_field(self):
        from diamondlemma import Fp, PrimeField

        rule = Rule(("y", "x"), elem((("x", "y"), Fraction(1, 2))))
        with pytest.raises(RuleError, match=r"rule 0: coefficient 1/2 of x\*y is not in the field GF\(7\)"):
            RewritingSystem(TH, DEGLEX, (rule,), PrimeField(7))
        residue = Rule(("y", "x"), Element(((("x", "y"), Fp(4, 7)),)))
        with pytest.raises(RuleError, match="not in the field QQ"):
            RewritingSystem(TH, DEGLEX, (residue,))
        with pytest.raises(RuleError, match=r"GF\(5\)"):
            RewritingSystem(TH, DEGLEX, (residue,), PrimeField(5))
        assert RewritingSystem(TH, DEGLEX, (residue,), PrimeField(7)).rules == (residue,)

    def test_series_rule_admitted_when_lower_is_below(self):
        th1 = FreeMonoidTheory(("x",))
        o = MonomialOrder(OrderKind.SERIES_DEGLEX, th1, ("x",), (("x", Fraction(-1)),))
        # x -> x^2 is a valid rule only under the series order.
        RewritingSystem(th1, o, (Rule(("x",), Element(((("x", "x"), Fraction(1)),))),))


class TestReduceOnce:
    def test_single_step(self):
        got, step = reduce_once(weyl(), elem((("y", "x"), 1)))
        assert got == elem((("x", "y"), 1), ((), 1))
        assert step.rule_index == 0
        assert step.monomial == ("y", "x")

    def test_irreducible_returns_none_step(self):
        e = elem((("x", "y"), 1))
        got, step = reduce_once(weyl(), e)
        assert got == e
        assert step is None

    def test_lowest_rule_index_wins(self):
        # x^2 -> y, xy -> 1: x^2*y is divisible by both leads; rule 0 acts.
        s = RewritingSystem(
            TH,
            DEGLEX,
            (Rule(("x", "x"), elem((("y",), 1))), Rule(("x", "y"), elem(((), 1)))),
        )
        got, step = reduce_once(s, elem((("x", "x", "y"), 1)))
        assert step.rule_index == 0
        assert got == elem((("y", "y"), 1))

    def test_greatest_monomial_first(self):
        got, step = reduce_once(weyl(), elem((("y", "x"), 1), (("y", "x", "x"), 1)))
        assert step.monomial == ("y", "x", "x")


def foreign_monomial_cases():
    """(system, monomial outside its theory that a lead divides)."""
    swap = RewritingSystem(TH, DEGLEX, (Rule(("y", "x"), elem((("x", "y"), 1))),))
    mixed = MixedTheory(("t",), ("x", "y"))
    mixed_swap = RewritingSystem(
        mixed,
        MonomialOrder(OrderKind.DEGLEX, mixed, ("t", "x", "y")),
        (Rule(((0,), ("y", "x")), elem((((0,), ("x", "y")), 1))),),
    )
    comm = CommutativeTheory(("x", "y"))
    square = RewritingSystem(
        comm,
        MonomialOrder(OrderKind.DEGLEX, comm, ("x", "y")),
        (Rule((2, 0), elem(((0, 1), 1))),),
    )
    return [
        (swap, ("y", "x", "z", "y", "x")),
        (mixed_swap, ((1,), ("y", "x", "z"))),
        # One exponent short: the order key reads past the tuple.
        (square, (3,)),
    ]


# Monomials outside each theory of oracles.THEORIES: unknown letters and
# vertices, a negative or float exponent, a vector of the wrong length,
# arrows that do not compose, a hole, and lists in place of tuples.
FOREIGN_MONOMIALS = {
    "assoc": [("z",), ("x", None), ["x", "y"]],
    "commutative": [(1, -2, 0), (1, 2, 3, 4), (1, 2), (1.0, 0, 0), [1, 0, 0]],
    "mixed": [((0,), ("z",)), ((-1,), ("x",)), ((0, 0), ()), [(0,), ("x",)], ((0,), ["x"])],
    "magma": ["z", ("x", None), ("x", "y", "x"), ["x", "y"]],
    "path": [("2", "1", ("a",)), ("1", "3", ()), ["1", "2", ("a",)], ("1", "2", ["a"])],
}


class TestForeignMonomials:
    """A monomial with a letter the order does not rank is named in a
    TheoryMismatchError, not lost in a KeyError from the order key."""

    @pytest.mark.parametrize("reduce", [normal_form, normal_form_with_trail, reduce_once])
    @pytest.mark.parametrize("case", range(3))
    def test_reduction_names_the_monomial(self, reduce, case):
        system, m = foreign_monomial_cases()[case]
        with pytest.raises(TheoryMismatchError) as info:
            reduce(system, elem((m, 1)))
        assert str(info.value) == "monomial %r does not belong to %s" % (
            m,
            system.theory.describe(),
        )

    def test_valid_terms_beside_it_do_not_hide_it(self):
        system, m = foreign_monomial_cases()[0]
        with pytest.raises(TheoryMismatchError, match="'z'"):
            normal_form(system, elem((("x", "y"), 2), (m, 1), (("y", "x"), 3)))

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_order_and_norm_name_the_monomial(self, name):
        """Every order key and weight sum reads the monomial's code, so one
        outside the theory is refused, never ranked or weighed."""
        th = THEORIES[name]
        wd = WeightData(th, tuple((g, Fraction(1)) for g in th.generator_names()))
        for m in FOREIGN_MONOMIALS[name]:
            single = Element(((m, Fraction(1)),))
            checks = [lambda: wd.exponent(m), lambda: norm(single, wd)]
            for order in shipped_orders(th):
                checks += [lambda o=order: o.sort_key(m), lambda o=order: orient(o, single)]
            for check in checks:
                with pytest.raises(TheoryMismatchError) as info:
                    check()
                assert str(info.value) == "monomial %r does not belong to %s" % (
                    m,
                    th.describe(),
                )


def wrong_length_reducers(th, gens, lead, lower, weights=None) -> dict:
    """Each public reduction of one rule over the theory, by name; the
    series order and norm take ``weights``, by default y:-3 and -1 for the
    other generators."""
    rule = Rule(lead, Element(((lower, Fraction(1)),)))
    plain = RewritingSystem(th, MonomialOrder(OrderKind.DEGLEX, th, gens), (rule,))
    if weights is None:
        weights = tuple((g, Fraction(-3 if g == "y" else -1)) for g in gens)
    series_order = MonomialOrder(OrderKind.SERIES_DEGLEX, th, gens, weights)
    series = RewritingSystem(th, series_order, (rule,))
    wd = WeightData(th, weights)
    return {
        "normal_form": lambda e: normal_form(plain, e),
        "normal_form_with_trail": lambda e: normal_form_with_trail(plain, e),
        "reduce_once": lambda e: reduce_once(plain, e),
        "truncated_normal_form": lambda e: truncated_normal_form(series, wd, e, 8),
        "is_irreducible_monomial": lambda e: is_irreducible_monomial(plain, e.terms[0][0]),
    }


WRONG_LENGTH_CASES = {
    # rule x^2 -> y over vars x y
    "commutative": (
        (CommutativeTheory(("x", "y")), ("x", "y"), (2, 0), (0, 1)),
        [(2, 0, 5), (1,)],
        (2, 0),
    ),
    # rule t^2*x -> y over cvars t, vars x y
    "mixed": (
        (MixedTheory(("t",), ("x", "y")), ("t", "x", "y"), ((2,), ("x",)), ((0,), ("y",))),
        [((2, 7), ("x",)), ((), ("x",))],
        ((2,), ("x",)),
    ),
}


UNDIVIDED_FOREIGN_CASES = {
    # vars x y; rule y*x -> x*y, and a word with the letter z
    "assoc": (
        (FreeMonoidTheory(("x", "y")), ("x", "y"), ("y", "x"), ("x", "y")),
        ("z",),
        ("y", "x"),
    ),
    # vars x y; rule x^2 -> y, and an exponent tuple one short
    "commutative": ((CommutativeTheory(("x", "y")), ("x", "y"), (2, 0), (0, 1)), (1,), (2, 0)),
    # arrows a: 1 -> 2, b: 2 -> 1; rule a*b -> e1, and a path over the arrow q
    "path": (
        (
            PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1"))),
            ("a", "b"),
            ("1", "1", ("a", "b")),
            ("1", "1", ()),
            (("a", Fraction(1)), ("b", Fraction(1))),
        ),
        ("1", "2", ("q",)),
        ("1", "1", ("a", "b")),
    ),
}


class TestUndividedForeignMonomials:
    """A monomial outside the theory that no lead divides is refused too, by
    every reduction and by the irreducibility test, not returned unchanged."""

    @pytest.mark.parametrize(
        "reducer",
        [
            "normal_form",
            "normal_form_with_trail",
            "reduce_once",
            "truncated_normal_form",
            "is_irreducible_monomial",
        ],
    )
    @pytest.mark.parametrize("name", sorted(UNDIVIDED_FOREIGN_CASES))
    def test_reduction_names_the_monomial(self, name, reducer):
        system_args, bad, good = UNDIVIDED_FOREIGN_CASES[name]
        th = system_args[0]
        reduce = wrong_length_reducers(*system_args)[reducer]
        with pytest.raises(TheoryMismatchError) as info:
            reduce(elem((bad, 1)))
        assert str(info.value) == "monomial %r does not belong to %s" % (bad, th.describe())
        reduce(elem((good, 1)))


class TestWrongLengthExponents:
    """An exponent vector longer or shorter than the theory's variable list
    is refused, whether or not a lead would divide it once truncated."""

    @pytest.mark.parametrize(
        "reducer", ["normal_form", "normal_form_with_trail", "reduce_once", "truncated_normal_form"]
    )
    @pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CASES))
    def test_reduction_names_the_monomial(self, name, reducer):
        system_args, bad, good = WRONG_LENGTH_CASES[name]
        th = system_args[0]
        reduce = wrong_length_reducers(*system_args)[reducer]
        for m in bad:
            with pytest.raises(TheoryMismatchError) as info:
                reduce(elem((m, 1)))
            assert str(info.value) == "monomial %r does not belong to %s" % (m, th.describe())
        reduce(elem((good, 1)))

    @pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CASES))
    def test_index_refuses_it(self, name):
        (th, _, lead, _), bad, good = WRONG_LENGTH_CASES[name]
        index = lead_index([lead], shipped_orders(th)[0])
        for m in bad:
            with pytest.raises(TheoryMismatchError):
                index.first_site(m)
        assert index.first_site(good) is not None


CAP = 2**31  # power-product codes hold exponents, degrees and weight sums below this


def power_system(kind, lead, lower, weights=()):
    """One rule lead -> lower over vars x < y, under an order of ``kind``."""
    th = CommutativeTheory(("x", "y"))
    order = MonomialOrder(kind, th, ("x", "y"), weights)
    return RewritingSystem(th, order, (Rule(lead, power(lower)),))


def power(m) -> Element:
    return Element(((m, Fraction(1)),))


class TestPackedCodeLimits:
    """A power product whose code would not fit is refused with a
    DiamondError; nothing wraps into a wrong normal form."""

    # An exponent at the capacity, above it, far above it, and a degree at it.
    @pytest.mark.parametrize("m", [(CAP, 0), (CAP + 1, 0), (0, 2**40), (CAP - 1, 1)])
    def test_input_at_or_above_the_capacity_under_deglex(self, m):
        system = power_system(OrderKind.DEGLEX, (0, 2), (1, 0))
        for reduce in (normal_form, normal_form_with_trail, reduce_once):
            with pytest.raises(DiamondError, match=r"does not fit .* below 2\^31"):
                reduce(system, power(m))
        with pytest.raises(DiamondError, match=r"does not fit"):
            is_irreducible_monomial(system, m)
        with pytest.raises(DiamondError, match=r"does not fit"):
            system.lead_index.first_site(m)
        # Just below the capacity the monomial has a code.
        assert normal_form(system, power((CAP - 1, 0))) == power((CAP - 1, 0))

    def test_weight_sum_at_the_capacity_under_weighted_deglex(self):
        weights = (("x", Fraction(1)), ("y", Fraction(2)))
        system = power_system(OrderKind.WEIGHTED_DEGLEX, (0, 2), (1, 0), weights)
        # Weight sums 2^31, though the degree of y^(2^30) is far below it.
        for m in [(0, CAP // 2), (CAP - 2, 1)]:
            with pytest.raises(DiamondError, match=r"does not fit"):
                normal_form(system, power(m))
        assert normal_form(system, power((CAP - 3, 1))) == power((CAP - 3, 1))

    def test_a_lead_that_does_not_fit(self):
        # The rule check keys the lead on its code, so the system is refused.
        with pytest.raises(DiamondError, match=r"does not fit"):
            power_system(OrderKind.DEGLEX, (CAP, 0), (0, 1))

    def test_a_superposition_that_does_not_fit(self):
        """Leads that fit can meet in a superposition that does not, and an
        image of its s-polynomial, x^(2^30)*y^(2^30) here, would not fit
        either: resolving it raises DiamondError, not a wrong verdict."""
        k = CAP // 2
        th = CommutativeTheory(("x", "y"))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        rules = (Rule((k + 1, 1), power((k, 0))), Rule((1, k + 1), power((0, 0))))
        system = RewritingSystem(th, order, rules)
        with pytest.raises(DiamondError, match=r"does not fit"):
            check_confluence(system)

    def test_lex_images_that_outgrow_a_field(self):
        # y -> x^k under lex: y^8 reaches x^(8k) = x^(2^31) in 8 steps.
        k = 2**28
        system = power_system(OrderKind.LEX, (0, 1), (k, 0))
        assert normal_form(system, power((0, 7))) == power((7 * k, 0))
        for reduce in (normal_form, normal_form_with_trail):
            with pytest.raises(DiamondError, match=r"exponent of 2\^31 or more") as info:
                reduce(system, power((0, 8)))
            assert not isinstance(info.value, StepBudgetExceededError)

    def test_series_images_that_outgrow_a_field(self):
        # y -> x^k under weights x:-1 y:0 keeps x^(2k) above a fine precision.
        k = 2**30
        weights = (("x", Fraction(-1)), ("y", Fraction(0)))
        system = power_system(OrderKind.SERIES_DEGLEX, (0, 1), (k, 0), weights)
        wd = WeightData(system.theory, weights)
        got = truncated_normal_form(system, wd, power((0, 1)), 2**33)
        assert got.representative == power((k, 0))
        with pytest.raises(DiamondError, match=r"exponent of 2\^31 or more"):
            truncated_normal_form(system, wd, power((0, 2)), 2**33)

    @pytest.mark.parametrize("kind", [OrderKind.DEGLEX, OrderKind.WEIGHTED_DEGLEX, OrderKind.LEX])
    @pytest.mark.parametrize("m", [(1.0, 0), ("2", 0), (-1, 3), (0, 2.5)])
    def test_bad_exponents_keep_their_message(self, m, kind):
        weights = (("x", Fraction(1)), ("y", Fraction(1))) if kind is OrderKind.WEIGHTED_DEGLEX else ()
        system = power_system(kind, (0, 2), (1, 0), weights)
        message = "monomial %r does not belong to %s" % (m, system.theory.describe())
        for check in (
            lambda: normal_form(system, power(m)),
            lambda: is_irreducible_monomial(system, m),
            lambda: system.lead_index.first_site(m),
        ):
            with pytest.raises(TheoryMismatchError) as info:
                check()
            assert str(info.value) == message



class TestMixedCodeLimits:
    """The central part of a mixed code is a packed code too: a central
    degree or exponent of 2^31 is refused on entry and in an image, which
    can grow past its input when a rule trades word letters for central
    variables."""

    def test_central_parts_at_the_capacity(self):
        th = MixedTheory(("t",), ("x",))
        weights = (("t", Fraction(1)), ("x", Fraction(CAP)))
        order = MonomialOrder(OrderKind.WEIGHTED_DEGLEX, th, ("t", "x"), weights)
        k = CAP // 2
        # x -> t^(2^30): x outweighs t^(2^30) under these weights.
        system = RewritingSystem(th, order, (Rule(((0,), ("x",)), power(((k,), ()))),))
        assert normal_form(system, power(((k - 1,), ("x",)))) == power(((CAP - 1,), ()))
        with pytest.raises(DiamondError) as info:
            normal_form(system, power(((k,), ("x",))))
        message = "t^%d times t^%d has a central degree or exponent of 2^31 or more" % (k, k)
        assert str(info.value) == message
        for m in [((CAP,), ()), ((CAP + 1,), ("x",))]:
            with pytest.raises(DiamondError, match=r"does not fit .* below 2\^31"):
                normal_form(system, power(m))
        with pytest.raises(TheoryMismatchError):
            normal_form(system, power(((-1,), ())))

    def test_a_superposition_that_does_not_fit(self):
        """Leads whose central parts fit can meet at an lcm that does not,
        t^(2^30)*u^(2^30)*x here, while every image of the s-polynomial
        fits: resolving the pair raises DiamondError, as for power products."""
        k = CAP // 2
        th = MixedTheory(("t", "u"), ("x",))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("t", "u", "x"))
        one = power(((0, 0), ()))
        rules = (Rule(((k, 0), ("x",)), one), Rule(((0, k), ("x",)), one))
        system = RewritingSystem(th, order, rules)
        with pytest.raises(DiamondError, match=r"does not fit"):
            check_confluence(system)

class TestNormalForm:
    def test_weyl_frozen_example(self):
        assert normal_form(weyl(), elem((("y", "x", "x"), 1))) == elem(
            (("x", "x", "y"), 1), (("x",), 2)
        )

    def test_zero(self):
        assert normal_form(weyl(), Element.zero()).is_zero()

    def test_irreducible_fixed(self):
        e = elem((("x", "x", "y"), 1), ((), -3))
        assert normal_form(weyl(), e) == e

    def test_matches_exhaustive_oracle(self):
        e = elem((("y", "x", "y", "x"), 1))
        nfs = all_normal_forms(weyl(), e)
        assert nfs == {normal_form(weyl(), e)}

    def test_budget_exhaustion_raises(self):
        th1 = FreeMonoidTheory(("x",))
        o = MonomialOrder(OrderKind.SERIES_DEGLEX, th1, ("x",), (("x", Fraction(-1)),))
        s = RewritingSystem(th1, o, (Rule(("x",), Element(((("x", "x"), Fraction(1)),))),))
        with pytest.raises(StepBudgetExceededError) as info:
            normal_form(s, Element(((("x",), Fraction(1)),)), max_steps=25)
        # x -> x^2 grows forever; the 26th step would rewrite x^26.
        assert str(info.value) == "step budget of 25 exceeded before rewriting x^26"

    def test_budget_error_names_a_deep_tree(self):
        """A tree that deepens by one level per step still ends in the
        budget error, whose message serializes it without recursion."""
        system = parse_system_file(
            "theory magma; vars x y; weights x:-1 y:-1; order series x<y; rule y -> x*y"
        ).system
        y = parse_expression("y", system.theory, system.field)
        with pytest.raises(StepBudgetExceededError) as info:
            normal_form(system, y, 5000)
        assert str(info.value).endswith("(x*" * 5000 + "y" + ")" * 5000)

    def test_trail_replays_to_normal_form(self):
        th = TH
        e = elem((("y", "y", "x", "x"), 1), (("y", "x"), 3))
        nf, trail = normal_form_with_trail(weyl(), e)
        replay = e
        for step in trail:
            image = apply_context_to_element(th, step.context, weyl().rules[step.rule_index].lower)
            replay = replay - Element(((step.monomial, step.coefficient),)) + image.scaled(
                step.coefficient
            )
        assert replay == nf

    def test_cancelled_monomial_added_back_is_rewritten_once(self):
        """p -> -m cancels the queued m, and q -> m adds it back before it is
        popped: m is rewritten once, by its one live heap entry."""
        system = parse_system_file(
            "theory assoc; vars r m q p; order deglex r<m<q<p\n"
            "rule p -> -m; rule q -> m; rule m -> r"
        ).system
        e = parse_expression("p + q + m", system.theory, system.field)
        nf, trail = normal_form_with_trail(system, e)
        assert nf == elem((("r",), 1))
        assert [(step.rule_index, step.monomial) for step in trail] == [
            (0, ("p",)),
            (1, ("q",)),
            (2, ("m",)),
        ]

    def test_trail_empty_for_irreducible(self):
        nf, trail = normal_form_with_trail(weyl(), elem((("x",), 1)))
        assert trail == ()
        assert nf == elem((("x",), 1))


WEYL_ELEMENTS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(("x", "y")), max_size=4).map(tuple),
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
    ),
    max_size=4,
)


class TestReductionProperties:
    @given(WEYL_ELEMENTS)
    @settings(max_examples=60)
    def test_idempotent(self, pairs):
        s = weyl()
        e = Element.from_dict({})
        for m, c in pairs:
            e = e + elem((m, c))
        nf = normal_form(s, e)
        assert normal_form(s, nf) == nf

    @given(WEYL_ELEMENTS)
    @settings(max_examples=60)
    def test_linear_in_differences(self, pairs):
        # Reducing a sum and summing reductions agree on confluent systems.
        s = weyl()
        e = Element.from_dict({})
        for m, c in pairs:
            e = e + elem((m, c))
        parts = sum(
            (normal_form(s, elem((m, c))) for m, c in e.terms), Element.zero()
        )
        assert normal_form(s, e) == parts

    @given(WEYL_ELEMENTS, st.integers(0, 2**30))
    @settings(max_examples=40)
    def test_strategy_independence_on_confluent_system(self, pairs, seed):
        s = weyl()
        e = Element.from_dict({})
        for m, c in pairs:
            e = e + elem((m, c))
        rng = random.Random(seed)
        assert random_strategy_normal_form(s, e, rng, {}) == normal_form(s, e)

    @given(WEYL_ELEMENTS)
    @settings(max_examples=60)
    def test_result_is_irreducible(self, pairs):
        s = weyl()
        e = Element.from_dict({})
        for m, c in pairs:
            e = e + elem((m, c))
        nf = normal_form(s, e)
        for m in nf.support():
            assert is_irreducible_monomial(s, m)

    @given(WEYL_ELEMENTS)
    @settings(max_examples=40)
    def test_difference_of_step_reduces_to_zero(self, pairs):
        # a minus any one-step reduct of a lies in the kernel of nf.
        s = weyl()
        e = Element.from_dict({})
        for m, c in pairs:
            e = e + elem((m, c))
        reduct, step = reduce_once(s, e)
        if step is not None:
            assert normal_form(s, e - reduct).is_zero()


class TestIrreducibleMonomials:
    def test_is_irreducible_monomial(self):
        s = bergman()
        assert is_irreducible_monomial(s, ("x", "y", "x"))
        assert not is_irreducible_monomial(s, ("y", "x", "x"))

    def test_bergman_counts(self):
        assert count_irreducible(bergman(), 6) == [1, 2, 2, 2, 2, 2, 2]

    def test_weyl_counts(self):
        assert count_irreducible(weyl(), 6) == [1, 2, 3, 4, 5, 6, 7]

    def test_counts_to_a_high_degree_quickly(self):
        # Only y*x is forbidden, so degree d has the d + 1 words x^i*y^j;
        # testing all 2^d words of each degree would not finish.
        start = time.perf_counter()
        assert count_irreducible(weyl(), 40) == [d + 1 for d in range(41)]
        assert time.perf_counter() - start < 1

    def test_each_tested_monomial_is_one_step(self):
        # Degrees 0 and 1 test 1 + 2 words; each higher degree tests the 2
        # irreducible words of the degree below times the 2 letters.
        assert count_irreducible(bergman(), 6, max_steps=23) == [1, 2, 2, 2, 2, 2, 2]
        with pytest.raises(StepBudgetExceededError, match="degree 6$"):
            count_irreducible(bergman(), 6, max_steps=22)

    def test_description_factor_semantics(self):
        desc = irr_description(bergman())
        assert isinstance(desc, ForbiddenFactorSet)
        assert desc.semantics == "factor"
        assert desc.leads == (("x", "x"), ("y", "y"))

    def test_description_divisor_semantics(self):
        th = CommutativeTheory(("x", "y"))
        o = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        s = RewritingSystem(th, o, (Rule((2, 0), Element.zero()),))
        assert irr_description(s).semantics == "divisor"

    def test_counts_against_substring_oracle(self):
        from oracles import irreducible_by_substring, words_up_to

        s = bergman()
        leads = [r.lead for r in s.rules]
        for d in range(7):
            expect = sum(
                1 for w in words_up_to(("x", "y"), 6) if len(w) == d and irreducible_by_substring(w, leads)
            )
            assert count_irreducible(s, 6)[d] == expect

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_counts_against_reference_scan(self, name):
        th = THEORIES[name]
        rng = random.Random("count-irreducible-" + name)
        for order in shipped_orders(th):
            system = make_random_system(th, order, rng)
            memo = {}
            expect = [
                sum(
                    1
                    for m in monomials_of_degree(th, d)
                    if _reference_site(th, system.rules, m, memo) is None
                )
                for d in range(5)
            ]
            assert count_irreducible(system, 4) == expect


def budget_boundary_agrees(run_engine, run_reference, steps):
    """Both sides pass with exactly ``steps`` steps and fail with one fewer."""
    run_engine(steps)
    run_reference(steps)
    if steps:
        with pytest.raises(StepBudgetExceededError):
            run_engine(steps - 1)
        with pytest.raises(StepBudgetExceededError):
            run_reference(steps - 1)


# Theories whose codes must stay apart and in order: words over three
# letters and over letter names that run together when joined, mixed
# monomials whose rankings interleave central and word letters, and paths
# with vertex leads, which sit where a path visits their vertex.
CODEC_THEORIES = {
    "assoc-abc": FreeMonoidTheory(("a", "b", "c")),
    "assoc-names": FreeMonoidTheory(("x", "xx", "y")),
    "mixed-interleaved": MixedTheory(("s", "t"), ("x", "y")),
    "path-vertices": PathAlgebraTheory(
        ("1", "2", "3"), (("a", "1", "2"), ("b", "2", "1"), ("c", "2", "2"), ("d", "2", "3"))
    ),
}


def codec_orders(th):
    """The shipped orders, and deglex, weighted-deglex and series orders
    that rank the generators neither in declaration order nor in its
    reverse: for a b c, b < c < a."""
    gens = tuple(th.generator_names())
    ranked = gens[1:] + gens[:1]
    positive = tuple((g, Fraction(len(gens) - i)) for i, g in enumerate(gens))
    negative = tuple((g, Fraction(-1 - i, 2)) for i, g in enumerate(ranked))
    return shipped_orders(th) + [
        MonomialOrder(OrderKind.DEGLEX, th, ranked),
        MonomialOrder(OrderKind.WEIGHTED_DEGLEX, th, ranked, positive),
        MonomialOrder(OrderKind.SERIES_DEGLEX, th, ranked, negative),
    ]


# Power-product theories whose codes must follow the order's ranking.
PACKED_THEORIES = {
    "commutative-3": CommutativeTheory(("x", "y", "z")),
    "commutative-4": CommutativeTheory(("a", "b", "c", "d")),
}


def packed_orders(th):
    """The orders of ``codec_orders`` and lex, each ranking the generators
    neither in declaration order nor in its reverse."""
    gens = tuple(th.generator_names())
    return codec_orders(th) + [MonomialOrder(OrderKind.LEX, th, gens[1:] + gens[:1])]


class TestReferenceStrategy:
    """The heap-ordered loop against the full-rescan strategy in oracles."""

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_sort_key_injective_up_to_degree_4(self, name):
        th = THEORIES[name]
        monomials = [m for d in range(5) for m in monomials_of_degree(th, d)]
        for order in shipped_orders(th):
            keys = {order.sort_key(m) for m in monomials}
            assert len(keys) == len(monomials), order.kind

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_normal_form_trail_and_budget(self, name):
        th = THEORIES[name]
        check_normal_forms(th, shipped_orders(th), QQ, random.Random("reference-" + name))

    @pytest.mark.parametrize("field", PRIME_FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_normal_form_trail_and_budget_over_prime_fields(self, name, field):
        th = THEORIES[name]
        rng = random.Random("reference-%s-%s" % (name, field.describe()))
        check_normal_forms(th, shipped_orders(th), field, rng)

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_truncated_normal_form_and_budget(self, name):
        th = THEORIES[name]
        rng = random.Random("truncated-" + name)
        check_truncated_normal_forms(th, shipped_orders(th), QQ, rng)

    @pytest.mark.parametrize("field", PRIME_FIELDS, ids=FIELD_IDS)
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_truncated_normal_form_and_budget_over_prime_fields(self, name, field):
        th = THEORIES[name]
        rng = random.Random("truncated-%s-%s" % (name, field.describe()))
        check_truncated_normal_forms(th, shipped_orders(th), field, rng)

    @pytest.mark.parametrize("field", [QQ, PRIME_FIELDS[0]], ids=lambda f: f.describe())
    @pytest.mark.parametrize("name", sorted(CODEC_THEORIES))
    def test_word_codes_under_every_ranking(self, name, field):
        th = CODEC_THEORIES[name]
        rng = random.Random("codes-%s-%s" % (name, field.describe()))
        # Only paths have monomials of degree 0 besides 1: their vertices.
        lowest = 0 if th.keyword == "path" else 1
        check_normal_forms(th, codec_orders(th), field, rng, min_lead_degree=lowest)
        check_truncated_normal_forms(th, codec_orders(th), field, rng, lowest)

    @pytest.mark.parametrize("field", [QQ, PRIME_FIELDS[0]], ids=lambda f: f.describe())
    @pytest.mark.parametrize("name", sorted(PACKED_THEORIES))
    def test_power_product_codes_under_every_ranking(self, name, field):
        th = PACKED_THEORIES[name]
        rng = random.Random("packed-%s-%s" % (name, field.describe()))
        for order in packed_orders(th):
            if order.is_well_founded():
                check_normal_forms(th, [order], field, rng, systems=8)
        check_truncated_normal_forms(th, packed_orders(th), field, rng)


def check_normal_forms(th, orders, field, rng, systems=30, min_lead_degree=1):
    """Normal forms, trails, single steps and budgets of random systems over
    the field under the well-founded ones of the orders, against the
    full-rescan strategy, which uses the field's value arithmetic."""
    orders = [o for o in orders if o.is_well_founded()]
    for _ in range(systems):
        order = orders[rng.randrange(len(orders))]
        s = make_random_system(th, order, rng, field=field, min_lead_degree=min_lead_degree)
        for _ in range(3):
            e = random_element(th, s.order, rng, 4, max_terms=4, field=field)
            want, want_trail = reference_reduce(s, dict(e.terms), 10**5)
            got, trail = normal_form_with_trail(s, e)
            assert got == Element.from_dict(want)
            assert trail == want_trail
            assert normal_form(s, e) == got
            assert reduce_once(s, e) == reference_reduce_once(s, e)
            budget_boundary_agrees(
                lambda n: normal_form_with_trail(s, e, max_steps=n),
                lambda n: reference_reduce(s, dict(e.terms), n),
                len(trail),
            )


def check_truncated_normal_forms(th, orders, field, rng, min_lead_degree=1):
    """Truncated normal forms and budgets under each series order of the
    orders, against the full-rescan strategy with the same ``keep`` filter."""
    series = [order for order in orders if order.kind is OrderKind.SERIES_DEGLEX]
    assert series
    for order in series:
        check_truncated_normal_forms_under(th, order, field, rng, min_lead_degree)


def check_truncated_normal_forms_under(th, order, field, rng, min_lead_degree=1):
    wd = WeightData(th, order.weights)
    for _ in range(20):
        s = make_random_system(
            th, order, rng, 2, 4, field=field, min_lead_degree=min_lead_degree
        )
        precision = rng.randint(3, 6)
        for _ in range(2):
            e = random_element(th, order, rng, 3, max_terms=4, field=field)
            check_truncated_normal_form(s, wd, e, precision)


def check_truncated_normal_form(s, wd, e, precision) -> int:
    """The truncated normal form of e and its budget against the full-rescan
    strategy with the same ``keep`` filter; returns the number of steps."""
    floor = Fraction(1 - precision)
    dropped = []

    def keep(m):
        kept = wd.exponent(m) >= floor
        if not kept:
            dropped.append(m)
        return kept

    def reference(n):
        coeffs = {m: c for m, c in e.terms if keep(m)}
        return reference_reduce(s, coeffs, n, keep)

    want, want_trail = reference(10**5)
    got = truncated_normal_form(s, wd, e, precision)
    assert got.representative == Element.from_dict(want)
    assert got.truncated == bool(dropped)
    budget_boundary_agrees(
        lambda n: truncated_normal_form(s, wd, e, precision, max_steps=n),
        reference,
        len(want_trail),
    )
    return len(want_trail)


# Generators, in an order whose product exists, whose product has degree
# >= 2 in every variable.
SQUARES = {
    "assoc": "xxyy",
    "assoc-names": ("xx", "x", "x", "xx", "y", "y"),
    "commutative": "xxyyzz",
    "mixed": "ttxxyy",
    "magma": "xxyy",
    "path": "ccabab",
    "mixed-names": ("t", "t", "xx", "x", "x", "xx", "y", "y"),
    "mixed-central": "ssttxxyy",
    "path-names": ("aa", "a", "a", "aa", "b", "c"),
}
# The shipped theories, words over letter names that run together when
# joined, so that ("x", "x") and ("xx",) must stay apart, and mixed
# monomials with two central variables, whose central codes of equal degree
# differ.
INDEX_THEORIES = dict(
    THEORIES,
    **{
        "assoc-names": FreeMonoidTheory(("x", "xx", "y")),
        "mixed-names": MixedTheory(("t",), ("x", "xx", "y")),
        "mixed-central": MixedTheory(("s", "t"), ("x", "y")),
        "path-names": PathAlgebraTheory(
            ("1", "2"), (("a", "1", "1"), ("aa", "1", "1"), ("b", "1", "2"), ("c", "2", "1"))
        ),
    },
)


def site_probes(th, name, order, rng):
    """Support monomials of random elements, each also multiplied by the
    SQUARES monomial on either side where the product exists."""
    square = th.monomial_named(SQUARES[name][0])
    for g in SQUARES[name][1:]:
        square = th.multiply(square, th.monomial_named(g))
    probes = {square}
    for _ in range(4):
        for m in random_element(th, order, rng, 4, max_terms=4).support():
            probes.add(m)
            for product in (th.multiply(m, square), th.multiply(square, m)):
                if product is not None:
                    probes.add(product)
    return probes


def deepest_trees(th, leads) -> set:
    """Trees nested as deep as the parser admits (``MAX_NESTING`` levels of
    parentheses), each with a rule lead at the bottom."""
    trees = set()
    for lead in leads:
        text = th.serialize(lead)
        depth = max(itertools.accumulate({"(": 1, ")": -1}.get(ch, 0) for ch in text))
        for k in range(MAX_NESTING - depth):
            text = ("(%s*x)" if k % 2 else "(y*%s)") % text
        (tree,) = parse_expression(text, th, RationalField()).support()
        trees.add(tree)
    return trees


def natively_comparable(key) -> bool:
    """Whether a heap key is an int, a str or a tuple of such keys, so
    that heapq compares it without calling back into Python."""
    if isinstance(key, tuple):
        return all(map(natively_comparable, key))
    return type(key) in (int, str)


class TestLeadIndex:
    """Each theory's lead index against the scan of ``divisions`` in oracles."""

    @pytest.mark.parametrize("name", sorted(INDEX_THEORIES))
    def test_sort_key_matches_reference(self, name):
        """The order on codes sorts every monomial up to degree 4 as the
        oracle's key does, under rankings and weights of every kind."""
        th = INDEX_THEORIES[name]
        monomials = [m for d in range(5) for m in monomials_of_degree(th, d)]
        for order in packed_orders(th) if th.supports_lex() else codec_orders(th):
            want = sorted(monomials, key=lambda m: reference_sort_key(th, order, m))
            assert sorted(monomials, key=order.sort_key) == want, order
            # The order's codec is no field, and equal orders share it.
            assert "codec" not in type(order)._fields
            assert "Index" not in repr(order)
            twin = MonomialOrder(order.kind, th, order.generators, order.weights)
            assert twin.codec is order.codec

    def test_codec_per_order_value(self):
        """Equal orders over distinct but equal theories share one codec;
        orders that differ only in kind, ranking, weights or theory class
        each get their own, and sort as the oracle's key does."""
        x_y = ("x", "y")
        assoc, commutative = FreeMonoidTheory(x_y), CommutativeTheory(x_y)
        up = (("x", Fraction(1)), ("y", Fraction(2)))
        down = (("x", Fraction(2)), ("y", Fraction(1)))
        base = MonomialOrder(OrderKind.WEIGHTED_DEGLEX, assoc, x_y, up)
        twin = MonomialOrder(OrderKind.WEIGHTED_DEGLEX, FreeMonoidTheory(x_y), x_y, up)
        assert twin.codec is base.codec
        pairs = [
            (base, MonomialOrder(OrderKind.SERIES_DEGLEX, assoc, x_y, up)),
            (base, MonomialOrder(OrderKind.WEIGHTED_DEGLEX, assoc, x_y[::-1], up)),
            (base, MonomialOrder(OrderKind.WEIGHTED_DEGLEX, assoc, x_y, down)),
            (
                MonomialOrder(OrderKind.DEGLEX, commutative, x_y),
                MonomialOrder(OrderKind.LEX, commutative, x_y),
            ),
            (
                MonomialOrder(OrderKind.DEGLEX, assoc, x_y),
                MonomialOrder(OrderKind.DEGLEX, commutative, x_y),
            ),
        ]
        for order, other in pairs:
            assert order != other and order.codec is not other.codec
            for o in (order, other):
                th = o.theory
                monomials = [m for d in range(5) for m in monomials_of_degree(th, d)]
                want = sorted(monomials, key=lambda m: reference_sort_key(th, o, m))
                assert sorted(monomials, key=o.sort_key) == want, o
        # The codecs are bounded.
        for k in range(300):
            MonomialOrder(OrderKind.WEIGHTED_DEGLEX, assoc, x_y, (("x", k + 1), ("y", 1)))
        assert algebra_core._codec.cache_info().currsize == 256

    @pytest.mark.parametrize("name", sorted(INDEX_THEORIES))
    def test_first_site_matches_reference(self, name):
        th = INDEX_THEORIES[name]
        rng = random.Random("lead-index-" + name)
        for order in shipped_orders(th):
            for _ in range(15):
                rules = [r for _ in range(3) for r in make_random_system(th, order, rng).rules]
                probes = site_probes(th, name, order, rng)
                grown = lead_index([], order)
                assert all(grown.first_site(m) is None for m in probes)
                for k, rule in enumerate(rules):
                    grown.entries.append(grown.encode(rule.lead))
                    for m in probes:
                        assert grown.first_site(m) == _reference_site(th, rules[: k + 1], m, {})
                whole = lead_index([rule.lead for rule in rules], order)
                system = RewritingSystem(th, order, tuple(rules))
                for m in probes:
                    want = _reference_site(th, rules, m, {})
                    assert whole.first_site(m) == want
                    assert system.lead_index.first_site(m) == want

    @pytest.mark.parametrize("name", sorted(INDEX_THEORIES))
    def test_without_equals_a_fresh_index(self, name):
        th = INDEX_THEORIES[name]
        rng = random.Random("lead-index-without-" + name)
        for order in shipped_orders(th):
            leads = [r.lead for _ in range(3) for r in make_random_system(th, order, rng).rules]
            probes = site_probes(th, name, order, rng)
            index = lead_index(leads, order)
            for i in range(len(leads)):
                view = index.without(i)
                fresh = lead_index(leads[:i] + leads[i + 1 :], order)
                assert type(view) is type(fresh)
                assert all(
                    getattr(view, slot) == getattr(fresh, slot)
                    for cls in type(fresh).__mro__
                    for slot in getattr(cls, "__slots__", ())
                )
                assert [view.first_site(m) for m in probes] == [
                    fresh.first_site(m) for m in probes
                ]
            assert index.entries == lead_index(leads, order).entries

    @pytest.mark.parametrize("name", sorted(INDEX_THEORIES))
    def test_encode_context_inverts_decode_context(self, name):
        """Every context of ``overlaps`` encodes to what ``apply`` takes, under
        every ranking: decoded at the superposition's code it comes back,
        and its image of a rule's monomial is the code of the public image."""
        th = INDEX_THEORIES[name]
        rng = random.Random("encode-context-" + name)
        contexts = 0
        for order in codec_orders(th):
            for _ in range(6):
                rules = [r for _ in range(2) for r in make_random_system(th, order, rng).rules]
                index = lead_index([rule.lead for rule in rules], order)
                for a, b in itertools.combinations_with_replacement(rules, 2):
                    for sup, ctx1, ctx2, _, _ in th.overlaps(a.lead, b.lead):
                        code = index.encode(sup)
                        for ctx, rule in ((ctx1, a), (ctx2, b)):
                            encoded = index.encode_context(ctx)
                            assert index.decode_context(encoded, code) == ctx
                            assert index.apply(index.encode(rule.lead), encoded) == code
                            for m in rule.lower.support():
                                image = index.encode(reference_apply_context(th, ctx, m))
                                assert index.apply(index.encode(m), encoded) == image
                            contexts += 1
        assert contexts > 100

    @pytest.mark.parametrize("name", ["path", "path-names"])
    def test_path_images_never_vanish(self, name):
        """Rules are uniform, so at every site ``apply`` gives an image of
        each code of the rule's lower part, which ``_rewrites`` relies on."""
        th = INDEX_THEORIES[name]
        rng = random.Random("path-images-" + name)
        monomials = [m for d in range(6) for m in monomials_of_degree(th, d)]
        images = 0
        for order in shipped_orders(th):
            for _ in range(20):
                system = make_random_system(th, order, rng)
                index = system.lead_index
                for m in monomials:
                    found = index.site(index.encode(m))
                    if found is not None:
                        lower, _ = system.raw_lowers[found[0]]
                        for code, _ in lower:
                            assert index.apply(code, found[1]) is not None
                            images += 1
        assert images > 1000

    @pytest.mark.parametrize("name", sorted(INDEX_THEORIES))
    def test_first_site_is_site_of_the_code(self, name):
        th = INDEX_THEORIES[name]
        rng = random.Random("lead-index-protocol-" + name)
        for order in shipped_orders(th):
            leads = [r.lead for _ in range(3) for r in make_random_system(th, order, rng).rules]
            index = lead_index(leads, order)
            probes = site_probes(th, name, order, rng)
            if name == "magma":
                probes |= deepest_trees(th, leads)
            probes = sorted(probes, key=order.sort_key)
            codes = [index.encode(m) for m in probes]
            assert [index.decode(code) for code in codes] == probes
            # The heap's key sorts the probes in exactly the reverse of
            # sort_key, and compares natively.
            keys = list(map(index.descending_key, codes))
            assert all(map(natively_comparable, keys))
            assert sorted(codes, key=index.descending_key) == codes[::-1]
            assert all(a > b for a, b in zip(keys, keys[1:]))
            for m, code in zip(probes, codes):
                found = index.site(code)
                if found is None:
                    assert index.first_site(m) is None
                    continue
                i, ctx = found
                assert index.first_site(m) == (i, index.decode_context(ctx, code))
                assert index.apply(index.encode(leads[i]), ctx) == code
            # A hole (None) inside a tree belongs to contexts only.
            for bad in [("zz",), None, (("x", "y"),), ("x", None), (None, "x")]:
                with pytest.raises(TheoryMismatchError) as info:
                    index.encode(bad)
                assert str(info.value) == "monomial %r does not belong to %s" % (bad, th.describe())

    @pytest.mark.parametrize("name", sorted(INDEX_THEORIES))
    def test_site_from_start_scans_the_later_leads(self, name):
        """``site(code, k)`` is the scan of leads k.. with absolute rule
        indexes: what the memo of ``_rewrites`` resumes with."""
        th = INDEX_THEORIES[name]
        rng = random.Random("lead-index-start-" + name)
        for order in shipped_orders(th):
            rules = [r for _ in range(3) for r in make_random_system(th, order, rng).rules]
            index = lead_index([rule.lead for rule in rules], order)
            for m in site_probes(th, name, order, rng):
                code = index.encode(m)
                assert index.site(code, 0) == index.site(code)
                for k in (0, 1, len(rules)):
                    found = index.site(code, k)
                    want = _reference_site(th, rules[k:], m, {})
                    if want is None:
                        assert found is None
                    else:
                        assert (found[0], index.decode_context(found[1], code)) == (
                            want[0] + k,
                            want[1],
                        )

    def test_equal_weighted_orders_share_one_word_key(self):
        """Equal orders share one descending key, for every theory and
        every shipped order, series included."""
        for th in THEORIES.values():
            for first, second in zip(shipped_orders(th), shipped_orders(th)):
                assert first == second and first is not second
                key = lead_index([], first).descending_key
                assert key is lead_index([], second).descending_key
            weighted, series = shipped_orders(th)[2:4]
            assert (
                lead_index([], weighted).descending_key
                is not lead_index([], series).descending_key
            )

    def test_copy_shares_every_slot_but_entries(self):
        """Under every shipped order of each theory, a copy of a lead index
        holds every slot but ``entries`` by identity, and a fresh list of
        the same entries."""
        classes = set()
        for th in THEORIES.values():
            for order in shipped_orders(th):
                index = lead_index(list(monomials_of_degree(th, 2))[:3], order)
                view = index.copy()
                classes.add(type(view))
                slots = [name for cls in type(index).__mro__[:-1] for name in cls.__slots__]
                assert "entries" in slots and len(slots) > 4
                for name in slots:
                    if name != "entries":
                        assert getattr(view, name) is getattr(index, name), (order, name)
                assert view.entries == index.entries and view.entries is not index.entries
                view.entries.append(index.entries[0])
                assert len(index.entries) == 3
        assert len(classes) == 5

    def test_word_index_refuses_letters_outside_the_alphabet(self):
        index = lead_index([("y", "x"), ("x",)], shipped_orders(TH)[0])
        for m in [("z", "y", "x"), ("z",)]:
            with pytest.raises(TheoryMismatchError) as info:
                index.first_site(m)
            assert str(info.value) == "monomial %r does not belong to %s" % (m, TH.describe())
        assert index.first_site(("x", "y", "x")) == (0, (("x",), ()))

    def test_mask_needs_the_second_bit(self):
        # x^2 does not divide x*y^2*z^2 although every variable of x^2 occurs.
        th = THEORIES["commutative"]
        index = lead_index([(2, 0, 0), (1, 0, 1)], shipped_orders(th)[0])
        assert index.first_site((1, 2, 2)) == (1, (0, 2, 1))
        assert index.first_site((2, 1, 0)) == (0, (0, 1, 0))
        assert index.first_site((1, 2, 0)) is None

    def test_mixed_central_only_lead_divides_at_the_start(self):
        th = THEORIES["mixed"]
        index = lead_index([((2,), ())], shipped_orders(th)[0])
        m = ((3,), ("y", "x"))
        assert index.first_site(m) == (0, ((1,), (), ("y", "x")))
        assert index.first_site(m) == (0, th.divisions(m, ((2,), ()))[0])
        assert index.first_site(((1,), ("x",))) is None

    def test_mixed_mask_does_not_decide_a_cube(self):
        # t^3 does not divide t^2, though both exponents are 2 or more.
        th = THEORIES["mixed"]
        index = lead_index([((3,), ("x",)), ((1,), ("x",))], shipped_orders(th)[0])
        assert index.first_site(((2,), ("y", "x"))) == (1, ((1,), ("y",), ()))
        assert index.first_site(((3,), ("y", "x"))) == (0, ((0,), ("y",), ()))
        assert index.first_site(((3,), ("y",))) is None

    def test_path_vertex_lead_divides_where_the_path_visits_it(self):
        th = THEORIES["path"]
        index = lead_index([("2", "2", ())], shipped_orders(th)[0])
        # c*c stays at vertex 1; a*b passes through 2 after its first arrow.
        assert index.first_site(("1", "1", ("c", "c"))) is None
        assert index.first_site(("1", "1", ("a", "b"))) == (
            0,
            (("1", "2", ("a",)), ("2", "1", ("b",))),
        )
        assert index.first_site(("2", "2", ())) == (0, (("2", "2", ()), ("2", "2", ())))

    def test_mixed_and_path_indexes_refuse_letters_outside_the_alphabet(self):
        mixed, path = THEORIES["mixed"], THEORIES["path"]
        cases = [
            (mixed, ((0,), ("y", "x")), [((1,), ("z", "y", "x")), ((0,), ("z",))]),
            (path, ("2", "1", ("b",)), [("1", "1", ("q", "a", "b")), ("1", "1", ("q",))]),
        ]
        for th, lead, bad in cases:
            index = lead_index([lead], shipped_orders(th)[0])
            for m in bad:
                with pytest.raises(TheoryMismatchError) as info:
                    index.first_site(m)
                assert str(info.value) == "monomial %r does not belong to %s" % (m, th.describe())
            assert index.first_site(lead) == (0, th.divisions(lead, lead)[0])


def count_calls(monkeypatch, *methods) -> dict:
    """Wrap each (class, method name) so that its calls are counted in the
    returned dict, by method name."""
    calls = {}
    for cls, name in methods:
        calls[name] = 0

        def wrapper(*args, _method=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)
    return calls


class TestEncodedReduction:
    """Every theory reduces as its lead index's codes, so a step calls none
    of the public per-monomial methods: a fallback to tuples would."""

    def test_weyl_y30x30_calls_no_apply_context_and_no_sort_key(self, monkeypatch):
        with open(os.path.join(REPO, "bench", "systems", "weyl.sys"), encoding="utf-8") as handle:
            system = parse_system_file(handle.read()).system
        element = parse_expression("y^30*x^30", system.theory, system.field)
        calls = count_calls(
            monkeypatch, (FreeMonoidTheory, "apply_context"), (MonomialOrder, "sort_key")
        )
        result = normal_form(system, element)
        assert calls == {"apply_context": 0, "sort_key": 0}
        # With y*x = x*y + 1: y^n*x^n = sum over k of k! C(n,k)^2 x^(n-k)*y^(n-k).
        assert result == Element.from_dict(
            {
                ("x",) * (30 - k) + ("y",) * (30 - k): Fraction(
                    math.factorial(k) * math.comb(30, k) ** 2
                )
                for k in range(31)
            }
        )
        # The wrappers do count.
        system.theory.apply_context(((), ()), ("x",))
        system.order.sort_key(("x",))
        assert calls == {"apply_context": 1, "sort_key": 1}

    def test_cyclic4_basis_calls_no_apply_context_divisions_or_sort_key(self, monkeypatch):
        th = CommutativeTheory(("v0", "v1", "v2", "v3"))
        order = MonomialOrder(OrderKind.DEGLEX, th, th.letters)
        rules = tuple(orient(order, Element.from_dict(p)) for p in cyclic_polynomials(4))
        basis = complete(RewritingSystem(th, order, rules)).system
        element = Element.from_dict({m: Fraction(1) for m in monomials_of_degree(th, 6)})
        want, _ = reference_reduce(basis, dict(element.terms), 10**5)
        calls = count_calls(
            monkeypatch,
            (CommutativeTheory, "apply_context"),
            (CommutativeTheory, "divisions"),
            (MonomialOrder, "sort_key"),
        )
        result = normal_form(basis, element)
        assert calls == {"apply_context": 0, "divisions": 0, "sort_key": 0}
        assert result == Element.from_dict(want) and result
        # The wrappers do count.
        th.apply_context((0, 0, 0, 1), (1, 0, 0, 0))
        th.divisions((1, 0, 0, 0), (1, 0, 0, 0))
        order.sort_key((1, 0, 0, 0))
        assert calls == {"apply_context": 1, "divisions": 1, "sort_key": 1}


    def test_magma_reduction_calls_no_apply_context_divisions_or_sort_key(self, monkeypatch):
        text = "theory magma\nvars x y\nrule y*x -> x*y\nrule (x*x)*x -> x*(x*x) + y\n"
        system = parse_system_file(text).system
        th, order = system.theory, system.order
        element = Element.from_dict({m: Fraction(1) for m in monomials_of_degree(th, 5)})
        want, _ = reference_reduce(system, dict(element.terms), 10**5)
        calls = count_calls(
            monkeypatch,
            (FreeMagmaTheory, "apply_context"),
            (FreeMagmaTheory, "divisions"),
            (MonomialOrder, "sort_key"),
        )
        result = normal_form(system, element)
        assert calls == {"apply_context": 0, "divisions": 0, "sort_key": 0}
        assert result == Element.from_dict(want) and result
        # The wrappers do count.
        th.apply_context(None, "x")
        th.divisions("x", "x")
        order.sort_key("x")
        assert calls == {"apply_context": 1, "divisions": 1, "sort_key": 1}

    @pytest.mark.parametrize(
        "text",
        [
            # A ranking that interleaves central and word letters.
            "theory mixed\ncvars s t\nvars x y\norder deglex x < s < y < t\n"
            "rule y*x -> x*y + s*t\nrule t^2*x -> s*x + y\n",
            # Arrow leads, and a vertex lead that sits where a path visits 2.
            "theory path\nvertices 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\narrow c: 1 -> 1\n"
            "rule c*c -> c + e1\nrule b*a*b -> b\nrule e2 -> 0\n",
        ],
        ids=["mixed", "path"],
    )
    def test_mixed_and_path_reduction_call_no_theory_method(self, text, monkeypatch):
        system = parse_system_file(text).system
        th, order = system.theory, system.order
        element = Element.from_dict(
            {m: Fraction(k + 1) for d in range(5) for k, m in enumerate(monomials_of_degree(th, d))}
        )
        want, _ = reference_reduce(system, dict(element.terms), 10**5)
        m = max(element.support(), key=order.sort_key)
        cls, index = type(th), system.lead_index  # the rules are encoded here
        calls = count_calls(
            monkeypatch,
            (cls, "apply_context"),
            (type(index), "encode"),
            (cls, "divisions"),
            (MonomialOrder, "sort_key"),
        )
        result = normal_form(system, element)
        # The codec checks each monomial of the input once, as it encodes it.
        terms = len(element.terms)
        assert calls == {"apply_context": 0, "encode": terms, "divisions": 0, "sort_key": 0}
        assert result == Element.from_dict(want) and result
        # The wrappers do count.
        th.apply_context(th.divisions(m, m)[0], m)
        order.sort_key(m)
        assert calls["apply_context"] == calls["divisions"] == calls["sort_key"] == 1

    def test_vertex_path_lead_calls_no_divisions(self, monkeypatch):
        th = THEORIES["path"]
        order = shipped_orders(th)[0]
        # c*c -> c, and e2 -> 0, which kills every path through vertex 2.
        c = Element.from_dict({("1", "1", ("c",)): Fraction(1)})
        rules = (Rule(("1", "1", ("c", "c")), c), Rule(("2", "2", ()), Element.zero()))
        system = RewritingSystem(th, order, rules)
        element = Element.from_dict({m: Fraction(1) for m in monomials_of_degree(th, 4)})
        want, _ = reference_reduce(system, dict(element.terms), 10**5)
        calls = count_calls(monkeypatch, (PathAlgebraTheory, "divisions"))
        result = normal_form(system, element)
        assert calls == {"divisions": 0}
        assert result == Element.from_dict(want) == c
        th.divisions(("2", "2", ()), ("2", "2", ()))
        assert calls == {"divisions": 1}


# Generators of the wide theories, past every ASCII and Latin-1 code.
WIDE = 300


def wide_system(th, kind, rng):
    """A system over the WIDE generators of a word or magma theory, ranked
    in a shuffled order: the oriented commutators a*b - b*a - c*z for pairs
    of letters whose ranks span the alphabet, so that codes hold characters
    past 255 and the heap compares them. Returns the system and a monomial
    sampler over those letters."""
    gens = list(th.letters)
    rng.shuffle(gens)
    weights = ()
    if kind is OrderKind.WEIGHTED_DEGLEX:
        weights = tuple((g, Fraction(1 + i % 3)) for i, g in enumerate(th.letters))
    order = MonomialOrder(kind, th, tuple(gens), weights)
    spread = [gens[r] for r in (0, 1, 2, 127, 128, 255, 256, 257, 298, 299)]
    gen = th.monomial_named

    def monomial(d):
        if d == 1:
            return gen(rng.choice(spread))
        k = rng.randint(1, d - 1)
        return th.multiply(monomial(k), monomial(d - k))

    rules = []
    for a, b in itertools.combinations(spread, 2):
        if rng.random() < 0.8:
            ab, ba = th.multiply(gen(a), gen(b)), th.multiply(gen(b), gen(a))
            z = gen(rng.choice(spread))
            c = Fraction(rng.randint(1, 3))
            element = Element.from_dict({ab: Fraction(1), ba: Fraction(-1), z: c})
            rule = orient(order, element)
            if all(rule.lead != other.lead for other in rules):
                rules.append(rule)
    return RewritingSystem(th, order, tuple(rules)), monomial


# The nf-large systems at reduced size: (system file, expression, precision
# or None).
BENCH_NF_CASES = {
    "weyl": ("weyl.sys", "y^8*x^8", None),
    "sl2": ("sl2.sys", "(h+f+e)^3", None),
    "series": ("series.sys", "(x+y)^5", 7),
}


class TestHeapOrder:
    """The heap's native keys pop monomials in the order's descending order,
    so every step matches the full-rescan strategy."""

    @pytest.mark.parametrize(
        "kind", [OrderKind.DEGLEX, OrderKind.WEIGHTED_DEGLEX], ids=lambda k: k.value
    )
    @pytest.mark.parametrize("cls", [FreeMonoidTheory, FreeMagmaTheory], ids=lambda c: c.keyword)
    def test_wide_alphabets_reduce_as_the_reference(self, cls, kind):
        th = cls(tuple("g%d" % i for i in range(WIDE)))
        rng = random.Random("wide-%s-%s" % (th.keyword, kind.value))
        system, monomial = wide_system(th, kind, rng)
        index = system.lead_index
        steps = 0
        for _ in range(10):
            e = Element.from_dict(
                {monomial(rng.randint(3, 5)): Fraction(rng.randint(1, 5)) for _ in range(10)}
            )
            assert max(ord(ch) for m in e.support() for ch in index.encode(m)) > 255
            want, want_trail = reference_reduce(system, dict(e.terms), 10**5)
            got, trail = normal_form_with_trail(system, e)
            assert trail == want_trail
            assert got == Element.from_dict(want)
            steps += len(trail)
        assert steps > 50

    @pytest.mark.parametrize("case", sorted(BENCH_NF_CASES))
    def test_benchmark_systems_keep_their_step_order(self, case):
        name, text, precision = BENCH_NF_CASES[case]
        with open(os.path.join(REPO, "bench", "systems", name), encoding="utf-8") as handle:
            parsed = parse_system_file(handle.read())
        system = parsed.system
        e = parse_expression(text, system.theory, system.field)
        if precision is None:
            want, want_trail = reference_reduce(system, dict(e.terms), 10**6)
            got, trail = normal_form_with_trail(system, e)
            assert trail == want_trail and len(trail) >= 20
            assert got == Element.from_dict(want)
        else:
            assert check_truncated_normal_form(system, parsed.weight_data, e, precision) > 50
            assert truncated_normal_form(system, parsed.weight_data, e, precision).truncated


_PATHS = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
_POWERS = CommutativeTheory(("x", "y"))
_MIXED = MixedTheory(("t",), ("x",))


def _order(th):
    return MonomialOrder(OrderKind.DEGLEX, th, tuple(th.generator_names()))


# (theory, rules, field, exception class, message) of systems with one bad
# rule of each kind, as the system check has always refused them.
BAD_RULES = [
    (
        TH,
        (Rule(("y", "x"), elem((("x", "y"), Fraction(1, 2)))),),
        PrimeField(7),
        RuleError,
        "rule 0: coefficient 1/2 of x*y is not in the field GF(7)",
    ),
    (
        TH,
        (Rule(("y", "x"), elem((("x", "y"), 1))), Rule(("x",), elem((("x", "x"), 1)))),
        QQ,
        RuleError,
        "rule 1: lower-part monomial x^2 is not below the lead x",
    ),
    (
        # The coefficient is read before the monomial is compared.
        TH,
        (Rule(("x",), Element(((("x", "x"), Fp(1, 7)),))),),
        QQ,
        RuleError,
        "rule 0: coefficient Fp(value=1, p=7) of x^2 is not in the field QQ",
    ),
    (
        _PATHS,
        (Rule(_PATHS.path("a", "b"), Element(((_PATHS.path("a"), Fraction(1)),))),),
        QQ,
        RuleError,
        "rule 0: non-uniform path rule (a vs a*b)",
    ),
    (
        TH,
        (Rule(("z",), Element.zero()),),
        QQ,
        TheoryMismatchError,
        "monomial ('z',) does not belong to assoc(x,y)",
    ),
    (
        TH,
        (Rule(("y", "x"), elem((("z",), 1))),),
        QQ,
        TheoryMismatchError,
        "monomial ('z',) does not belong to assoc(x,y)",
    ),
    (
        _POWERS,
        (Rule((2**31, 0), Element.zero()),),
        QQ,
        DiamondError,
        "monomial x^2147483648 does not fit the power-product codes, whose degrees, "
        "weight sums and exponents stay below 2^31",
    ),
    (
        _MIXED,
        (Rule(((1,), ("x", "x")), Element((((((2**31,), ()), Fraction(1)),)))),),
        QQ,
        DiamondError,
        "monomial t^2147483648 does not fit the mixed codes, whose central degrees and "
        "exponents stay below 2^31",
    ),
]


class TestRuleCodes:
    """``RewritingSystem(...)`` checks and encodes its rules in one walk and
    keeps the codes; a system of checked rules builds the same codes on
    first use."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF(7)"])
    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_built_and_lazy_codes_match_the_reference(self, name, field):
        th = THEORIES[name]
        rng = random.Random("rule-codes-%s-%s" % (name, field.describe()))
        sample = COPRIME_FRACTIONS if field == QQ else None
        fractional = 0
        for order in shipped_orders(th):
            for k in range(10):
                rules = make_random_system(th, order, rng, field=field, sample=sample).rules
                built = RewritingSystem(th, order, rules, field)
                assert {"lead_index", "raw_lowers"} <= vars(built).keys()
                lazy = RewritingSystem._of_checked_rules(th, order, rules, field)
                assert "lead_index" not in vars(lazy) and "raw_lowers" not in vars(lazy)
                # Either property, read first, builds both.
                first, second = ("raw_lowers", "lead_index")[:: 1 if k % 2 else -1]
                getattr(lazy, first)
                assert {"lead_index", "raw_lowers"} <= vars(lazy).keys()
                fresh = lead_index([rule.lead for rule in rules], order)
                assert built.lead_index.entries == lazy.lead_index.entries == fresh.entries
                assert built.lead_index is not order.codec
                assert order.codec.entries == []
                want = reference_raw_lowers(th, order, field, rules)
                assert built.raw_lowers == lazy.raw_lowers == want
                fractional += any(d != 1 for _, d in want)
        assert (fractional > 0) == (field == QQ)

    @pytest.mark.parametrize("case", range(len(BAD_RULES)))
    def test_bad_rules_raise_as_before(self, case):
        th, rules, field, error, message = BAD_RULES[case]
        with pytest.raises(DiamondError) as info:
            RewritingSystem(th, _order(th), rules, field)
        assert type(info.value) is error
        assert str(info.value) == message


class TestCachedLeadIndex:
    """The index a system builds on first use leaves it unchanged as a value."""

    def test_repr_equality_and_hash_unchanged(self):
        s, t = weyl(), weyl()
        before = (repr(s), hash(s))
        index = s.lead_index
        assert s.lead_index is index
        assert (repr(s), hash(s)) == before
        assert "lead_index" not in repr(s)
        assert s == t and hash(s) == hash(t)
        assert "lead_index" not in type(s)._fields

    def test_replace_builds_a_fresh_index(self):
        th = CommutativeTheory(("x", "y"))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        s = RewritingSystem(
            th, order, (Rule((2, 0), Element.zero()), Rule((0, 1), Element.zero()))
        )
        assert s.lead_index.first_site((1, 1)) == (1, (1, 0))
        u = RewritingSystem(s.theory, s.order, s.rules[1:], s.field)
        assert u.lead_index is not s.lead_index
        assert u.lead_index.first_site((1, 1)) == (0, (1, 0))
        assert u.lead_index.first_site((2, 0)) is None
        assert s.lead_index.first_site((2, 0)) == (0, (0, 0))

    def test_membership_cache_hits_on_equal_systems(self):
        _cached_verdict.cache_clear()
        s, t = weyl(), weyl()
        e = elem((("y", "x"), 1), (("x", "y"), -1), ((), -1))
        assert normal_form(s, e) == Element.zero()
        assert ideal_member(s, e)
        assert ideal_member(t, e)
        info = _cached_verdict.cache_info()
        assert (info.hits, info.misses) == (1, 1)


def field_reducers(field) -> dict:
    """Each public reduction over a field, by name, as a function of the element."""
    rule = Rule(("y", "x"), Element(((("x", "y"), field.one),)))
    plain = RewritingSystem(TH, DEGLEX, (rule,), field)
    weights = (("x", Fraction(-1)), ("y", Fraction(-1)))
    series_order = MonomialOrder(OrderKind.SERIES_DEGLEX, TH, ("x", "y"), weights)
    series = RewritingSystem(TH, series_order, (rule,), field)
    wd = WeightData(TH, weights)
    return {
        "normal_form": lambda e: normal_form(plain, e),
        "normal_form_with_trail": lambda e: normal_form_with_trail(plain, e),
        "reduce_once": lambda e: reduce_once(plain, e),
        "truncated_normal_form": lambda e: truncated_normal_form(series, wd, e, 3),
    }


class TestFieldEntryCheck:
    """Reduction checks every coefficient once, as it enters the loop, even
    one that no rewrite touches."""

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fp(3, 5)], ids=["fraction", "other-prime"])
    @pytest.mark.parametrize("reducer", sorted(field_reducers(QQ)))
    def test_foreign_coefficient_is_rejected(self, reducer, bad):
        self.check_rejected(PrimeField(7), reducer, bad)

    @pytest.mark.parametrize("bad", [2.5, Fp(3, 5)], ids=["float", "residue"])
    @pytest.mark.parametrize("reducer", sorted(field_reducers(QQ)))
    def test_foreign_coefficient_is_rejected_over_qq(self, reducer, bad):
        self.check_rejected(QQ, reducer, bad)

    @staticmethod
    def check_rejected(field, reducer, bad):
        reduce = field_reducers(field)[reducer]
        message = re.escape("coefficient %s is not in the field %s" % (bad, field.describe()))
        with pytest.raises(ScalarError, match=message):
            reduce(Element(((("x",), bad),)))
        # Next to a term that does get rewritten.
        with pytest.raises(ScalarError, match=message):
            reduce(Element(((("x",), bad), (("y", "x"), field.coeff(2)))))


def all_fractions(terms) -> bool:
    return all(type(c) is Fraction for _, c in terms)


class TestRationalOutputs:
    """Over QQ, reduction runs integral coefficients as ints; every
    coefficient it returns is still a ``Fraction``."""

    @pytest.mark.parametrize(
        "scale", [Fraction(3), Fraction(3, 2), 3], ids=["integral", "non-integral", "int"]
    )
    @pytest.mark.parametrize("c", [Fraction(1), Fraction(2, 3)], ids=["integral", "non-integral"])
    def test_every_output_coefficient_is_a_fraction(self, c, scale):
        lower = Element(((("x", "y"), c), ((), Fraction(-2))))
        system = RewritingSystem(TH, DEGLEX, (Rule(("y", "x"), lower),))
        e = Element(((("y", "x", "x"), scale), (("x",), scale), (("y",), Fraction(1, 2))))
        assert all_fractions(normal_form(system, e).terms)
        result, trail = normal_form_with_trail(system, e)
        assert all_fractions(result.terms) and trail
        assert all(type(step.coefficient) is Fraction for step in trail)
        result, step = reduce_once(system, e)
        assert all_fractions(result.terms) and type(step.coefficient) is Fraction

        weights = (("x", Fraction(-1)), ("y", Fraction(-1)))
        order = MonomialOrder(OrderKind.SERIES_DEGLEX, TH, ("x", "y"), weights)
        raising = Element(((("x", "y"), Fraction(1)), (("x", "x", "y"), c)))
        series = RewritingSystem(TH, order, (Rule(("y", "x"), raising),))
        truncated = truncated_normal_form(series, WeightData(TH, weights), e, 6)
        assert truncated.representative and all_fractions(truncated.representative.terms)

        th = CommutativeTheory(("x", "y"))
        deglex = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        rules = (
            Rule((2, 0), Element((((0, 1), c),))),
            Rule((1, 1), Element((((1, 0), Fraction(scale)),))),
        )
        report = complete(RewritingSystem(th, deglex, rules))
        assert report.added
        for rule in report.system.rules + tuple(added.rule for added in report.added):
            assert all_fractions(rule.lower.terms)


def denominator_primes(terms) -> set:
    """The primes of the ``COPRIME_FRACTIONS`` denominators that divide the
    denominator of some coefficient."""
    return {q for q in (2, 3, 5, 7, 11) for _, c in terms if c.denominator % q == 0}


class TestIntegerReductionOverQQ:
    """Over QQ reduction runs integer numerators over one denominator, which
    a step multiplies up when its rule's denominator does not divide the
    numerator; checked against the full-rescan strategy, which adds
    ``Fraction`` values."""

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_coprime_denominators_match_reference(self, name):
        th = THEORIES[name]
        rng = random.Random("coprime-" + name)
        orders = [o for o in shipped_orders(th) if o.is_well_founded()]
        grown = 0
        for _ in range(30):
            order = orders[rng.randrange(len(orders))]
            s = make_random_system(th, order, rng, sample=COPRIME_FRACTIONS)
            for _ in range(3):
                e = random_element(th, order, rng, 4, max_terms=4, sample=COPRIME_FRACTIONS)
                want, want_trail = reference_reduce(s, dict(e.terms), 10**5)
                got, trail = normal_form_with_trail(s, e)
                assert got == Element.from_dict(want)
                assert trail == want_trail
                assert normal_form(s, e) == got
                assert reduce_once(s, e) == reference_reduce_once(s, e)
                budget_boundary_agrees(
                    lambda n: normal_form_with_trail(s, e, max_steps=n),
                    lambda n: reference_reduce(s, dict(e.terms), n),
                    len(trail),
                )
                # A denominator prime that the input lacks took a rescale.
                grown += bool(denominator_primes(got.terms) - denominator_primes(e.terms))
        assert grown >= 5

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_truncated_normal_form_over_fractional_rules(self, name):
        th = THEORIES[name]
        (order,) = [o for o in shipped_orders(th) if o.kind is OrderKind.SERIES_DEGLEX]
        wd = WeightData(th, order.weights)
        rng = random.Random("coprime-truncated-" + name)
        for _ in range(20):
            s = make_random_system(
                th, order, rng, lead_degree=2, lower_degree=4, sample=COPRIME_FRACTIONS
            )
            precision = rng.randint(3, 6)
            floor = Fraction(1 - precision)
            e = random_element(th, order, rng, 3, max_terms=4, sample=COPRIME_FRACTIONS)

            def keep(m):
                return wd.exponent(m) >= floor

            def reference(n):
                coeffs = {m: c for m, c in e.terms if keep(m)}
                return reference_reduce(s, coeffs, n, keep)

            want, want_trail = reference(10**5)
            got = truncated_normal_form(s, wd, e, precision)
            assert got.representative == Element.from_dict(want)
            budget_boundary_agrees(
                lambda n: truncated_normal_form(s, wd, e, precision, max_steps=n),
                reference,
                len(want_trail),
            )

    def test_trail_coefficient_is_read_before_the_rescale(self):
        """yxx -> 1/2 xyx + 1/3 xx: over D = 6 the numerators are 3 and 2.
        Rewriting xyx pops 3, and gcd(3, 6) = 3, so every value and D are
        doubled; the step removed 3/6 = 1/2, not 3/12."""
        s = parse_system_file("theory assoc; vars x y; rule y*x -> 1/2*x*y + 1/3*x").system
        e = parse_expression("y*x*x", s.theory, s.field)
        nf, trail = normal_form_with_trail(s, e)
        assert trail == (
            RewriteStep(0, ("y", "x", "x"), ((), ("x",)), Fraction(1)),
            RewriteStep(0, ("x", "y", "x"), (("x",), ()), Fraction(1, 2)),
        )
        assert nf == Element.from_dict(
            {("x", "x", "y"): Fraction(1, 4), ("x", "x"): Fraction(1, 2)}
        )
        middle, step = reduce_once(s, e)
        assert step == trail[0]
        assert reduce_once(s, middle) == reference_reduce_once(s, middle)
        assert reduce_once(s, middle)[1] == trail[1]

    @pytest.mark.parametrize("field", [QQ] + list(PRIME_FIELDS), ids=lambda f: f.describe())
    def test_raw_lower_numerators_over_their_lcm(self, field):
        """A raw lower part is int numerators over the lcm of its rule's
        denominators; over GF(p) that is 1, so no step there rescales."""
        rng = random.Random("raw-lowers-" + field.describe())
        sample = COPRIME_FRACTIONS if field == QQ else None
        for name, th in sorted(THEORIES.items()):
            for order in shipped_orders(th):
                s = make_random_system(th, order, rng, field=field, sample=sample)
                for (lower, d), rule in zip(s.raw_lowers, s.rules):
                    assert all(type(c) is int for _, c in lower)
                    if field == QQ:
                        dens = [c.denominator for _, c in rule.lower.terms]
                        assert d == math.lcm(*dens)
                        assert [Fraction(c, d) for _, c in lower] == [
                            c for _, c in rule.lower.terms
                        ]
                    else:
                        assert d == 1
                        assert [c for _, c in lower] == [c.value for _, c in rule.lower.terms]
