"""Weighted norms and precision-truncated reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diamondlemma import (
    DiamondError,
    Element,
    FreeMonoidTheory,
    MonomialOrder,
    OrderKind,
    RewritingSystem,
    Rule,
    SeriesAdmissionError,
    TheoryMismatchError,
    WeightData,
    check_equicontinuity,
    check_tdcc,
    norm,
    normal_form,
    parse_expression,
    parse_system_file,
    truncated_normal_form,
)

from oracles import THEORIES, make_random_system

TH1 = FreeMonoidTheory(("x",))
W1 = WeightData(TH1, (("x", -1),))
SERIES1 = MonomialOrder(OrderKind.SERIES_DEGLEX, TH1, ("x",), (("x", Fraction(-1)),))
DEGLEX1 = MonomialOrder(OrderKind.DEGLEX, TH1, ("x",))


def x_to(k: int):
    return ("x",) * k


def elem1(*pairs) -> Element:
    return Element.from_dict({x_to(k): Fraction(c) for k, c in pairs})


def geometric() -> RewritingSystem:
    # x -> x^2, only sensible under the series order.
    return RewritingSystem(TH1, SERIES1, (Rule(x_to(1), elem1((2, 1))),))


class TestWeightData:
    def test_values_become_fractions(self):
        wd = WeightData(TH1, (("x", -1),))
        assert dict(wd.weights)["x"] == Fraction(-1)
        assert isinstance(dict(wd.weights)["x"], Fraction)

    def test_must_cover_generators(self):
        th = FreeMonoidTheory(("x", "y"))
        with pytest.raises(DiamondError):
            WeightData(th, (("x", -1),))
        with pytest.raises(DiamondError):
            WeightData(TH1, (("x", -1), ("y", 1)))

    def test_exponent_sums_letter_weights(self):
        assert W1.exponent(x_to(3)) == Fraction(-3)
        assert W1.exponent(()) == Fraction(0)


class TestNorm:
    def test_max_over_support(self):
        assert norm(elem1((1, 1), (4, 1)), W1) == Fraction(-1)

    def test_single_monomial(self):
        assert norm(elem1((3, 5)), W1) == Fraction(-3)

    def test_zero_is_minus_infinity(self):
        assert norm(Element.zero(), W1) == float("-inf")

    @given(st.lists(st.tuples(st.integers(0, 6), st.fractions(min_value=-3, max_value=3, max_denominator=2)), max_size=5))
    def test_ultrametric_triangle(self, pairs):
        a = Element.from_dict({})
        for k, c in pairs:
            a = a + elem1((k, c))
        b = elem1((2, 1), (0, 3))
        assert norm(a + b, W1) <= max(norm(a, W1), norm(b, W1))


class TestEquicontinuity:
    def test_weight_raising_rule_admitted(self):
        report = check_equicontinuity(geometric(), W1)
        assert report.admitted
        assert report.failures == ()

    def test_weight_lowering_rule_rejected(self):
        # x^2 -> x can only be written under deglex; the norm then objects.
        s = RewritingSystem(TH1, DEGLEX1, (Rule(x_to(2), elem1((1, 1))),))
        report = check_equicontinuity(s, W1)
        assert not report.admitted
        assert report.failures == ((0, Fraction(-1), Fraction(-2)),)

    def test_empty_system_admitted(self):
        s = RewritingSystem(TH1, SERIES1, ())
        assert check_equicontinuity(s, W1).admitted

    def test_zero_lower_always_admitted(self):
        s = RewritingSystem(TH1, DEGLEX1, (Rule(x_to(2), Element.zero()),))
        assert check_equicontinuity(s, W1).admitted


class TestTdcc:
    def test_series_order_with_matching_weights(self):
        report = check_tdcc(SERIES1, W1)
        assert report.certified
        assert "agree" in report.reason

    def test_series_order_with_different_weights(self):
        other = WeightData(TH1, (("x", -2),))
        report = check_tdcc(SERIES1, other)
        assert not report.certified

    def test_well_founded_kinds_certified(self):
        assert check_tdcc(DEGLEX1, W1).certified


def truncate_below(element: Element, wd: WeightData, n: int) -> Element:
    """Drop the monomials a precision-n reduction is allowed to forget."""
    kept = {m: c for m, c in element.terms if wd.exponent(m) >= Fraction(1 - n)}
    return Element.from_dict(kept)


class TestTruncatedNormalForm:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_geometric_series_collapses_to_zero(self, n):
        got = truncated_normal_form(geometric(), W1, elem1((1, 1)), n)
        assert got.representative.is_zero()
        assert got.precision == n
        assert got.truncated

    @pytest.mark.parametrize("bad", [0, -1, "3", 1.5, True])
    def test_rejects_bad_precision(self, bad):
        # Neither coerced nor truncated: "3", 1.5 and True are not precisions.
        with pytest.raises(DiamondError):
            truncated_normal_form(geometric(), W1, elem1((1, 1)), bad)

    def test_irreducible_constant_untouched(self):
        got = truncated_normal_form(geometric(), W1, elem1((0, 1)), 3)
        assert got.representative == elem1((0, 1))
        assert not got.truncated

    def test_input_below_precision_truncates_immediately(self):
        got = truncated_normal_form(geometric(), W1, elem1((6, 1)), 3)
        assert got.representative.is_zero()
        assert got.truncated

    def test_tail_survives_at_higher_precision(self):
        # x^2 -> x^3 pushes weight down one step at a time.
        s = RewritingSystem(TH1, SERIES1, (Rule(x_to(2), elem1((3, 1))),))
        low = truncated_normal_form(s, W1, elem1((1, 1), (2, 1)), 2)
        assert low.representative == elem1((1, 1))
        assert low.truncated
        high = truncated_normal_form(s, W1, elem1((1, 1), (2, 1)), 4)
        assert high.representative == elem1((1, 1))
        assert high.truncated

    def test_rejected_system_raises(self):
        s = RewritingSystem(TH1, DEGLEX1, (Rule(x_to(2), elem1((1, 1))),))
        with pytest.raises(SeriesAdmissionError):
            truncated_normal_form(s, W1, elem1((2, 1)), 3)

    def test_order_weights_unlike_the_norm_weights_refused(self):
        # Admitted under x:-2, but the order descends by x:-1.
        other = WeightData(TH1, (("x", -2),))
        assert check_equicontinuity(geometric(), other).admitted
        with pytest.raises(SeriesAdmissionError) as info:
            truncated_normal_form(geometric(), other, elem1((1, 1)), 3)
        assert str(info.value) == (
            "descending chains not certified: order weights differ from the norm weights"
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_precision_coherent_representatives(self, n):
        th = FreeMonoidTheory(("x", "y"))
        wd = WeightData(th, (("x", -1), ("y", -2)))
        order = MonomialOrder(
            OrderKind.SERIES_DEGLEX, th, ("x", "y"), (("x", Fraction(-1)), ("y", Fraction(-2)))
        )
        # x -> y + yy walks weight down; finer precision refines, never
        # contradicts, coarser output.
        s = RewritingSystem(
            th,
            order,
            (Rule(("x",), Element.from_dict({("y",): Fraction(1), ("y", "y"): Fraction(1)})),),
        )
        e = Element.from_dict({("x",): Fraction(1), ("x", "x"): Fraction(2)})
        fine = truncated_normal_form(s, wd, e, 8)
        coarse = truncated_normal_form(s, wd, e, n)
        assert truncate_below(fine.representative, wd, n) == coarse.representative

    @given(st.lists(st.tuples(st.integers(0, 5), st.fractions(min_value=-3, max_value=3, max_denominator=2)), max_size=4),
           st.integers(1, 6))
    @settings(max_examples=60)
    def test_norm_never_increases(self, pairs, n):
        e = Element.from_dict({})
        for k, c in pairs:
            e = e + elem1((k, c))
        got = truncated_normal_form(geometric(), W1, e, n)
        assert norm(got.representative, W1) <= max(norm(e, W1), float("-inf"))

    def test_positive_weights_match_plain_normal_form(self):
        th = FreeMonoidTheory(("x", "y"))
        wd = WeightData(th, (("x", 1), ("y", 1)))
        order = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y"))
        weyl = RewritingSystem(
            th,
            order,
            (Rule(("y", "x"), Element.from_dict({("x", "y"): Fraction(1), (): Fraction(1)})),),
        )
        e = Element.from_dict({("y", "x", "x"): Fraction(1)})
        got = truncated_normal_form(weyl, wd, e, 3)
        assert got.representative == normal_form(weyl, e)
        assert not got.truncated


class TestForeignWeights:
    """Weights of another theory are refused by name, not lost in a KeyError
    from the weight sum."""

    def test_both_theories_are_named(self):
        s = parse_system_file(
            "theory assoc; vars x y; weights x:-1 y:-1; order series x<y; "
            "rule y*x -> x*y + x^2*y"
        ).system
        wd = WeightData(FreeMonoidTheory(("a", "b")), (("a", -1), ("b", -1)))
        message = "weights of assoc(a,b) do not belong to the system's theory assoc(x,y)"
        with pytest.raises(TheoryMismatchError) as info:
            check_equicontinuity(s, wd)
        assert str(info.value) == message
        e = parse_expression("y*x", s.theory, s.field)
        with pytest.raises(TheoryMismatchError) as info:
            truncated_normal_form(s, wd, e, 3)
        assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_series_rules_are_equicontinuous(name):
    """A rule's lower part lies below its lead under a series order, whose
    key leads with the weight sum, so no lower part outweighs its lead under
    the order's weights: a system that builds is admitted."""
    th = THEORIES[name]
    rng = random.Random("series-equicontinuity-" + name)
    gens = list(th.generator_names())
    rules = 0
    for _ in range(60):
        rng.shuffle(gens)
        weights = tuple((g, Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for g in gens)
        order = MonomialOrder(OrderKind.SERIES_DEGLEX, th, tuple(gens), weights)
        system = make_random_system(th, order, rng)
        assert check_equicontinuity(system, WeightData(th, order.weights)).admitted
        rules += len(system.rules)
    assert rules > 100
