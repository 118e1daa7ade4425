"""Scalars, sparse elements and monomial orders."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diamondlemma import (
    CommutativeTheory,
    Element,
    Fp,
    FreeMonoidTheory,
    MonomialOrder,
    OrderError,
    OrderKind,
    PrimeField,
    RationalField,
    ScalarError,
    WeightData,
)

from oracles import THEORIES, merge_terms, reference_rank_encoding, reference_weight_sum

WORDS = st.tuples(*[st.sampled_from(("x", "y"))] * 2).map(tuple) | st.just(()) | st.tuples(
    st.sampled_from(("x", "y"))
)
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
TERMS = st.lists(st.tuples(WORDS, COEFFS), max_size=8)


def elem(*pairs) -> Element:
    return Element.from_dict({m: Fraction(c) for m, c in pairs})


def value_examples() -> list:
    th = FreeMonoidTheory(("x", "y"))
    return [
        Fp(3, 7),
        RationalField(),
        PrimeField(7),
        elem((("x",), 2)),
        MonomialOrder(OrderKind.DEGLEX, th, ("x", "y")),
        th,
        WeightData(th, (("x", Fraction(-1)), ("y", Fraction(2)))),
    ]


class TestValueTypes:
    """Value types compare, hash and print by their fields and are immutable."""

    @pytest.mark.parametrize("value", value_examples(), ids=lambda v: type(v).__name__)
    def test_fields_decide_repr_equality_and_hash(self, value):
        fields = tuple(getattr(value, name) for name in type(value)._fields)
        assert hash(value) == hash(fields)
        assert repr(value) == "%s(%s)" % (
            type(value).__name__,
            ", ".join("%s=%r" % pair for pair in zip(type(value)._fields, fields)),
        )
        assert value == type(value)(*fields)
        assert value.__eq__(fields) is NotImplemented
        assert value != fields

    @pytest.mark.parametrize("value", value_examples(), ids=lambda v: type(v).__name__)
    def test_attributes_cannot_change(self, value):
        for name in type(value)._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_other_classes_with_equal_fields_differ(self):
        assert FreeMonoidTheory(("x",)) != CommutativeTheory(("x",))
        assert Fp(value=3, p=7) == Fp(3, 7)


class TestRationalField:
    def test_units(self):
        f = RationalField()
        assert f.zero == Fraction(0)
        assert f.one == Fraction(1)
        assert f.coeff(3) == Fraction(3)
        assert f.coeff(Fraction(1, 2)) == Fraction(1, 2)
        assert f.describe() == "QQ"


class TestPrimeField:
    def test_accepts_prime(self):
        f = PrimeField(7)
        assert f.one == Fp(1, 7)
        assert f.coeff(9) == Fp(2, 7)
        assert f.coeff(-1) == Fp(6, 7)

    def test_coeff_of_a_residue(self):
        f = PrimeField(7)
        value = Fp(3, 7)
        assert f.coeff(value) is value
        with pytest.raises(ScalarError, match="mixed-field scalar arithmetic"):
            f.coeff(Fp(3, 5))

    def test_rejects_composite(self):
        with pytest.raises(ScalarError):
            PrimeField(4)

    def test_rejects_unit(self):
        with pytest.raises(ScalarError):
            PrimeField(1)

    def test_rejects_oversized(self):
        with pytest.raises(ScalarError):
            PrimeField(2**63 + 9)

    def test_large_prime_ok(self):
        PrimeField((1 << 61) - 1)

    @pytest.mark.parametrize("n", [2501, 3215031751])
    def test_miller_rabin_rejects_composites_without_small_factors(self, n):
        # 2501 = 41 * 61; 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7.
        with pytest.raises(ScalarError, match="field characteristic %d is not prime" % n):
            PrimeField(n)

    @pytest.mark.parametrize("p", [998244353, 9223372036854775783])
    def test_miller_rabin_accepts_primes(self, p):
        assert PrimeField(p).p == p

    @given(st.integers(0, 6), st.integers(0, 6))
    def test_arithmetic_matches_int_mod(self, a, b):
        p = 7
        x, y = Fp(a, p), Fp(b, p)
        assert (x + y).value == (a + b) % p
        assert (x - y).value == (a - b) % p
        assert (x * y).value == (a * b) % p
        assert (-x).value == (-a) % p
        if b % p:
            assert ((x / y) * y).value == a % p
        else:
            with pytest.raises(ZeroDivisionError):
                x / y

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ScalarError):
            Fp(1, 7) + Fp(1, 5)

    def test_truthiness(self):
        assert not Fp(0, 7)
        assert Fp(3, 7)


class TestElement:
    def test_from_dict_purges_zeros(self):
        e = Element.from_dict({("x",): Fraction(0), ("y",): Fraction(2)})
        assert e.terms == ((("y",), Fraction(2)),)

    def test_zero(self):
        assert Element.zero().is_zero()
        assert not Element.zero()

    def test_support_is_deterministic(self):
        e = elem((("y",), 1), (("x",), 1))
        assert e.support() == (("x",), ("y",))

    @given(TERMS, TERMS)
    def test_add_matches_merge_oracle(self, a, b):
        ea, eb = Element.from_dict(dict(merge_terms(a))), Element.from_dict(dict(merge_terms(b)))
        assert (ea + eb).terms == merge_terms(list(ea.terms) + list(eb.terms))

    @given(TERMS, TERMS)
    def test_sub_is_add_of_negation(self, a, b):
        ea, eb = Element.from_dict(dict(merge_terms(a))), Element.from_dict(dict(merge_terms(b)))
        assert ea - eb == ea + (-eb)

    @given(TERMS)
    def test_add_negation_is_zero(self, a):
        e = Element.from_dict(dict(merge_terms(a)))
        assert (e - e).is_zero()

    @given(TERMS, COEFFS)
    def test_scaled_matches_oracle(self, a, c):
        e = Element.from_dict(dict(merge_terms(a)))
        assert e.scaled(c).terms == merge_terms([(m, k * c) for m, k in e.terms])

    def test_scaled_by_zero(self):
        assert elem((("x",), 1)).scaled(Fraction(0)).is_zero()


class TestMonomialOrder:
    def setup_method(self):
        self.th = FreeMonoidTheory(("x", "y"))

    def test_deglex_degree_dominates(self):
        o = MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"))
        assert o.sort_key(("x", "y")) > o.sort_key(("x",))

    def test_deglex_rank_breaks_ties(self):
        # Generators ascend, so y beats x at the first differing slot.
        o = MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"))
        assert o.sort_key(("x", "y")) > o.sort_key(("x", "x"))
        assert o.sort_key(("x", "y")) == o.sort_key(("x", "y"))

    def test_generator_list_must_match(self):
        with pytest.raises(OrderError):
            MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "z"))

    def test_lex_needs_commutative(self):
        with pytest.raises(OrderError):
            MonomialOrder(OrderKind.LEX, self.th, ("x", "y"))

    def test_weights_only_for_weighted_kinds(self):
        with pytest.raises(OrderError):
            MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"), ((("x"), Fraction(1)), ("y", Fraction(1))))

    def test_weighted_deglex_requires_positive_weights(self):
        with pytest.raises(OrderError):
            MonomialOrder(
                OrderKind.WEIGHTED_DEGLEX,
                self.th,
                ("x", "y"),
                (("x", Fraction(-1)), ("y", Fraction(1))),
            )

    def test_weight_vector_must_cover_generators(self):
        with pytest.raises(OrderError):
            MonomialOrder(OrderKind.SERIES_DEGLEX, self.th, ("x", "y"), (("x", Fraction(-1)),))

    def test_series_negative_weight_reverses_powers(self):
        th = FreeMonoidTheory(("x",))
        o = MonomialOrder(
            OrderKind.SERIES_DEGLEX, th, ("x",), (("x", Fraction(-1)),)
        )
        assert o.sort_key(("x", "x")) > o.sort_key(("x", "x", "x"))
        assert not o.is_well_founded()

    def test_shipped_kinds_well_founded(self):
        o = MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"))
        assert o.is_well_founded()

    @given(st.lists(st.sampled_from(("x", "y")), max_size=4).map(tuple),
           st.lists(st.sampled_from(("x", "y")), max_size=4).map(tuple))
    def test_compare_antisymmetric_total(self, a, b):
        o = MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"))
        ka, kb = o.sort_key(a), o.sort_key(b)
        assert (ka < kb) + (ka == kb) + (ka > kb) == 1
        assert (ka == kb) == (a == b)


# Weights of both signs whose common denominator is 6.
MIXED_WEIGHTS = (Fraction(1, 2), Fraction(-1, 3), Fraction(3))


class TestIntegerWeights:
    """Weight sums run on weights scaled to ints; exponents and weighted
    orders must agree with the ``Fraction`` sums of ``oracles``."""

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_exponent_and_weighted_orders_match_fraction_sums(self, name):
        th = THEORIES[name]
        gens = tuple(th.generator_names())
        weights = tuple((g, MIXED_WEIGHTS[i % 3]) for i, g in enumerate(gens))
        monomials = [m for d in range(4) for m in th.monomials_of_degree(d)]
        wd = WeightData(th, weights)
        for m in monomials:
            exponent = wd.exponent(m)
            assert type(exponent) is Fraction
            assert exponent == reference_weight_sum(th, weights, m)
        positive = tuple((g, abs(w)) for g, w in weights)
        for order in (
            MonomialOrder(OrderKind.SERIES_DEGLEX, th, gens, weights),
            MonomialOrder(OrderKind.WEIGHTED_DEGLEX, th, gens, positive),
        ):

            def reference_key(m):
                return (
                    reference_weight_sum(th, order.weights, m),
                    th.degree(m),
                    reference_rank_encoding(th, order, m),
                )

            assert sorted(monomials, key=order.sort_key) == sorted(monomials, key=reference_key)

