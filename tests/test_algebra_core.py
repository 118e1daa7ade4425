"""Scalars, sparse elements and monomial orders."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diamondlemma import (
    CommutativeTheory,
    ConfluenceStatus,
    ConfluenceVerdict,
    Element,
    Fp,
    FreeMonoidTheory,
    MonomialOrder,
    OrderError,
    OrderKind,
    PrimeField,
    RationalField,
    Rule,
    ScalarError,
    WeightData,
    check_confluence,
    check_equicontinuity,
    check_tdcc,
    complete,
    irr_description,
    parse_expression,
    parse_system_file,
    truncated_normal_form,
)
from diamondlemma.algebra_core import _Value

from oracles import (
    THEORIES,
    merge_terms,
    monomials_of_degree,
    reference_rank_encoding,
    reference_weight_sum,
)

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


# One system per theory whose check finds a witness and whose completion
# adds rules, with weights for a truncated normal form.
RUN_SYSTEMS = (
    "theory assoc; vars x y; weights x:1 y:2; rule y*x -> x*y + x; rule y*y -> x",
    "theory commutative; vars x y; weights x:1 y:1; rule x^2 -> y; rule x*y -> 1",
    "theory mixed; cvars t; vars x y; weights t:1 x:1 y:1; rule y*x -> x*y + t; rule t*x*x -> y",
    "theory magma; vars x y; weights x:1 y:1; rule ((x*x)*x) -> y; rule (x*x) -> x",
    "theory path; vertices 1 2; arrow a: 1 -> 2; arrow b: 2 -> 1; weights a:1 b:1; "
    "rule a*b -> e1; rule b*a*b -> 2*b",
)


def run_values() -> list:
    """Every value reachable from one parse, check_confluence, complete,
    truncated_normal_form and irr_description run per theory, plus the
    admission reports and overlaps that the runs use."""
    roots = []
    for text in RUN_SYSTEMS:
        sf = parse_system_file(text)
        s, weights = sf.system, sf.weight_data
        lead = s.rules[0].lead
        roots += [sf, check_confluence(s), complete(s, 6, 20), irr_description(s)]
        roots += [check_equicontinuity(s, weights), check_tdcc(s.order, weights)]
        roots += [s.theory.overlaps(lead, lead)]
        element = parse_expression(s.theory.serialize(lead), s.theory, s.field)
        roots.append(truncated_normal_form(s, weights, element, 3))
    found: dict = {}

    def visit(value) -> None:
        if isinstance(value, _Value):
            if id(value) not in found:
                found[id(value)] = value
                for field in value._values(value):
                    visit(field)
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit(item)

    visit(roots)
    return list(found.values())


class TestValueConstructor:
    """``_Value(*values, **named)`` stores the fields by position or by name."""

    def test_run_values_rebuild_by_position_and_by_name(self):
        values = run_values()
        for value in values:
            fields = value._values(value)
            assert type(value)(*fields) == value
            assert type(value)(**dict(zip(value._fields, fields))) == value
        names = {type(value).__name__ for value in values}
        assert names >= {
            "CommutativeTheory", "FreeMagmaTheory", "Rule", "RewriteStep",
            "ForbiddenFactorSet", "Ambiguity", "ResolutionCertificate", "ConfluenceVerdict",
            "AddedRule", "CompletionReport", "EquicontinuityReport", "TdccReport",
            "SeriesNormalForm", "SystemFile",
        }

    def test_defaults_fill_left_out_fields(self):
        verdict = ConfluenceVerdict(ConfluenceStatus.CONFLUENT, 3)
        assert verdict == ConfluenceVerdict(ConfluenceStatus.CONFLUENT, 3, None, None)
        assert verdict.witness is None and verdict.stopped_at is None

    @pytest.mark.parametrize(
        "values, named",
        [
            (((),), {}),  # missing
            (((), Element(())), {"weight": 1}),  # unknown
            (((), Element(())), {"lead": ()}),  # repeated
            (((), Element(()), 1), {}),  # extra
        ],
        ids=["missing", "unknown", "repeated", "extra"],
    )
    def test_wrong_fields_raise_type_error(self, values, named):
        with pytest.raises(TypeError, match=r"Rule takes the fields \(lead, lower\)"):
            Rule(*values, **named)

    def test_built_values_cannot_change(self):
        rule = Rule(lower=Element(()), lead=())
        with pytest.raises(AttributeError):
            rule.lead = ("x",)
        with pytest.raises(AttributeError):
            rule.cache = None

    def test_constructor_builds_no_closure_cell(self):
        """Every generic build, the fast path's included, would pay for a
        cell that the merge of names and defaults reads."""
        assert _Value.__init__.__code__.co_cellvars == ()


class TestRationalField:
    def test_units(self):
        f = RationalField()
        assert f.zero == Fraction(0)
        assert f.one == Fraction(1)
        assert f.coeff(3) == Fraction(3)
        assert f.coeff(Fraction(1, 2)) == Fraction(1, 2)
        assert f.describe() == "QQ"

    @given(st.lists(st.fractions(max_denominator=50).filter(bool), max_size=6))
    def test_raw_values_are_numerators_over_the_lcm(self, values):
        f = RationalField()
        coeffs = dict(enumerate(values))
        den = f.into_raw(coeffs)
        assert den == math.lcm(*(c.denominator for c in values))
        for r, c in zip(coeffs.values(), values):
            assert type(r) is int and Fraction(r, den) == c
        assert f.from_raw(coeffs, den) == dict(enumerate(values))
        assert all(type(c) is Fraction for c in coeffs.values())


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
        monomials = [m for d in range(4) for m in monomials_of_degree(th, d)]
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

