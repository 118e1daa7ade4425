"""Monomial theories: words, power products, mixed, trees, paths."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diamondlemma import (
    CommutativeTheory,
    DiamondError,
    Element,
    FreeMagmaTheory,
    FreeMonoidTheory,
    MixedTheory,
    MonomialOrder,
    OrderKind,
    OverlapKind,
    PathAlgebraTheory,
    RewritingSystem,
    TheoryMismatchError,
    is_irreducible_monomial,
    normal_form,
    orient,
)

from oracles import (
    THEORIES,
    exp_divides,
    lead_index,
    magma_occurrences,
    merge_terms,
    monomials_of_degree,
    multiply_elements,
    reference_apply_context,
    reference_magma_divisions,
    reference_magma_overlaps,
    reference_mixed_overlaps,
    reference_path_divisions,
    reference_path_overlaps,
    reference_power_product_overlaps,
    reference_word_overlaps,
    shipped_orders,
    visits,
    word_divisions,
)

WORD = st.lists(st.sampled_from(("a", "b")), max_size=5).map(tuple)
PATHS = PathAlgebraTheory(("1", "2"), (("a", "1", "2"),))


def contexts_reproduce(theory, m1, m2):
    """Both contexts of every overlap must rebuild the superposition."""
    for sup, ctx1, ctx2, _, _ in theory.overlaps(m1, m2):
        assert theory.apply_context(ctx1, m1) == sup
        assert theory.apply_context(ctx2, m2) == sup


class TestFreeMonoid:
    def setup_method(self):
        self.th = FreeMonoidTheory(("x", "y"))

    def test_word_builder(self):
        assert self.th.word("x", "y", "x") == ("x", "y", "x")
        with pytest.raises(TheoryMismatchError):
            self.th.word("x", "z")

    def test_one_and_multiply(self):
        assert self.th.one() == ()
        assert self.th.multiply(("x",), ("y", "x")) == ("x", "y", "x")

    def test_degree_and_serialize(self):
        assert self.th.degree(("x", "x", "y")) == 3
        assert self.th.serialize(("x", "x", "y")) == "x^2*y"
        assert self.th.serialize(()) == "1"

    def test_divisions_example(self):
        got = self.th.divisions(("x", "y", "x"), ("x",))
        assert got == [((), ("y", "x")), (("x", "y"), ())]

    @given(WORD, st.lists(st.sampled_from(("a", "b")), min_size=1, max_size=3).map(tuple))
    def test_divisions_match_string_oracle(self, hay, needle):
        th = FreeMonoidTheory(("a", "b"))
        assert th.divisions(hay, needle) == word_divisions(hay, needle)

    def test_overlap_superpositions(self):
        th = FreeMonoidTheory(("a", "b"))
        sups = {sup for sup, _, _, _, _ in th.overlaps(("a", "b"), ("b", "a"))}
        assert sups == {("a", "b", "a"), ("b", "a", "b")}

    def test_self_overlap(self):
        data = self.th.overlaps(("x", "x"), ("x", "x"))
        kinds = [(kind, sup) for sup, _, _, kind, _ in data]
        assert (OverlapKind.INCLUSION, ("x", "x")) in kinds
        assert (OverlapKind.OVERLAP, ("x", "x", "x")) in kinds
        assert len(data) == 2

    def test_disjoint_leads_no_overlap(self):
        assert self.th.overlaps(("x", "x"), ("y", "y")) == []

    @given(WORD, WORD)
    def test_overlap_contexts_reproduce(self, m1, m2):
        contexts_reproduce(FreeMonoidTheory(("a", "b")), m1, m2)

    def test_monomials_of_degree(self):
        assert sum(1 for _ in monomials_of_degree(self.th, 3)) == 8
        assert list(monomials_of_degree(self.th, 0)) == [()]


class TestCommutative:
    def setup_method(self):
        self.th = CommutativeTheory(("x", "y"))

    def test_monomial_builder(self):
        assert self.th.monomial(x=2, y=1) == (2, 1)
        with pytest.raises(TheoryMismatchError):
            self.th.monomial(z=1)

    def test_divisions(self):
        assert self.th.divisions((2, 1), (1, 2)) == []
        assert self.th.divisions((2, 1), (1, 1)) == [(1, 0)]

    @given(st.tuples(st.integers(0, 4), st.integers(0, 4)),
           st.tuples(st.integers(0, 4), st.integers(0, 4)))
    def test_divisions_match_exponent_oracle(self, mu, nu):
        got = self.th.divisions(mu, nu)
        assert bool(got) == exp_divides(nu, mu)
        if got:
            assert self.th.apply_context(got[0], nu) == mu

    def test_coprime_pair_has_no_overlap(self):
        assert self.th.overlaps((2, 0), (0, 3)) == []

    def test_shared_variable_overlap(self):
        ((sup, _, _, kind, _),) = self.th.overlaps((2, 0), (1, 1))
        assert sup == (2, 1)
        assert kind is OverlapKind.OVERLAP

    def test_inclusion_detection(self):
        ((sup, _, _, kind, inner),) = self.th.overlaps((2, 0), (1, 0))
        assert kind is OverlapKind.INCLUSION
        assert inner == 2
        assert sup == (2, 0)

    def test_lcm_superposition(self):
        ((sup, ctx1, ctx2, kind, _),) = self.th.overlaps((2, 1), (1, 3))
        assert sup == (2, 3)
        assert kind is OverlapKind.OVERLAP
        assert self.th.apply_context(ctx1, (2, 1)) == (2, 3)
        assert self.th.apply_context(ctx2, (1, 3)) == (2, 3)

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_overlap_contexts_reproduce(self, m1, m2):
        contexts_reproduce(self.th, m1, m2)

    def test_monomials_of_degree(self):
        th3 = CommutativeTheory(("x", "y", "z"))
        # Degree-d monomials in 3 variables number (d+1)(d+2)/2.
        assert sum(1 for _ in monomials_of_degree(th3, 4)) == 15

    def test_serialize(self):
        assert self.th.serialize((2, 1)) == "x^2*y"
        assert self.th.serialize((0, 0)) == "1"


class TestPairCriteria:
    """The Gebauer-Moller pair update owned by the commutative theory."""

    def setup_method(self):
        self.th = CommutativeTheory(("x", "y", "z"))

    def test_chain_criterion(self):
        # lcm(x*y, y*z) = x*y*z; y divides it, and both chained lcms x*y and
        # y*z are proper divisors.
        assert self.th.chain_criterion((0, 1, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1))
        # Through x*z the chained lcm(x*y, x*z) is the superposition itself.
        assert not self.th.chain_criterion((1, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1))
        # The lead must divide the superposition.
        assert not self.th.chain_criterion((0, 2, 0), (1, 1, 0), (0, 1, 1), (1, 1, 1))

    def test_m_drops_pairs_with_a_properly_divided_lcm(self):
        # New x*z: lcm with y^2*z is x*y^2*z, properly divided by x*y*z.
        leads = [(2, 0, 0), (1, 1, 0), (0, 2, 1), (0, 0, 3), (1, 0, 1)]
        partners, filtered, active = self.th.pair_update(leads, [0, 1, 2, 3], 4)
        assert partners == [0, 1, 3]
        assert filtered == 1
        assert active == [0, 1, 2, 3, 4]

    def test_f_keeps_the_lowest_rule_per_lcm(self):
        # New x*y: both x and y give the lcm x*y.
        partners, filtered, _ = self.th.pair_update([(1, 0, 0), (0, 1, 0), (1, 1, 0)], [0, 1], 2)
        assert (partners, filtered) == ([0], 1)

    def test_coprime_pair_clears_its_lcm_and_divided_leads_retire(self):
        # New y: x is coprime to it and x*y shares the lcm x*y, so neither
        # pair is queued; only the x*y pair counts as filtered. y divides x*y,
        # which leaves the active set.
        partners, filtered, active = self.th.pair_update(
            [(1, 0, 0), (1, 1, 0), (0, 1, 0)], [0, 1], 2
        )
        assert (partners, filtered, active) == ([], 1, [0, 2])

    def test_inactive_rules_get_no_pairs(self):
        partners, _, _ = self.th.pair_update([(2, 0, 0), (1, 0, 0), (1, 1, 0)], [1], 2)
        assert partners == [1]

    @pytest.mark.parametrize(
        "th, leads",
        [
            (FreeMonoidTheory(("x", "y")), [("x",), ("x", "y"), ("y",)]),
            (MixedTheory(("t",), ("x",)), [((1,), ()), ((1,), ("x",)), ((0,), ("x",))]),
            (FreeMagmaTheory(("x",)), ["x", ("x", "x"), (("x", "x"), "x")]),
        ],
    )
    def test_other_theories_pair_with_every_rule(self, th, leads):
        assert th.pair_update(leads, [0, 1], 2) == ([0, 1, 2], 0, [0, 1, 2])
        assert not th.chain_criterion(leads[0], leads[1], leads[2], leads[1])


class TestMixed:
    def setup_method(self):
        self.th = MixedTheory(("a",), ("x", "y"))

    def test_monomial_builder(self):
        assert self.th.monomial(("x", "y"), a=2) == ((2,), ("x", "y"))
        assert self.th.one() == ((0,), ())

    def test_multiply_keeps_central_and_word_parts(self):
        m = self.th.multiply(((1,), ("x",)), ((2,), ("y",)))
        assert m == ((3,), ("x", "y"))

    def test_divisions_need_both_parts(self):
        mu = ((2,), ("x", "y", "x"))
        nu = ((1,), ("x",))
        got = self.th.divisions(mu, nu)
        assert got == [((1,), (), ("y", "x")), ((1,), ("x", "y"), ())]
        assert self.th.divisions(((0,), ("x",)), ((1,), ("x",))) == []

    def test_word_overlap_carries_central_lcm(self):
        data = self.th.overlaps(((1,), ("x", "y")), ((0,), ("y", "x")))
        sups = {sup for sup, _, _, _, _ in data}
        assert ((1,), ("x", "y", "x")) in sups

    def test_shared_central_adjacency(self):
        # Both placements of the two words are superpositions when the
        # central parts share a variable.
        data = self.th.overlaps(((1,), ("x",)), ((1,), ("y",)))
        sups = {sup for sup, _, _, _, _ in data}
        assert ((1,), ("x", "y")) in sups
        assert ((1,), ("y", "x")) in sups

    def test_coprime_disjoint_words_no_overlap(self):
        th = MixedTheory(("a", "b"), ("x", "y"))
        assert th.overlaps(((1, 0), ("x",)), ((0, 1), ("y",))) == []

    def test_purely_central_word_inclusion_needs_shared_variable(self):
        # Lead a*x includes lead a only through the shared central a.
        data = self.th.overlaps(((1,), ("x",)), ((1,), ()))
        assert any(kind is OverlapKind.INCLUSION for _, _, _, kind, _ in data)
        assert self.th.overlaps(((0,), ("x",)), ((1,), ())) == []

    @given(
        st.tuples(st.tuples(st.integers(0, 2)), st.lists(st.sampled_from(("x", "y")), max_size=3).map(tuple)),
        st.tuples(st.tuples(st.integers(0, 2)), st.lists(st.sampled_from(("x", "y")), max_size=3).map(tuple)),
    )
    def test_overlap_contexts_reproduce(self, m1, m2):
        contexts_reproduce(self.th, m1, m2)

    def test_monomials_of_degree(self):
        # Degree 2 with one central variable and two letters: a^2, a*x, a*y
        # and the four two-letter words.
        assert sum(1 for _ in monomials_of_degree(self.th, 2)) == 7

    def test_serialize(self):
        assert self.th.serialize(((2,), ("x", "x", "y"))) == "a^2*x^2*y"


class TestFreeMagma:
    def setup_method(self):
        self.th = FreeMagmaTheory(("x", "y"))

    def test_builders(self):
        x = self.th.leaf("x")
        assert x == "x"
        assert self.th.node(x, x) == ("x", "x")
        assert self.th.multiply(x, ("x", "y")) == ("x", ("x", "y"))

    def test_no_unit(self):
        from diamondlemma import DiamondError

        with pytest.raises(DiamondError):
            self.th.one()

    def test_degree_counts_leaves(self):
        assert self.th.degree((("x", "y"), "x")) == 3

    def test_divisions_find_each_subtree(self):
        tree = (("x", "x"), ("x", "x"))
        got = self.th.divisions(tree, ("x", "x"))
        assert len(got) == magma_occurrences(tree, ("x", "x"))
        for ctx in got:
            assert self.th.apply_context(ctx, ("x", "x")) == tree

    def test_no_proper_self_overlap(self):
        # A tree cannot properly overlap itself; only the identity inclusion.
        data = self.th.overlaps(("x", "x"), ("x", "x"))
        assert len(data) == 1
        ((_, _, _, kind, _),) = data
        assert kind is OverlapKind.INCLUSION

    def test_nested_inclusion(self):
        outer = (("x", "x"), "y")
        data = self.th.overlaps(outer, ("x", "x"))
        assert [kind for _, _, _, kind, _ in data] == [OverlapKind.INCLUSION]
        assert data[0][0] == outer

    def test_monomials_of_degree_catalan(self):
        # Trees with d leaves over k letters number Catalan(d-1) * k^d.
        counts = [sum(1 for _ in monomials_of_degree(self.th, d)) for d in range(1, 5)]
        assert counts == [2, 4, 16, 80]

    def test_serialize(self):
        assert self.th.serialize((("x", "y"), "x")) == "((x*y)*x)"

    def test_deep_trees_count_and_serialize(self):
        """Degree and serialize walk a tree 3,000 levels deep."""
        tree = "x"
        for _ in range(3000):
            tree = (tree, "y")
        assert self.th.degree(tree) == 3001
        assert self.th.serialize(tree) == "(" * 3000 + "x" + "*y)" * 3000


class TestPathAlgebra:
    def setup_method(self):
        self.th = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))

    def test_path_builder(self):
        assert self.th.path("a", "b") == ("1", "1", ("a", "b"))
        with pytest.raises(TheoryMismatchError):
            self.th.path("a", "a")
        assert self.th.vertex_path("1") == ("1", "1", ())

    def test_multiply_vanishes_on_endpoint_mismatch(self):
        a = self.th.path("a")
        assert self.th.multiply(a, a) is None
        assert self.th.multiply(a, self.th.path("b")) == ("1", "1", ("a", "b"))
        assert self.th.multiply(self.th.vertex_path("1"), a) == a

    def test_divisions_respect_endpoints(self):
        abab = self.th.path("a", "b", "a", "b")
        got = self.th.divisions(abab, self.th.path("a", "b"))
        assert len(got) == 2
        for left, right in got:
            assert self.th.apply_context((left, right), self.th.path("a", "b")) == abab
        # The arrow sequence must also match the inner path's endpoints.
        assert self.th.divisions(abab, ("2", "2", ("b", "a"))) == [
            (("1", "2", ("a",)), ("2", "1", ("b",)))
        ]

    def test_overlap_at_seam(self):
        ab = self.th.path("a", "b")
        ba = self.th.path("b", "a")
        sups = {sup for sup, _, _, _, _ in self.th.overlaps(ab, ba)}
        assert self.th.path("a", "b", "a") in sups

    def test_visits(self):
        assert visits(self.th, self.th.path("a", "b")) == ["1", "2", "1"]

    def test_uniform_equivalent(self):
        uniform_class = self.th.uniform_class
        assert uniform_class(self.th.path("a", "b")) == uniform_class(self.th.vertex_path("1"))
        assert uniform_class(self.th.path("a")) != uniform_class(self.th.vertex_path("1"))

    def test_monomials_of_degree(self):
        assert set(monomials_of_degree(self.th, 0)) == {("1", "1", ()), ("2", "2", ())}
        assert set(monomials_of_degree(self.th, 2)) == {
            self.th.path("a", "b"),
            self.th.path("b", "a"),
        }

    def test_serialize(self):
        assert self.th.serialize(self.th.path("a", "b")) == "a*b"
        assert self.th.serialize(self.th.vertex_path("1")) == "e1"


# A name that an expression would read as two generators, by theory: each
# constructor refuses it, since codes would give both one character.
CLASHING_THEORIES = [
    (MixedTheory, (("t",), ("t", "x")), "mixed(t;t,x) reads 't' as two generators"),
    (CommutativeTheory, (("x", "x"),), "commutative(x,x) reads 'x' as two generators"),
    (
        PathAlgebraTheory,
        (("1",), (("a", "1", "1"), ("a", "1", "1"))),
        "path(1;a,a) reads 'a' as two generators",
    ),
    (PathAlgebraTheory, (("1",), (("e1", "1", "1"),)), "path(1;e1) reads 'e1' as two generators"),
]


class TestRefusals:
    """Names and monomials each theory refuses, with the message it gives."""

    @pytest.mark.parametrize("cls, fields, message", CLASHING_THEORIES)
    def test_clashing_generator_names(self, cls, fields, message):
        with pytest.raises(TheoryMismatchError) as info:
            cls(*fields)
        assert str(info.value) == message

    def test_unknown_generators(self):
        mixed = MixedTheory(("t",), ("x",))
        with pytest.raises(TheoryMismatchError, match=r"unknown central variables \['s'\]"):
            mixed.monomial(s=1)
        with pytest.raises(TheoryMismatchError, match="unknown letter 'z'"):
            FreeMagmaTheory(("x",)).leaf("z")
        with pytest.raises(TheoryMismatchError, match="arrow a references an unknown vertex"):
            PathAlgebraTheory(("1",), (("a", "1", "2"),))
        path = PathAlgebraTheory(("1", "2"), (("a", "1", "2"),))
        with pytest.raises(TheoryMismatchError, match="unknown arrow 'z'"):
            path.path("a", "z")
        with pytest.raises(TheoryMismatchError, match="unknown vertex '3'"):
            path.vertex_path("3")
        with pytest.raises(TheoryMismatchError, match="a path needs arrows"):
            path.path()

    def test_path_context_with_mismatched_endpoints_gives_no_image(self):
        th = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
        a, e1, e2 = th.path("a"), th.vertex_path("1"), th.vertex_path("2")
        assert th.apply_context((e1, e2), a) == a
        assert th.apply_context((e2, e2), a) is None
        assert th.apply_context((e1, e1), a) is None

    def test_apply_context_encodes_as_the_codec_does(self):
        """``apply_context``, in each theory class's own namespace, encodes
        both arguments, so a context or monomial without a code raises as
        ``encode`` does."""
        assert all("apply_context" in vars(type(th)) for th in THEORIES.values())
        words = FreeMonoidTheory(("x",))
        with pytest.raises(TheoryMismatchError, match=r"\('z',\) does not belong"):
            words.apply_context((("z",), ()), ("x",))
        with pytest.raises(DiamondError, match="does not fit the power-product codes"):
            CommutativeTheory(("x",)).apply_context((1,), (2**31,))
        with pytest.raises(TheoryMismatchError, match="does not belong"):
            FreeMagmaTheory(("x",)).apply_context((None, "x"), "z")

    @pytest.mark.parametrize(
        "th, ctx, m",
        [
            (FreeMagmaTheory(("x",)), (None, "z"), "x"),
            (FreeMagmaTheory(("x",)), ("x", "x"), "x"),
            (FreeMagmaTheory(("x",)), (None, None), "x"),
            (MixedTheory(("t",), ("x",)), ((0,), ("z",), ()), ((1,), ("x",))),
            (MixedTheory(("t",), ("x",)), ((-1,), (), ()), ((1,), ("x",))),
            (PATHS, (("1", "1", ()), ("2", "2", ("z",))), ("1", "2", ("a",))),
            (PATHS, (("3", "3", ()), ("2", "2", ())), ("1", "2", ("a",))),
            (MixedTheory(("t",), ("x",)), ((0,), (), []), ((1,), ("x",))),
            (MixedTheory(("t",), ("x",)), ((0,), ()), ((1,), ("x",))),
            (MixedTheory(("t",), ("x",)), ((0,), (), (), ()), ((1,), ("x",))),
            (PATHS, (("1", "1", ()),), ("1", "2", ("a",))),
            (PATHS, (("1", "1", ()), ("2", "2", ()), ("2", "2", ())), ("1", "2", ("a",))),
            (PATHS, None, ("1", "2", ("a",))),
        ],
        ids=[
            "magma-unknown-leaf",
            "magma-no-hole",
            "magma-two-holes",
            "mixed-unknown-letter",
            "mixed-negative-exponent",
            "path-unknown-arrow",
            "path-unknown-vertex",
            "mixed-tuple-and-list",
            "mixed-two-parts",
            "mixed-four-parts",
            "path-one-part",
            "path-three-parts",
            "path-not-a-pair",
        ],
    )
    def test_context_outside_the_theory_is_refused(self, th, ctx, m):
        """A context outside the theory raises TheoryMismatchError from the
        codec's ``encode_context``, as a monomial outside it does from
        ``encode``; a path's endpoints are compared only afterwards."""
        with pytest.raises(TheoryMismatchError, match="does not belong to"):
            th.apply_context(ctx, m)

    @pytest.mark.parametrize(
        "th, m",
        [(CommutativeTheory(("x", "y")), {}), (MixedTheory(("t",), ("x",)), ({}, ()))],
        ids=["commutative", "mixed"],
    )
    @pytest.mark.parametrize(
        "entry", ["normal_form", "is_irreducible_monomial", "orient", "sort_key", "overlaps"]
    )
    def test_packed_codes_refuse_a_non_tuple(self, th, m, entry):
        """A packed code is made of tuples only, so every entry point that
        encodes the non-tuple ``{}`` refuses it as the codec's ``encode``
        does."""
        order = MonomialOrder(OrderKind.DEGLEX, th, tuple(th.generator_names()))
        system = RewritingSystem(th, order, ())
        one = Fraction(1)
        calls = {
            "normal_form": lambda: normal_form(system, Element(((m, one),))),
            "is_irreducible_monomial": lambda: is_irreducible_monomial(system, m),
            "orient": lambda: orient(order, Element(((m, one), (th.one(), one)))),
            "sort_key": lambda: order.sort_key(m),
            "overlaps": lambda: th.overlaps(m, th.one()),
        }
        with pytest.raises(TheoryMismatchError, match="does not belong to"):
            calls[entry]()

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_apply_context_matches_the_reference(self, name):
        """Every context that ``overlaps`` lists for monomials of degree 1
        and 2 puts each monomial of degree up to 2 where the theory's own
        monomial arithmetic does, a path where the endpoints do not meet
        at None."""
        th = THEORIES[name]
        monomials = [m for d in range(3) for m in monomials_of_degree(th, d)]
        leads = monomials[-12:]
        checked = 0
        for m1 in leads:
            for m2 in leads:
                for _, ctx1, ctx2, _, _ in th.overlaps(m1, m2):
                    for ctx, m in itertools.product((ctx1, ctx2), monomials):
                        assert th.apply_context(ctx, m) == reference_apply_context(th, ctx, m)
                        checked += 1
        assert checked > 100

    def test_subclass_keeps_its_parents_apply_context(self):
        """A subclass gets its parent's ``apply_context`` in its own
        namespace, so a path subclass keeps the endpoint test."""

        class Paths(PathAlgebraTheory):
            pass

        th = Paths(("1", "2"), (("a", "1", "2"),))
        assert "apply_context" in vars(Paths)
        assert th.apply_context((th.vertex_path("2"), th.vertex_path("2")), th.path("a")) is None

    @pytest.mark.parametrize(
        "th, bad",
        [
            (FreeMonoidTheory(("x",)), (["x"],)),
            (MixedTheory(("t",), ("x",)), ((0,), (["x"],))),
            (PathAlgebraTheory(("1",), (("a", "1", "1"),)), ("1", "1", (["a"],))),
            (PathAlgebraTheory(("1",), (("a", "1", "1"),)), ("1", "1", ["a"])),
        ],
    )
    def test_unhashable_letters_belong_to_no_theory(self, th, bad):
        with pytest.raises(TheoryMismatchError, match="does not belong to"):
            th.deglex_codec.encode(bad)


# Membership, which each theory's deglex codec decides: what ``encode``,
# ``encode_context`` and the builders give for input outside the theory, as
# (theory, call, arguments: a tuple, or a dict of keyword arguments, the
# exception or None, its message or the value returned). A message of None
# is the codec's own, which names the monomial or context.
_W, _C = FreeMonoidTheory(("x", "y")), CommutativeTheory(("x", "y"))
_M, _G = MixedTheory(("t",), ("x",)), FreeMagmaTheory(("x", "y"))
_P = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
_BIG = 2**31
_PACKED = "does not fit the power-product codes, whose degrees, weight sums and exponents"
_CENTRAL = "does not fit the mixed codes, whose central degrees and exponents"


def _outside(th, call, *values):
    return [(th, call, (v,), TheoryMismatchError, None) for v in values]


MEMBERSHIP = [
    # Words: wrong types, an unhashable letter, unknown letters.
    *_outside(_W, "encode", "x", ["x"], 5, None, (["x"],), ("x", 1), ("z",), ("x", "z")),
    (_W, "encode_context", ((("z",), ()),), TheoryMismatchError,
     "monomial ('z',) does not belong to assoc(x,y)"),
    (_W, "encode_context", ("x",), TheoryMismatchError,
     "monomial 'x' does not belong to assoc(x,y)"),
    (_W, "word", ("z",), TheoryMismatchError, "monomial ('z',) does not belong to assoc(x,y)"),
    (_W, "word", (["x"],), TheoryMismatchError, "monomial (['x'],) does not belong to assoc(x,y)"),
    (_W, "word", ("x", "y"), None, ("x", "y")),
    # Power products: wrong lengths and types and negative exponents are
    # outside; an exponent or degree of 2^31 is too large.
    *_outside(_C, "encode", (1,), (1, 2, 3), [1, 0], "xy", None, (-1, 0), (0, -2), (1.0, 0)),
    *_outside(_C, "encode", ("2", 0)),
    (_C, "encode", ((_BIG, 0),), DiamondError,
     "monomial x^2147483648 %s stay below 2^31" % _PACKED),
    (_C, "encode", ((0, _BIG),), DiamondError,
     "monomial y^2147483648 %s stay below 2^31" % _PACKED),
    (_C, "encode", ((_BIG - 1, 1),), DiamondError,
     "monomial x^2147483647*y %s stay below 2^31" % _PACKED),
    (_C, "encode_context", ((-1, 0),), TheoryMismatchError,
     "monomial (-1, 0) does not belong to commutative(x,y)"),
    (_C, "encode_context", ((_BIG, 0),), DiamondError,
     "monomial x^2147483648 %s stay below 2^31" % _PACKED),
    (_C, "monomial", {"z": 1}, TheoryMismatchError, "unknown variables ['z']"),
    # Mixed monomials: the same for the central part, and unknown letters,
    # a central variable among them, for the word, which is checked first.
    *_outside(_M, "encode", ((0,),), ((0,), (), ()), ((0, 0), ()), [(0,), ()], "t", None),
    *_outside(_M, "encode", ((0,), ["x"]), ((1.5,), ()), ((-1,), ()), ((0,), ("z",))),
    *_outside(_M, "encode", ((0,), ("t",)), ((0,), (["x"],)), ((_BIG,), ("z",))),
    (_M, "encode", (((_BIG,), ()),), DiamondError,
     "monomial t^2147483648 %s stay below 2^31" % _CENTRAL),
    *_outside(_M, "encode_context", ((0,), ("z",), ()), ((-1,), (), ()), ((0,), ()), None),
    (_M, "encode_context", (((_BIG,), (), ()),), DiamondError,
     "monomial t^2147483648 %s stay below 2^31" % _CENTRAL),
    (_M, "monomial", {"z": 1}, TheoryMismatchError, "unknown central variables ['z']"),
    (_M, "monomial", {"t": -1}, TheoryMismatchError,
     "monomial ((-1,), ()) does not belong to mixed(t;x)"),
    (_M, "monomial", {"word": ("z",)}, TheoryMismatchError,
     "monomial ((0,), ('z',)) does not belong to mixed(t;x)"),
    (_M, "monomial", {"word": ("t",)}, TheoryMismatchError,
     "monomial ((0,), ('t',)) does not belong to mixed(t;x)"),
    (_M, "monomial", {"t": _BIG}, None, ((_BIG,), ())),
    # Trees: unknown leaves, tuples that are no products, wrong types.
    *_outside(_G, "encode", "z", ("x", "z"), ("x", "y", "x"), ("x",), 5, None, ["x", "y"], ()),
    *_outside(_G, "encode_context", "x", ("x", "x"), (None, None), ("z", None)),
    (_G, "leaf", ("z",), TheoryMismatchError, "unknown letter 'z'"),
    # Paths: wrong lengths and types, an unknown vertex or arrow, and arrows
    # that do not compose or do not meet the endpoints.
    *_outside(_P, "encode", ("1", "2"), ("1", "2", ("a",), ()), None, ("1", "2", ["a"])),
    *_outside(_P, "encode", ["1", "2", ("a",)], ("3", "3", ()), ("1", "2", ("c",))),
    *_outside(_P, "encode", ("1", "1", ("a", "a")), ("2", "2", ("a",)), ("1", "1", ("a",))),
    *_outside(_P, "encode_context", (("1", "1", ()),), (("3", "3", ()), ("1", "1", ())), None),
    (_P, "path", (), TheoryMismatchError, "a path needs arrows; use vertex_path for idempotents"),
    (_P, "path", ("c",), TheoryMismatchError, "unknown arrow 'c'"),
    (_P, "path", ("a", "a"), TheoryMismatchError, "arrows ('a', 'a') do not compose"),
    (_P, "path", ("a", "b"), None, ("1", "1", ("a", "b"))),
    (_P, "vertex_path", ("3",), TheoryMismatchError, "unknown vertex '3'"),
]


@pytest.mark.parametrize("th, call, args, error, expected", MEMBERSHIP)
def test_membership_is_decided_by_the_codec(th, call, args, error, expected):
    owner = th.deglex_codec if call.startswith("encode") else th
    method = getattr(owner, call)
    run = (lambda: method(**args)) if isinstance(args, dict) else (lambda: method(*args))
    if error is None:
        assert run() == expected
        return
    if expected is None:
        noun = "monomial" if call == "encode" else "context"
        expected = "%s %r does not belong to %s" % (noun, args[0], th.describe())
    with pytest.raises(DiamondError) as info:
        run()
    assert (type(info.value), str(info.value)) == (error, expected)


class TestMultiplyElements:
    def test_bilinear_over_words(self):
        th = FreeMonoidTheory(("x", "y"))
        a = Element.from_dict({("x",): Fraction(2), (): Fraction(1)})
        b = Element.from_dict({("y",): Fraction(3)})
        got = multiply_elements(th, a, b)
        assert dict(got.terms) == {("x", "y"): Fraction(6), ("y",): Fraction(3)}

    def test_vanishing_products_drop_out(self):
        th = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
        a = Element.from_dict({th.path("a"): Fraction(1)})
        assert multiply_elements(th, a, a).is_zero()

    @given(
        st.lists(st.tuples(WORD, st.fractions(min_value=-3, max_value=3, max_denominator=2)), max_size=4),
        st.lists(st.tuples(WORD, st.fractions(min_value=-3, max_value=3, max_denominator=2)), max_size=4),
    )
    def test_matches_convolution_oracle(self, a, b):
        th = FreeMonoidTheory(("a", "b"))
        ea = Element.from_dict(dict(merge_terms(a)))
        eb = Element.from_dict(dict(merge_terms(b)))
        got = multiply_elements(th, ea, eb)
        expect = merge_terms(
            [(ma + mb, ca * cb) for ma, ca in ea.terms for mb, cb in eb.terms]
        )
        assert got.terms == expect


QUIVER = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")))


def lead_pairs(theory, seed, small_degree=4):
    """Every pair of monomials below ``small_degree``, then 2000 random pairs
    up to degree 6."""
    small = [m for d in range(small_degree) for m in monomials_of_degree(theory, d)]
    pool = [m for d in range(7) for m in monomials_of_degree(theory, d)]
    rng = random.Random(seed)
    pairs = [(a, b) for a in small for b in small]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(2000)]
    return pairs


class TestOverlapsMatchReference:
    """The shared word kernel reproduces each theory's original overlap lists,
    and power products match an lcm computed on its own.

    Order matters: completion breaks ties between equal superposition degrees
    by the order in which overlaps were found.
    """

    def test_free_monoid(self):
        th = FreeMonoidTheory(("x", "y"))
        for a, b in lead_pairs(th, 1):
            assert th.overlaps(a, b) == reference_word_overlaps(a, b), (a, b)

    def test_power_products(self):
        """Every pair of exponent vectors of degree at most 3 in 3 variables."""
        th = CommutativeTheory(("x", "y", "z"))
        small = [m for d in range(4) for m in monomials_of_degree(th, d)]
        for a in small:
            for b in small:
                assert th.overlaps(a, b) == reference_power_product_overlaps(a, b), (a, b)

    def test_mixed(self):
        th = MixedTheory(("s", "t"), ("x", "y"))
        for a, b in lead_pairs(th, 2):
            assert th.overlaps(a, b) == reference_mixed_overlaps(a, b), (a, b)

    def test_path(self):
        for a, b in lead_pairs(QUIVER, 3):
            assert QUIVER.overlaps(a, b) == reference_path_overlaps(QUIVER, a, b), (a, b)

    def test_magma(self):
        """Every pair of trees up to degree 4, then random pairs up to degree 6."""
        th = FreeMagmaTheory(("x", "y"))
        for a, b in lead_pairs(th, 5, small_degree=5):
            assert th.overlaps(a, b) == reference_magma_overlaps(a, b), (a, b)

    @pytest.mark.parametrize("name", sorted(THEORIES))
    def test_lead_index_kernel_under_every_order(self, name):
        """Under every shipped order, whose letter ranks give the codes, the
        lead index's overlaps of two leads' codes, decoded, are the
        theory's overlaps of the leads: the geometry does not depend on the
        order."""
        th = THEORIES[name]
        pairs = lead_pairs(th, "kernel-" + name)
        for order in shipped_orders(th):
            index = lead_index([], order)
            decode, context = index.decode, index.decode_context
            for a, b in pairs:
                got = [
                    (decode(sup), context(ctx1, sup), context(ctx2, sup), kind, inner)
                    for sup, ctx1, ctx2, inner in index.overlaps(index.encode(a), index.encode(b))
                    for kind in [OverlapKind.OVERLAP if inner is None else OverlapKind.INCLUSION]
                ]
                assert got == th.overlaps(a, b), (order, a, b)

    def test_path_divisions(self):
        for a, b in lead_pairs(QUIVER, 4):
            assert QUIVER.divisions(a, b) == reference_path_divisions(QUIVER, a, b), (a, b)

    def test_magma_divisions(self):
        """Every tree up to degree 5 against every tree of smaller degree and
        itself, in preorder; each context plugs the lead back in."""
        th = FreeMagmaTheory(("x", "y"))
        trees = [[]] + [list(monomials_of_degree(th, d)) for d in range(1, 6)]
        for d, layer in enumerate(trees):
            leads = [t for smaller in trees[:d] for t in smaller]
            for tree in layer:
                for lead in leads + [tree]:
                    got = th.divisions(tree, lead)
                    assert got == reference_magma_divisions(tree, lead), (tree, lead)
                    assert all(th.apply_context(ctx, lead) == tree for ctx in got)
