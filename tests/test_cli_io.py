"""System file parsing, canonical printing and the command line."""

import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diamondlemma import (
    CommutativeTheory,
    Element,
    Fp,
    FreeMagmaTheory,
    FreeMonoidTheory,
    MixedTheory,
    MonomialOrder,
    OrderKind,
    ParseError,
    PathAlgebraTheory,
    PrimeField,
    RationalField,
    RewritingSystem,
    Rule,
    RuleError,
    cli_io,
    format_element,
    format_rule,
    format_scalar,
    format_system,
    main,
    normal_form,
    parse_expression,
    parse_system_file,
)

from oracles import reference_parse_expression

WEYL = "theory assoc\nvars x y\norder deglex x<y\nrule y*x -> x*y + 1\n"
BUCH = "theory commutative\nvars x y\norder lex x>y\nrule x^2 -> y\nrule x*y -> 1\n"
SERIES = "theory assoc\nvars x\nweights x:-1\norder series\nrule x -> x^2\n"
# Plain reduction of this system's ambiguities lengthens words until the
# step budget runs out, which at the default budget takes hours.
SERIES_PAIRS = (
    "theory assoc\nvars x y\nweights x:-1 y:-1\norder series x<y\n"
    "rule y*x -> x*y + x^2*y\nrule y*y -> x*y*y\n"
)
PATHSYS = (
    "theory path\nvertices 1 2\narrow a: 1 -> 2\narrow b: 2 -> 1\n"
    "rule a*b -> e1\nrule b*a -> e2\n"
)
MAGMA = "theory magma\nvars x\nrule (x*x) -> x\n"
MAGMA_XY = "theory magma\nvars x y\nrule (x*x) -> y\n"
SL2 = (
    "theory assoc\nvars e f h\norder deglex e<f<h\n"
    "rule f*e -> e*f - h\nrule h*e -> e*h + 2*e\nrule h*f -> f*h - 2*f\n"
)
GF7 = "theory assoc\nvars x y\nfield 7\norder deglex x<y\nrule y*x -> x*y + 3\n"
MIXED = (
    "theory mixed\ncvars s t\nvars x y\norder deglex s<t<x<y\n"
    "rule y*x -> x*y + t\nrule t^2*x -> s*x\n"
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "bench", "data", "cli_golden.json"), encoding="utf-8") as _handle:
    CLI_GOLDEN = json.load(_handle)


class TestParseSystem:
    def test_weyl_one_liner(self):
        text = "theory assoc; vars x y; order deglex x<y; rule y*x -> x*y + 1"
        s = parse_system_file(text).system
        assert isinstance(s.theory, FreeMonoidTheory)
        assert len(s.rules) == 1
        assert s.rules[0].lead == ("y", "x")
        assert s.rules[0].lower == Element.from_dict(
            {("x", "y"): Fraction(1), (): Fraction(1)}
        )

    def test_newlines_and_comments(self):
        s = parse_system_file(WEYL + "# trailing comment\n").system
        assert len(s.rules) == 1

    def test_order_defaults_to_declaration_order(self):
        s = parse_system_file("theory assoc; vars x y; rule y*x -> x*y").system
        assert s.order.kind is OrderKind.DEGLEX
        assert s.order.generators == ("x", "y")

    def test_descending_order_chain(self):
        s = parse_system_file(BUCH).system
        assert isinstance(s.theory, CommutativeTheory)
        assert s.order.kind is OrderKind.LEX
        # x > y, and generators are stored ascending.
        assert s.order.generators == ("y", "x")

    def test_rejected_rule_carries_position(self):
        bad = "theory assoc\nvars x y\norder deglex x<y\nrule x -> x^2\n"
        with pytest.raises(ParseError) as info:
            parse_system_file(bad)
        assert "not below the lead" in str(info.value)
        assert "line 4" in str(info.value)

    def test_first_error_in_file_order_is_reported(self):
        bad = "theory assoc\nvars x y\nrule x -> x^2\nrule y -> y^2\nfrobnicate\n"
        with pytest.raises(ParseError) as info:
            parse_system_file(bad)
        assert "not below the lead" in str(info.value)
        assert (info.value.line, info.value.col) == (3, 1)

    def test_each_rule_is_validated_once(self, monkeypatch):
        calls = []
        th = FreeMonoidTheory(("x", "y"))
        codec = MonomialOrder(OrderKind.DEGLEX, th, ("x", "y")).codec
        sort_key = codec.sort_key

        def counted(code):
            calls.append(codec.decode(code))
            return sort_key(code)

        # The parser's deglex order shares this codec, whose keys it counts.
        monkeypatch.setattr(codec, "sort_key", counted)
        s = parse_system_file("theory assoc; vars x y; rule y*x -> x*y + 1; rule y*y -> x").system
        # One key per lead and per lower-part monomial.
        assert sorted(calls) == sorted([("y", "x"), ("x", "y"), (), ("y", "y"), ("x",)])
        assert s == RewritingSystem(s.theory, s.order, s.rules, s.field)

    def test_field_after_rules_validates_them_under_it(self):
        # The rule's coefficients were read over QQ, which GF(7) does not hold.
        with pytest.raises(RuleError) as info:
            parse_system_file("theory assoc; vars x y; rule y*x -> x*y + 1; field 7")
        assert str(info.value) == "rule 0: coefficient 1 of x*y is not in the field GF(7)"
        text = "theory assoc; vars x y; field 7; rule y*x -> x*y + 1; field 7"
        s = parse_system_file(text).system
        assert dict(s.rules[0].lower.terms)[()] == Fp(1, 7)

    def test_field_after_rules_is_checked_at_its_statement(self):
        # The unknown statement after it is never read.
        with pytest.raises(RuleError, match="rule 0: coefficient 1/2 of 1"):
            parse_system_file("theory assoc; vars x; rule x^2 -> 1/2; field 7; bogus")
        with pytest.raises(RuleError, match="rule 1: coefficient 1/2 of 1"):
            parse_system_file("theory assoc; vars x; rule x^3 -> 0; rule x^2 -> 1/2; field 7")

    def test_series_weights_admit_raising_rule(self):
        sf = parse_system_file(SERIES)
        assert sf.weight_data is not None
        assert dict(sf.weight_data.weights)["x"] == Fraction(-1)
        assert sf.system.order.kind is OrderKind.SERIES_DEGLEX

    def test_weight_lowering_series_rule_rejected(self):
        # With matching order and norm weights the order check subsumes the
        # admission check, so the diagnostic names the order violation.
        bad = "theory assoc\nvars x\nweights x:-1\norder series\nrule x^2 -> x\n"
        with pytest.raises(ParseError) as info:
            parse_system_file(bad)
        assert "not below the lead" in str(info.value)
        assert "line 5" in str(info.value)

    def test_field_statement(self):
        s = parse_system_file(GF7).system
        assert isinstance(s.field, PrimeField)
        assert dict(s.rules[0].lower.terms)[()] == Fp(3, 7)

    def test_path_system(self):
        s = parse_system_file(PATHSYS).system
        assert isinstance(s.theory, PathAlgebraTheory)
        assert s.rules[0].lead == ("1", "1", ("a", "b"))
        assert s.rules[0].lower.support() == (("1", "1", ()),)

    def test_magma_system(self):
        s = parse_system_file(MAGMA).system
        assert isinstance(s.theory, FreeMagmaTheory)
        assert s.rules[0].lead == ("x", "x")

    def test_missing_theory_reported(self):
        with pytest.raises(ParseError) as info:
            parse_system_file("vars x y")
        assert "theory" in str(info.value)

    def test_unknown_statement_reported_with_position(self):
        with pytest.raises(ParseError) as info:
            parse_system_file("theory assoc\nvars x y\nfrobnicate z\n")
        msg = str(info.value)
        assert "line 3" in msg

    def test_duplicate_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_system_file("theory assoc; theory commutative; vars x")

    def test_non_monic_rule_lead_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_system_file("theory assoc; vars x y; rule 2*y*x -> x*y")
        assert "coefficient" in str(info.value) or "lead" in str(info.value)

    def test_str_of_parse_error_has_line_and_col(self):
        try:
            parse_system_file("theory assoc; vars x y; rule y*x -> x*y + $")
        except ParseError as exc:
            assert "line 1, col" in str(exc)
        else:
            pytest.fail("expected a ParseError")


_NOT_MONIC = "rule lead must be a single monic monomial"

# (text, message, line, col) of each error a system file can raise, by the
# statement at fault.
SYSTEM_FILE_ERRORS = {
    "theory": [
        ("vars x\nrule x -> 0", "no theory declared", 2, 1),
        ("theory ring\nvars x", "expected one of: theory assoc|commutative|mixed|magma|path", 1, 1),
        ("theory mixed; cvars t\nrule t*t -> t", "theory needs a 'vars' statement", 2, 1),
        # A theory that cannot be built is reported at the statement at
        # fault, or at the theory statement when only the end needs it.
        (
            "theory path; vertices 1; arrow a: 1 -> 2\nrule a -> 0",
            "arrow a references an unknown vertex",
            1,
            26,
        ),
        ("theory path\nvertices 1\narrow a: 1 -> 2", "arrow a references an unknown vertex", 3, 1),
        ("# c\ntheory mixed\ncvars t", "theory needs a 'vars' statement", 2, 1),
    ],
    "header": [
        ("theory assoc; vars x; vars y", "duplicate vars statement", 1, 23),
        ("theory mixed; cvars t; vars x; cvars s", "duplicate cvars statement", 1, 32),
        ("theory path; vertices 1; vertices 2", "duplicate vertices statement", 1, 26),
        ("theory assoc; vars x x", "vars needs distinct names", 1, 15),
        ("theory assoc; vars", "vars needs distinct names", 1, 15),
        ("theory path; vertices 1 1", "vertices needs distinct names", 1, 14),
        ("theory path; vertices 1; arrow a 1", "expected: arrow <name> <source> <target>", 1, 26),
        ("theory path; vertices 1; arrow a: 1 -> 1; arrow a: 1 -> 1", "duplicate arrow 'a'", 1, 43),
        # A name an expression would read as two generators.
        ("theory mixed; cvars t; vars t x; rule x*t -> t", "'t' names two generators", 1, 24),
        ("theory mixed; vars t x; cvars t", "'t' names two generators", 1, 25),
        ("theory path; vertices 1; arrow e1: 1 -> 1", "'e1' names two generators", 1, 26),
        ("theory path; arrow e1: 1 -> 1; vertices 1", "'e1' names two generators", 1, 32),
    ],
    "foreign header": [
        ("theory assoc; vars x; cvars t", "theory assoc takes no cvars statement", 1, 23),
        ("theory assoc; vars x; vertices 1 2", "theory assoc takes no vertices statement", 1, 23),
        ("theory path; vertices 1; arrow a: 1 -> 1; vars q", "theory path takes no vars statement", 1, 43),
        ("theory magma; vars x; arrow a: 1 -> 1", "theory magma takes no arrow statement", 1, 23),
        # Read before the theory statement, refused at its own line.
        ("cvars t\ntheory assoc\nvars x", "theory assoc takes no cvars statement", 1, 1),
    ],
    "field": [
        ("theory assoc; vars x; field 7 11", "expected: field rational | field <prime>", 1, 23),
        ("theory assoc; vars x; field real", "expected: field rational | field <prime>", 1, 23),
        ("theory assoc; vars x; field 8", "field characteristic 8 is not prime", 1, 23),
        (
            "theory assoc; vars x; field 18446744073709551629",
            "field characteristic must be a machine-word prime",
            1,
            23,
        ),
        ("theory assoc; vars x; field \u00b2", "expected: field rational | field <prime>", 1, 23),
        (
            "theory assoc; vars x; field " + "7" * 5000,
            "field characteristic must be a machine-word prime",
            1,
            23,
        ),
    ],
    "weights": [
        ("theory assoc; vars x; weights", "weights needs name:value entries", 1, 23),
        ("theory assoc; vars x; weights x", "weight entries look like x:-1", 1, 23),
        ("theory assoc; vars x; weights :1", "weight entries look like x:-1", 1, 23),
        ("theory assoc; vars x; weights x:1 x:2", "duplicate weight for 'x'", 1, 23),
        ("theory assoc; vars x; weights x:one", "bad weight value 'one'", 1, 23),
        ("theory assoc; vars x; weights x:1/0", "bad weight value '1/0'", 1, 23),
        ("theory assoc; vars x; weights x:1e5000", "bad weight value '1e5000'", 1, 23),
        ("theory assoc; vars x y; weights x:1", "weights must cover the generators exactly", 1, 25),
    ],
    "order": [
        ("theory assoc; vars x; order deglex; order deglex", "duplicate order statement", 1, 37),
        (
            "theory assoc; vars x y; rule y*x -> x*y; order deglex",
            "declare the order before rules",
            1,
            42,
        ),
        (
            "theory assoc; vars x; order revlex",
            "expected one of: order deglex|weighted-deglex|lex|series",
            1,
            23,
        ),
        ("theory assoc; vars x y; order deglex x<z", "generator list does not match the theory", 1, 25),
        (
            "theory assoc; vars x y; order lex",
            "lex is only well-founded for the commutative theory",
            1,
            25,
        ),
        (
            "theory assoc; vars x y; weights x:-1 y:1; order weighted-deglex",
            "weighted-deglex requires positive weights",
            1,
            43,
        ),
        (
            "theory assoc; vars x y; weights x:1; order weighted-deglex",
            "weight vector does not cover the generators",
            1,
            38,
        ),
        ("theory assoc; vars x y; order series", "declare weights before a weighted order", 1, 25),
    ],
    "rule": [
        ("theory assoc; vars x; rule x x", "a rule looks like: rule <lead> -> <element>", 1, 23),
        # A lead that parses but is no single monic monomial is refused at
        # the statement.
        ("theory assoc; vars x y; rule 2*y*x -> x*y", _NOT_MONIC, 1, 25),
        ("theory assoc; vars x y; rule x + y -> 1", _NOT_MONIC, 1, 25),
        ("theory assoc; vars x y; rule 3 -> x", _NOT_MONIC, 1, 25),
        ("theory assoc; vars x y; rule 0 -> x", _NOT_MONIC, 1, 25),
        ("theory assoc; vars x y; rule x - x -> y", _NOT_MONIC, 1, 25),
        ("theory assoc; vars x y; rule -y -> x", _NOT_MONIC, 1, 25),
        ("theory magma; vars x; rule 0 -> (x*x)", _NOT_MONIC, 1, 23),
        # Errors inside the lower part, or a lead the theory cannot read,
        # come before that refusal.
        ("theory assoc; vars x y; rule 2*y -> $", "unexpected character '$'", 1, 37),
        (
            "theory magma; vars x; rule 3 -> (x*x)",
            "a bare scalar is not an element of this theory",
            1,
            30,
        ),
    ],
}


class TestSystemFileErrors:
    @pytest.mark.parametrize(
        "text, message, line, col",
        [case for cases in SYSTEM_FILE_ERRORS.values() for case in cases],
    )
    def test_message_and_position(self, text, message, line, col):
        with pytest.raises(ParseError) as info:
            parse_system_file(text)
        assert str(info.value) == "line %d, col %d: %s" % (line, col, message)
        assert (info.value.line, info.value.col) == (line, col)

    @pytest.mark.parametrize("group", sorted(SYSTEM_FILE_ERRORS))
    def test_check_exits_3_with_one_line(self, group, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        for text, message, line, col in SYSTEM_FILE_ERRORS[group]:
            path.write_text(text, encoding="utf-8")
            assert main(["check", str(path)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "line %d, col %d: %s\n" % (line, col, message)

    def test_check_of_a_file_not_utf8_exits_3_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_bytes(b"theory assoc; vars x  # \xff\xfe\n")
        assert main(["check", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cannot read %s: " % path)
        assert err.count("\n") == 1

    def test_lead_is_monic_in_the_declared_field(self):
        system = parse_system_file("theory assoc; vars x y; field 7; rule 8*y -> x").system
        assert system.rules[0].lead == ("y",)
        assert system.rules[0].lower.terms == ((("x",), Fp(1, 7)),)
        system = parse_system_file("theory assoc; vars x y; rule 1/2*y + 1/2*y -> x").system
        assert system.rules[0].lead == ("y",)

    def test_field_numeral_of_another_script(self):
        system = parse_system_file("theory assoc; vars x; field \u0667").system
        assert system.field == PrimeField(7)

    @pytest.mark.parametrize(
        "value, weight",
        [
            ("3", 3),
            ("-3/4", Fraction(-3, 4)),
            ("2.5", Fraction(5, 2)),
            ("-1.5e3", -1500),
            ("1E-1000", Fraction(1, 10**1000)),
        ],
    )
    def test_weight_values(self, value, weight):
        weights = parse_system_file("theory assoc; vars x; weights x:" + value).weight_data
        assert weights.weights == (("x", weight),)

    @pytest.mark.parametrize("word", ["rational", "QQ"])
    def test_field_rational(self, word):
        text = "theory assoc; vars x y; field 7; field %s; rule y*x -> x*y + 1/2" % word
        s = parse_system_file(text).system
        assert s.field == RationalField()
        assert dict(s.rules[0].lower.terms)[()] == Fraction(1, 2)


class TestSharedDeclarations:
    """Files that declare alike share one theory, order and field object."""

    @staticmethod
    def _parts(text):
        system = parse_system_file(text).system
        return system.theory, system.order, system.field

    @pytest.mark.parametrize("keyword", ["assoc", "commutative", "magma", "mixed", "path"])
    def test_equal_headers_share_one_object_of_each(self, keyword):
        path = os.path.join(REPO, "bench", "systems", "cli", keyword + ".sys")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        first, second = self._parts(text), self._parts("# again\n" + text)
        assert all(a is b for a, b in zip(first, second))

    def test_written_and_implied_declarations_share(self):
        implied = self._parts("theory assoc; vars x y; rule y*x -> x*y")
        written = self._parts("theory assoc; vars x y; field rational; order deglex x<y")
        assert all(a is b for a, b in zip(implied, written))
        assert self._parts("theory assoc; vars x; field 7")[2] is self._parts(
            "theory assoc; vars x; field \u0667"
        )[2]

    def test_different_declarations_do_not_share(self):
        base = self._parts("theory commutative; vars x y; weights x:1 y:1")
        others = {
            "vars": self._parts("theory commutative; vars y x; weights x:1 y:1"),
            "lex": self._parts("theory commutative; vars x y; weights x:1 y:1; order lex"),
            "weighted": self._parts(
                "theory commutative; vars x y; weights x:1 y:1; order weighted-deglex"
            ),
            "weights": self._parts(
                "theory commutative; vars x y; weights x:1 y:2; order weighted-deglex"
            ),
        }
        assert others["vars"][0] is not base[0] and others["vars"][1] is not base[1]
        for name in ("lex", "weighted", "weights"):
            assert others[name][0] is base[0], name
            assert others[name][1] is not base[1] and others[name][1] != base[1], name
        assert others["weighted"][1] != others["weights"][1]
        f7 = self._parts("theory assoc; vars x; field 7")[2]
        f11 = self._parts("theory assoc; vars x; field 11")[2]
        assert (f7, f11) == (PrimeField(7), PrimeField(11))

    def test_refused_declarations_store_nothing(self):
        table = cli_io._declared
        table.cache_clear()
        with pytest.raises(ParseError, match="field characteristic 4 is not prime"):
            parse_system_file("theory assoc; vars x; field 4")
        assert table.cache_info().currsize == 1  # the rational field
        with pytest.raises(ParseError, match="lex is only well-founded"):
            parse_system_file("theory assoc; vars x; order lex")
        assert table.cache_info().currsize == 2  # and the theory
        system = parse_system_file("theory assoc; vars x; field 5; rule x^2 -> x").system
        assert table.cache_info().currsize == 4  # and field 5 and deglex
        assert system.field is table(PrimeField, 5)
        assert system.order is self._parts("theory assoc; vars x; rule x -> 0")[1]
        # In a full table, a refused declaration drops no live entry: every
        # file parses again to the objects it gave, with no miss.
        table.cache_clear()
        texts = ["theory assoc; vars x%d; rule x%d^2 -> x%d" % (k, k, k) for k in range(127)]
        texts.append("theory assoc; vars x0; field 7; rule x0^2 -> x0")
        kept = [self._parts(text) for text in texts]
        assert kept[-1][0] is kept[0][0] and kept[-1][1] is kept[0][1]
        assert table.cache_info().currsize == 256
        for text in ("theory assoc; vars x0; field 4", "theory assoc; vars x0; order lex"):
            with pytest.raises(ParseError):
                parse_system_file(text)
            misses = table.cache_info().misses
            for parts, text in zip(kept, texts):
                assert all(a is b for a, b in zip(self._parts(text), parts))
            assert table.cache_info().misses == misses

    def test_the_table_is_bounded(self):
        table = cli_io._declared
        table.cache_clear()
        texts = ["theory assoc; vars x%d; rule x%d^2 -> x%d" % (k, k, k) for k in range(200)]
        systems = [parse_system_file(text).system for text in texts]
        assert table.cache_info().currsize == 256
        # The first declarations were dropped; parsing them again builds
        # equal objects.
        again = parse_system_file(texts[0]).system
        assert again == systems[0] and again.theory is not systems[0].theory
        assert table.cache_info().currsize == 256

    def test_every_file_keeps_the_shared_field(self):
        """The rational field, which every file reads, is the most recently
        used entry, so no run of distinct files evicts it."""
        texts = ["theory assoc; vars x%d; rule x%d^2 -> x%d" % (k, k, k) for k in range(300)]
        fields = [parse_system_file(text).system.field for text in texts]
        assert all(field is fields[0] for field in fields)

    def test_parsed_system_is_the_constructed_one(self):
        weights = (("x", Fraction(-1)),)
        cases = [
            (
                WEYL,
                FreeMonoidTheory(("x", "y")),
                lambda th: MonomialOrder(OrderKind.DEGLEX, th, ("x", "y")),
                RationalField(),
                [(("y", "x"), {("x", "y"): Fraction(1), (): Fraction(1)})],
            ),
            (
                "theory commutative; vars x y; field 7; order lex x>y; rule x^2 -> 3*y",
                CommutativeTheory(("x", "y")),
                lambda th: MonomialOrder(OrderKind.LEX, th, ("y", "x")),
                PrimeField(7),
                [((2, 0), {(0, 1): Fp(3, 7)})],
            ),
            (
                SERIES,
                FreeMonoidTheory(("x",)),
                lambda th: MonomialOrder(OrderKind.SERIES_DEGLEX, th, ("x",), weights),
                RationalField(),
                [(("x",), {("x", "x"): Fraction(1)})],
            ),
        ]
        for text, theory, order, field, rules in cases:
            want = RewritingSystem(
                theory,
                order(theory),
                tuple(Rule(lead, Element.from_dict(lower)) for lead, lower in rules),
                field,
            )
            for _ in range(2):  # built, then shared
                got = parse_system_file(text).system
                assert got == want
                assert repr(got) == repr(want)


class TestParseExpression:
    def setup_method(self):
        self.th = FreeMonoidTheory(("x", "y"))
        self.field = RationalField()

    def parse(self, text):
        return parse_expression(text, self.th, self.field)

    def test_linear_combination(self):
        e = self.parse("2*x*y - y^2 + 1")
        assert e == Element.from_dict(
            {("x", "y"): Fraction(2), ("y", "y"): Fraction(-1), (): Fraction(1)}
        )

    def test_rational_coefficients(self):
        e = self.parse("1/2*x - 3/4")
        assert e == Element.from_dict({("x",): Fraction(1, 2), (): Fraction(-3, 4)})

    def test_parentheses_distribute(self):
        assert self.parse("(x + y)^2") == self.parse("x^2 + x*y + y*x + y^2")

    def test_scalar_folding(self):
        assert self.parse("2*3 - 6").is_zero()

    def test_unknown_name_positioned(self):
        with pytest.raises(ParseError) as info:
            self.parse("x*z")
        assert "z" in str(info.value)

    def test_magma_requires_parentheses(self):
        th = FreeMagmaTheory(("x",))
        with pytest.raises(ParseError) as info:
            parse_expression("x*x*x", th, self.field)
        assert "parenthesize" in str(info.value)

    def test_magma_rejects_powers(self):
        th = FreeMagmaTheory(("x",))
        with pytest.raises(ParseError) as info:
            parse_expression("x^2", th, self.field)
        assert "nonassociative" in str(info.value) or "ambiguous" in str(info.value)

    def test_magma_nested_product(self):
        th = FreeMagmaTheory(("x",))
        e = parse_expression("((x*x)*(x*x))", th, self.field)
        assert e.support() == (((("x", "x"), ("x", "x"))),)

    def test_magma_bare_scalar_rejected(self):
        th = FreeMagmaTheory(("x",))
        with pytest.raises(ParseError):
            parse_expression("x + 1", th, self.field)

    def test_path_idempotents_and_concatenation(self):
        th = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
        e = parse_expression("a*b + 2*e1", th, self.field)
        assert dict(e.terms)[("1", "1", ("a", "b"))] == Fraction(1)
        assert dict(e.terms)[("1", "1", ())] == Fraction(2)

    def test_expansion_bounds_refuse_quickly(self):
        for text, message in (("(x+y)^16", "term pairs exceeds"), ("x^100000", "exponent")):
            start = time.perf_counter()
            with pytest.raises(ParseError, match=message):
                parse_expression(text, self.th, self.field)
            assert time.perf_counter() - start < 1.0

    def test_long_sum_parses_in_linear_time(self):
        text = "+".join("x^%d" % k for k in range(1, 400))
        start = time.perf_counter()
        e = self.parse(text)
        assert time.perf_counter() - start < 0.3
        assert len(e.terms) == 399
        assert dict(e.terms)[("x",) * 399] == Fraction(1)

    def test_sum_cancels_and_keeps_signs(self):
        assert self.parse("x*y - y + x*y - 2*x*y + y").is_zero()
        assert self.parse("-x + 2 - (y - x)") == self.parse("2 - y")

    def test_nested_powers_bounded_by_degree(self):
        for text in ("(x^300)^300", "(x^500)*(x^501)", "(x^2+y)^501"):
            start = time.perf_counter()
            with pytest.raises(ParseError, match="degree .* exceeds 1000"):
                self.parse(text)
            assert time.perf_counter() - start < 0.1
        assert self.parse("x^1000").support() == (("x",) * 1000,)
        assert self.parse("(x^10)^100") == self.parse("x^1000")
        assert self.parse("(2*x)^3") == self.parse("8*x^3")

    def test_single_term_powers_match_repeated_products(self):
        th = PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")))
        for text, expanded in (("(a*b)^3", "a*b*a*b*a*b"), ("a^2", "0"), ("(3*c)^2", "9*c*c")):
            assert parse_expression(text, th, self.field) == parse_expression(
                expanded, th, self.field
            )

    def test_largest_benchmark_power_still_parses(self):
        th = FreeMonoidTheory(("e", "f", "h"))
        assert len(parse_expression("(h+f+e)^7", th, self.field).terms) == 3**7

    def test_prime_field_power_of_scalar(self):
        field = PrimeField(7)
        e = parse_expression("3^2*x", self.th, field)
        assert dict(e.terms)[("x",)] == Fp(2, 7)

    @pytest.mark.parametrize(
        "text, col", [("x^\u00b2", 3), ("\u00b2", 1), ("x^1\u00b2", 4), ("2 + x*\u2462", 7)]
    )
    def test_digits_int_refuses_are_parse_errors(self, text, col):
        # '\u00b2' and '\u2462' are digits to str.isdigit but not decimal.
        with pytest.raises(ParseError) as info:
            self.parse(text)
        assert (info.value.line, info.value.col) == (1, col)
        assert "unexpected character %r" % text[col - 1] in str(info.value)

    def test_decimal_digits_of_any_script_are_numbers(self):
        # Arabic-Indic three, and a name may go on with any digit.
        assert self.parse("x*\u0663") == self.parse("3*x")
        assert self.parse("x^\u0662 - 1\u0660") == self.parse("x*x - 10")
        with pytest.raises(ParseError, match="unknown generator 'x\u00b2'"):
            self.parse("x\u00b2")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="int reads any number of digits"
    )
    def test_numbers_longer_than_int_reads_are_parse_errors(self):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        for text, col in ((digits, 1), ("x^" + digits, 3), ("1/" + digits + "*x", 3)):
            with pytest.raises(ParseError, match="digits is too long") as info:
                self.parse(text)
            assert info.value.col == col


class TestFormatting:
    def setup_method(self):
        self.th = FreeMonoidTheory(("x", "y"))
        self.order = MonomialOrder(OrderKind.DEGLEX, self.th, ("x", "y"))
        self.field = RationalField()

    def test_weyl_normal_form_string(self):
        e = Element.from_dict({("x", "x", "y"): Fraction(1), ("x",): Fraction(2)})
        assert format_element(self.th, self.order, e) == "x^2*y + 2*x"

    def test_lex_witness_prefers_higher_degree(self):
        th = CommutativeTheory(("x", "y"))
        order = MonomialOrder(OrderKind.LEX, th, ("y", "x"))
        e = Element.from_dict({(0, 2): Fraction(1), (1, 0): Fraction(-1)})
        assert format_element(th, order, e) == "y^2 - x"

    def test_unit_coefficient_and_unit_monomial(self):
        e = Element.from_dict({("x",): Fraction(-1), (): Fraction(1)})
        assert format_element(self.th, self.order, e) == "-x + 1"

    def test_zero(self):
        assert format_element(self.th, self.order, Element.zero()) == "0"

    def test_scalar_rendering(self):
        assert format_scalar(Fraction(1, 2)) == "1/2"
        assert format_scalar(Fp(3, 7)) == "3"

    def test_rule_rendering(self):
        s = parse_system_file(WEYL).system
        assert format_rule(self.th, self.order, s.rules[0]) == "y*x -> x*y + 1"

    def test_expression_print_is_idempotent(self):
        for text in ("y*x*x - 2*x*y", "x^2*y + 2*x", "1/2*x - 3", "x - x"):
            e = parse_expression(text, self.th, self.field)
            printed = format_element(self.th, self.order, e)
            again = parse_expression(printed, self.th, self.field)
            assert format_element(self.th, self.order, again) == printed

    def test_format_system_round_trip(self):
        for text in (WEYL, BUCH, PATHSYS, MAGMA, GF7, SERIES, MIXED):
            sf = parse_system_file(text)
            printed = format_system(sf.system, sf.weight_data)
            sf2 = parse_system_file(printed)
            assert sf2.system.rules == sf.system.rules
            assert sf2.system.order.kind is sf.system.order.kind
            assert format_system(sf2.system, sf2.weight_data) == printed

    def test_round_trip_preserves_normal_forms(self):
        sf = parse_system_file(WEYL)
        reparsed = parse_system_file(format_system(sf.system, sf.weight_data))
        probes = ("y*x", "y*x*x", "y*y*x*x + x", "x*y - y*x")
        for text in probes:
            e = parse_expression(text, sf.system.theory, sf.system.field)
            assert normal_form(sf.system, e) == normal_form(reparsed.system, e)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (
        ("weyl.sys", WEYL),
        ("buch.sys", BUCH),
        ("series.sys", SERIES),
        ("series_pairs.sys", SERIES_PAIRS),
        ("path.sys", PATHSYS),
        ("magma.sys", MAGMA),
        ("magma_xy.sys", MAGMA_XY),
        ("sl2.sys", SL2),
    ):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    paths["out.sys"] = str(tmp_path / "out.sys")
    return paths


class TestCommandLine:
    def test_nf(self, files, capsys):
        assert main(["nf", files["weyl.sys"], "y*x*x"]) == 0
        assert capsys.readouterr().out == "x^2*y + 2*x\n"

    def test_nf_trail(self, files, capsys):
        assert main(["nf", files["weyl.sys"], "y*x*x", "--trail"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("step 1: rule 0 at ")
        assert out[-1] == "x^2*y + 2*x"

    def test_check_confluent(self, files, capsys):
        assert main(["check", files["weyl.sys"]]) == 0
        assert capsys.readouterr().out == "confluent (0 ambiguities resolved)\n"

    def test_check_witness(self, files, capsys):
        assert main(["check", files["buch.sys"]]) == 1
        out = capsys.readouterr().out
        assert out == "not confluent: ambiguity at x^2*y leaves y^2 - x\n"

    def test_complete_writes_reusable_file(self, files, capsys):
        assert main(["complete", files["buch.sys"], "-o", files["out.sys"]]) == 0
        out = capsys.readouterr().out
        assert "status: complete" in out
        assert "rule x -> y^2" in out
        assert "rule y^3 -> 1" in out
        assert main(["check", files["out.sys"]]) == 0
        assert main(["member", files["out.sys"], "x^2 - y"]) == 0
        assert main(["member", files["out.sys"], "1"]) == 1
        capsys.readouterr()

    def test_complete_output_is_deterministic(self, files, capsys):
        main(["complete", files["buch.sys"]])
        first = capsys.readouterr().out
        main(["complete", files["buch.sys"]])
        assert capsys.readouterr().out == first

    def test_pairs(self, files, capsys):
        assert main(["pairs", files["buch.sys"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "overlap rules (0, 1) at x^2*y"
        assert out[-1] == "1 ambiguities"

    def test_pairs_json_lines(self, files, capsys):
        assert main(["pairs", files["buch.sys"], "--format", "json-lines"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "pair"
        assert records[0]["superposition"] == "x^2*y"
        assert records[-1] == {"count": 1, "event": "total", "text": "1 ambiguities"}

    def test_irr(self, files, capsys):
        assert main(["irr", files["weyl.sys"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "forbidden factors: y*x"
        assert out[1:] == ["degree %d: %d" % (d, d + 1) for d in range(7)]

    def test_irr_respects_degree_flag(self, files, capsys):
        assert main(["irr", files["weyl.sys"], "--max-degree", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4

    def test_irr_stops_at_the_step_budget(self, tmp_path, capsys):
        # Irreducible counts grow like the Fibonacci numbers, so degree 40
        # would test about 10^8 words.
        path = tmp_path / "fib.sys"
        path.write_text("theory assoc; vars x y; rule x*x -> y\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["irr", str(path), "--max-degree", "40", "--max-steps", "10000"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "",
            "step budget of 10000 exceeded while counting irreducible monomials of degree 17\n",
        )

    def test_irr_spends_a_step_on_each_empty_degree(self, capsys):
        # No path of degree 3 or more is irreducible, so degrees 0 to 3 test
        # 8 paths and each higher degree tests none: the step budget, not
        # the degree, ends the count.
        path = os.path.join(REPO, "bench", "systems", "cli", "path.sys")
        assert main(["irr", path, "--max-degree", "100000", "--max-steps", "200"]) == 2
        assert capsys.readouterr() == (
            "",
            "step budget of 200 exceeded while counting irreducible monomials of degree 196\n",
        )

    def test_member_on_non_confluent_system_fails(self, files, capsys):
        assert main(["member", files["buch.sys"], "x"]) == 1
        assert "confluent" in capsys.readouterr().err

    def test_series_nf_with_precision(self, files, capsys):
        assert main(["nf", files["series.sys"], "x", "--precision", "3"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_precision_without_weights(self, files, capsys):
        assert main(["nf", files["weyl.sys"], "y*x", "--precision", "3"]) == 3
        assert "no weights" in capsys.readouterr().err

    def test_series_nf_without_precision_refused(self, files, capsys):
        # x -> x^2 raises degree forever; plain reduction must not be attempted.
        assert main(["nf", files["series.sys"], "x"]) == 3
        assert "--precision" in capsys.readouterr().err

    def test_series_member_refused(self, files, capsys):
        assert main(["member", files["series.sys"], "x"]) == 3
        assert "well-founded" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "complete"])
    def test_series_check_and_complete_refused(self, files, capsys, command):
        start = time.perf_counter()
        assert main([command, files["series_pairs.sys"]]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs a well-founded order" in captured.err
        assert "reduces only to a precision" in captured.err

    def test_json_nf_record(self, files, capsys):
        assert main(["nf", files["series.sys"], "x", "--precision", "3", "--format", "json-lines"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == {
            "event": "normal-form",
            "precision": 3,
            "result": "0",
            "truncated": True,
            "text": "0",
        }

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/system.sys"]) == 3
        assert capsys.readouterr().err != ""

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.sys"
        p.write_text("theory assoc\nvars x y\nrule x -> x^2\n", encoding="utf-8")
        assert main(["check", str(p)]) == 3
        assert "not below the lead" in capsys.readouterr().err

    def test_budget_exit_code(self, files, capsys):
        assert main(["nf", files["weyl.sys"], "y^3*x^3", "--max-steps", "2"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_budget_error_names_the_monomial(self, files, capsys):
        assert main(["nf", files["weyl.sys"], "y^2*x", "--max-steps", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "step budget of 1 exceeded before rewriting y*x*y\n"

    def test_expansion_bound_exit_code(self, files, capsys):
        assert main(["nf", files["weyl.sys"], "(x+y)^16"]) == 3
        assert "term pairs exceeds" in capsys.readouterr().err

    def test_degree_bound_exit_code(self, files, capsys):
        assert main(["nf", files["weyl.sys"], "(x^300)^300"]) == 3
        assert "degree 90000 exceeds 1000" in capsys.readouterr().err

    @pytest.mark.parametrize("expression", ["x^\u00b2", "\u00b2", "x^1\u00b2"])
    def test_non_decimal_digit_exit_code(self, files, capsys, expression):
        assert main(["nf", files["weyl.sys"], expression]) == 3
        col = expression.index("\u00b2") + 1
        assert capsys.readouterr() == (
            "",
            "line 1, col %d: unexpected character '\u00b2'\n" % col,
        )

    def test_complete_json_lines_counts_pairs_by_fate(self, tmp_path, capsys):
        path = tmp_path / "xyz.sys"
        path.write_text(
            "theory commutative\nvars x y z\nrule x*y -> z\nrule y*z -> x\nrule x*z -> y\n",
            encoding="utf-8",
        )
        assert main(["complete", str(path), "--format", "json-lines"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["event"] == "completion"
        # x*z meets x*y and y*z at the same lcm x*y*z, so one of its pairs is filtered.
        assert (record["pairs_processed"], record["pairs_skipped"], record["pairs_filtered"]) == (8, 0, 1)
        assert main(["complete", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "status: complete (6 rules, 3 added, 0 dropped)"

    def test_series_budget_exit_code(self, files, capsys):
        # The truncated path still honors --max-steps ahead of the cutoff.
        assert main(["nf", files["series.sys"], "x", "--precision", "9", "--max-steps", "3"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_path_nf(self, files, capsys):
        assert main(["nf", files["path.sys"], "a*b*a*b"]) == 0
        assert capsys.readouterr().out == "e1\n"

    def test_magma_nf(self, files, capsys):
        assert main(["nf", files["magma.sys"], "((x*x)*(x*x))"]) == 0
        assert capsys.readouterr().out == "x\n"

    def test_member_budget_exit_code(self, files, capsys):
        # The confluence check behind member honors --max-steps too.
        assert main(["member", files["sl2.sys"], "f*e - e*f + h", "--max-steps", "2"]) == 2
        assert "budget" in capsys.readouterr().err
        assert main(["member", files["sl2.sys"], "f*e - e*f + h"]) == 0
        assert capsys.readouterr().out == "member\n"

    def test_inconclusive_messages_name_the_ambiguity(self, files, capsys):
        where = "after 0 ambiguities, while resolving rules (0, 2) at h*f*e\n"
        assert main(["check", files["sl2.sys"], "--max-steps", "1"]) == 2
        assert capsys.readouterr() == ("", "inconclusive: step budget exhausted " + where)
        assert main(["member", files["sl2.sys"], "f*e - e*f + h", "--max-steps", "1"]) == 2
        assert capsys.readouterr() == (
            "",
            "confluence check exceeded the step budget of 1 " + where,
        )

    def test_deep_magma_nesting_is_a_parse_error(self, files, capsys):
        def nested(depth):
            expr = "x"
            for _ in range(depth):
                expr = "(%s*x)" % expr
            return expr

        assert main(["nf", files["magma_xy.sys"], nested(1200)]) == 3
        assert "nested deeper than" in capsys.readouterr().err
        assert main(["nf", files["magma_xy.sys"], nested(cli_io.MAX_NESTING)]) == 0
        assert capsys.readouterr().out.startswith("(" * (cli_io.MAX_NESTING - 1) + "y*x)")


def test_python_dash_m_runs_the_cli():
    package_root = os.path.dirname(os.path.dirname(cli_io.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "diamondlemma", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: diamond ")


@pytest.mark.parametrize("case", sorted(CLI_GOLDEN))
def test_cli_golden_replay(case, monkeypatch, capsys):
    """Recorded exit code and stdout of every benchmark CLI case, in-process."""
    gold = CLI_GOLDEN[case]
    monkeypatch.chdir(REPO)
    assert main(list(gold["argv"])) == gold["exit"]
    assert capsys.readouterr().out == gold["stdout"]


@pytest.mark.parametrize("cap, status", [("--max-degree", "degree-capped"), ("--max-rules", "rule-capped")])
def test_complete_exits_2_when_its_run_is_capped(cap, status, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert main(["complete", "bench/systems/cli/commutative.sys", cap, "2"]) == 2
    assert capsys.readouterr().out.startswith("status: %s (" % status)


# Theories for the parser oracle: the names an expression may use, known and
# unknown, and over QQ and two prime fields.
ORACLE_THEORIES = {
    "assoc": FreeMonoidTheory(("x", "y")),
    "commutative": CommutativeTheory(("x", "y", "z")),
    "mixed": MixedTheory(("s", "t"), ("x", "y")),
    "magma": FreeMagmaTheory(("x", "y")),
    "path": PathAlgebraTheory(("1", "2"), (("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1"))),
}
ORACLE_FIELDS = [RationalField(), PrimeField(7), PrimeField(32003)]
UNKNOWN_NAMES = ("q", "x1", "_", "e3")
ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


def random_number(rng) -> str:
    text = str(rng.choice((0, 1, 1, 2, 3, 7, 12, 14, 32003, 10**20)))
    if rng.random() < 0.1:
        text = text.translate(ARABIC_INDIC)
    if rng.random() < 0.25:
        text += "/" + str(rng.choice((1, 2, 3, 7, 0, 14, 64006)))
    return text


def random_expression(rng, names, depth=0) -> str:
    """Signs, fractions, scalar-only sums, powers of sums and parentheses."""
    terms = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        factors = []
        for _ in range(rng.choice((1, 1, 2, 3))):
            r = rng.random()
            if r < 0.3:
                atom = random_number(rng)
            elif r < 0.8 or depth >= 3:
                atom = rng.choice(names)
            else:
                atom = "(%s)" % random_expression(rng, names, depth + 1)
            if rng.random() < 0.2:
                atom += "^%d" % rng.choice((0, 1, 2, 3, 5))
            factors.append(atom)
        terms.append(rng.choice(("*", " * ")).join(factors))
    text = rng.choice(("", "", "-", "+")) + terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", "-", " - ", "+")) + term
    return text


def oracle_expressions(theory, seed: int, count: int) -> list:
    rng = random.Random(seed)
    known = tuple(theory.generator_names())
    if isinstance(theory, PathAlgebraTheory):
        known += ("e1", "e2")
    names = known * 3 + UNKNOWN_NAMES
    x, y = known[0], known[1]
    texts = [
        # Bound violations.
        "(%s+%s)^14" % (x, y),
        "%s^1001" % x,
        "(%s^300)^300" % x,
        "(" * 101 + x + ")" * 101,
        "(%s+%s)^13" % (x, y),
        # Empty and blank input.
        "",
        "   ",
    ]
    while len(texts) < count:
        text = random_expression(rng, names)
        r = rng.random()
        if r < 0.15:
            text = "%s - (%s)" % (text, text)  # cancels to zero
        elif r < 0.3:
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice("+-*^()/.,;#$ 0") + text[k:]
        elif r < 0.4:
            k = rng.randrange(len(text))
            text = text[:k] + text[k + 1 :]
        texts.append(text)
    return texts


def parse_outcome(parse, text, theory, field, line, col0):
    """The parsed element, or the ParseError's message and position."""
    try:
        return parse(text, theory, field, line, col0)
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


# Products the parser folds into one term, and where the folding ends: a
# running degree past MAX_EXPONENT at a middle '*', a product bound broken
# before an unknown name (which is reported first), a factor that is zero, a
# path that vanishes mid-term and goes on, zero and fraction scalars between
# factors (1/7 vanishes mod 7), central and word letters, three magma
# factors, '^' on one term and on a sum, and an unexpected character right
# after a long product.
FOLDED_TERMS = [
    ("assoc", "x^600*y^300*x^200"),
    ("commutative", "x^600*y^300*x^200"),
    ("mixed", "t^600*x^300*s^200"),
    ("assoc", "x^600*y^300*x^200*q"),
    ("assoc", "x^600*(x+y)*y^300*x^200"),
    ("assoc", "(x+y)^7*(x+y)^7*q"),
    ("assoc", "x^600*(x-x)*x^500"),
    ("path", "a*a*b*c"),
    ("path", "a*a*c^1000"),
    ("path", "a*b*c^999"),
    ("path", "b*a*a*b + c*c - e1*e1*c*e1"),
    ("path", "a*a*(b+c)*b"),
    ("assoc", "x*0*y + y"),
    ("assoc", "x*1/2*y*2 - y*x"),
    ("assoc", "2*(1/2)*(x+y)*1/3"),
    ("commutative", "3/2*x*2/3*y*7*z"),
    ("commutative", "x*1/7*y"),
    ("commutative", "0*x^600*y^600"),
    ("mixed", "t*x*s^2*y*t - 2*s^2*t^2*x*y"),
    ("mixed", "x*t*y*s*x + (s+x)^3*t"),
    ("magma", "x*y*x"),
    ("magma", "(x*y)*(y*x)*x"),
    ("magma", "2*x*3*y"),
    ("assoc", "(2*x*y)^3 - (x+y)^3"),
    ("assoc", "(x*y)^0 + (x-x)^0 + (x-x)^2"),
    ("commutative", "(x*y^2)^300 + (x*y^2)^400"),
    ("path", "(a*b)^2*(b*a)^0"),
    ("commutative", "x*y*z*x*y*z*x*y*z*x*y*z$"),
    ("magma", "(x*y)*((y*x)*(x*x))*2,"),
]


class TestParserOracle:
    """parse_expression against the character-loop parser it replaced, kept in
    tests/oracles.py: equal elements, coefficient types included, or equal
    ParseErrors."""

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.describe())
    @pytest.mark.parametrize("name", sorted(ORACLE_THEORIES))
    def test_random_expressions(self, name, field):
        theory = ORACLE_THEORIES[name]
        rng = random.Random(name)
        parsed = errors = 0
        for text in oracle_expressions(theory, 20260901, 250):
            line, col0 = rng.choice(((1, 1), (3, 9)))
            want = parse_outcome(reference_parse_expression, text, theory, field, line, col0)
            got = parse_outcome(parse_expression, text, theory, field, line, col0)
            assert got == want, text
            assert repr(got) == repr(want), text
            if isinstance(want, Element):
                parsed += 1
            else:
                errors += 1
        # Both outcomes are exercised in earnest.
        assert parsed > 25 and errors > 25, (parsed, errors)

    @pytest.mark.parametrize("field", ORACLE_FIELDS, ids=lambda f: f.describe())
    @pytest.mark.parametrize("name, text", FOLDED_TERMS)
    def test_folded_terms(self, name, text, field):
        theory = ORACLE_THEORIES[name]
        for line, col0 in ((1, 1), (3, 9)):
            want = parse_outcome(reference_parse_expression, text, theory, field, line, col0)
            got = parse_outcome(parse_expression, text, theory, field, line, col0)
            assert got == want, text
            assert repr(got) == repr(want), text

    def test_corpus_system_files(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "bench_corpus", os.path.join(REPO, "bench", "corpus.py")
        )
        corpus = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, corpus)
        spec.loader.exec_module(corpus)
        texts = []
        for cs in corpus.generate(7, 20):
            texts.append((cs.text, [text for text, _ in cs.elements]))
            texts.append(("field 32003\n" + cs.text, [text for text, _ in cs.elements]))

        def parse_all():
            out = []
            for text, elements in texts:
                sf = parse_system_file(text)
                system = sf.system
                out.append(sf)
                out.extend(cli_io.parse_expression(e, system.theory, system.field) for e in elements)
            return out

        got = parse_all()
        # The system builder parses lower parts through the module attribute.
        monkeypatch.setattr(cli_io, "parse_expression", reference_parse_expression)
        want = parse_all()
        assert len(got) == 2 * 100 * (1 + 3)
        assert got == want
        assert repr(got) == repr(want)


PARSER_ALPHABET = list("xyzab_e1 0123456789+-*^()/.,\u00b2\u0663\u00e9\u0436\u00bd#\t")


class TestParserRobustness:
    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(alphabet=st.sampled_from(PARSER_ALPHABET), max_size=24),
        name=st.sampled_from(sorted(ORACLE_THEORIES)),
        field=st.sampled_from(ORACLE_FIELDS),
    )
    def test_only_parse_errors_escape(self, text, name, field):
        try:
            e = parse_expression(text, ORACLE_THEORIES[name], field)
        except ParseError:
            return
        assert all(field.contains(c) for _, c in e.terms)
