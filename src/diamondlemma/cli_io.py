"""System file parsing, expression syntax, formatting and the command line.

``main`` reads the arguments by the table of ``command_line`` and runs the
subcommand's handler, the ``run`` of the module ``cli_<subcommand>``, which
it imports then. Each handler imports the modules only it runs (confluence,
completion, ambiguities, irreducible counting, power series, json), so a
``diamond`` process compiles no more of the package than its subcommand
needs. Only ``main`` imports ``command_line``, so parsing through the
library does not compile it.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
from fractions import Fraction

from .algebra_core import (
    DiamondError,
    Element,
    Fp,
    MonomialOrder,
    OrderKind,
    PrimeField,
    RationalField,
    ScalarError,
    _accumulate,
    _Value,
)
from .monomial_theories import THEORIES, theory_class
from .rewriting_engine import (
    RewritingSystem,
    Rule,
    StepBudgetExceededError,
    _rule_codes,
)


class ParseError(DiamondError):
    """Syntax or validation error carrying a source position."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


_TOKEN = re.compile(r"\d+|\w+|[-+*^()/]|\S")
# Text that may hold an unexpected character: one that starts no token, or,
# outside ASCII, a numeral such as '²' where \w would start a name.
_SUSPECT = re.compile(r"[^\w\s+\-*^()/]|[^\x00-\x7f]")

# Each parenthesis level costs the parser one Python frame, and magma trees
# as deep as the nesting recurse in the theory code.
MAX_NESTING = 100
# Powers and products expand term by term, so an exponent above MAX_EXPONENT,
# a power or product with a monomial of degree above MAX_EXPONENT, or a
# product of more than MAX_PRODUCT_TERMS term pairs is refused before it is
# expanded.
MAX_EXPONENT = 1000
MAX_PRODUCT_TERMS = 10_000


class _Fail(Exception):
    """A parse error at a token index, which ``parse_expression`` turns into
    a ParseError at that token's column; the end of the text has the index
    of the token list's last entry, a blank."""


def _int(tok: str, k: int) -> int:
    try:
        return int(tok)
    except ValueError:
        # More digits than sys.get_int_max_str_digits() allows.
        raise _Fail("number of %d digits is too long" % len(tok), k)


def _one(theory, end: int):
    try:
        return theory.one()
    except DiamondError:
        raise _Fail("a bare scalar is not an element of this theory", end)


def _multiply(a: dict, b: dict, star: int, theory, p: int) -> dict:
    pairs = len(a) * len(b)
    if pairs > MAX_PRODUCT_TERMS:
        raise _Fail("product of %d term pairs exceeds %d" % (pairs, MAX_PRODUCT_TERMS), star)
    degree = max(map(theory.degree, a), default=0) + max(map(theory.degree, b), default=0)
    if degree > MAX_EXPONENT:
        raise _Fail("result of degree %d exceeds %d" % (degree, MAX_EXPONENT), star)
    multiply = theory.multiply
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = multiply(m1, m2)
            if m is not None:
                _accumulate(out, m, c1 * c2, p)
    return out


def _power(value, toks: list, caret: int, theory, p: int):
    """The value to the power of the exponent after the caret toks[caret]."""
    num = toks[caret + 1]
    if not num.isdecimal():
        raise _Fail("'^' needs a nonnegative integer exponent", caret)
    k = _int(num, caret + 1)
    if k > MAX_EXPONENT:
        raise _Fail("exponent %d exceeds %d" % (k, MAX_EXPONENT), caret + 1)
    if type(value) is not dict:
        return pow(value, k, p) if p else value**k
    if not theory.associative:
        raise _Fail("powers are ambiguous in a nonassociative product", caret)
    if k == 0:
        return {_one(theory, len(toks) - 1): 1}
    degree = k * max(map(theory.degree, value), default=0)
    if degree > MAX_EXPONENT:
        raise _Fail("result of degree %d exceeds %d" % (degree, MAX_EXPONENT), caret)
    if len(value) == 1:
        # A power of one term is one term: multiply monomials, not sums.
        ((m, c),) = value.items()
        power = m
        for _ in range(k - 1):
            power = theory.multiply(power, m)
            if power is None:
                return {}
        return {power: pow(c, k, p) if p else c**k}
    result = value
    for _ in range(k - 1):
        result = _multiply(result, value, caret, theory, p)
    return result


def _sum(toks: list, i: int, depth: int, theory, field):
    """Parse the sum that starts at toks[i]; returns its value and the index
    of the first token after it.

    A value is a scalar c or a dict {monomial: c} with no zero: c is an int
    residue over GF(p), and over QQ an int or, for a rational that is no
    integer, its ``Fraction``. Terms and factors are read inline, recursing
    only at '('. While every element factor of a term is a single term, the
    term is folded into one monomial, coefficient and running degree; once
    a factor is a sum, dicts are multiplied. A product bound that a factor
    breaks is raised only once the term has parsed, so that an error in a
    later factor comes first.
    """
    p = field.characteristic
    names = theory.named_monomials
    multiply = theory.multiply
    end = len(toks) - 1
    total: dict = {}
    scalars = 0
    bare = elements = False
    sign = toks[i]
    if sign == "+" or sign == "-":
        i += 1
    while True:
        scalar = 1
        count = 0  # element factors
        prod = pending = None
        while True:
            tok = toks[i]
            i += 1
            entry = names.get(tok)
            if entry is not None and toks[i] != "^":
                value = None  # the single term m of degree d, coefficient c
                m, d = entry
                c = 1
            else:
                if entry is not None:
                    value = {entry[0]: 1}
                elif tok == "(":
                    if depth == MAX_NESTING:
                        raise _Fail("parentheses nested deeper than %d levels" % MAX_NESTING, i - 1)
                    value, j = _sum(toks, i, depth + 1, theory, field)
                    if toks[j] != ")":
                        raise _Fail("unbalanced parenthesis", i - 1)
                    i = j + 1
                elif tok.isdecimal():
                    value = _int(tok, i - 1)
                    if toks[i] == "/":
                        value = _fraction(value, toks, i, field)
                        i += 2
                    elif p:
                        value %= p
                elif tok == " ":
                    raise _Fail("unexpected end of expression", i - 1)
                elif tok in "+-*^)/":
                    raise _Fail("unexpected %r" % tok, i - 1)
                else:
                    raise _Fail("unknown generator %r" % tok, i - 1)
                if toks[i] == "^":
                    value = _power(value, toks, i, theory, p)
                    i += 2
                if type(value) is dict and len(value) < 2:
                    if value:
                        ((m, c),) = value.items()
                        d = theory.degree(m)
                    else:
                        m, c, d = None, 0, 0
                    value = None
            if value is not None and type(value) is not dict:
                scalar = scalar * value % p if p else scalar * value
            else:
                count += 1
                if count == 1:
                    if value is None:
                        mono, coef, deg = m, c, d
                    else:
                        prod = value
                elif pending is None:
                    if value is None and prod is None:
                        if deg + d > MAX_EXPONENT:
                            pending = _Fail(
                                "result of degree %d exceeds %d" % (deg + d, MAX_EXPONENT), star
                            )
                        elif coef and c:
                            mono = multiply(mono, m)
                            if mono is None:
                                coef = deg = 0
                            else:
                                coef = coef * c % p if p else coef * c
                                deg += d
                        else:
                            coef = deg = 0
                    else:
                        if value is None:
                            value = {m: c} if c else {}
                        if prod is None:
                            prod = {mono: coef} if coef else {}
                        try:
                            prod = _multiply(prod, value, star, theory, p)
                        except _Fail as exc:
                            pending = exc
            if toks[i] != "*":
                break
            star = i
            i += 1
        if count > 2 and not theory.associative:
            raise _Fail("the product is nonassociative; parenthesize it explicitly", end)
        if pending is not None:
            raise pending
        minus = sign == "-"
        if count == 0:
            bare = bare or scalar != 0
            scalars = scalars - scalar if minus else scalars + scalar
        else:
            elements = True
            for m, c in ((mono, coef),) if prod is None else prod.items():
                if scalar != 1:
                    c = c * scalar % p if p else c * scalar
                _accumulate(total, m, -c if minus else c, p)
        sign = toks[i]
        if sign != "+" and sign != "-":
            break
        i += 1
    if not elements:
        return scalars % p if p else scalars, i
    if bare:
        _accumulate(total, _one(theory, end), scalars, p)
    return total, i


def _fraction(n: int, toks: list, slash: int, field):
    """The scalar n over the denominator after the bar toks[slash]."""
    den = toks[slash + 1]
    if not den.isdecimal():
        raise _Fail("expected a denominator", slash)
    d = _int(den, slash + 1)
    if d == 0:
        raise _Fail("zero denominator", slash + 1)
    try:
        c = field.coeff(Fraction(n, d))
    except ScalarError as exc:
        raise _Fail(str(exc), slash - 1)
    raw = {None: c}
    if field.into_raw(raw) != 1:
        # A rational that is no integer stays its Fraction.
        return c
    return raw[None]


def parse_expression(text: str, theory, field, line: int = 1, col0: int = 1) -> Element:
    """Parse one expression into an element over the given theory and field.

    A number is a run of decimal digits, what ``int`` reads; a name is a
    letter or ``_`` followed by letters, digits and ``_``. Whitespace
    separates tokens and any other character is an error. A token's column
    is found only for an error, by scanning the text again.
    """
    return Element._of_nonzero(field.from_raw(_parse(text, theory, field, line, col0)))


def _parse(text, theory, field, line, col0):
    """The value of ``parse_expression``, {monomial: c} with no zero as
    ``_sum`` gives it, before its coefficients become the field's."""
    toks = _TOKEN.findall(text)
    try:
        if _SUSPECT.search(text):
            for k, tok in enumerate(toks):
                if not (tok[0].isalpha() or tok[0].isdecimal() or tok[0] in "_+-*^()/"):
                    raise _Fail("unexpected character %r" % tok[0], k)
        if not toks:
            raise _Fail("empty expression", 0)
        toks.append(" ")
        value, i = _sum(toks, 0, 0, theory, field)
        if toks[i] != " ":
            raise _Fail("unexpected %r" % toks[i], i)
        if type(value) is not dict:
            value = {_one(theory, i): value} if value else {}
    except _Fail as exc:
        message, k = exc.args
        starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        raise ParseError(message, line, col0 + starts[k]) from None
    return value


class SystemFile(_Value):
    """A parsed system plus the optional norm weights declared alongside it."""

    _fields = ("system", "weight_data")


# An order statement names its kind by the kind's value or, for a series
# order, also by "series", which comes last so that _ORDER_NAMES, the
# keyword format_system writes, keeps it.
_ORDER_KEYWORDS = {**{kind.value: kind for kind in OrderKind}, "series": OrderKind.SERIES_DEGLEX}
_ORDER_NAMES = {kind: keyword for keyword, kind in _ORDER_KEYWORDS.items()}


@functools.lru_cache(maxsize=256)
def _declared(build, *values):
    """``build(*values)``, one object for every file that declares alike,
    the least recently used dropped first. The values are plain, as the
    statements read them, so they hash in C where a _Value hashes in
    Python: ``RationalField`` with none, ``PrimeField`` with its prime, a
    theory class with its header declarations, and ``_order`` with those
    and the order's kind value, generators and weights."""
    return build(*values)


def _order(cls, header: tuple, kind: str, generators: tuple, weights: tuple) -> MonomialOrder:
    """The order a file declares over the theory ``_declared(cls, *header)``."""
    return MonomialOrder(OrderKind(kind), _declared(cls, *header), generators, weights)


class _SystemBuilder:
    """Accumulates header statements and rules into a validated system."""

    def __init__(self) -> None:
        # The class of the declared theory, whose module the theory
        # statement imports.
        self.theory_class = None
        # (line, col) of the theory statement, where finish reports a theory
        # it cannot build.
        self.theory_at = (1, 1)
        # Theory declarations by statement; each theory takes the ones it
        # names in header_statements, in field order.
        self.header = {"vars": [], "cvars": [], "vertices": [], "arrow": []}
        self.arrow_at: list = []  # (line, col) of each arrow statement
        # The names an expression reads as monomials, ev for each vertex v.
        self.declared: set = set()
        # (statement, line, col) of each header statement read before the
        # theory statement, checked once that is read.
        self.early_header: list = []
        self.field = _declared(RationalField)
        self.weights: list = []
        self.weights_line = None
        self.order = None
        self.theory = None
        self.rules: list = []

    def _declare(self, names, line: int, col: int) -> None:
        """Refuse a name that an expression would read as two monomials."""
        for name in names:
            if name in self.declared:
                raise ParseError("%r names two generators" % name, line, col)
            self.declared.add(name)

    def _check_header(self, keyword: str, line: int, col: int) -> None:
        """Refuse a header statement the declared theory does not take."""
        if self.theory_class is None:
            self.early_header.append((keyword, line, col))
        elif keyword not in self.theory_class.header_statements:
            raise ParseError(
                "theory %s takes no %s statement" % (self.theory_class.keyword, keyword), line, col
            )

    def statement(self, fragment: str, line: int, frag_col: int) -> None:
        # No lambda or generator here captures a local name, as each one
        # captured costs a cell on every call, rules included.
        stripped = fragment.strip()
        if not stripped:
            return
        col = frag_col + (len(fragment) - len(fragment.lstrip()))
        words = stripped.split()
        keyword = words[0]
        if keyword in self.header:
            self._check_header(keyword, line, col)
        if keyword == "theory":
            if self.theory_class is not None:
                raise ParseError("duplicate theory statement", line, col)
            if len(words) != 2 or words[1] not in THEORIES:
                raise ParseError("expected one of: theory %s" % "|".join(THEORIES), line, col)
            self.theory_class = theory_class(words[1])
            self.theory_at = (line, col)
            for early in self.early_header:
                self._check_header(*early)
        elif keyword in ("vars", "cvars", "vertices"):
            target = self.header[keyword]
            if target:
                raise ParseError("duplicate %s statement" % keyword, line, col)
            names = words[1:]
            if not names or len(set(names)) != len(names):
                raise ParseError("%s needs distinct names" % keyword, line, col)
            self._declare(["e" + v for v in names] if keyword == "vertices" else names, line, col)
            target.extend(names)
        elif keyword == "arrow":
            parts = [w.rstrip(":") for w in words[1:] if w not in (":", "->")]
            parts = [p for p in parts if p]
            if len(parts) != 3:
                raise ParseError("expected: arrow <name> <source> <target>", line, col)
            name = parts[0]
            if name in [existing for existing, _, _ in self.header["arrow"]]:
                raise ParseError("duplicate arrow %r" % name, line, col)
            self._declare([name], line, col)
            self.header["arrow"].append((name, parts[1], parts[2]))
            self.arrow_at.append((line, col))
        elif keyword == "field":
            if len(words) != 2:
                raise ParseError("expected: field rational | field <prime>", line, col)
            if words[1] in ("rational", "QQ"):
                self.field = _declared(RationalField)
            elif words[1].isdecimal():
                try:
                    p = int(words[1])
                except ValueError:  # more digits than int reads, so no machine word
                    p = 0
                try:
                    self.field = _declared(PrimeField, p)
                except ScalarError as exc:
                    raise ParseError(str(exc), line, col)
            else:
                raise ParseError("expected: field rational | field <prime>", line, col)
            # The rules read so far hold values of the field they were read in.
            if self.rules:
                RewritingSystem(self.theory, self.order, tuple(self.rules), self.field)
        elif keyword == "weights":
            if len(words) < 2:
                raise ParseError("weights needs name:value entries", line, col)
            for entry in words[1:]:
                name, sep, value = entry.partition(":")
                if not sep or not name:
                    raise ParseError("weight entries look like x:-1", line, col)
                if name in dict(self.weights):
                    raise ParseError("duplicate weight for %r" % name, line, col)
                # Fraction builds 10^e for a decimal exponent e.
                _, e, exponent = value.lower().partition("e")
                try:
                    if e and abs(int(exponent)) > MAX_EXPONENT:
                        raise ValueError(value)
                    self.weights.append((name, Fraction(value)))
                except (ValueError, ZeroDivisionError):
                    raise ParseError("bad weight value %r" % value, line, col)
            if self.weights_line is None:
                self.weights_line = (line, col)
        elif keyword == "order":
            if self.rules:
                raise ParseError("declare the order before rules", line, col)
            if self.order is not None:
                raise ParseError("duplicate order statement", line, col)
            if len(words) < 2 or words[1] not in _ORDER_KEYWORDS:
                raise ParseError(
                    "expected one of: order deglex|weighted-deglex|lex|series", line, col
                )
            kind = _ORDER_KEYWORDS[words[1]]
            # The theory is built here, at the order statement or, with
            # none, at the first rule or the end of the file.
            cls = self.theory_class
            if cls is None:
                raise ParseError("no theory declared", line, col)
            for statement in cls.header_statements:
                if not self.header[statement]:
                    raise ParseError("theory needs a %r statement" % statement, line, col)
            vertices = self.header["vertices"]
            for (name, src, tgt), at in zip(self.header["arrow"], self.arrow_at):
                if src not in vertices or tgt not in vertices:
                    raise ParseError("arrow %s references an unknown vertex" % name, *at)
            header = tuple(map(tuple, map(self.header.get, cls.header_statements)))
            theory = self.theory = _declared(cls, *header)
            joined = "".join(words[2:])
            if "<" in joined:
                generators = tuple(joined.split("<"))
            elif ">" in joined:
                generators = tuple(reversed(joined.split(">")))
            elif words[2:]:
                generators = tuple(words[2:])
            else:
                generators = tuple(theory.generator_names())
            weights = ()
            if kind in (OrderKind.WEIGHTED_DEGLEX, OrderKind.SERIES_DEGLEX):
                if not self.weights:
                    raise ParseError(
                        "declare weights before a weighted order", line, col
                    )
                weights = tuple(self.weights)
            try:
                self.order = _declared(_order, cls, header, kind._value_, generators, weights)
            except DiamondError as exc:
                raise ParseError(str(exc), line, col)
        elif keyword == "rule":
            if self.order is None:
                # With no order statement, rules reduce under deglex over the
                # declaration order of the generators.
                self.statement("order deglex", line, col)
            body = stripped[len(keyword):]
            body_col = col + len(keyword)
            idx = body.find("->")
            if idx < 0:
                raise ParseError("a rule looks like: rule <lead> -> <element>", line, col)
            lead = _parse(body[:idx], self.theory, self.field, line, body_col)
            lower = parse_expression(
                body[idx + 2 :], self.theory, self.field, line, body_col + idx + 2
            )
            # A monic monomial's value is {monomial: 1} over every field.
            if list(lead.values()) != [1]:
                raise ParseError("rule lead must be a single monic monomial", line, col)
            rule = Rule(*lead, lower)  # the lead's one key
            # Checked as it is read, so that a refusal names its line;
            # ``finish`` builds the system without checking again.
            problem = _rule_codes(self.theory, self.order, self.field, (rule,))[2]
            if problem is not None:
                raise ParseError(problem[1], line, col)
            self.rules.append(rule)
        else:
            raise ParseError("unknown statement %r" % keyword, line, col)

    def finish(self) -> SystemFile:
        if self.order is None:
            self.statement("order deglex", *self.theory_at)
        system = RewritingSystem._of_checked_rules(
            self.theory, self.order, tuple(self.rules), self.field
        )
        weight_data = None
        if self.weights:
            from .power_series import WeightData

            w_line, w_col = self.weights_line
            try:
                weight_data = WeightData(self.theory, tuple(self.weights))
            except DiamondError as exc:
                raise ParseError(str(exc), w_line, w_col)
        return SystemFile(system, weight_data)


def parse_system_file(text: str) -> SystemFile:
    """Parse the line-oriented system format; ';' also separates statements."""
    builder = _SystemBuilder()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        offset = 0
        for fragment in line.split(";"):
            builder.statement(fragment, line_no, offset + 1)
            offset += len(fragment) + 1
    return builder.finish()


def format_scalar(c) -> str:
    """Render a coefficient canonically; residues print their representative."""
    if isinstance(c, Fp):
        return str(c.value)
    return str(c)


def _terms_descending(order, element: Element) -> list:
    # Display follows the written convention: highest degree first, the order
    # key breaking ties; series orders instead lead with the most significant
    # (highest-norm) term.
    th = order.theory
    if order.kind is OrderKind.SERIES_DEGLEX:
        key = lambda t: order.sort_key(t[0])
    else:
        key = lambda t: (th.degree(t[0]), order.sort_key(t[0]))
    return sorted(element.terms, key=key, reverse=True)


def format_element(theory, order, element: Element) -> str:
    """Render an element with terms in descending order."""
    if element.is_zero():
        return "0"
    pieces = []
    for m, c in _terms_descending(order, element):
        mono = theory.serialize(m)
        if isinstance(c, Fp):
            sign, mag = "+", format_scalar(c)
            is_one = c.value == 1
        else:
            sign = "-" if c < 0 else "+"
            mag = format_scalar(-c if c < 0 else c)
            is_one = abs(c) == 1
        if mono == "1":
            body = mag
        elif is_one:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if not pieces:
            pieces.append(body if sign == "+" else "-%s" % body)
        else:
            pieces.append("%s %s" % (sign, body))
    return " ".join(pieces)


def format_rule(theory, order, rule: Rule) -> str:
    return "%s -> %s" % (theory.serialize(rule.lead), format_element(theory, order, rule.lower))


def format_system(system: RewritingSystem, weight_data: WeightData | None = None) -> str:
    """Render a system as parseable statements, one per line."""
    th = system.theory
    lines = th.header_lines()
    if isinstance(system.field, PrimeField):
        lines.append("field %d" % system.field.p)
    weights = weight_data.weights if weight_data is not None else system.order.weights
    if weights:
        lines.append("weights %s" % " ".join("%s:%s" % (n, w) for n, w in weights))
    lines.append(
        "order %s %s"
        % (_ORDER_NAMES[system.order.kind], "<".join(system.order.generators))
    )
    for rule in system.rules:
        lines.append("rule %s" % format_rule(th, system.order, rule))
    return "\n".join(lines) + "\n"


def _emit(records: list, args) -> None:
    if args.format == "json-lines":
        import json

        for record in records:
            print(json.dumps(record, sort_keys=True))
    else:
        for record in records:
            print(record["text"])


def _load(path: str) -> SystemFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_system_file(handle.read())
        except UnicodeDecodeError as exc:
            raise DiamondError("cannot read %s: %s" % (path, exc))


def main(argv=None) -> int:
    from .command_line import read

    try:
        args = read(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        # A subcommand's handler is the ``run`` of its own module, which only
        # a process that runs the subcommand compiles.
        return importlib.import_module(".cli_" + args.command, __package__).run(args)
    except (DiamondError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2 if isinstance(exc, StepBudgetExceededError) else 3


if __name__ == "__main__":
    sys.exit(main())
