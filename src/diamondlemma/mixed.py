"""Power products in central variables times words in free letters."""

from __future__ import annotations

import itertools
import operator

from .algebra_core import (
    DiamondError,
    OrderKind,
    TheoryMismatchError,
    _set,
)
from .monomial_theories import (
    LeadIndex,
    Theory,
    _code_weigher,
    _compositions,
    _exp_add,
    _exp_lcm,
    _exp_sub,
    _letter_codes,
    _mirror,
    _power_string,
    _runs,
    _sites,
    _string_overlaps,
    _word_code,
)
from .packed_codes import _FIELD_BITS, _packing


class _MixedIndex(LeadIndex):
    """Lead index for mixed monomials, which reduce as (central code, word
    code) pairs: the central part's packed code of ``packed_codes`` under
    deglex, and the word with each letter ``chr`` of its rank among the
    word letters. A lead divides a code when the difference of their
    central codes sets no guard bit, and that difference and ``str.find``
    give the context (mult, left, right). A central degree or exponent of
    2^31, on entry or in an image, raises DiamondError.

    Two leads meet at the lcm of their central parts, with the word
    superpositions of their word codes when they share a central variable
    or both have letters; leads whose words are equal meet once more there,
    and leads with letters and a shared variable meet in both adjacent
    placements of their words, which the shared variable makes interact.
    With coprime central parts an empty word included in the other is a
    purely central overlap, a montage, which the kernel does not list."""

    __slots__ = ("pack", "unpack", "guard", "degree", "codes", "names", "apply")

    def __init__(self, theory, order) -> None:
        super().__init__(theory)
        central = theory.commutative_letters
        self.pack, self.unpack, self.guard, _ = _packing(
            OrderKind.DEGLEX, central, order.generators, ()
        )
        letters = tuple(x for x in order.generators if x in theory.letter_set)
        self.codes = _letter_codes(letters)
        self.names = {c: x for x, c in self.codes.items()}
        unpack, guard, names = self.unpack, self.guard, self.names
        # The top field of a central code holds its degree.
        top, mirror = _FIELD_BITS * (len(central) + 1), _mirror(letters)
        weight = self.negated_weigher(order) if order.weights else None

        def apply(code, ctx):
            mult, left, right = ctx
            c = code[0] + mult
            if c & guard:
                m = unpack(code[0]), tuple(map(names.__getitem__, code[1]))
                raise DiamondError(
                    "%s times %s has a central degree or exponent of 2^31 or more"
                    % (theory.serialize((unpack(mult), ())), theory.serialize(m))
                )
            return c, left + code[1] + right

        # The degree, word length, word and central code, led by the weight
        # sum under the weighted kinds; central codes of equal degree
        # compare as their exponents do in the order. The descending key
        # negates each field.
        def sort_key(code):
            c, w = code
            n = len(w)
            fields = (c >> top) + n, n, w, c
            return fields if weight is None else (-weight(code),) + fields

        def descending_key(code):
            c, w = code
            n = len(w)
            fields = -(c >> top) - n, -n, w.translate(mirror), -c
            return fields if weight is None else (weight(code),) + fields

        def degree(code):
            return (code[0] >> top) + len(code[1])

        self.apply, self.sort_key, self.descending_key, self.degree = (
            apply, sort_key, descending_key, degree
        )

    def encode(self, m) -> tuple:
        try:
            exps, word = m
            c = self.pack(exps)
            if c is not None and isinstance(word, tuple) and isinstance(m, tuple):
                return c, _word_code(self.codes, word)
        except (KeyError, TypeError, ValueError):  # no pair, or a letter without a code
            pass
        self.theory.check_monomial(m)
        raise DiamondError(
            "monomial %s does not fit the mixed codes, whose central degrees and "
            "exponents stay below 2^31" % self.theory.serialize(m)
        )

    def decode(self, code: tuple) -> tuple:
        return self.unpack(code[0]), tuple(map(self.names.__getitem__, code[1]))

    def decode_context(self, ctx: tuple, code: tuple) -> tuple:
        mult, left, right = ctx
        letter = self.names.__getitem__
        return self.unpack(mult), tuple(map(letter, left)), tuple(map(letter, right))

    def encode_context(self, ctx: tuple) -> tuple:
        # The monomial of the multiplier and both words is encoded, so a
        # context is checked as ``encode`` checks a monomial.
        try:
            mult, left, right = ctx
            central, word = self.encode((mult, left + right))
        except (TheoryMismatchError, TypeError, ValueError):  # or not three parts
            raise TheoryMismatchError(
                "context %r does not belong to %s" % (ctx, self.theory.describe())
            ) from None
        return central, word[: len(left)], word[len(left) :]

    def overlaps(self, code1: tuple, code2: tuple) -> list:
        (c1, w1), (c2, w2) = code1, code2
        e1, e2 = self.unpack(c1), self.unpack(c2)
        shared = any(map(min, e1, e2))
        central = c1 + self.pack(_exp_sub(_exp_lcm(e1, e2), e1))
        same = code1 == code2
        words = _string_overlaps(w1, w2, same) if same or (w1 and w2) or shared else []
        if w1 == w2 and not same:
            guard = self.guard
            inner = 2 if not (c1 - c2) & guard else 1 if not (c2 - c1) & guard else None
            words.append((w1, ("", ""), ("", ""), inner))
        if w1 and w2 and shared:
            words.append((w1 + w2, ("", w2), (w1, ""), None))
            if not same:
                words.append((w2 + w1, (w2, ""), ("", w1), None))
        m1, m2 = central - c1, central - c2
        return [((central, w), (m1,) + x1, (m2,) + x2, inner) for w, x1, x2, inner in words]

    def sites(self, code: tuple, lead: tuple) -> list:
        mult = code[0] - lead[0]
        return [] if mult & self.guard else [(mult,) + ctx for ctx in _sites(code[1], lead[1])]

    def check_superposition(self, lead: tuple, ctx: tuple) -> None:
        c = lead[0] + ctx[0]
        if c & self.guard:
            self.encode(self.decode((c, lead[1].join(ctx[1:]))))

    def site(self, code: tuple, start=0):
        c, w = code
        guard = self.guard
        for i, (central, word) in enumerate(self.entries[start:] if start else self.entries, start):
            mult = c - central
            if not mult & guard:
                k = w.find(word)
                if k >= 0:
                    return i, (mult, w[:k], w[k + len(word) :])
        return None

    def weigher(self, weights: dict):
        """The sum of the weights over a mixed code."""
        unpack, word = self.unpack, _code_weigher(self.codes, weights)
        vector = tuple(map(weights.__getitem__, self.theory.commutative_letters))
        return lambda code: sum(map(operator.mul, vector, unpack(code[0]))) + word(code[1])


class MixedTheory(Theory):
    """Power products in central variables times words in free letters."""

    _fields = ("commutative_letters", "word_letters")
    keyword = "mixed"
    header_statements = ("cvars", "vars")
    index_class = _MixedIndex

    def __init__(self, commutative_letters: tuple, word_letters: tuple) -> None:
        Theory.__init__(self, commutative_letters, word_letters)
        # For validation; no field, so equality, hashing and repr ignore it.
        _set(self, "letter_set", frozenset(word_letters))

    def describe(self) -> str:
        return "mixed(%s;%s)" % (
            ",".join(self.commutative_letters),
            ",".join(self.word_letters),
        )

    def generator_names(self) -> tuple:
        return self.commutative_letters + self.word_letters

    def monomial_named(self, name: str):
        if name in self.commutative_letters:
            return self.monomial(**{name: 1})
        if name in self.word_letters:
            return self.monomial(word=(name,))
        return None

    def one(self) -> tuple:
        return ((0,) * len(self.commutative_letters), ())

    def monomial(self, word=(), **exponents: int) -> tuple:
        unknown = set(exponents) - set(self.commutative_letters)
        if unknown:
            raise TheoryMismatchError("unknown central variables %s" % sorted(unknown))
        m = tuple(exponents.get(x, 0) for x in self.commutative_letters), tuple(word)
        self.check_monomial(m)
        return m

    def multiply(self, a, b):
        return (_exp_add(a[0], b[0]), a[1] + b[1])

    def validate_monomial(self, m) -> bool:
        try:
            exps, word = m
            return (
                isinstance(m, tuple)
                and isinstance(exps, tuple)
                and len(exps) == len(self.commutative_letters)
                and all(isinstance(e, int) and e >= 0 for e in exps)
                and isinstance(word, tuple)
                and self.letter_set.issuperset(word)
            )
        except (TypeError, ValueError):  # no pair, or an unhashable letter
            return False

    def degree(self, m) -> int:
        return sum(m[0]) + len(m[1])

    def serialize(self, m) -> str:
        exps, word = m
        return _power_string(itertools.chain(zip(self.commutative_letters, exps), _runs(word)))

    def monomials_of_degree(self, d):
        for k in range(d + 1):
            for word in itertools.product(self.word_letters, repeat=d - k):
                for exps in _compositions(k, len(self.commutative_letters)):
                    yield (exps, word)
