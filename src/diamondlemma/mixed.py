"""Power products in central variables times words in free letters."""

from __future__ import annotations

import functools
import itertools
import operator

from .algebra_core import (
    DiamondError,
    OrderKind,
    TheoryMismatchError,
    _set,
    _weight_table,
)
from .monomial_theories import (
    _FIELD_BITS,
    LeadIndex,
    OverlapKind,
    Theory,
    _code_weigher,
    _compositions,
    _exp_add,
    _exp_gcd,
    _exp_lcm,
    _exp_le,
    _exp_sub,
    _letter_codes,
    _mirror,
    _packing,
    _power_string,
    _runs,
    _word_code,
    _word_occurrences,
    _word_superpositions,
)


def _mixed_weigher(central: tuple, unpack, codes: dict, weights: dict):
    """The sum of the weights over a mixed code."""
    vector, word = tuple(map(weights.__getitem__, central)), _code_weigher(codes, weights)
    return lambda code: sum(map(operator.mul, vector, unpack(code[0]))) + word(code[1])


@functools.lru_cache(maxsize=256)
def _mixed_codes(theory, kind: OrderKind, generators: tuple, weights: tuple) -> tuple:
    """(pack, unpack, guard, codes, names, apply, sort key, descending key)
    of the mixed codes of the theory under the order of that kind,
    generators and weights, one per order: ``codes`` gives each word letter
    ``chr`` of its rank among them, and ``names`` the letter of each
    character."""
    central = theory.commutative_letters
    pack, unpack, guard = _packing(OrderKind.DEGLEX, central, generators, ())
    letters = tuple(x for x in generators if x in theory.letter_set)
    codes = _letter_codes(letters)
    names = {c: x for x, c in codes.items()}
    # The top field of a central code holds its degree.
    top, mirror, weight = _FIELD_BITS * (len(central) + 1), _mirror(letters), None
    if weights:
        negated = {x: -w for x, w in _weight_table(weights)[1].items()}
        weight = _mixed_weigher(central, unpack, codes, negated)

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

    # The degree, word length, word and central code, led by the weight sum
    # under the weighted kinds; central codes of equal degree compare as
    # their exponents do in the order. ``key`` negates each field.
    def sort_key(code):
        c, w = code
        n = len(w)
        fields = (c >> top) + n, n, w, c
        return fields if weight is None else (-weight(code),) + fields

    def key(code):
        c, w = code
        n = len(w)
        fields = -(c >> top) - n, -n, w.translate(mirror), -c
        return fields if weight is None else (weight(code),) + fields

    return pack, unpack, guard, codes, names, apply, sort_key, key


class _MixedIndex(LeadIndex):
    """Lead index for mixed monomials, which reduce as (central code, word
    code) pairs: the kernel's packed code of the central part under
    deglex, and the word with each letter ``chr`` of its rank among the
    word letters. A lead divides a code when the difference of their
    central codes sets no guard bit, and that difference and ``str.find``
    give the context (mult, left, right). A central degree or exponent of
    2^31, on entry or in an image, raises DiamondError."""

    __slots__ = ("pack", "unpack", "guard", "codes", "names", "apply")

    def __init__(self, theory, leads, order) -> None:
        codes = _mixed_codes(theory, order.kind, order.generators, order.weights)
        self.pack, self.unpack, self.guard, self.codes, self.names, self.apply, *keys = codes
        super().__init__(theory, leads, *keys)

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

    entry = encode

    def decode(self, code: tuple) -> tuple:
        return self.unpack(code[0]), tuple(map(self.names.__getitem__, code[1]))

    def decode_context(self, ctx: tuple, code: tuple) -> tuple:
        mult, left, right = ctx
        letter = self.names.__getitem__
        return self.unpack(mult), tuple(map(letter, left)), tuple(map(letter, right))

    def encode_context(self, ctx: tuple) -> tuple:
        # The multiplier of one side divides the other lead's central part,
        # so it has a code.
        mult, left, right = ctx
        codes = self.codes
        return self.pack(mult), _word_code(codes, left), _word_code(codes, right)

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
        return _mixed_weigher(self.theory.commutative_letters, self.unpack, self.codes, weights)


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

    def apply_context(self, ctx, m):
        mult, left, right = ctx
        exps, word = m
        return (_exp_add(mult, exps), left + word + right)

    def divisions(self, mu, nu) -> list:
        (e1, w1), (e2, w2) = mu, nu
        if not _exp_le(e2, e1):
            return []
        mult = _exp_sub(e1, e2)
        return [(mult, w1[:i], w1[i + len(w2) :]) for i in _word_occurrences(w1, w2)]

    def overlaps(self, mu1, mu2) -> list:
        (c1, w1), (c2, w2) = mu1, mu2
        shared = any(_exp_gcd(c1, c2))
        lcm = _exp_lcm(c1, c2)
        m1, m2 = _exp_sub(lcm, c1), _exp_sub(lcm, c2)
        same = mu1 == mu2
        words = []
        if same or (w1 and w2) or shared:
            # An empty word included in the other is a purely central overlap,
            # so with coprime central parts it is a discarded montage.
            words.extend(_word_superpositions(w1, w2, same))
        if w1 == w2 and not same:
            # Equal word parts with distinct central parts: one superposition.
            if _exp_le(c2, c1):
                words.append((w1, ((), ()), ((), ()), OverlapKind.INCLUSION, 2))
            elif _exp_le(c1, c2):
                words.append((w1, ((), ()), ((), ()), OverlapKind.INCLUSION, 1))
            else:
                words.append((w1, ((), ()), ((), ()), OverlapKind.OVERLAP, None))
        if w1 and w2 and shared:
            # Adjacent word placements still interact through shared central
            # variables; both adjacencies are minimal superpositions.
            words.append((w1 + w2, ((), w2), (w1, ()), OverlapKind.OVERLAP, None))
            if not same:
                words.append((w2 + w1, (w2, ()), ((), w1), OverlapKind.OVERLAP, None))
        return [
            ((lcm, w), (m1,) + x1, (m2,) + x2, kind, inner) for w, x1, x2, kind, inner in words
        ]

    def monomials_of_degree(self, d):
        for k in range(d + 1):
            for word in itertools.product(self.word_letters, repeat=d - k):
                for exps in _compositions(k, len(self.commutative_letters)):
                    yield (exps, word)
