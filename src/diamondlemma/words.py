"""Words over a finite alphabet under concatenation, which reduce as
rank-coded strings."""

from __future__ import annotations

import functools
import itertools

from .algebra_core import OrderKind, _set, _Value, _weight_table
from .monomial_theories import (
    OverlapDatum,
    Theory,
    _CodedIndex,
    _letter_codes,
    _power_string,
    _runs,
    _word_occurrences,
    _word_superpositions,
)


def _length_first(code: str) -> tuple:
    return len(code), code


def _code_weigher(codes: dict, weights: dict):
    by_code = {codes[x]: w for x, w in weights.items()}
    return lambda code: sum(map(by_code.__getitem__, code))


@functools.lru_cache(maxsize=256)
def _weighted_key(generators: tuple, weights: tuple):
    """The key on word codes of a weighted order with these generators and
    weights; one per order, so that the indexes of equal orders hold equal
    keys. The order's fields key the cache, since they hash faster than the
    order."""
    weight = _code_weigher(_letter_codes(generators), _weight_table(weights)[1])
    return lambda code: (weight(code), len(code), code)


def _concat(ctx: tuple, code: str) -> str:
    left, right = ctx
    return left + code + right


class _WordIndex(_CodedIndex):
    """Lead index for words, which reduce as their codes: the code of a word
    is a ``str`` of one character per letter, ``chr`` of the letter's rank
    in the order, its position in ``letters``. Codes of equal length then
    compare as the rank tuples do, so ``(len(code), code)`` is the deglex
    key and the weighted kinds lead it with the weight sum over the codes.
    An encoded context is a (left, right) pair of codes."""

    __slots__ = ("letters",)

    def __init__(self, theory, leads, order) -> None:
        self.letters = order.generators
        # Words admit no lex order, so the other kinds are weighted.
        key = _length_first
        if order.kind is not OrderKind.DEGLEX:
            key = _weighted_key(self.letters, order.weights)
        super().__init__(theory, leads, order, self.letters, key)

    entry = _CodedIndex.code

    def encode(self, m) -> str:
        if isinstance(m, tuple):
            try:
                return self.code(m)
            except (KeyError, TypeError):  # a letter without a code
                pass
        # Every letter of the theory has a code, so this raises.
        self.theory.check_monomial(m)

    def site(self, code: str, start=0):
        for i, word in enumerate(self.entries[start:] if start else self.entries, start):
            k = code.find(word)
            if k >= 0:
                return i, (code[:k], code[k + len(word) :])
        return None

    apply = staticmethod(_concat)

    def decode(self, code: str) -> tuple:
        return tuple(map(self.letters.__getitem__, map(ord, code)))

    def decode_context(self, ctx: tuple) -> tuple:
        return tuple(map(self.decode, ctx))

    def weigher(self, weights: dict):
        return _code_weigher(self.codes, weights)


class FreeMonoidTheory(Theory):
    """Words over a finite alphabet under concatenation."""

    _fields = ("letters",)
    keyword = "assoc"
    index_class = _WordIndex

    def __init__(self, letters: tuple) -> None:
        _Value.__init__(self, letters)
        # For validation; no field, so equality, hashing and repr ignore it.
        _set(self, "letter_set", frozenset(letters))

    def describe(self) -> str:
        return "assoc(%s)" % ",".join(self.letters)

    def generator_names(self) -> tuple:
        return self.letters

    def monomial_named(self, name: str):
        return (name,) if name in self.letters else None

    def one(self) -> tuple:
        return ()

    def word(self, *letters: str) -> tuple:
        m = tuple(letters)
        self.check_monomial(m)
        return m

    def multiply(self, a, b):
        return a + b

    def validate_monomial(self, m) -> bool:
        try:
            return isinstance(m, tuple) and self.letter_set.issuperset(m)
        except TypeError:  # an unhashable letter
            return False

    def degree(self, m) -> int:
        return len(m)

    def weight_sum(self, m, weights: dict) -> int:
        return sum(map(weights.__getitem__, m))

    def rank_encoding(self, m, order) -> tuple:
        return tuple(map(order.ranks.__getitem__, m))

    def serialize(self, m) -> str:
        return _power_string(_runs(m))

    def apply_context(self, ctx, m):
        left, right = ctx
        return left + m + right

    def divisions(self, mu, nu) -> list:
        return [(mu[:i], mu[i + len(nu) :]) for i in _word_occurrences(mu, nu)]

    def overlaps(self, mu1, mu2) -> list:
        return [OverlapDatum(*s) for s in _word_superpositions(mu1, mu2, mu1 == mu2)]

    def monomials_of_degree(self, d):
        return itertools.product(self.letters, repeat=d) if d >= 0 else iter(())
