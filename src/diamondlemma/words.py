"""Words over a finite alphabet under concatenation, which reduce as
rank-coded strings."""

from __future__ import annotations

import itertools

from .algebra_core import _set
from .monomial_theories import (
    Theory,
    _CodedIndex,
    _power_string,
    _runs,
    _word_code,
    _word_occurrences,
    _word_superpositions,
)


class _WordIndex(_CodedIndex):
    """Lead index for words, which reduce as their codes."""

    __slots__ = ()

    def code_of(self, m) -> str:
        return _word_code(self.codes, m) if isinstance(m, tuple) else None

    def decode(self, code: str) -> tuple:
        return tuple(map(self.letters.__getitem__, map(ord, code)))


class FreeMonoidTheory(Theory):
    """Words over a finite alphabet under concatenation."""

    _fields = ("letters",)
    keyword = "assoc"
    index_class = _WordIndex

    def __init__(self, letters: tuple) -> None:
        Theory.__init__(self, letters)
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

    def serialize(self, m) -> str:
        return _power_string(_runs(m))

    def apply_context(self, ctx, m):
        left, right = ctx
        return left + m + right

    def divisions(self, mu, nu) -> list:
        return [(mu[:i], mu[i + len(nu) :]) for i in _word_occurrences(mu, nu)]

    def overlaps(self, mu1, mu2) -> list:
        return list(_word_superpositions(mu1, mu2, mu1 == mu2))

    def monomials_of_degree(self, d):
        return itertools.product(self.letters, repeat=d) if d >= 0 else iter(())
