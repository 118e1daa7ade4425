"""Words over a finite alphabet under concatenation, which reduce as
rank-coded strings."""

from __future__ import annotations

import itertools

from .monomial_theories import (
    Theory,
    _CodedIndex,
    _power_string,
    _runs,
)


class _WordIndex(_CodedIndex):
    """Lead index for words, which reduce as their codes."""

    __slots__ = ()
    degree = staticmethod(len)

    def code_of(self, m) -> str:
        return "".join(map(self.codes.__getitem__, m)) if isinstance(m, tuple) else None

    def decode(self, code: str) -> tuple:
        return tuple(map(self.names.__getitem__, code))


class FreeMonoidTheory(Theory):
    """Words over a finite alphabet under concatenation."""

    _fields = ("letters",)
    keyword = "assoc"
    index_class = _WordIndex

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

    def degree(self, m) -> int:
        return len(m)

    def serialize(self, m) -> str:
        return _power_string(_runs(m))

    def apply_context(self, ctx, m):
        left, right = ctx
        return left + m + right

    def monomials_of_degree(self, d):
        return itertools.product(self.letters, repeat=d) if d >= 0 else iter(())
