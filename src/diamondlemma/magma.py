"""Binary trees with labelled leaves under the non-associative product."""

from __future__ import annotations

from .algebra_core import TheoryMismatchError
from .monomial_theories import OverlapDatum, OverlapKind, Theory


_HOLE = None


def _tree_leaves(tree) -> int:
    if isinstance(tree, str):
        return 1
    return _tree_leaves(tree[0]) + _tree_leaves(tree[1])


def _subtree_contexts(tree, target, build):
    """Collect contexts for occurrences of target inside tree, preorder."""
    found = []
    if tree == target:
        found.append(build(_HOLE))
    if not isinstance(tree, str):
        left, right = tree
        found.extend(_subtree_contexts(left, target, lambda hole: build((hole, right))))
        found.extend(_subtree_contexts(right, target, lambda hole: build((left, hole))))
    return found


def _plug(ctx, filler):
    if ctx is _HOLE:
        return filler
    left, right = ctx
    if _has_hole(left):
        return (_plug(left, filler), right)
    return (left, _plug(right, filler))


def _has_hole(ctx) -> bool:
    if ctx is _HOLE:
        return True
    if isinstance(ctx, str):
        return False
    return _has_hole(ctx[0]) or _has_hole(ctx[1])


class FreeMagmaTheory(Theory):
    """Binary trees with labelled leaves under non-associative product."""

    _fields = ("letters",)
    keyword = "magma"
    irr_semantics = "divisor"
    associative = False

    def describe(self) -> str:
        return "magma(%s)" % ",".join(self.letters)

    def generator_names(self) -> tuple:
        return self.letters

    def monomial_named(self, name: str):
        return name if name in self.letters else None

    def leaf(self, letter: str):
        if letter not in self.letters:
            raise TheoryMismatchError("unknown letter %r" % letter)
        return letter

    def node(self, left, right):
        return (left, right)

    def multiply(self, a, b):
        return (a, b)

    def validate_monomial(self, m) -> bool:
        if isinstance(m, str):
            return m in self.letters
        return (
            isinstance(m, tuple)
            and len(m) == 2
            and self.validate_monomial(m[0])
            and self.validate_monomial(m[1])
        )

    def degree(self, m) -> int:
        return _tree_leaves(m)

    def weight_sum(self, m, weights: dict) -> int:
        if isinstance(m, str):
            return weights[m]
        return self.weight_sum(m[0], weights) + self.weight_sum(m[1], weights)

    def rank_encoding(self, m, order) -> tuple:
        if isinstance(m, str):
            return (0, order.rank(m))
        return (1, self.rank_encoding(m[0], order), self.rank_encoding(m[1], order))

    def serialize(self, m) -> str:
        if isinstance(m, str):
            return m
        return "(%s*%s)" % (self.serialize(m[0]), self.serialize(m[1]))

    def apply_context(self, ctx, m):
        return _plug(ctx, m)

    def divisions(self, mu, nu) -> list:
        return _subtree_contexts(mu, nu, lambda hole: hole)

    def overlaps(self, mu1, mu2) -> list:
        data = []
        if mu1 == mu2:
            ident = _HOLE
            data.append(OverlapDatum(mu1, ident, ident, OverlapKind.INCLUSION, 2))
            return data
        if self.degree(mu2) < self.degree(mu1):
            for ctx in self.divisions(mu1, mu2):
                data.append(OverlapDatum(mu1, _HOLE, ctx, OverlapKind.INCLUSION, 2))
        elif self.degree(mu1) < self.degree(mu2):
            for ctx in self.divisions(mu2, mu1):
                data.append(OverlapDatum(mu2, ctx, _HOLE, OverlapKind.INCLUSION, 1))
        return data

    def monomials_of_degree(self, d):
        if d <= 0:
            return
        if d == 1:
            yield from self.letters
            return
        for k in range(1, d):
            for left in self.monomials_of_degree(k):
                for right in self.monomials_of_degree(d - k):
                    yield (left, right)
