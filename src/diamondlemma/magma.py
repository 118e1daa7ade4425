"""Binary trees with labelled leaves under the non-associative product,
which reduce as Polish-coded strings."""

from __future__ import annotations

from .algebra_core import TheoryMismatchError
from .monomial_theories import Theory, _CodedIndex


_HOLE = None


def _tree_leaves(tree) -> int:
    """The number of leaves of a tree, of any depth."""
    count, stack = 0, [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            count += 1
        else:
            stack += t[0], t[1]
    return count


def _polish(tree, codes: dict, node: str) -> str:
    """The Polish code of a tree: ``node`` then the codes of both factors
    for a product, ``codes[leaf]`` for a leaf; KeyError or TypeError for a
    leaf without a code. Iterative, so trees of any depth encode."""
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple) and len(t) == 2:
            out.append(node)
            stack += t[1], t[0]
        else:
            out.append(codes[t])
    return "".join(out)


def _unpolish(code: str, symbols: tuple):
    """The tree of a Polish code whose leaves are ``chr`` of their position
    in ``symbols`` and whose node marker is ``chr(len(symbols))``."""
    node, stack = chr(len(symbols)), []
    for c in reversed(code):
        stack.append((stack.pop(), stack.pop()) if c == node else symbols[ord(c)])
    return stack[0]


class _MagmaIndex(_CodedIndex):
    """Lead index for trees, which reduce as their Polish codes: a leaf is
    ``chr`` of its rank, the hole ``chr(len(letters))``, which only contexts
    hold, and a product the node marker ``chr(len(letters) + 1)`` followed
    by the codes of both factors. The marker ranks above every letter, so
    codes of equal length, that is of trees of equal degree, compare leaf
    before product and then factor by factor, as the order does; it weighs
    0. Polish codes are prefix-free, so each occurrence of a lead's code is
    a subtree, the leftmost the first in preorder."""

    __slots__ = ()

    def code_of(self, m) -> str:
        return _polish(m, self.codes, chr(len(self.letters) + 1))

    def decode(self, code: str):
        return _unpolish(code, self.letters + (_HOLE,))

    def degree(self, code: str) -> int:
        return len(code) // 2 + 1

    def decode_context(self, ctx: tuple, code: str):
        left, right = ctx
        return self.decode(left + chr(len(self.letters)) + right)

    def encode_context(self, ctx) -> tuple:
        """The Polish code of a one-hole tree, split at the hole; anything
        else raises TheoryMismatchError."""
        n = len(self.letters)
        try:
            left, right = _polish(ctx, {**self.codes, _HOLE: chr(n)}, chr(n + 1)).split(chr(n))
            return left, right
        except (KeyError, TypeError, ValueError):  # a leaf without a code, or not one hole
            raise TheoryMismatchError(
                "context %r does not belong to %s" % (ctx, self.theory.describe())
            ) from None


class FreeMagmaTheory(Theory):
    """Binary trees with labelled leaves under non-associative product."""

    _fields = ("letters",)
    keyword = "magma"
    irr_semantics = "divisor"
    associative = False
    index_class = _MagmaIndex

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

    def degree(self, m) -> int:
        return _tree_leaves(m)

    def serialize(self, m) -> str:
        """A leaf as its letter, a product as ``(left*right)``, at any depth."""
        out, stack = [], [m]
        while stack:
            t = stack.pop()
            if isinstance(t, str):  # a leaf, or text closing a product
                out.append(t)
            else:
                out.append("(")
                stack += ")", t[1], "*", t[0]
        return "".join(out)
