"""Packed ``int`` codes of exponent vectors, which power products and the
central parts of mixed monomials share; only their two theory modules
import this one."""

from __future__ import annotations

import operator
import struct

from .algebra_core import OrderKind, _weight_table

# A packed code is one ``int`` of fields of _FIELD_BITS bits each.
_FIELD_BITS = 32


def _packing(kind: OrderKind, letters: tuple, generators: tuple, weights: tuple) -> tuple:
    """(pack, unpack, guard, degree) of the packed codes of exponent vectors
    over ``letters`` under the order of that kind, generators and weights.
    A code has one field per exponent, the order's greatest
    variable most significant, then the degree and, on top, the weight sum,
    which is the degree again but under weighted-deglex; under lex the
    exponents are on top. Codes compare as the order compares vectors.
    ``pack`` gives None for anything but a tuple of ``len(letters)``
    nonnegative ints, and for a vector whose degree, weight sum or exponent
    reaches 2^31, which ``_natural`` tells apart. ``guard``
    holds each field's top bit: a code divides another exactly when their
    difference sets none, and a sum that sets one does not fit, though its
    fields still read exactly: no field of a sum of two codes carries.
    ``degree`` reads the degree field of a code, or of such a sum."""
    n = len(letters)
    weigh = sum
    if kind is OrderKind.WEIGHTED_DEGLEX:
        int_weights = _weight_table(weights)[1]
        vector = tuple(map(int_weights.__getitem__, letters))
        weigh = lambda m: sum(map(operator.mul, vector, m))
    # ``fields`` lists exponent positions in packing order, from the least
    # significant field, but from the most significant under lex.
    lex = kind is OrderKind.LEX
    byteorder = "big" if lex else "little"
    row = struct.Struct((">" if lex else "<") + "%dI" % (n + 2))
    index = {x: i for i, x in enumerate(letters)}
    fields = tuple(index[g] for g in generators if g in index)
    if lex:
        fields = fields[::-1]
    spread = operator.itemgetter(*fields) if n > 1 else tuple
    gather = operator.itemgetter(*map(fields.index, range(n))) if n > 1 else lambda t: t[:n]
    pack_row, unpack_row, from_bytes = row.pack, row.unpack, int.from_bytes
    guard = from_bytes(pack_row(*[1 << _FIELD_BITS - 1] * (n + 2)), byteorder)

    def pack(m):
        if isinstance(m, tuple) and len(m) == n:
            try:
                code = from_bytes(pack_row(*spread(m), sum(m), weigh(m)), byteorder)
            except (struct.error, TypeError):
                return None
            if not code & guard:
                return code
        return None

    def unpack(code):
        return gather(unpack_row(code.to_bytes(row.size, byteorder)))

    shift, mask = _FIELD_BITS * (1 if lex else n), (1 << _FIELD_BITS) - 1
    return pack, unpack, guard, lambda code: code >> shift & mask


def _natural(exps, n: int) -> bool:
    """Whether ``exps`` is a tuple of ``n`` nonnegative ints: an exponent
    vector, which ``pack`` refuses only when it is too large."""
    return isinstance(exps, tuple) and len(exps) == n and all(
        isinstance(e, int) and e >= 0 for e in exps
    )
