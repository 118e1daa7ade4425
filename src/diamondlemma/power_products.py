"""Power products over a finite variable set, which reduce as packed
``int`` codes."""

from __future__ import annotations

import functools
import operator
import struct

from .algebra_core import (
    DiamondError,
    OrderKind,
    TheoryMismatchError,
    _variable_permutation,
    _weight_table,
)
from .monomial_theories import (
    LeadIndex,
    OverlapKind,
    Theory,
    _compositions,
    _exp_add,
    _exp_gcd,
    _exp_lcm,
    _exp_le,
    _exp_sub,
    _power_string,
)


# Each field of a power-product code holds a value below _FIELD_CAP, so that
# its top bit stays clear as a guard.
_FIELD_CAP = 2**31


@functools.lru_cache(maxsize=256)
def _packing(kind: OrderKind, letters: tuple, generators: tuple, weights: tuple) -> tuple:
    """(encode, decode, apply, guard, descending key) of the power-product
    codes over ``letters`` under the order of that kind, generators and
    weights; one per order, so that the indexes of equal orders hold equal
    functions. The order's fields key the cache, since they hash faster
    than the order."""
    th, n = CommutativeTheory(letters), len(letters)
    int_weights = _weight_table(weights)[1]
    # The weight-sum field holds the degree again but under weighted-deglex.
    weigh = sum
    if kind is OrderKind.WEIGHTED_DEGLEX:
        vector = tuple(map(int_weights.__getitem__, letters))
        weigh = lambda m: sum(map(operator.mul, vector, m))
    # A code packs the exponents, the degree and the weight sum, in this
    # order from the least significant field, but from the most significant
    # under lex, where the exponents lead. ``fields`` lists exponent
    # positions in packing order.
    lex = kind is OrderKind.LEX
    byteorder = "big" if lex else "little"
    row = struct.Struct((">" if lex else "<") + "%dI" % (n + 2))
    fields = _variable_permutation(letters, generators)
    if not lex:
        fields = fields[::-1]
    spread = operator.itemgetter(*fields) if n > 1 else tuple
    gather = operator.itemgetter(*map(fields.index, range(n))) if n > 1 else lambda t: t[:n]
    pack, unpack, from_bytes = row.pack, row.unpack, int.from_bytes
    guard = from_bytes(pack(*[_FIELD_CAP] * (n + 2)), byteorder)

    def encode(m):
        """The code of a power product; TheoryMismatchError for a monomial
        outside the theory, DiamondError for one that does not fit."""
        try:
            code = from_bytes(pack(*spread(m), sum(m), weigh(m)), byteorder)
            if not code & guard and len(m) == n and isinstance(m, tuple):
                return code
        except (struct.error, TypeError, IndexError):
            pass
        th.check_monomial(m)
        raise DiamondError(
            "monomial %s does not fit the power-product codes, whose degrees, "
            "weight sums and exponents stay below 2^31" % th.serialize(m)
        )

    def decode(code):
        return gather(unpack(code.to_bytes(row.size, byteorder)))

    apply = operator.add
    if lex or kind is OrderKind.SERIES_DEGLEX:
        # Only under these kinds can an image outgrow the input.
        def apply(code, ctx):
            image = code + ctx
            if image & guard:
                raise DiamondError(
                    "%s times %s has a degree or exponent of 2^31 or more"
                    % (th.serialize(decode(ctx)), th.serialize(decode(code)))
                )
            return image

    key = operator.neg
    if kind is OrderKind.SERIES_DEGLEX:
        negated = tuple(-int_weights[x] for x in letters)
        key = lambda code: (sum(map(operator.mul, negated, decode(code))), -code)
    return encode, decode, apply, guard, key


class _PackedIndex(LeadIndex):
    """Lead index for power products, which reduce as packed codes: the code
    of a power product is one ``int`` of 32-bit fields, one per exponent,
    the order's greatest variable most significant, then one for the degree
    and one for the weight sum, which is the degree again but under
    weighted-deglex. The weight sum and the degree sit above the exponents,
    the weight sum on top, but below them under lex. Codes then compare as
    ``sort_key`` compares monomials, so the descending key is ``-code``;
    series orders lead it with their negated weight sum.

    The top bit of each field is a guard: a lead divides a code exactly when
    ``code - lead`` sets no guard bit, and that difference is the encoded
    context, so an image is ``code + context``. A monomial whose degree,
    weight sum or exponent reaches 2^31 raises DiamondError on entry. Under
    deglex and weighted-deglex no image can grow past its input; under lex
    and series orders an image that does raises DiamondError too."""

    __slots__ = ("encode", "decode", "apply", "guard")

    def __init__(self, theory, leads, order) -> None:
        packing = _packing(order.kind, theory.letters, order.generators, order.weights)
        self.encode, self.decode, self.apply, self.guard, key = packing
        super().__init__(theory, leads, key)

    def entry(self, lead) -> int:
        return self.encode(lead)

    def site(self, code: int, start=0):
        guard = self.guard
        for i, lead in enumerate(self.entries[start:] if start else self.entries, start):
            ctx = code - lead
            if not ctx & guard:
                return i, ctx
        return None

    def decode_context(self, ctx: int) -> tuple:
        return self.decode(ctx)


class CommutativeTheory(Theory):
    """Power products over a finite variable set."""

    _fields = ("letters",)
    keyword = "commutative"
    irr_semantics = "divisor"
    index_class = _PackedIndex

    def describe(self) -> str:
        return "commutative(%s)" % ",".join(self.letters)

    @property
    def exponent_letters(self) -> tuple:
        return self.letters

    def monomial_named(self, name: str):
        return self.monomial(**{name: 1}) if name in self.letters else None

    def supports_lex(self) -> bool:
        return True

    def generator_names(self) -> tuple:
        return self.letters

    def one(self) -> tuple:
        return (0,) * len(self.letters)

    def monomial(self, **exponents: int) -> tuple:
        unknown = set(exponents) - set(self.letters)
        if unknown:
            raise TheoryMismatchError("unknown variables %s" % sorted(unknown))
        return tuple(exponents.get(x, 0) for x in self.letters)

    def multiply(self, a, b):
        return _exp_add(a, b)

    def validate_monomial(self, m) -> bool:
        return (
            isinstance(m, tuple)
            and len(m) == len(self.letters)
            and all(isinstance(e, int) and e >= 0 for e in m)
        )

    def degree(self, m) -> int:
        return sum(m)

    def weight_sum(self, m, weights: dict) -> int:
        return sum(map(operator.mul, map(weights.__getitem__, self.letters), m))

    def rank_encoding(self, m, order) -> tuple:
        return tuple(map(m.__getitem__, order.variable_permutation))

    def serialize(self, m) -> str:
        return _power_string(zip(self.letters, m))

    def apply_context(self, ctx, m):
        return _exp_add(ctx, m)

    def divisions(self, mu, nu) -> list:
        return [_exp_sub(mu, nu)] if _exp_le(nu, mu) else []

    def overlaps(self, mu1, mu2) -> list:
        """The lcm of two power products that share a variable, an inclusion
        when one divides the other; coprime ones meet only in a montage."""
        if not any(_exp_gcd(mu1, mu2)):
            return []
        lcm = _exp_lcm(mu1, mu2)
        if lcm == mu1:
            kind, inner = OverlapKind.INCLUSION, 2
        elif lcm == mu2:
            kind, inner = OverlapKind.INCLUSION, 1
        else:
            kind, inner = OverlapKind.OVERLAP, None
        return [(lcm, _exp_sub(lcm, mu1), _exp_sub(lcm, mu2), kind, inner)]

    def chain_criterion(self, lead, lead_i, lead_j, superposition) -> bool:
        return (
            _exp_le(lead, superposition)
            and _exp_lcm(lead_i, lead) != superposition
            and _exp_lcm(lead_j, lead) != superposition
        )

    def pair_update(self, leads: list, active: list, new: int) -> tuple:
        """Gebauer–Möller selection of the new pairs (j, new).

        A pair whose lcm another new pair's lcm properly divides is dropped
        (M); of the pairs sharing an lcm the lowest j is kept, and none when
        one of them is coprime (F and the product criterion). Rules whose
        lead the new lead divides leave the active set but stay rules. Coprime
        pairs, which ``overlaps`` never yields, are not counted as filtered.
        """
        lead = leads[new]
        lcms = {j: _exp_lcm(leads[j], lead) for j in active}
        coprime = {j for j in active if not any(_exp_gcd(leads[j], lead))}
        # In ascending degree, an lcm is minimal when no earlier minimal one
        # divides it; a proper divisor always has a lower degree.
        minimal: list = []
        for lcm in sorted(set(lcms.values()), key=sum):
            if not any(_exp_le(m, lcm) for m in minimal):
                minimal.append(lcm)
        unpaired = set(minimal) - {lcms[j] for j in coprime}
        partners = []
        for j in active:
            if lcms[j] in unpaired:
                unpaired.remove(lcms[j])
                partners.append(j)
        still = [j for j in active if not _exp_le(lead, leads[j])] + [new]
        return partners, len(active) - len(coprime) - len(partners), still

    def monomials_of_degree(self, d):
        return _compositions(d, len(self.letters)) if d >= 0 else iter(())
