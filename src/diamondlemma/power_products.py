"""Power products over a finite variable set, which reduce as packed
``int`` codes."""

from __future__ import annotations

import operator

from .algebra_core import DiamondError, OrderKind, TheoryMismatchError
from .monomial_theories import (
    LeadIndex,
    Theory,
    _compositions,
    _exp_add,
    _exp_lcm,
    _exp_sub,
    _power_string,
)
from .packed_codes import _packing


def _exp_le(a: tuple, b: tuple) -> bool:
    return all(map(operator.le, a, b))


class _PackedIndex(LeadIndex):
    """Lead index for power products, which reduce as the packed codes of
    ``packed_codes``: the sort key is the code and the descending key
    ``-code``, led by the weight sum and its negation under series orders.
    A lead divides a code exactly when ``code - lead`` sets no guard bit,
    and that difference is the encoded context, so an image is ``code +
    context``. A monomial whose degree, weight sum or exponent reaches 2^31
    raises DiamondError on entry. No image can grow past its input under
    deglex and weighted-deglex; under lex and series orders an image that
    does raises DiamondError too. Two leads that share a variable meet at
    their lcm, an inclusion when one divides the other; coprime ones meet
    only in a montage, which the kernel does not list."""

    __slots__ = ("pack", "decode", "guard", "degree", "apply")

    def __init__(self, theory, order) -> None:
        super().__init__(theory)
        kind = order.kind
        codes = _packing(kind, theory.letters, order.generators, order.weights)
        self.pack, self.decode, self.guard, self.degree = codes
        self.apply, self.sort_key, self.descending_key = operator.add, operator.pos, operator.neg
        if kind is OrderKind.LEX or kind is OrderKind.SERIES_DEGLEX:
            # Only under these kinds can an image outgrow the input.
            serialize, decode, guard = theory.serialize, self.decode, self.guard

            def apply(code, ctx):
                image = code + ctx
                if image & guard:
                    raise DiamondError(
                        "%s times %s has a degree or exponent of 2^31 or more"
                        % (serialize(decode(ctx)), serialize(decode(code)))
                    )
                return image

            self.apply = apply
        if kind is OrderKind.SERIES_DEGLEX:
            weight = self.negated_weigher(order)
            self.sort_key = lambda code: (-weight(code), code)
            self.descending_key = lambda code: (weight(code), -code)

    def encode(self, m) -> int:
        code = self.pack(m)
        if code is None:
            self.theory.check_monomial(m)
            raise DiamondError(
                "monomial %s does not fit the power-product codes, whose degrees, "
                "weight sums and exponents stay below 2^31" % self.theory.serialize(m)
            )
        return code

    # A context is a power product too, and its code is what ``site`` gives.
    encode_context = encode

    def site(self, code: int, start=0):
        guard = self.guard
        for i, lead in enumerate(self.entries[start:] if start else self.entries, start):
            ctx = code - lead
            if not ctx & guard:
                return i, ctx
        return None

    def decode_context(self, ctx: int, code: int) -> tuple:
        return self.decode(ctx)

    def sites(self, code: int, lead: int) -> list:
        return [] if (code - lead) & self.guard else [code - lead]

    def overlaps(self, code1: int, code2: int) -> list:
        """The lcm is packed as the first lead plus its context, which fits,
        so one too large for a code keeps exact fields, guard bits set."""
        e1, e2 = self.decode(code1), self.decode(code2)
        if not any(map(min, e1, e2)):
            return []
        lcm = _exp_lcm(e1, e2)
        inner = 2 if lcm == e1 else 1 if lcm == e2 else None
        sup = code1 + self.pack(_exp_sub(lcm, e1))
        return [(sup, sup - code1, sup - code2, inner)]

    def check_superposition(self, lead: int, ctx: int) -> None:
        if (lead + ctx) & self.guard:
            self.encode(self.decode(lead + ctx))

    def weigher(self, weights: dict):
        vector, decode = tuple(map(weights.__getitem__, self.theory.letters)), self.decode
        return lambda code: sum(map(operator.mul, vector, decode(code)))


class CommutativeTheory(Theory):
    """Power products over a finite variable set."""

    _fields = ("letters",)
    keyword = "commutative"
    irr_semantics = "divisor"
    index_class = _PackedIndex

    def describe(self) -> str:
        return "commutative(%s)" % ",".join(self.letters)

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

    def serialize(self, m) -> str:
        return _power_string(zip(self.letters, m))

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
        coprime = {j for j in active if not any(map(min, leads[j], lead))}
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
