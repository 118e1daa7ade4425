"""Power products in central variables times words in free letters."""

from __future__ import annotations

import functools
import itertools
import operator

from .algebra_core import (
    TheoryMismatchError,
    _rank_table,
    _set,
    _Value,
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
    _letter_codes,
    _power_string,
    _runs,
    _word_code,
    _word_occurrences,
    _word_superpositions,
)


def _divisor_mask(exps: tuple) -> int:
    """Two bits per variable, set for exponent >= 1 and for exponent >= 2.

    A power product divides another only if its mask is a subset of the
    other's (Roune and Stillman, ISSAC 2012).
    """
    mask = 0
    for k, e in enumerate(exps):
        if e:
            mask |= (1 if e == 1 else 3) << 2 * k
    return mask


@functools.lru_cache(maxsize=256)
def _mixed_key(central: tuple, generators: tuple, weights: tuple):
    """The descending key on mixed monomials with these central letters
    under the order with these generators and weights, deglex when there
    are none: the fields of ``sort_key``, negated and flattened, which is
    sound as the word's ranks follow its length. One per order, so that the
    indexes of equal orders hold one key."""
    rank = {x: -r for x, r in _rank_table(generators).items()}.__getitem__
    positions = _variable_permutation(central, generators)

    def deglex(m):
        exps, word = m
        n = len(word)
        return (-sum(exps) - n, -n, *map(rank, word), *[-exps[i] for i in positions])

    if not weights:
        return deglex
    negated = {x: -w for x, w in _weight_table(weights)[1].items()}
    vector, weight = tuple(map(negated.__getitem__, central)), negated.__getitem__
    return lambda m: (sum(map(operator.mul, vector, m[0])) + sum(map(weight, m[1])),) + deglex(m)


class _MixedIndex(LeadIndex):
    """Lead index for mixed monomials: the divisor mask of the central part
    screens a lead, then ``str.find`` places its word and the exponents are
    compared, since the mask does not decide exponents above 2."""

    __slots__ = ("codes",)

    def __init__(self, theory, leads, order) -> None:
        self.codes = _letter_codes(theory.word_letters)
        key = _mixed_key(theory.commutative_letters, order.generators, order.weights)
        super().__init__(theory, leads, key)

    def entry(self, lead) -> tuple:
        return _divisor_mask(lead[0]), _word_code(self.codes, lead[1]), lead[0]

    def site(self, m, start=0):
        exps, w = m
        code = _word_code(self.codes, w)
        outside = ~_divisor_mask(exps)
        entries = self.entries[start:] if start else self.entries
        for i, (mask, word, lead_exps) in enumerate(entries, start):
            if not mask & outside:
                k = code.find(word)
                if k >= 0 and _exp_le(lead_exps, exps):
                    return i, (_exp_sub(exps, lead_exps), w[:k], w[k + len(word) :])
        return None


class MixedTheory(Theory):
    """Power products in central variables times words in free letters."""

    _fields = ("commutative_letters", "word_letters")
    keyword = "mixed"
    header_statements = ("cvars", "vars")
    index_class = _MixedIndex

    def __init__(self, commutative_letters: tuple, word_letters: tuple) -> None:
        _Value.__init__(self, commutative_letters, word_letters)
        # For validation; no field, so equality, hashing and repr ignore it.
        _set(self, "letter_set", frozenset(word_letters))

    def describe(self) -> str:
        return "mixed(%s;%s)" % (
            ",".join(self.commutative_letters),
            ",".join(self.word_letters),
        )

    def generator_names(self) -> tuple:
        return self.commutative_letters + self.word_letters

    @property
    def exponent_letters(self) -> tuple:
        return self.commutative_letters

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
        m = (
            tuple(exponents.get(x, 0) for x in self.commutative_letters),
            tuple(word),
        )
        self.check_monomial(m)
        return m

    def multiply(self, a, b):
        return (_exp_add(a[0], b[0]), a[1] + b[1])

    def validate_monomial(self, m) -> bool:
        if not (isinstance(m, tuple) and len(m) == 2):
            return False
        exps, word = m
        try:
            return (
                isinstance(exps, tuple)
                and len(exps) == len(self.commutative_letters)
                and all(isinstance(e, int) and e >= 0 for e in exps)
                and isinstance(word, tuple)
                and self.letter_set.issuperset(word)
            )
        except TypeError:  # an unhashable letter
            return False

    def degree(self, m) -> int:
        return sum(m[0]) + len(m[1])

    def weight_sum(self, m, weights: dict) -> int:
        exps, word = m
        get = weights.__getitem__
        return sum(map(operator.mul, map(get, self.commutative_letters), exps)) + sum(
            map(get, word)
        )

    def rank_encoding(self, m, order) -> tuple:
        exps, word = m
        comm = tuple(map(exps.__getitem__, order.variable_permutation))
        return (len(word), tuple(map(order.ranks.__getitem__, word)), comm)

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
