"""Five monomial theories: words, power products, their blend, trees and paths."""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from enum import Enum

from .algebra_core import (
    DiamondError,
    Element,
    OrderKind,
    TheoryMismatchError,
    _accumulate,
    _set,
    _Value,
    _variable_permutation,
    _weight_table,
)


class OverlapKind(Enum):
    """Shape of a minimal superposition of two leading monomials."""

    OVERLAP = "overlap"
    INCLUSION = "inclusion"


class OverlapDatum(_Value):
    """Minimal superposition with the two contexts placing each monomial.

    ``ctx1`` applied to the first monomial and ``ctx2`` applied to the second
    both give ``superposition``. For inclusions, ``inner`` names which argument
    (1 or 2) occurs inside the other's monomial.
    """

    _fields = ("superposition", "ctx1", "ctx2", "kind", "inner")
    _defaults = {"inner": None}


def _exp_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(map(min, a, b))


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _exp_sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.sub, a, b))


def _exp_add(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def _exp_le(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


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


def _word_occurrences(haystack: tuple, needle: tuple) -> list[int]:
    """List start positions of a contiguous factor, including the empty factor."""
    n, h = len(needle), len(haystack)
    return [i for i in range(h - n + 1) if haystack[i : i + n] == needle]


def _word_superpositions(w1: tuple, w2: tuple, same: bool):
    """Yield the minimal superpositions of two words.

    Items are (word, ctx1, ctx2, kind, inner) in ``OverlapDatum`` field order,
    with (left, right) word contexts: the suffix/prefix overlaps by length,
    each length in both orders, then the inclusions of the shorter word.
    ``same`` marks a monomial paired with itself, which yields its identity
    inclusion first and each self-overlap once.
    """
    l1, l2 = len(w1), len(w2)
    if same:
        yield w1, ((), ()), ((), ()), OverlapKind.INCLUSION, 2
        for t in range(1, l1):
            if w1[l1 - t :] == w1[:t]:
                yield w1 + w1[t:], ((), w1[t:]), (w1[: l1 - t], ()), OverlapKind.OVERLAP, None
        return
    for t in range(1, min(l1, l2)):
        if w1[l1 - t :] == w2[:t]:
            yield w1 + w2[t:], ((), w2[t:]), (w1[: l1 - t], ()), OverlapKind.OVERLAP, None
        if w2[l2 - t :] == w1[:t]:
            yield w2 + w1[t:], (w2[: l2 - t], ()), ((), w1[t:]), OverlapKind.OVERLAP, None
    if l2 < l1:
        for i in _word_occurrences(w1, w2):
            yield w1, ((), ()), (w1[:i], w1[i + l2 :]), OverlapKind.INCLUSION, 2
    elif l1 < l2:
        for i in _word_occurrences(w2, w1):
            yield w2, (w2[:i], w2[i + l1 :]), ((), ()), OverlapKind.INCLUSION, 1


def _runs(word: tuple):
    """Yield (letter, length) for each run of equal letters of a word."""
    for letter, run in itertools.groupby(word):
        yield letter, len(list(run))


def _power_string(powers) -> str:
    """The product of (generator, exponent) pairs, skipping exponent 0, as
    x or x^e joined by *; "1" when empty."""
    return "*".join([x if e == 1 else "%s^%d" % (x, e) for x, e in powers if e]) or "1"


def _compositions(total: int, parts: int):
    """Yield tuples of nonnegative integers with the given sum."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class LeadIndex:
    """Rule leads in rule order, asked which rule reduces a monomial.

    An index is the codec of the reduction loop, which runs on its codes of
    monomials. ``encode(m)`` is the code of a monomial, and raises
    TheoryMismatchError for one outside the theory; ``decode`` gives the
    monomial back. ``site(code, start=0)``, the one lookup each class
    defines, scans the leads from rule ``start`` on and gives (lowest such
    rule index whose lead divides the monomial, the first context
    ``divisions`` returns, encoded) or None, and ``decode_context`` gives
    that context back. ``apply(ctx, code)`` builds an image; at a rule's
    site each code of its lower part has one, as rules are uniform.
    ``order_key``, set once on construction, compares codes as the order's
    ``sort_key`` compares monomials. ``first_site(m)`` is
    ``site(encode(m))`` with its context decoded, and ``weigher(weights)``
    sums weights over a code. Here every monomial is its own code and
    ``site`` scans ``divisions``; words are rank-coded strings, power
    products packed ``int`` codes.

    Leads are only appended, so a site found stays the site, and a scan
    that found none resumes at the first lead added since; a scan from 0,
    the common case, copies no list. The index keeps one list, the entry
    ``entry(lead)`` of each lead, which holds what ``site`` reads of it;
    the scan reads the lead itself. The view sliced by ``without`` shares
    every other slot.
    """

    __slots__ = ("theory", "order_key", "entries")

    def __init__(self, theory, leads, order, order_key=None) -> None:
        self.theory = theory
        self.order_key = order_key or order.sort_key
        self.entries = list(map(self.entry, leads))

    def entry(self, lead):
        return lead

    def add(self, lead) -> None:
        self.entries.append(self.entry(lead))

    def without(self, i: int) -> "LeadIndex":
        """The index over every lead but the i-th, sliced from this one."""
        view = object.__new__(type(self))
        for cls in type(self).__mro__[:-1]:
            for name in cls.__slots__:
                setattr(view, name, getattr(self, name))
        view.entries = self.entries[:i] + self.entries[i + 1 :]
        return view

    def first_site(self, m):
        found = self.site(self.encode(m))
        return found and (found[0], self.decode_context(found[1]))

    def site(self, m, start=0):
        divisions = self.theory.divisions
        for i, lead in enumerate(self.entries[start:] if start else self.entries, start):
            ctxs = divisions(m, lead)
            if ctxs:
                return i, ctxs[0]
        return None

    def encode(self, m):
        self.theory.check_monomial(m)
        return m

    def decode(self, code):
        return code

    def decode_context(self, ctx):
        return ctx

    @property
    def apply(self):
        return self.theory.apply_context

    def weigher(self, weights: dict):
        weight_sum, decode = self.theory.weight_sum, self.decode
        return lambda code: weight_sum(decode(code), weights)


# Each field of a power-product code holds a value below _FIELD_CAP, so that
# its top bit stays clear as a guard.
_FIELD_CAP = 2**31


@functools.lru_cache(maxsize=256)
def _packing(kind: OrderKind, letters: tuple, generators: tuple, weights: tuple) -> tuple:
    """(encode, decode, apply, guard, order key) of the power-product codes
    over ``letters`` under the order of that kind, generators and weights;
    one per order, so that the indexes of equal orders hold equal functions.
    The order's fields key the cache, since they hash faster than the order."""
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
        def apply(ctx, code):
            image = ctx + code
            if image & guard:
                raise DiamondError(
                    "%s times %s has a degree or exponent of 2^31 or more"
                    % (th.serialize(decode(ctx)), th.serialize(decode(code)))
                )
            return image

    key = operator.pos  # the identity on codes
    if kind is OrderKind.SERIES_DEGLEX:
        key = lambda code: (th.weight_sum(decode(code), int_weights), code)
    return encode, decode, apply, guard, key


class _PackedIndex(LeadIndex):
    """Lead index for power products, which reduce as packed codes: the code
    of a power product is one ``int`` of 32-bit fields, one per exponent,
    the order's greatest variable most significant, then one for the degree
    and one for the weight sum, which is the degree again but under
    weighted-deglex. The weight sum and the degree sit above the exponents,
    the weight sum on top, but below them under lex. Codes then compare as
    ``sort_key`` compares monomials, so the order key is the identity;
    series orders lead it with their weight sum.

    The top bit of each field is a guard: a lead divides a code exactly when
    ``code - lead`` sets no guard bit, and that difference is the encoded
    context, so an image is ``context + code``. A monomial whose degree,
    weight sum or exponent reaches 2^31 raises DiamondError on entry. Under
    deglex and weighted-deglex no image can grow past its input; under lex
    and series orders an image that does raises DiamondError too."""

    __slots__ = ("encode", "decode", "apply", "guard")

    def __init__(self, theory, leads, order) -> None:
        packing = _packing(order.kind, theory.letters, order.generators, order.weights)
        self.encode, self.decode, self.apply, self.guard, key = packing
        super().__init__(theory, leads, order, key)

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


@functools.lru_cache(maxsize=256)
def _letter_codes(letters: tuple) -> dict:
    """One character per letter, ``chr`` of its position, so that a word
    and its code have equal length."""
    return {x: chr(i) for i, x in enumerate(letters)}


class _CodedIndex(LeadIndex):
    """A lead index whose ``site`` places the word of each lead with
    ``str.find``: ``code`` encodes a word one character per letter of
    ``letters``, the entries hold the leads' encoded words, and the leftmost
    occurrence in the encoded word of a code gives the first context
    ``divisions`` returns. Words reduce as their encoded words; mixed
    monomials and paths are their own codes, whose words ``site`` encodes."""

    __slots__ = ("codes",)

    def __init__(self, theory, leads, order, letters: tuple, order_key=None) -> None:
        self.codes = _letter_codes(letters)
        super().__init__(theory, leads, order, order_key)

    def code(self, word) -> str:
        """The encoded word of letters of the alphabet."""
        return "".join(map(self.codes.__getitem__, word))


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


class _MixedIndex(_CodedIndex):
    """Lead index for mixed monomials: the divisor mask of the central part
    screens a lead, then ``str.find`` places its word and the exponents are
    compared, since the mask does not decide exponents above 2."""

    __slots__ = ()

    def __init__(self, theory, leads, order) -> None:
        super().__init__(theory, leads, order, theory.word_letters)

    def entry(self, lead) -> tuple:
        return _divisor_mask(lead[0]), self.code(lead[1]), lead[0]

    def site(self, m, start=0):
        exps, w = m
        code = self.code(w)
        outside = ~_divisor_mask(exps)
        entries = self.entries[start:] if start else self.entries
        for i, (mask, word, lead_exps) in enumerate(entries, start):
            if not mask & outside:
                k = code.find(word)
                if k >= 0 and _exp_le(lead_exps, exps):
                    return i, (_exp_sub(exps, lead_exps), w[:k], w[k + len(word) :])
        return None


class _PathIndex(_CodedIndex):
    """Lead index for paths over the arrow words; a vertex-path lead, whose
    code is empty, divides only where the path visits its vertex, which
    ``divisions`` checks."""

    __slots__ = ()

    def __init__(self, theory, leads, order) -> None:
        super().__init__(theory, leads, order, theory.generator_names())

    def entry(self, lead) -> tuple:
        return self.code(lead[2]), lead

    def site(self, m, start=0):
        src, tgt, names = m
        code = self.code(names)
        for i, (word, lead) in enumerate(self.entries[start:] if start else self.entries, start):
            k = code.find(word)
            if k >= 0:
                if word:
                    right = names[k + len(word) :]
                    return i, ((src, lead[0], names[:k]), (lead[1], tgt, right))
                ctxs = self.theory.divisions(m, lead)
                if ctxs:
                    return i, ctxs[0]
        return None


class Theory(_Value):
    """Shared behaviour; concrete theories implement the payload geometry.

    A theory is a value whose fields are its generator declarations. Each
    theory also owns its system-file syntax: ``keyword`` names it in the
    ``theory`` statement, ``header_statements`` lists the statements that
    declare its fields, in field order, and ``monomial_named(name)`` returns
    the monomial an expression identifier stands for, or None.
    """

    keyword = ""
    header_statements = ("vars",)
    # Irreducible monomials contain no lead as a contiguous "factor", or are
    # divisible by no lead ("divisor").
    irr_semantics = "factor"
    associative = True
    # Generators that are positions of an exponent vector, in vector order.
    exponent_letters = ()
    index_class = LeadIndex

    def header_lines(self) -> list:
        """System-file statements declaring this theory."""
        lines = ["theory %s" % self.keyword]
        for statement, name in zip(self.header_statements, self._fields):
            lines.append("%s %s" % (statement, " ".join(getattr(self, name))))
        return lines

    def supports_lex(self) -> bool:
        return False

    def one(self):
        raise DiamondError("%s has no unit monomial" % self.describe())

    def uniform_class(self, m):
        """Class that every monomial of one rule must share; None for all."""
        return None

    def uniform_equivalent(self, a, b) -> bool:
        """Decide whether two monomials may appear in the same rule."""
        return self.uniform_class(a) == self.uniform_class(b)

    def apply_context_to_element(self, ctx, element: Element) -> Element:
        """Apply a context to every term, dropping products that vanish."""
        out: dict = {}
        for m, c in element.terms:
            image = self.apply_context(ctx, m)
            if image is not None:
                _accumulate(out, image, c)
        return Element.from_dict(out)

    def lead_index(self, leads, order) -> LeadIndex:
        """Index of rule leads for site lookup, whose codes reduce under
        ``order``: an ``index_class``, by default a scan in rule order."""
        return self.index_class(self, leads, order)

    def chain_criterion(self, lead, lead_i, lead_j, superposition) -> bool:
        """Decide whether the pair (i, j) at ``superposition`` follows from the
        chained pairs (i, k) and (k, j) through a rule k with ``lead``.

        Buchberger's chain criterion; by default no chain is certified.
        """
        return False

    def pair_update(self, leads: list, active: list, new: int) -> tuple:
        """Choose the rules j that completion pairs with the new rule ``new``.

        ``leads`` holds every rule's lead and ``active`` the rules new pairs
        may use, ascending. Returns (partners ascending, pairs filtered by a
        criterion, active rules afterwards). By default every rule, ``new``
        included, is a partner and stays active.
        """
        everyone = active + [new]
        return everyone, 0, everyone

    def check_monomial(self, m) -> None:
        if not self.validate_monomial(m):
            raise TheoryMismatchError("monomial %r does not belong to %s" % (m, self.describe()))


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

    def lcm_superposition(self, a, b) -> OverlapDatum:
        """The lcm of two power products, an inclusion when one divides the other."""
        lcm = _exp_lcm(a, b)
        if lcm == a:
            kind, inner = OverlapKind.INCLUSION, 2
        elif lcm == b:
            kind, inner = OverlapKind.INCLUSION, 1
        else:
            kind, inner = OverlapKind.OVERLAP, None
        return OverlapDatum(lcm, _exp_sub(lcm, a), _exp_sub(lcm, b), kind, inner)

    def overlaps(self, mu1, mu2) -> list:
        if not any(_exp_gcd(mu1, mu2)):
            return []
        return [self.lcm_superposition(mu1, mu2)]

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
            OverlapDatum((lcm, w), (m1,) + x1, (m2,) + x2, kind, inner)
            for w, x1, x2, kind, inner in words
        ]

    def monomials_of_degree(self, d):
        for k in range(d + 1):
            for word in itertools.product(self.word_letters, repeat=d - k):
                for exps in _compositions(k, len(self.commutative_letters)):
                    yield (exps, word)


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


class PathAlgebraTheory(Theory):
    """Paths in a finite quiver; products vanish on endpoint mismatch."""

    _fields = ("vertices", "arrows")
    keyword = "path"
    header_statements = ("vertices", "arrow")
    index_class = _PathIndex

    def __init__(self, vertices: tuple, arrows: tuple) -> None:
        _Value.__init__(self, vertices, arrows)
        # (source, target) by arrow name, the first arrow of a name winning;
        # no field, so equality, hashing and repr ignore it.
        endpoints: dict = {}
        for name, src, tgt in arrows:
            if src not in vertices or tgt not in vertices:
                raise TheoryMismatchError("arrow %s references an unknown vertex" % name)
            endpoints.setdefault(name, (src, tgt))
        _set(self, "endpoints", endpoints)

    def header_lines(self) -> list:
        return ["theory path", "vertices %s" % " ".join(self.vertices)] + [
            "arrow %s %s %s" % arrow for arrow in self.arrows
        ]

    def describe(self) -> str:
        return "path(%s;%s)" % (
            ",".join(self.vertices),
            ",".join(name for name, _, _ in self.arrows),
        )

    def generator_names(self) -> tuple:
        return tuple(name for name, _, _ in self.arrows)

    def monomial_named(self, name: str):
        """Arrows are written by name, the idempotent of vertex v as ``ev``."""
        if name in self.generator_names():
            return self.path(name)
        if name.startswith("e") and name[1:] in self.vertices:
            return self.vertex_path(name[1:])
        return None

    def arrow_endpoints(self, name: str) -> tuple:
        try:
            return self.endpoints[name]
        except KeyError:
            raise TheoryMismatchError("unknown arrow %r" % name) from None

    def vertex_path(self, v: str) -> tuple:
        if v not in self.vertices:
            raise TheoryMismatchError("unknown vertex %r" % v)
        return (v, v, ())

    def path(self, *arrow_names: str) -> tuple:
        if not arrow_names:
            raise TheoryMismatchError("a path needs arrows; use vertex_path for idempotents")
        m = self._make(tuple(arrow_names))
        if m is None:
            raise TheoryMismatchError("arrows %r do not compose" % (arrow_names,))
        return m

    def multiply(self, a, b):
        if a[1] != b[0]:
            return None
        return (a[0], b[1], a[2] + b[2])

    def _make(self, arrow_names: tuple):
        src, _ = self.arrow_endpoints(arrow_names[0])
        cur = src
        for name in arrow_names:
            s, t = self.arrow_endpoints(name)
            if s != cur:
                return None
            cur = t
        return (src, cur, arrow_names)

    def validate_monomial(self, m) -> bool:
        if not (isinstance(m, tuple) and len(m) == 3):
            return False
        src, tgt, names = m
        if src not in self.vertices:
            return False
        # Walk the arrows from src; arrow targets are vertices.
        endpoints = self.endpoints
        for name in names:
            ends = endpoints.get(name)
            if ends is None or ends[0] != src:
                return False
            src = ends[1]
        return src == tgt

    def visits(self, m) -> list:
        """List the vertices a path passes through, endpoints included."""
        src, _, names = m
        out = [src]
        for name in names:
            out.append(self.arrow_endpoints(name)[1])
        return out

    def degree(self, m) -> int:
        return len(m[2])

    def weight_sum(self, m, weights: dict) -> int:
        return sum(map(weights.__getitem__, m[2]))

    def rank_encoding(self, m, order) -> tuple:
        return (
            tuple(map(order.ranks.__getitem__, m[2])),
            self.vertices.index(m[0]),
            self.vertices.index(m[1]),
        )

    def serialize(self, m) -> str:
        src, _, names = m
        if not names:
            return "e%s" % src
        return "*".join(names)

    def apply_context(self, ctx, m):
        left, right = ctx
        if left[1] != m[0] or m[1] != right[0]:
            return None
        return (left[0], right[1], left[2] + m[2] + right[2])

    def divisions(self, mu, nu) -> list:
        src, tgt, names = mu
        nsrc, ntgt, nnames = nu
        at = _word_occurrences(names, nnames)
        if not nnames:
            # Arrow names fix the vertices around a factor; a vertex path
            # divides only where mu passes through its vertex.
            vis = self.visits(mu)
            at = [i for i in at if vis[i] == nsrc]
        n = len(nnames)
        return [((src, nsrc, names[:i]), (ntgt, tgt, names[i + n :])) for i in at]

    def overlaps(self, mu1, mu2) -> list:
        data = []
        for word, (l1, r1), (l2, r2), kind, inner in _word_superpositions(
            mu1[2], mu2[2], mu1 == mu2
        ):
            src = mu2[0] if l1 else mu1[0]
            tgt = mu2[1] if r1 else mu1[1]
            if not (mu1[2] and mu2[2]):
                # A vertex path sits only where the superposition visits it.
                vis = self.visits((src, tgt, word))
                if vis[len(l1)] != mu1[0] or vis[len(l2)] != mu2[0]:
                    continue
            ctx1 = ((src, mu1[0], l1), (mu1[1], tgt, r1))
            ctx2 = ((src, mu2[0], l2), (mu2[1], tgt, r2))
            data.append(OverlapDatum((src, tgt, word), ctx1, ctx2, kind, inner))
        return data

    def uniform_class(self, m) -> tuple:
        return (m[0], m[1])

    def monomials_of_degree(self, d):
        if d < 0:
            return
        if d == 0:
            for v in self.vertices:
                yield (v, v, ())
            return
        def extend(path):
            if len(path[2]) == d:
                yield path
                return
            for name, s, t in self.arrows:
                if s == path[1]:
                    yield from extend((path[0], t, path[2] + (name,)))
        for v in self.vertices:
            yield from extend((v, v, ()))


# Theory classes by the keyword of their ``theory`` statement.
THEORIES = {
    cls.keyword: cls
    for cls in (
        FreeMonoidTheory,
        CommutativeTheory,
        MixedTheory,
        FreeMagmaTheory,
        PathAlgebraTheory,
    )
}
