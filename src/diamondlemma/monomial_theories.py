"""The kernel every monomial theory shares: the overlap kinds, exponent and
word helpers, the lead index protocol and the ``Theory`` base class.

Each theory lives in a module of its own with its index class and private
helpers, and ``THEORIES`` names that module by the theory's keyword, so a
process loads only the theories it uses. The theory classes also resolve
here by name, importing their module on first use.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import operator
from enum import Enum

from .algebra_core import (
    DiamondError,
    MonomialOrder,
    OrderKind,
    TheoryMismatchError,
    _Value,
    _weight_table,
)


class OverlapKind(Enum):
    """Shape of a minimal superposition of two leading monomials."""

    OVERLAP = "overlap"
    INCLUSION = "inclusion"


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def _exp_sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.sub, a, b))


def _exp_add(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def _sites(code: str, lead: str) -> list:
    """The (left, right) contexts of every occurrence of ``lead`` in
    ``code``, leftmost first; an empty ``lead`` occurs at every position."""
    out, k = [], code.find(lead)
    while k >= 0:
        out.append((code[:k], code[k + len(lead) :]))
        k = code.find(lead, k + 1)
    return out


def _string_overlaps(code1: str, code2: str, same: bool, shortest: int = 1) -> list:
    """The minimal superpositions of two ``str`` codes as the items of
    ``LeadIndex.overlaps``, with (left, right) contexts as ``site`` gives
    them: the suffix/prefix overlaps of at least ``shortest`` characters by
    length, each length in both orders, then the occurrences of the shorter
    code in the longer. ``same`` marks a code paired with itself, which
    lists its identity inclusion first and each self-overlap once. Polish
    codes are prefix-free, so trees meet in inclusions only."""
    l1, l2, none = len(code1), len(code2), ("", "")
    out = [(code1, none, none, 2)] if same else []
    for t in range(shortest, min(l1, l2)):
        if code2.startswith(code1[l1 - t :]):
            out.append((code1 + code2[t:], ("", code2[t:]), (code1[: l1 - t], ""), None))
        if not same and code1.startswith(code2[l2 - t :]):
            out.append((code2 + code1[t:], (code2[: l2 - t], ""), ("", code1[t:]), None))
    if l2 < l1:
        out += [(code1, none, ctx, 2) for ctx in _sites(code1, code2)]
    elif l1 < l2:
        out += [(code2, ctx, none, 1) for ctx in _sites(code2, code1)]
    return out


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
    monomials; each class defines it. ``encode(m)`` is the code of a
    monomial, and raises TheoryMismatchError for one outside the theory;
    ``decode`` gives the monomial back. ``site(code, start=0)``, the one
    lookup, scans the leads from rule ``start`` on and gives (lowest such
    rule index whose lead divides the monomial, the first context
    ``divisions`` returns, encoded) or None; ``decode_context(ctx, code)``
    decodes the context of a site of ``code``, and ``encode_context(ctx)``
    is its inverse on the contexts of ``Theory.overlaps``. ``apply(code,
    ctx)`` builds an image; at a rule's site each code of its lower part
    has one, as rules are uniform.
    ``overlaps(code1, code2)``, the one overlap kernel of the codec, lists
    the minimal superpositions of two leads' codes, in the order of
    ``Theory.overlaps``, as (superposition, ctx1, ctx2, inner) items: codes
    all, each context one that ``site`` could give and ``apply`` reads, and
    ``inner`` the slot an inclusion places inside the other, None for an
    overlap, which fixes the ``OverlapKind``; ``_keyed`` decodes an item
    as ``Theory.overlaps`` lists it. ``sites(code, lead)`` lists every
    context at which a lead divides a code, leftmost first.
    ``degree(code)`` is the degree of a code's monomial, and
    ``check_superposition(lead, ctx)`` raises DiamondError when a lead's
    image under a context of one of its superpositions has no code, which
    only packed codes can lack; then every image of the s-polynomial has a
    code too, or ``apply`` raises for it.
    The index is the one implementation of its order. ``sort_key`` and
    ``descending_key``, set once on construction, map codes to values that
    compare natively (ints, strs and tuples of them): ``sort_key`` as the
    order compares the monomials, which is ``MonomialOrder.sort_key``, and
    ``descending_key`` in the reverse, so that a plain ``heapq`` of (key,
    code) pairs pops the greatest monomial first.
    ``first_site(m)`` is ``site(encode(m))`` with its context decoded, and
    ``weigher(weights)`` sums weights, by generator name, over a code,
    which is ``WeightData.exponent``.

    Leads are only appended, so a site found stays the site, and a scan
    that found none resumes at the first lead added since; a scan from 0,
    the common case, copies no list. The index keeps one list,
    ``entries``, the code of each lead, which ``site`` scans.
    The views made by ``copy`` and ``without`` share every other slot.
    Each class builds the tables of its order in ``__init__``, which runs
    once per order: ``MonomialOrder.codec`` is that index over no leads,
    kept in the LRU table ``algebra_core._codec``, and every other index
    under the order is a copy of it.
    """

    __slots__ = ("theory", "sort_key", "descending_key", "entries")

    def __init__(self, theory) -> None:
        self.theory = theory
        self.entries = []

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The slots ``copy`` shares, named once per class.
        slots = [name for c in cls.__mro__[:-1] for name in c.__slots__]
        cls._shared = tuple(name for name in slots if name != "entries")

    def without(self, i: int) -> "LeadIndex":
        """The index over every lead but the i-th."""
        view = self.copy()
        del view.entries[i]
        return view

    def copy(self) -> "LeadIndex":
        """An index over a copy of the entry list, sharing every other slot,
        so that adding to it leaves this one as it is."""
        view = object.__new__(type(self))
        for name in self._shared:
            setattr(view, name, getattr(self, name))
        view.entries = list(self.entries)
        return view

    def negated_weigher(self, order):
        """``weigher`` of the order's weights, as ints and negated."""
        return self.weigher({x: -w for x, w in _weight_table(order.weights)[1].items()})

    def first_site(self, m):
        code = self.encode(m)
        found = self.site(code)
        return found and (found[0], self.decode_context(found[1], code))

    def check_superposition(self, lead, ctx) -> None:
        pass


# Decoded codes and overlap items by (codec, code) and (codec, item), the
# least recently used dropped first. A system's lead index decodes as its
# order's ``codec``, which equal orders share, and no other key would do:
# each system's ``lead_index`` is a copy of its own, so it shares nothing,
# and power products under ``x<y`` and ``y<x`` share their ``sort_key``
# function though equal codes decode apart.
# Small systems of one theory share their monomials: one seed-1 pass of
# the bench's corpus-sweep workload decodes 42,815 codes over 606 keys and
# 16,395 overlap items over 2,583. Tables of this size hold every key, so
# 98.6 % and 84.2 % are hits (1,024 entries serve 98.6 % and 72.9 %, 256
# serve 96.3 % and 49.7 %).
_DECODED_KEPT = 4096


@functools.lru_cache(maxsize=_DECODED_KEPT)
def _term(codec, code) -> tuple:
    """(canonical term key, monomial) of a code of the codec: the ``repr``
    that orders an ``Element``'s terms, and the monomial, one object for
    every decode of the code."""
    m = codec.decode(code)
    return repr(m), m


@functools.lru_cache(maxsize=_DECODED_KEPT)
def _keyed(codec, item) -> tuple:
    """(the ``Theory.overlaps`` tuple, its sort key parts) of an item of the
    codec's ``overlaps``: the key parts are the superposition's degree and
    ``serialize`` and each context's ``repr``. Equal contexts, those of an
    identity inclusion, are decoded once."""
    sup, ctx1, ctx2, inner = item
    first = codec.decode_context(ctx1, sup)
    second = first if ctx2 == ctx1 else codec.decode_context(ctx2, sup)
    kind = OverlapKind.OVERLAP if inner is None else OverlapKind.INCLUSION
    m, th = codec.decode(sup), codec.theory
    return (m, first, second, kind, inner), (
        th.degree(m), th.serialize(m), repr(first), repr(second)
    )


def _letter_codes(letters: tuple) -> dict:
    """One character per letter, ``chr`` of its position, so that a word
    and its code have equal length."""
    return {x: chr(i) for i, x in enumerate(letters)}


def _word_code(codes: dict, word) -> str:
    """The code of a word, one character of ``codes`` per letter."""
    return "".join(map(codes.__getitem__, word))


def _mirror(letters: tuple) -> dict:
    """The ``str.translate`` table that mirrors codes over these letters:
    ``chr(i)`` to ``chr(n + 1 - i)`` for the n letters, the hole ``chr(n)``
    and the node marker ``chr(n + 1)`` of tree codes. Mirrored codes of
    equal length compare in the reverse of the codes."""
    top = len(letters) + 1
    return {i: top - i for i in range(top + 1)}


def _code_weigher(codes: dict, weights: dict):
    """The sum of the weights over a code, where a character of no letter,
    the node marker of a tree or a vertex of a path, weighs 0."""
    by_code = collections.defaultdict(int, {c: weights[x] for x, c in codes.items()})
    return lambda code: sum(map(by_code.__getitem__, code))


class _CodedIndex(LeadIndex):
    """Lead index for monomials that reduce as ``str`` codes, which a
    subclass gives with ``code_of(m)`` (None, KeyError, TypeError or
    ValueError for no monomial of the theory) and ``decode``: a letter is
    ``chr`` of its rank, its position in ``letters``, and the ``vertices``
    of path codes follow. Codes of equal length compare as the order
    compares their monomials, so ``(len(code), code)`` sorts as deglex, and
    the weighted kinds lead it with the weight sum. The leftmost
    ``str.find`` hit of a lead's code gives the first context of
    ``divisions``, a (left, right) pair of codes, and an image is
    ``code.join(ctx)``; ``names`` gives the letter or vertex of each
    character. Overlaps of codes span at least ``shortest_overlap``
    characters."""

    __slots__ = ("letters", "codes", "names")
    shortest_overlap = 1
    sites = staticmethod(_sites)

    def __init__(self, theory, order, vertices: tuple = ()) -> None:
        super().__init__(theory)
        self.letters = letters = order.generators
        self.codes = _letter_codes(letters)
        self.names = {chr(i): x for i, x in enumerate(letters + vertices)}
        # ``(len(code), code)`` and ``(-len(code), mirrored code)``, led by
        # the weight sum and its negation under the weighted kinds; only
        # deglex has no weights, as words and trees admit no lex order. The
        # arrows of a path code fix its vertices, so both keys read it past
        # its source vertex, or that vertex alone for a path without arrows.
        mirror = _mirror(letters + vertices)
        weight = self.negated_weigher(order) if order.weights else None
        if weight is None and not vertices:
            self.sort_key = lambda code: (len(code), code)
            self.descending_key = lambda code: (-len(code), code.translate(mirror))
        elif weight is None:
            self.sort_key = lambda code: (len(code), code[1:] or code)
            self.descending_key = lambda code: (-len(code), (code[1:] or code).translate(mirror))
        elif not vertices:
            self.sort_key = lambda code: (-weight(code), len(code), code)
            self.descending_key = lambda code: (weight(code), -len(code), code.translate(mirror))
        else:
            self.sort_key = lambda code: (-weight(code), len(code), code[1:] or code)
            self.descending_key = lambda code: (
                weight(code), -len(code), (code[1:] or code).translate(mirror)
            )

    def encode(self, m) -> str:
        try:
            code = self.code_of(m)
            if code is not None:
                return code
        except (KeyError, TypeError, ValueError):  # a name without a code
            pass
        # Every monomial of the theory has a code, so this raises.
        self.theory.check_monomial(m)

    def site(self, code: str, start=0):
        for i, lead in enumerate(self.entries[start:] if start else self.entries, start):
            k = code.find(lead)
            if k >= 0:
                return i, (code[:k], code[k + len(lead) :])
        return None

    apply = staticmethod(str.join)

    def overlaps(self, code1: str, code2: str) -> list:
        return _string_overlaps(code1, code2, code1 == code2, self.shortest_overlap)

    def decode_context(self, ctx: tuple, code: str) -> tuple:
        return tuple(map(self.decode, ctx))

    def encode_context(self, ctx: tuple) -> tuple:
        return tuple(map(self.encode, ctx))

    def weigher(self, weights: dict):
        return _code_weigher(self.codes, weights)


class Theory(_Value):
    """Shared behaviour; concrete theories implement the payload geometry.

    A theory is a value whose fields are its generator declarations. Each
    theory also owns its system-file syntax: ``keyword`` names it in the
    ``theory`` statement, ``header_statements`` lists the statements that
    declare its fields, in field order, and ``monomial_named(name)`` returns
    the monomial an expression identifier stands for, or None; the
    expression parser reads them from ``named_monomials``, which, like
    ``deglex_codec``, is a ``cached_property`` kept on the theory.

    ``overlaps(mu1, mu2)`` lists the minimal superpositions of two leads
    as (superposition, ctx1, ctx2, kind, inner) tuples:
    ``apply_context(ctx1, mu1)`` and ``apply_context(ctx2, mu2)`` both give
    the superposition, ``kind`` is an ``OverlapKind``, and ``inner`` names
    the argument (1 or 2) that an inclusion places inside the other, None
    for an overlap. A lead paired with itself lists its identity inclusion
    too. ``divisions(mu, nu)`` lists the contexts at which ``nu`` divides
    ``mu``, and ``apply_context(ctx, m)`` puts ``m`` in a context. A
    theory's geometry is its codecs' kernels: the three methods encode
    their arguments under ``deglex_codec``, so a monomial without a code
    raises as ``encode`` does, ask its ``overlaps``, ``sites`` or ``apply``
    and decode what it gives, ``overlaps`` through the decode cache
    ``_keyed``. They are the public geometry calls, which no library path
    makes: a system lists its ambiguities, and completion its pairs, on
    the codes of its own lead index. Each theory class holds the three in
    its own namespace, where a tracer can wrap them. A theory refuses a
    name that its ``expression_names`` list twice, which codes would alias.

    A theory holds no order: its ``lead_index`` under an order is the codec
    whose keys and weigher every monomial order and weight sum read.
    """

    keyword = ""
    header_statements = ("vars",)
    # Irreducible monomials contain no lead as a contiguous "factor", or are
    # divisible by no lead ("divisor").
    irr_semantics = "factor"
    associative = True

    def __init__(self, *values, **named) -> None:
        _Value.__init__(self, *values, **named)
        names = self.expression_names()
        if len(set(names)) < len(names):
            twice = next(x for k, x in enumerate(names) if x in names[:k])
            raise TheoryMismatchError("%s reads %r as two generators" % (self.describe(), twice))

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # In each theory's own namespace, where a tracer wraps them per theory.
        for name in ("overlaps", "divisions", "apply_context"):
            setattr(cls, name, getattr(cls, name))

    @functools.cached_property
    def deglex_codec(self) -> "LeadIndex":
        """The lead index over no leads under deglex over the declared
        generators: that order's ``codec``, kept on the theory."""
        return MonomialOrder(OrderKind.DEGLEX, self, tuple(self.generator_names())).codec

    def apply_context(self, ctx, m):
        codec = self.deglex_codec
        return codec.decode(codec.apply(codec.encode(m), codec.encode_context(ctx)))

    def overlaps(self, mu1, mu2) -> list:
        codec = self.deglex_codec
        return [_keyed(codec, x)[0] for x in codec.overlaps(codec.encode(mu1), codec.encode(mu2))]

    def divisions(self, mu, nu) -> list:
        codec = self.deglex_codec
        code = codec.encode(mu)
        return [codec.decode_context(ctx, code) for ctx in codec.sites(code, codec.encode(nu))]

    def expression_names(self) -> tuple:
        """Every name an expression reads as a monomial."""
        return self.generator_names()

    @functools.cached_property
    def named_monomials(self) -> dict:
        """(monomial, degree) of each of the ``expression_names``, by name,
        kept on the theory."""
        return {
            name: (m, self.degree(m))
            for name in self.expression_names()
            for m in (self.monomial_named(name),)
        }

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

    def lead_index(self, leads, order) -> LeadIndex:
        """Index of rule leads for site lookup, whose codes reduce under
        ``order``: a copy of the order's ``codec`` over the leads' codes."""
        index = order.codec.copy()
        index.entries += map(index.encode, leads)
        return index

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

    def validate_monomial(self, m) -> bool:
        """Whether ``m`` is a monomial of the theory: one that ``code_of`` of
        its deglex codec spells. Power products and mixed monomials, whose
        codes have limits, check their own."""
        try:
            return self.deglex_codec.code_of(m) is not None
        except (KeyError, TypeError, ValueError):  # a name without a code
            return False

    def check_monomial(self, m) -> None:
        if not self.validate_monomial(m):
            raise TheoryMismatchError("monomial %r does not belong to %s" % (m, self.describe()))


# The module and class name of each theory by the keyword of its ``theory``
# statement; a module is imported when its theory is first asked for.
THEORIES = {
    "assoc": ("words", "FreeMonoidTheory"),
    "commutative": ("power_products", "CommutativeTheory"),
    "mixed": ("mixed", "MixedTheory"),
    "magma": ("magma", "FreeMagmaTheory"),
    "path": ("paths", "PathAlgebraTheory"),
}


@functools.cache  # one entry per keyword, since every system file asks
def theory_class(keyword: str) -> type:
    """The theory class a ``theory`` statement names, its module imported."""
    module, name = THEORIES[keyword]
    return getattr(importlib.import_module("." + module, __package__), name)


def __getattr__(name: str):
    """Resolve a theory class by its name (PEP 562)."""
    for keyword, (_, class_name) in THEORIES.items():
        if class_name == name:
            return theory_class(keyword)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
