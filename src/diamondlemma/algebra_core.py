"""Exact scalars, sparse elements and monomial orders shared by every theory."""

from __future__ import annotations

import functools
import math
import operator
from enum import Enum
from fractions import Fraction


class DiamondError(Exception):
    """Base class for errors raised by this package."""


class TheoryMismatchError(DiamondError):
    """Raised when monomials or orders from different theories are combined."""


class ScalarError(DiamondError):
    """Raised for invalid field parameters or mixed-field arithmetic."""


_set = object.__setattr__


class _Value:
    """Immutable value whose equality, hashing and repr read the fields named
    in ``_fields``.

    ``cls(*values, **named)`` stores the fields, by position or by name.
    Exactly one positional value per field, and no name, takes a fast path;
    otherwise the class's ``_defaults``, the values and the names are
    merged, and a missing, unknown, repeated or extra field raises
    TypeError. A subclass that also checks or derives something calls
    ``_Value.__init__`` for its fields. Assigning or deleting an attribute
    afterwards raises AttributeError. Attributes outside ``_fields``, such
    as caches, are kept in the instance dict and ignored by equality,
    hashing and repr.
    """

    _fields: tuple = ()
    # Values of the fields a caller may leave out, by name.
    _defaults: dict = {}

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named or len(values) != len(fields):
            given = dict(zip(fields, values))
            merged = {**self._defaults, **given, **named}
            if len(values) > len(fields) or given.keys() & named or merged.keys() != set(fields):
                raise TypeError(
                    "%s takes the fields (%s); got %d by position and (%s) by name"
                    % (type(self).__qualname__, ", ".join(fields), len(values), ", ".join(named))
                )
            # A map: a comprehension would read ``merged`` from a cell,
            # which every call, the fast path's too, would build.
            values = list(map(merged.__getitem__, fields))
        # One store per field: reading self.__dict__ would give each
        # instance a dict of its own, where CPython keeps the values inline.
        for field, value in zip(fields, values):
            _set(self, field, value)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # _values(value) is the tuple of the field values; an attrgetter of
        # several names builds it in C, one of a single name gives the value.
        names = cls._fields
        if len(names) == 1:
            get = operator.attrgetter(*names)
            values = lambda value: (get(value),)
        elif names:
            values = operator.attrgetter(*names)
        else:
            values = lambda value: ()
        cls._values = staticmethod(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(map("%s=%r".__mod__, zip(self._fields, self._values(self))))
        return "%s(%s)" % (type(self).__qualname__, args)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Decide primality deterministically for machine-word sized n >= 2."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # Deterministic Miller-Rabin witness set for n < 2^64.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp(_Value):
    """Residue modulo a prime, normalized to 0 <= value < p."""

    _fields = ("value", "p")

    # Written out, as Element's is, since residues are built per field
    # operation: two stores took 0.5 us, the generic constructor 1.0 us
    # (CPython 3.11, x86-64).
    def __init__(self, value: int, p: int) -> None:
        _set(self, "value", value)
        _set(self, "p", p)

    def _check(self, other: "Fp") -> None:
        if not isinstance(other, Fp) or other.p != self.p:
            raise ScalarError("mixed-field scalar arithmetic")

    def __add__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp((self.value - other.value) % self.p, self.p)

    def __mul__(self, other: "Fp") -> "Fp":
        self._check(other)
        return Fp(self.value * other.value % self.p, self.p)

    def __truediv__(self, other: "Fp") -> "Fp":
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return Fp(self.value * pow(other.value, -1, self.p) % self.p, self.p)

    def __neg__(self) -> "Fp":
        return Fp(-self.value % self.p, self.p)

    def __pow__(self, k: int) -> "Fp":
        return Fp(pow(self.value, k, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0


# Shared Fractions of small nonzero integers; Fractions are immutable.
_SMALL_FRACTIONS = {i: Fraction(i) for i in range(-128, 129) if i}


def _reject(c, field):
    raise ScalarError("coefficient %s is not in the field %s" % (c, field.describe()))


class RationalField(_Value):
    """Field of exact rationals.

    Reduction loops work on a field's raw values and reduce sums modulo
    ``characteristic`` when it is nonzero. The raw values of rationals are
    integer numerators over one common denominator, so reduction runs on
    ints alone and divides once, on the way out. Converting into raw values
    accepts ``int`` and ``Fraction`` coefficients, raises ``ScalarError``
    for any other and returns the denominator; converting back gives only
    ``Fraction``.
    """

    characteristic = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coeff(self, value) -> Fraction:
        """Coerce an int or Fraction into this field."""
        return Fraction(value)

    def contains(self, value) -> bool:
        """Decide whether a coefficient is an element of this field."""
        return isinstance(value, Fraction)

    def describe(self) -> str:
        return "QQ"

    def into_raw(self, coeffs: dict) -> int:
        """Check a coefficient dict and replace its values, in place, by
        numerators over the denominator returned: the lcm of theirs."""
        # One as_integer_ratio call reads what two property reads would.
        den = 1
        for m, c in coeffs.items():
            if isinstance(c, Fraction):
                n, d = c.as_integer_ratio()
                if d == 1:
                    coeffs[m] = n
                elif den % d:
                    den = math.lcm(den, d)
            elif not isinstance(c, int):
                _reject(c, self)
        if den != 1:
            # Only fractional input pays this pass.
            for m, c in coeffs.items():
                n, d = c.as_integer_ratio()
                coeffs[m] = n * (den // d)
        return den

    def from_raw(self, coeffs: dict, den: int = 1) -> dict:
        """Replace a raw dict's numerators over ``den`` by ``Fraction``, in
        place. Over the denominator 1 a ``Fraction`` value, which the
        expression parser keeps for a rational that is no integer, stays."""
        if den != 1:
            for m, r in coeffs.items():
                coeffs[m] = Fraction(r, den)
            return coeffs
        small = _SMALL_FRACTIONS.get
        for m, r in coeffs.items():
            if isinstance(r, int):
                coeffs[m] = small(r) or Fraction(r)
        return coeffs

    def scalar(self, raw: int, den: int) -> Fraction:
        """The field value of one numerator over ``den``."""
        return Fraction(raw, den) if den != 1 else _SMALL_FRACTIONS.get(raw) or Fraction(raw)


class PrimeField(_Value):
    """Field of residues modulo a machine-word prime.

    Its values are ``Fp``; its raw values are the residues as plain ints,
    0 <= r < p, over the denominator 1. Converting into raw values checks
    that every coefficient is an ``Fp`` with this modulus, so a loop on raw
    values needs no per-operation check.
    """

    _fields = ("p",)

    def __init__(self, p: int) -> None:
        _Value.__init__(self, p)
        if not isinstance(p, int) or not 2 <= p < 2**63:
            raise ScalarError("field characteristic must be a machine-word prime")
        if not _is_prime(p):
            raise ScalarError("field characteristic %d is not prime" % p)

    @property
    def zero(self) -> Fp:
        return Fp(0, self.p)

    @property
    def one(self) -> Fp:
        return Fp(1, self.p)

    def coeff(self, value) -> Fp:
        """Coerce an int or Fraction into this field."""
        if isinstance(value, Fp):
            if value.p != self.p:
                raise ScalarError("mixed-field scalar arithmetic")
            return value
        frac = Fraction(value)
        if frac.denominator % self.p == 0:
            raise ScalarError("denominator vanishes modulo %d" % self.p)
        num = frac.numerator % self.p
        den = frac.denominator % self.p
        return Fp(num * pow(den, -1, self.p) % self.p, self.p)

    def contains(self, value) -> bool:
        """Decide whether a coefficient is an element of this field."""
        return isinstance(value, Fp) and value.p == self.p

    def describe(self) -> str:
        return "GF(%d)" % self.p

    @property
    def characteristic(self) -> int:
        return self.p

    def _raw(self, c) -> int:
        if not self.contains(c):
            _reject(c, self)
        return c.value

    def into_raw(self, coeffs: dict) -> int:
        """Check a coefficient dict and replace its values by residues, in
        place; returns their denominator, 1."""
        raw = self._raw
        for m, c in coeffs.items():
            coeffs[m] = raw(c)
        return 1

    def from_raw(self, coeffs: dict, den: int = 1) -> dict:
        """Replace a residue dict's values by ``Fp`` values, in place; the
        denominator of residues is 1."""
        p = self.p
        for m, r in coeffs.items():
            coeffs[m] = Fp(r, p)
        return coeffs

    def scalar(self, raw: int, den: int) -> Fp:
        """The ``Fp`` of one residue, whose denominator is 1."""
        return Fp(raw, self.p)


def _accumulate(coeffs: dict, monomial, c, p: int = 0) -> None:
    """Add c to a monomial's coefficient, deleting the entry when it cancels;
    with p nonzero the values are raw residues, reduced modulo p."""
    prev = coeffs.get(monomial)
    s = c if prev is None else prev + c
    if p:
        s %= p
    if s:
        coeffs[monomial] = s
    elif prev is not None:
        del coeffs[monomial]


class Element(_Value):
    """Finitely supported scalar combination of monomials, stored sparsely."""

    _fields = ("terms",)

    # Written out, as Fp's is, since elements are built per term and per
    # reduction: one store took 0.4 us, the generic constructor 0.8 us
    # (CPython 3.11, x86-64).
    def __init__(self, terms: tuple) -> None:
        _set(self, "terms", terms)

    @staticmethod
    def from_dict(coeffs: dict) -> "Element":
        """Build an element from a monomial-to-coefficient mapping, purging zeros."""
        return Element._of_nonzero({m: c for m, c in coeffs.items() if c})

    @staticmethod
    def _of_nonzero(coeffs: dict) -> "Element":
        """``from_dict`` of a mapping that holds no zero, which is not tested;
        a single term is not keyed. Terms are sorted by the ``repr`` of
        their monomials: payloads are nested tuples, strings and ints, and
        repr is an injective deterministic key that never compares across
        types."""
        items = coeffs.items()
        if len(coeffs) > 1:
            items = sorted(items, key=lambda item: repr(item[0]))
        return Element(tuple(items))

    @staticmethod
    def zero() -> "Element":
        return Element(())

    def support(self) -> tuple:
        """Return the monomials with nonzero coefficient."""
        return tuple(m for m, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Element") -> "Element":
        merged = dict(self.terms)
        for m, c in other.terms:
            _accumulate(merged, m, c)
        return Element.from_dict(merged)

    def __sub__(self, other: "Element") -> "Element":
        merged = dict(self.terms)
        for m, c in other.terms:
            _accumulate(merged, m, -c)
        return Element.from_dict(merged)

    def __neg__(self) -> "Element":
        return Element(tuple((m, -c) for m, c in self.terms))

    def scaled(self, scalar) -> "Element":
        """Multiply every coefficient by a scalar."""
        if not scalar:
            return Element(())
        return Element(tuple((m, c * scalar) for m, c in self.terms))


@functools.lru_cache(maxsize=256)
def _weight_table(weights: tuple) -> tuple:
    """(D, {generator: weight * D as an int}) for (generator, weight) pairs,
    D > 0 the common denominator of the weights.

    Sums of scaled weights compare as the weight sums do, exactly and on ints.
    """
    den = math.lcm(*(Fraction(w).denominator for _, w in weights))
    return den, {name: int(Fraction(w) * den) for name, w in weights}


class OrderKind(Enum):
    """Shipped monomial order families."""

    DEGLEX = "deglex"
    WEIGHTED_DEGLEX = "weighted-deglex"
    LEX = "lex"
    SERIES_DEGLEX = "series-deglex"


class OrderError(DiamondError):
    """Raised for invalid order parameters."""


@functools.lru_cache(maxsize=256)
def _codec(cls, values: tuple, kind: str, generators: tuple, weights: tuple):
    """The lead index over no leads of the theory ``cls(*values)`` under the
    order of that kind's value, generators and weights: one for all equal
    orders, the least recently used dropped first. The key is plain values,
    which hash in C where a _Value hashes in Python, so the index is built
    for an equal theory and order made from them."""
    theory = cls(*values)
    order = object.__new__(MonomialOrder)
    _Value.__init__(order, OrderKind(kind), theory, generators, weights)
    return theory.index_class(theory, order)


class MonomialOrder(_Value):
    """Monomial order: a kind, a total order on generators and optional weights.

    Generators are listed ascending, so the last one is the greatest. Weights
    are required for the weighted kinds and must be positive for
    weighted-deglex; series-deglex accepts arbitrary rational weights but is
    only admissible together with a topology certificate.

    The order is implemented once, by the theory's lead index under it:
    ``codec`` is that index over no leads, which ``_codec`` keeps for the
    latest 256 distinct orders, so equal orders share it, and ``sort_key``
    reads its codes.
    """

    _fields = ("kind", "theory", "generators", "weights")

    def __init__(self, kind: OrderKind, theory, generators: tuple, weights: tuple = ()) -> None:
        _Value.__init__(self, kind, theory, generators, weights)
        gens = tuple(self.theory.generator_names())
        if sorted(self.generators) != sorted(gens):
            raise OrderError("generator list does not match the theory")
        if self.kind in (OrderKind.WEIGHTED_DEGLEX, OrderKind.SERIES_DEGLEX):
            names = tuple(name for name, _ in self.weights)
            if sorted(names) != sorted(gens):
                raise OrderError("weight vector does not cover the generators")
            if self.kind is OrderKind.WEIGHTED_DEGLEX:
                if any(w <= 0 for _, w in self.weights):
                    raise OrderError("weighted-deglex requires positive weights")
        elif self.weights:
            raise OrderError("weights are only meaningful for weighted kinds")
        if self.kind is OrderKind.LEX and not self.theory.supports_lex():
            raise OrderError("lex is only well-founded for the commutative theory")
        # The theory's lead index over no leads under the order, one for all
        # equal orders; no field, so equality, hashing and repr ignore it.
        th = self.theory
        codec = _codec(type(th), th._values(th), self.kind._value_, self.generators, self.weights)
        _set(self, "codec", codec)

    def sort_key(self, monomial):
        """Total comparison key, ascending with the order: the codec's
        ``sort_key`` of the monomial's code. A monomial outside the theory
        raises TheoryMismatchError, and a power product too large for its
        code DiamondError."""
        codec = self.codec
        return codec.sort_key(codec.encode(monomial))

    def is_well_founded(self) -> bool:
        """Report whether descending chains are necessarily finite."""
        return self.kind is not OrderKind.SERIES_DEGLEX

