"""Weighted norms, admission checks and precision-truncated normal forms."""

from __future__ import annotations

from fractions import Fraction

from .algebra_core import (
    DiamondError,
    Element,
    OrderKind,
    TheoryMismatchError,
    _set,
    _Value,
    _weight_table,
)
from .rewriting_engine import DEFAULT_STEP_BUDGET, _decoded, _encoded, _rewrites


class WeightData(_Value):
    """Generator weights defining the ultrametric norm on elements.

    A monomial of weight sum w has norm 2^w, so negative weights shrink
    high powers; an element's norm is the maximum over its support. Weight
    sums are computed on the weights times their common denominator
    ``weight_denominator``, as ints, by the ``weigher`` of the theory's
    codec under deglex over the declared generators, on codes.
    """

    _fields = ("theory", "weights")

    def __init__(self, theory, weights: tuple) -> None:
        names = sorted(name for name, _ in weights)
        expected = sorted(theory.generator_names())
        if names != expected:
            raise DiamondError("weights must cover the generators exactly")
        converted = tuple((name, Fraction(value)) for name, value in weights)
        den, ints = _weight_table(converted)
        _Value.__init__(self, theory, converted)
        _set(self, "weight_denominator", den)
        _set(self, "int_weights", ints)
        codec = theory.deglex_codec
        _set(self, "codec", codec)
        _set(self, "weigh", codec.weigher(ints))

    def exponent(self, monomial) -> Fraction:
        """Weight sum of a monomial, i.e. the base-2 logarithm of its norm;
        one outside the theory raises TheoryMismatchError."""
        return Fraction(self.weigh(self.codec.encode(monomial)), self.weight_denominator)


def norm(element: Element, weight_data: WeightData):
    """Largest weight sum over the support; -inf for the zero element.

    The value is the base-2 logarithm of the ultranorm, kept exact; the
    float infinity only ever marks the zero element.
    """
    if element.is_zero():
        return float("-inf")
    return max(weight_data.exponent(m) for m in element.support())


class EquicontinuityReport(_Value):
    """Per-rule norm comparison deciding series admission."""

    _fields = ("admitted", "failures")


def check_equicontinuity(system, weight_data: WeightData) -> EquicontinuityReport:
    """Admit a system when no rule's lower part outweighs its lead; weights
    of another theory raise TheoryMismatchError."""
    if weight_data.theory != system.theory:
        raise TheoryMismatchError(
            "weights of %s do not belong to the system's theory %s"
            % (weight_data.theory.describe(), system.theory.describe())
        )
    failures = []
    for index, rule in enumerate(system.rules):
        lead_exp = weight_data.exponent(rule.lead)
        lower_exp = norm(rule.lower, weight_data)
        if lower_exp > lead_exp:
            failures.append((index, lower_exp, lead_exp))
    return EquicontinuityReport(not failures, tuple(failures))


class TdccReport(_Value):
    """Whether chains of descents are certified to terminate topologically."""

    _fields = ("certified", "reason")


def check_tdcc(order, weight_data: WeightData) -> TdccReport:
    """Certify descending chain termination from the order's structure."""
    if order.kind is not OrderKind.SERIES_DEGLEX:
        return TdccReport(True, "well-founded order")
    if dict(order.weights) == dict(weight_data.weights):
        return TdccReport(True, "order weights agree with the norm weights")
    return TdccReport(False, "order weights differ from the norm weights")


class SeriesAdmissionError(DiamondError):
    """Raised when a system fails the admission checks for series reduction."""


class SeriesNormalForm(_Value):
    """Truncated normal form plus the precision it is valid to."""

    _fields = ("representative", "precision", "truncated")


def truncated_normal_form(
    system,
    weight_data: WeightData,
    element: Element,
    precision: int,
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> SeriesNormalForm:
    """Reduce an element, discarding monomials below the precision ball.

    ``precision`` is an integer n >= 1. Monomials of norm below 2^(1-n) are
    dropped the moment they appear, which is what keeps reduction finitary
    when rules raise weight sums.
    """
    if type(precision) is not int or precision < 1:
        raise DiamondError("precision must be an integer n >= 1")
    eq = check_equicontinuity(system, weight_data)
    if not eq.admitted:
        raise SeriesAdmissionError(
            "system is not equicontinuous for these weights: %r" % (eq.failures,)
        )
    tdcc = check_tdcc(system.order, weight_data)
    if not tdcc.certified:
        raise SeriesAdmissionError("descending chains not certified: %s" % tdcc.reason)

    # Weight sum >= 1 - n, compared on the ints scaled by the denominator;
    # the loop asks about the codes of its lead index.
    weight = system.lead_index.weigher(weight_data.int_weights)
    floor = (1 - precision) * weight_data.weight_denominator
    dropped = [False]

    def keep(code) -> bool:
        if weight(code) >= floor:
            return True
        dropped[0] = True
        return False

    box = _encoded(system, element, keep)
    for _ in _rewrites(system, box, max_steps, keep):
        pass
    return SeriesNormalForm(_decoded(system, box), precision, dropped[0])
