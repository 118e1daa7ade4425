"""Irreducible monomials: the forbidden leads that describe them and their
counts by degree. Of the subcommands, only ``irr`` loads this module."""

from __future__ import annotations

from .algebra_core import DiamondError, _Value
from .rewriting_engine import DEFAULT_STEP_BUDGET, StepBudgetExceededError


class ForbiddenFactorSet(_Value):
    """Irreducible monomials are those avoiding these leads.

    ``semantics`` is "factor" when avoidance means containing no lead as a
    contiguous factor (words, mixed words, paths) and "divisor" when it means
    being divisible by no lead (power products, subtrees).
    """

    _fields = ("semantics", "leads")


def irr_description(system) -> ForbiddenFactorSet:
    """Describe the irreducible monomials by their forbidden lead set."""
    th = system.theory
    leads = sorted({rule.lead for rule in system.rules}, key=th.serialize)
    return ForbiddenFactorSet(th.irr_semantics, tuple(leads))


def _step(tested: int, max_steps: int, d: int) -> int:
    """One more step than ``tested``; StepBudgetExceededError, naming the
    degree ``d``, when ``tested`` has reached the budget."""
    if tested == max_steps:
        raise StepBudgetExceededError(
            "step budget of %d exceeded while counting irreducible monomials of degree %d"
            % (max_steps, d)
        )
    return tested + 1


def count_irreducible(system, max_degree: int, max_steps: int = DEFAULT_STEP_BUDGET) -> list:
    """Count irreducible monomials per degree from 0 to max_degree.

    The monomials of degree 0 and 1 are the theory's unit, when it has one,
    and those its expressions name: its generators, and a path's vertices.
    Past degree 1 only products of irreducible monomials are tested, since
    every factor of an irreducible monomial is irreducible. In an
    associative theory a monomial of degree d is u*g for a u of degree d-1
    and a g of degree 1: its last letter or arrow, or a variable it is
    divisible by. A tree of degree d is the product of its two subtrees.
    Each monomial tested is one step of ``max_steps``, and so is a degree
    that tests none, so that the budget bounds every count; past the budget
    StepBudgetExceededError names the degree being counted.
    """
    th, index = system.theory, system.lead_index
    site, encode = index.site, index.encode
    try:
        named = [(th.one(), 0)]
    except DiamondError:  # trees and paths have no unit
        named = []
    named += th.named_monomials.values()
    layers = []  # the irreducible monomials of each degree so far
    tested = 0
    for d in range(max_degree + 1):
        if d < 2:
            candidates = (m for m, degree in named if degree == d)
        elif th.associative:
            candidates = (th.multiply(u, g) for u in layers[d - 1] for g in layers[1])
        else:
            candidates = (
                th.multiply(a, b) for k in range(1, d) for a in layers[k] for b in layers[d - k]
            )
        seen, layer = set(), []
        for m in candidates:
            if m is None or m in seen:
                continue
            tested = _step(tested, max_steps, d)
            seen.add(m)
            if site(encode(m)) is None:
                layer.append(m)
        if not seen:
            tested = _step(tested, max_steps, d)
        layers.append(layer)
    return list(map(len, layers))
