"""Confluence verdicts and ideal membership: the resolution of every
critical ambiguity, without the completion loop."""

from __future__ import annotations

import functools
from enum import Enum

from .algebra_core import DiamondError, Element, _Value
from .ambiguity import ResolutionCertificate, _s_box
from .rewriting_engine import (
    DEFAULT_STEP_BUDGET,
    StepBudgetExceededError,
    normal_form,
    _decoded,
    _rewrites,
    _step,
    _well_founded,
)


class ConfluenceStatus(Enum):
    CONFLUENT = "confluent"
    NOT_CONFLUENT = "not-confluent"
    INCONCLUSIVE = "inconclusive"


class ConfluenceVerdict(_Value):
    """Outcome of resolving every critical ambiguity of a system.

    An inconclusive verdict keeps the ambiguity whose resolution ran out of
    steps in ``stopped_at``.
    """

    _fields = ("status", "checked", "witness", "stopped_at")
    _defaults = {"witness": None, "stopped_at": None}

    def stop_point(self, theory) -> str:
        """Say where an inconclusive check stopped."""
        amb = self.stopped_at
        sup = theory.serialize(amb.superposition)
        return "after %d ambiguities, while resolving rules (%d, %d) at %s" % (
            self.checked, amb.rule1, amb.rule2, sup
        )


def check_confluence(system, max_steps: int = DEFAULT_STEP_BUDGET) -> ConfluenceVerdict:
    """Resolve all critical ambiguities and report the verdict.

    Each s-polynomial is built and reduced on codes, from the encoded
    contexts the system keeps beside its ambiguities. The steps of each
    reduction are kept as ``_rewrites`` yields them, and only the witness,
    the first ambiguity that does not resolve, has them decoded into the
    trail of its certificate, which is what ``resolve`` gives under the
    same budget. A system whose order is not well-founded raises
    DiamondError, since plain reduction then need not terminate.
    """
    _well_founded(system, "confluence checking")
    checked = 0
    # ``ambiguities`` is read first, and sets ``_contexts``.
    for amb, (ctx1, ctx2) in zip(system.ambiguities, system._contexts):
        box = _s_box(system, amb.rule1, ctx1, amb.rule2, ctx2)
        try:
            steps = list(_rewrites(system, box, max_steps))
        except StepBudgetExceededError:
            return ConfluenceVerdict(ConfluenceStatus.INCONCLUSIVE, checked, None, amb)
        checked += 1
        if box[0]:
            trail = tuple([_step(system, step) for step in steps])
            cert = ResolutionCertificate(amb, False, _decoded(system, box), trail)
            return ConfluenceVerdict(ConfluenceStatus.NOT_CONFLUENT, checked, cert, None)
    return ConfluenceVerdict(ConfluenceStatus.CONFLUENT, checked, None, None)


class NotConfluentSystemError(DiamondError):
    """Raised when ideal membership is queried on a non-confluent system."""


@functools.lru_cache(maxsize=64)
def _cached_verdict(system, max_steps: int) -> ConfluenceVerdict:
    """Confluence verdict per (system, budget), for repeated membership queries."""
    return check_confluence(system, max_steps)


def ideal_member(system, element: Element, max_steps: int = DEFAULT_STEP_BUDGET) -> bool:
    """Decide ideal membership by normal form; requires a confluent system.

    ``max_steps`` bounds each reduction of the confluence check as well as
    the final normal form; a check cut short raises StepBudgetExceededError.
    """
    verdict = _cached_verdict(system, max_steps)
    if verdict.status is ConfluenceStatus.INCONCLUSIVE:
        raise StepBudgetExceededError(
            "confluence check exceeded the step budget of %d %s"
            % (max_steps, verdict.stop_point(system.theory))
        )
    if verdict.status is not ConfluenceStatus.CONFLUENT:
        raise NotConfluentSystemError(
            "membership test needs a confluent system; verdict was %s" % verdict.status.value
        )
    return normal_form(system, element, max_steps).is_zero()
