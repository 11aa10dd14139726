"""Anchor filters: contraindexing, center realization, and the pronoun rule.

Each filter is a pure pass/fail predicate over a single anchor, so they
can run in any order (or in parallel) without changing the outcome; the
`filter_*` functions state them one anchor at a time. `run_filters`
reaches the same verdicts faster: everything the filters ask of a Cf list
(whether contra holds, the top prior entity it realizes, the ids its
pronouns bind) is independent of the backward center, so it is worked
out once per distinct Cf list, and each anchor is then decided from its
center alone. A verdict records every violated filter, not just the
first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Anchor, CfList, Utterance

CONTRA = "contra"
CONSTRAINT3 = "constraint3"
RULE1 = "rule1"
FILTER_NAMES = (CONTRA, CONSTRAINT3, RULE1)


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of all filters for one anchor (id = construction ordinal)."""

    anchor_id: int
    eliminated_by: frozenset[str]

    @property
    def passed(self) -> bool:
        return not self.eliminated_by


def filter_contraindex(anchor: Anchor, u: Utterance) -> bool:
    """False iff two contraindexed markers are bound to the same entity."""
    assignment = anchor.cf.assignment()
    for m in u.markers:
        bound = assignment.get(m.mid)
        if bound is None:
            continue
        for other in m.contra:
            if assignment.get(other) == bound:
                return False
    return True


def filter_constraint3(anchor: Anchor, prior_cf: CfList) -> bool:
    """The backward center must be the most prominent prior entity realized here.

    When nothing from the prior centers is realized, only the null center
    passes; that case keeps the predicate total for utterances sharing
    nothing with their context.
    """
    realized = {entry.entity.id for entry in anchor.cf.entries}
    top = next((pe for pe in prior_cf.entries if pe.entity.id in realized), None)
    if top is None:
        return anchor.cb is None
    return anchor.cb is not None and anchor.cb.entity == top.entity


def filter_rule1(anchor: Anchor, prior_cf: CfList, u: Utterance) -> bool:
    """If some prior entity is realized as a pronoun, the center must be too.

    Vacuously true when no pronoun picks up a prior entity.
    """
    prior_ids = {pe.entity.id for pe in prior_cf.entries}
    pronoun_ids = {e.entity.id for e in anchor.cf.entries if e.marker.is_pronoun}
    if pronoun_ids & prior_ids:
        return anchor.cb is not None and anchor.cb.entity.id in pronoun_ids
    return True


# Elimination sets by bit mask: contra 1, constraint3 2, rule1 4.
_ELIMINATED = tuple(
    frozenset(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1 << len(FILTER_NAMES))
)


def _cf_facts(
    cf: CfList, prior_cf: CfList, prior_ids: set[str], u: Utterance
) -> tuple[int, str | None, set[str] | None]:
    """What the filters need to know of `cf`, whatever the backward center.

    Returns the contra bit of the elimination mask, the id of the most
    prominent prior entity `cf` realizes (None when it realizes none), and
    the ids bound to its pronouns when one of them picks up a prior entity
    (None otherwise, leaving rule 1 vacuous).
    """
    assignment = cf.assignment()
    contra = 0
    for m in u.markers:
        bound = assignment.get(m.mid)
        if bound is not None and any(assignment.get(other) == bound for other in m.contra):
            contra = 1
            break
    realized = {entry.entity.id for entry in cf.entries}
    top_id = next((pe.entity.id for pe in prior_cf.entries if pe.entity.id in realized), None)
    pronoun_ids = {e.entity.id for e in cf.entries if e.marker.is_pronoun}
    return contra, top_id, pronoun_ids if pronoun_ids & prior_ids else None


def run_filters(
    anchors: list[Anchor], prior_cf: CfList, u: Utterance
) -> tuple[list[Anchor], list[FilterVerdict]]:
    """Evaluate all three filters on every anchor.

    Survivors keep their input order; verdicts are aligned with the input
    and record the full elimination set per anchor.
    """
    prior_ids = {pe.entity.id for pe in prior_cf.entries}
    # Keyed by object identity: `anchors` keeps every Cf list alive for the
    # whole call, so no id is reused while the dict exists.
    facts: dict[int, tuple[int, str | None, set[str] | None]] = {}
    survivors: list[Anchor] = []
    verdicts: list[FilterVerdict] = []
    for anchor in anchors:
        cf = anchor.cf
        fact = facts.get(id(cf))
        if fact is None:
            fact = facts[id(cf)] = _cf_facts(cf, prior_cf, prior_ids, u)
        mask, top_id, pronoun_ids = fact
        cb_id = anchor.cb.entity.id if anchor.cb is not None else None
        if cb_id != top_id:
            mask |= 2
        if pronoun_ids is not None and cb_id not in pronoun_ids:
            mask |= 4
        verdicts.append(FilterVerdict(anchor.ordinal, _ELIMINATED[mask]))
        if not mask:
            survivors.append(anchor)
    return survivors, verdicts
