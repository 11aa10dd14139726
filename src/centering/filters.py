"""Anchor filters: contraindexing, center realization, and the pronoun rule.

Each filter is a pure pass/fail predicate over a single anchor, so they
can run in any order (or in parallel) without changing the outcome; the
`filter_*` functions state them one anchor at a time. `run_filters`
reaches the same verdicts over a whole `AnchorGrid` without building its
anchors: everything the filters ask of a Cf list (whether contra holds,
the top prior entity it realizes, the ids its pronouns bind) is
independent of the backward center, so it is worked out once per Cf
list, and each center's row of verdicts is then decided from those facts
and the center alone. A verdict records every violated filter, not just
the first; the verdicts are kept as one byte of filter bits per anchor.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .model import Anchor, AnchorGrid, CfList, Utterance

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


# Elimination sets by bit mask: bit i stands for FILTER_NAMES[i].
_ELIMINATED = tuple(
    frozenset(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1 << len(FILTER_NAMES))
)


class FilterVerdicts(Sequence[FilterVerdict]):
    """The verdicts on an AnchorGrid's anchors, in ordinal order.

    `masks[i]` holds the verdict on the anchor with ordinal i + 1: bit b
    is set iff filter FILTER_NAMES[b] eliminated it, so 0 means it
    survived. A `FilterVerdict` is built only when one is read.
    """

    # Not a frozen dataclass, for the reason AnchorGrid is not.
    __slots__ = ("masks",)

    def __init__(self, masks: bytes) -> None:
        self.masks = masks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FilterVerdicts) and self.masks == other.masks

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"FilterVerdicts({self.masks!r})"

    def __len__(self) -> int:
        return len(self.masks)

    def _at(self, i: int) -> FilterVerdict:
        return FilterVerdict(i + 1, _ELIMINATED[self.masks[i]])

    def __getitem__(self, index):
        positions = range(len(self))[index]
        if isinstance(positions, range):
            return [self._at(i) for i in positions]
        return self._at(positions)

    def __iter__(self) -> Iterator[FilterVerdict]:
        for ordinal, mask in enumerate(self.masks, 1):
            yield FilterVerdict(ordinal, _ELIMINATED[mask])


def run_filters(
    grid: AnchorGrid, prior_cf: CfList, u: Utterance
) -> tuple[list[Anchor], FilterVerdicts]:
    """Evaluate all three filters on every anchor of `grid`.

    The grid's Cf lists are bindings of `u`'s markers, entry i realizing
    marker i, as `propose_anchors(u, ...)` builds them. Survivors come in
    ordinal order; the verdicts record the full elimination set of every
    anchor.
    """
    cb_ids = [cb.entity.id if cb is not None else None for cb in grid.cbs]
    every_cb = frozenset(cb_ids)
    # Distinct prior entities, most prominent first.
    prior_order = tuple(dict.fromkeys(pe.entity.id for pe in prior_cf.entries))
    position = {m.mid: i for i, m in enumerate(u.markers)}
    contra_pairs = [
        (i, position[other]) for i, m in enumerate(u.markers) for other in m.contra if other in position
    ]
    pronoun_positions = tuple(i for i, m in enumerate(u.markers) if m.is_pronoun)
    # Per Cf list: its contra bit, the most prominent prior entity it
    # realizes (None if none), and the centers rule 1 passes: the ids its
    # pronouns bind when one of them picks up a prior entity, else all.
    facts = []
    for cf in grid.cf_lists:
        ids = [e.entity.id for e in cf.entries]
        contra = 0
        for i, j in contra_pairs:
            if ids[i] == ids[j]:
                contra = 1
                break
        top = None
        for pid in prior_order:
            if pid in ids:
                top = pid
                break
        pronoun_ids = {ids[i] for i in pronoun_positions}
        facts.append((contra, top, every_cb if pronoun_ids.isdisjoint(prior_order) else pronoun_ids))
    # Row by row: one center against every Cf list.
    masks = bytes([
        contra | (cb_id != top) << 1 | (cb_id not in rule1_passes) << 2
        for cb_id in cb_ids
        for contra, top, rule1_passes in facts
    ])
    survivors = []
    width = len(grid.cf_lists)
    i = masks.find(0)
    while i >= 0:
        row, column = divmod(i, width)
        survivors.append(Anchor(grid.cbs[row], grid.cf_lists[column], i + 1))
        i = masks.find(0, i + 1)
    return survivors, FilterVerdicts(masks)
