"""Anchor filters: contraindexing, center realization, and the pronoun rule.

An anchor fails contraindexing when two contraindexed markers bind one
entity; it fails constraint 3 unless its backward center is the most
prominent prior entity its Cf list realizes, or null when it realizes
none; and it fails rule 1 when a pronoun binds a prior entity but none
binds the center. Each filter is a pure pass/fail test of one anchor, so
they can run in any order without changing the outcome. `run_filters`
decides all three over a whole `AnchorGrid` without building its
anchors: everything the filters ask of a Cf list (whether contra holds,
the top prior entity it realizes, the ids its pronouns bind) is
independent of the backward center, so it is worked out once per Cf
list, and each center's row of verdicts is then decided from those facts
and the center alone. A verdict records every violated filter, not just
the first; the verdicts are kept as one byte of filter bits per anchor,
and the survivors as a plain tuple of their increasing grid positions.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress, count

from .model import AnchorGrid, CfList, Utterance, Value

FILTER_NAMES = ("contra", "constraint3", "rule1")


class FilterVerdict(Value):
    """Outcome of all filters for one anchor (id = construction ordinal)."""

    __slots__ = ("anchor_id", "eliminated_by")

    def __init__(self, anchor_id: int, eliminated_by: frozenset[str]) -> None:
        set_anchor_id, set_eliminated_by = self._setters
        set_anchor_id(self, anchor_id)
        set_eliminated_by(self, eliminated_by)

    @property
    def passed(self) -> bool:
        return not self.eliminated_by


# Elimination sets by bit mask: bit i stands for FILTER_NAMES[i].
_ELIMINATED = tuple(
    frozenset(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1 << len(FILTER_NAMES))
)
# Verdict masks translated to 1 where no filter's bit is set: the survivors.
SURVIVED = bytes(mask == 0 for mask in range(256))


class FilterVerdicts(Value):
    """The verdicts on an AnchorGrid's anchors, in ordinal order.

    `masks[i]` holds the verdict on the anchor with ordinal i + 1: bit b
    is set iff filter FILTER_NAMES[b] eliminated it, so 0 means it
    survived.
    """

    __slots__ = ("masks",)

    def __init__(self, masks: bytes) -> None:
        (set_masks,) = self._setters
        set_masks(self, masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[FilterVerdict]:
        # The benchmark's tracer counts eliminations per filter through this.
        for i, mask in enumerate(self.masks):
            yield FilterVerdict(i + 1, _ELIMINATED[mask])


def run_filters(grid: AnchorGrid, prior_cf: CfList, u: Utterance) -> tuple[tuple[int, ...], FilterVerdicts]:
    """Evaluate all three filters on every anchor of `grid`.

    The grid's Cf lists are bindings of `u`'s markers, entry i realizing
    marker i, as `propose_anchors(u, ...)` builds them. Returns the
    survivors, as their increasing positions (ordinal - 1) in `grid`,
    and the verdicts, which record the full elimination set of every
    anchor.
    """
    cb_ids = [cb.entity.id if cb is not None else None for cb in grid.cbs]
    every_cb = frozenset(cb_ids)
    # Distinct prior entities, most prominent first.
    prior_order = tuple(dict.fromkeys(pe.entity.id for pe in prior_cf))
    position = {m.mid: i for i, m in enumerate(u.markers)}
    contra_pairs = [
        (i, position[other]) for i, m in enumerate(u.markers) for other in m.contra if other in position
    ]
    pronoun_positions = tuple(i for i, m in enumerate(u.markers) if m.is_pronoun)
    # Every Cf list realizes the fixed markers' entities. The most
    # prominent prior one of them is a Cf list's top unless a pronoun
    # binds a prior entity ahead of it, so only those are scanned.
    fixed_top, ahead = None, prior_order
    if prior_order:
        fixed_ids = {m.entity.id for m in u.markers if not m.is_pronoun}
        for k, pid in enumerate(prior_order):
            if pid in fixed_ids:
                fixed_top, ahead = pid, prior_order[:k]
                break
    # Per Cf list: its contra bit, the most prominent prior entity it
    # realizes (None if none), and the centers rule 1 passes: the ids its
    # pronouns bind when one of them picks up a prior entity, else all.
    facts = []
    for cf in grid.cf_lists:
        ids = [e.entity.id for e in cf]
        contra = 0
        for i, j in contra_pairs:
            if ids[i] == ids[j]:
                contra = 1
                break
        pronoun_ids = {ids[i] for i in pronoun_positions}
        top = fixed_top
        for pid in ahead:
            if pid in pronoun_ids:
                top = pid
                break
        facts.append((contra, top, every_cb if pronoun_ids.isdisjoint(prior_order) else pronoun_ids))
    # Row by row: one center against every Cf list.
    masks = bytes([
        contra | (cb_id != top) << 1 | (cb_id not in rule1_passes) << 2
        for cb_id in cb_ids
        for contra, top, rule1_passes in facts
    ])
    return tuple(compress(count(), masks.translate(SURVIVED))), FilterVerdicts(masks)
