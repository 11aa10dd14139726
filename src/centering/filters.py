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
and the center alone. What the fixed (non-pronoun) markers contribute is
the same for every Cf list and is worked out once; the Cf lists are then
read as the product of the pronoun slots' entity ids, so no CfEntry is
read per Cf list. A verdict records every violated filter, not just
the first; the verdicts are kept as one byte of filter bits per anchor,
and the survivors as a plain tuple of their increasing grid positions.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress, count, product

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

    The grid's slots are those of `u`'s markers, slot i holding the
    entries that can realize marker i, as `propose_anchors(u, ...)`
    builds them: a non-pronoun marker's slot is its one entry. Returns
    the survivors, as their increasing positions (ordinal - 1) in
    `grid`, and the verdicts, which record the full elimination set of
    every anchor.
    """
    cb_ids = [cb.entity.id if cb is not None else None for cb in grid.cbs]
    every_cb = frozenset(cb_ids)
    # Distinct prior entities, most prominent first.
    prior_order = tuple(dict.fromkeys(pe.entity.id for pe in prior_cf))
    # A pronoun's place in the tuples of bound ids that the product of the
    # pronoun slots yields, one tuple per Cf list in grid order; the one
    # id of each other marker.
    place: dict[str, int] = {}
    fixed: dict[str, str] = {}
    id_slots = []
    for m, slot in zip(u.markers, grid.slots):
        if m.is_pronoun:
            place[m.mid] = len(id_slots)
            id_slots.append([e.entity.id for e in slot])
        else:
            (entry,) = slot
            fixed[m.mid] = entry.entity.id
    # Contraindexed fixed markers bound to one entity eliminate every
    # anchor; the other contraindexed pairs compare two pronouns' ids or
    # a pronoun's id with a fixed one.
    fixed_contra, pairs, against = 0, set(), set()
    for m in u.markers:
        k = place.get(m.mid)
        for other in m.contra:
            if other in place:
                if k is None:
                    against.add((place[other], fixed[m.mid]))
                else:
                    pairs.add((min(k, place[other]), max(k, place[other])))
            elif other in fixed:
                if k is None:
                    fixed_contra |= fixed[m.mid] == fixed[other]
                else:
                    against.add((k, fixed[other]))
    # Every Cf list realizes the fixed markers' entities. The most
    # prominent prior one of them is a Cf list's top unless a pronoun
    # binds a prior entity ahead of it, so only those are scanned.
    fixed_top, ahead = None, prior_order
    fixed_ids = set(fixed.values())
    for k, pid in enumerate(prior_order):
        if pid in fixed_ids:
            fixed_top, ahead = pid, prior_order[:k]
            break
    # Per Cf list: its contra bit, the most prominent prior entity it
    # realizes (None if none), and the centers rule 1 passes: the ids its
    # pronouns bind when one of them picks up a prior entity, else all.
    facts = []
    for ids in product(*id_slots):
        contra = fixed_contra
        for k, j in pairs:
            if ids[k] == ids[j]:
                contra = 1
                break
        for k, fid in against:
            if ids[k] == fid:
                contra = 1
                break
        pronoun_ids = set(ids)
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
