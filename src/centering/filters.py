"""Anchor filters: contraindexing, center realization, and the pronoun rule.

An anchor fails contraindexing when two contraindexed markers bind one
entity; it fails constraint 3 unless its backward center is the most
prominent prior entity its Cf list realizes, or null when it realizes
none; and it fails rule 1 when a pronoun binds a prior entity but none
binds the center. Each filter is a pure pass/fail test of one anchor, so
they can run in any order without changing the outcome.

`run_filters` decides all three over a whole `AnchorGrid` without a
Python step per anchor or per Cf list. Every fact it needs about the Cf
lists is a selector: a Python int holding one byte per Cf list, in grid
order, that is 1 where the fact holds. A pronoun's slot gives one
selector per entity it can bind, built from the slot's place in the
grid's product, and a fixed (non-pronoun) marker binds its entity in
every Cf list. Contraindexing, the entity that tops each Cf list under
constraint 3 and the Cf lists where rule 1 applies are then unions,
intersections and differences of selectors. Everything but the center
is shared by a grid's rows, so a center's row of verdicts is one int
written out with `to_bytes`. A verdict records every violated
filter, not just the first; the verdicts are kept as one byte of filter
bits per anchor, and the survivors as a plain tuple of their increasing
grid positions.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import compress, count
from operator import attrgetter

from .model import AnchorGrid, CfList, Utterance, Value

_entity_id = attrgetter("entity.id")

FILTER_NAMES = ("contra", "constraint3", "rule1")


class FilterVerdict(Value):
    """Outcome of all filters for one anchor (id = construction ordinal)."""

    __slots__ = ("anchor_id", "eliminated_by")

    def __init__(self, anchor_id: int, eliminated_by: frozenset[str]) -> None:
        self._set(anchor_id, eliminated_by)

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
        self._set(masks)

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
    builds them: a non-pronoun marker's slot is its one entry. Raises
    ValueError when the grid has another number of slots than `u` has
    markers, or a non-pronoun marker's slot is not one entry. Returns
    the survivors, as their increasing positions (ordinal - 1) in
    `grid`, and the verdicts, which record the full elimination set of
    every anchor.

    Each fact about the Cf lists is a selector: an int whose bytes, one
    per Cf list in grid order, are 1 where the fact holds and 0 where it
    does not. Bytes of 0 and 1 carry nothing into each other under |, &,
    ^ and shifts by up to 7, so each operation decides every Cf list at
    once, and a center's row of verdict bytes is one `to_bytes`.
    """
    if len(grid.slots) != len(u.markers):
        raise ValueError(f"the grid has {len(grid.slots)} slots for {len(u.markers)} markers")
    width = grid.width
    # The selector of every Cf list: width bytes of 1, (256**width - 1) / 255.
    ones = (1 << 8 * width) // 255
    # Each fixed marker's entity id; each pronoun's selector per entity it
    # can bind; per entity, the Cf lists in which some pronoun binds it.
    fixed: dict[str, str] = {}
    binds: dict[str, dict[str, int]] = {}
    bound: dict[str, int] = {}
    # In grid order a slot holds each entry for a run of Cf lists, one per
    # combination of the later slots' entries, and goes through its
    # entries once per combination of the earlier slots' entries.
    repeats = 1
    for m, slot in zip(u.markers, grid.slots):
        if not m.is_pronoun:
            if len(slot) != 1:
                raise ValueError(f"marker {m.mid!r} is not a pronoun, but its slot holds {len(slot)} entries")
            fixed[m.mid] = slot[0].entity.id
            continue
        ids = [*map(_entity_id, slot)]
        run = width // (repeats * len(ids)) if width else 0
        runs = (bytes(run), b"\1" * run)
        # An entity's selector: the slot's runs, of 1 where the slot's entry
        # binds that entity and of 0 elsewhere, once per repeat.
        sels = binds[m.mid] = {}
        for eid in dict.fromkeys(ids):
            sels[eid] = sel = int.from_bytes(b"".join(map(runs.__getitem__, map(eid.__eq__, ids))) * repeats, "big")
            bound[eid] = bound.get(eid, 0) | sel
        repeats *= len(ids)
    # Contraindexing: a contraindexed pair fails where both bind one
    # entity: a pronoun pair where they share a candidate, a pronoun and a
    # fixed marker where the pronoun binds its entity, and two fixed
    # markers of one entity everywhere.
    contra = 0
    for m in u.markers:
        if not m.contra:
            continue
        mine = binds.get(m.mid)
        for other in m.contra:
            if other in binds:
                if mine is None:
                    contra |= binds[other].get(fixed[m.mid], 0)
                else:
                    for eid, sel in binds[other].items():
                        contra |= sel & mine.get(eid, 0)
            elif other in fixed:
                if mine is not None:
                    contra |= mine.get(fixed[other], 0)
                elif fixed[m.mid] == fixed[other]:
                    contra = ones
    # Constraint 3: the prior entities in prominence order each top the
    # Cf lists that bind them and no entity ahead, up to the first that a
    # fixed marker realizes, which tops the rest; null tops them when no
    # fixed marker realizes a prior entity.
    prior_ids = dict.fromkeys(map(_entity_id, prior_cf))
    fixed_ids = set(fixed.values())
    tops: dict[str | None, int] = {}
    covered = 0
    for pid in prior_ids:
        if pid in fixed_ids:
            tops[pid] = ones ^ covered
            break
        if pid in bound:
            tops[pid] = bound[pid] & ~covered
            covered |= tops[pid]
    else:
        tops[None] = ones ^ covered
    # Rule 1: where a pronoun binds a prior entity, no pronoun binds the center.
    bound_prior = 0
    for eid, sel in bound.items():
        if eid in prior_ids:
            bound_prior |= sel
    # Every filter failed, less what each center passes; one row per center.
    failed = contra | ones << 1 | bound_prior << 2
    cb_ids = [cb.entity.id if cb is not None else None for cb in grid.cbs]
    masks = b"".join([
        (failed ^ tops.get(cb_id, 0) << 1 ^ (bound_prior & bound.get(cb_id, 0)) << 2).to_bytes(width, "big")
        for cb_id in cb_ids
    ])
    return tuple(compress(count(), masks.translate(SURVIVED))), FilterVerdicts(masks)
