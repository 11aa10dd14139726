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
is shared by a grid's rows: a row's verdicts are `failed`, the filters
some center fails, less what its center entity passes, one selector per
entity. The verdicts keep those selectors and each row's entity, and
write one byte of filter bits per anchor only when `.masks()` is called. A
verdict records every violated filter, not just the first. Under
constraint 3 only the rows of an entity that tops some Cf list can hold
survivors, so only those rows are visited for them; the survivors are a
plain tuple of their increasing grid positions.
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
        self._set(anchor_id, eliminated_by)

    @property
    def passed(self) -> bool:
        return not self.eliminated_by


# Elimination sets by bit mask: bit i stands for FILTER_NAMES[i].
_ELIMINATED = tuple(
    frozenset(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1 << len(FILTER_NAMES))
)


class FilterVerdicts(Value):
    """The verdicts on an AnchorGrid's anchors, kept as the selectors they
    come from.

    `failed` is a selector of `width` bytes, one per Cf list in grid
    order (see `run_filters`), each setting the bit of every filter that
    some center fails in that Cf list. `centers` holds each center row's
    entity id, None for the null center, and `passes` pairs an entity
    with the selector of the bits among those that it passes; an entity
    not listed passes none. Row r's verdicts are `failed` less what its
    entity passes. `masks()` writes them out, one byte per anchor, on
    each call. `len()` counts the anchors without writing any.
    """

    __slots__ = ("width", "failed", "centers", "passes")

    def __init__(self, width: int, failed: int, centers: tuple[str | None, ...],
                 passes: tuple[tuple[str | None, int], ...]) -> None:
        self._set(width, failed, centers, passes)

    def masks(self) -> bytes:
        """The verdicts, written afresh: byte i holds the verdict on the
        anchor with ordinal i + 1, where bit b is set iff filter
        FILTER_NAMES[b] eliminated it, so 0 means it survived."""
        width, failed, passed = self.width, self.failed, dict(self.passes).get
        return b"".join([(failed ^ passed(eid, 0)).to_bytes(width, "big") for eid in self.centers])

    def __len__(self) -> int:
        return len(self.centers) * self.width

    def __iter__(self) -> Iterator[FilterVerdict]:
        # The benchmark's tracer counts eliminations per filter through this.
        for i, mask in enumerate(self.masks()):
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
    once, and a center row's verdict bytes, when read, are one `to_bytes`.
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
        ids = [entry.entity.id for entry in slot]
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
    # fixed marker realizes a prior entity. Only the prior entities that
    # some marker realizes are visited.
    prior_ids = {entry.entity.id: None for entry in prior_cf}
    fixed_ids = set(fixed.values())
    tops: dict[str | None, int] = {}
    covered = 0
    for pid in filter(fixed_ids.union(bound).__contains__, prior_ids):
        if pid in fixed_ids:
            tops[pid] = ones ^ covered
            break
        tops[pid] = bound[pid] & ~covered
        covered |= tops[pid]
    else:
        tops[None] = ones ^ covered
    # Rule 1: where a pronoun binds a prior entity, no pronoun binds the center.
    bound_prior = 0
    for eid, sel in bound.items():
        if eid in prior_ids:
            bound_prior |= sel
    # Every filter failed, less what each center entity passes: its rule 1
    # where a pronoun binds it, its constraint 3 where it tops.
    failed = contra | ones << 1 | bound_prior << 2
    centers = tuple([cb.entity.id if cb is not None else None for cb in grid.cbs])
    passes: dict[str | None, int] = {}
    for eid, sel in bound.items():
        passes[eid] = (bound_prior & sel) << 2
    # Only the rows of an entity that tops some Cf list hold survivors: in
    # the Cf lists it tops, where contra and rule 1 pass too.
    survivors: list[int] = []
    for eid, top in tops.items():
        passes[eid] = passes.get(eid, 0) ^ top << 1
        kept = top & ~(contra | bound_prior & ~bound.get(eid, 0))
        if kept:
            columns = kept.to_bytes(width, "big")
            row = -1
            for _ in range(centers.count(eid)):
                row = centers.index(eid, row + 1)
                survivors += compress(count(row * width), columns)
    survivors.sort()  # the rows of two entities may interleave
    return tuple(survivors), FilterVerdicts(width, failed, centers, tuple(passes.items()))
