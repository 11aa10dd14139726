"""Anchor filters: contraindexing, center realization, and the pronoun rule.

An anchor fails contraindexing when two contraindexed markers bind one
entity; it fails constraint 3 unless its backward center is the most
prominent prior entity its Cf list realizes, or null when it realizes
none; and it fails rule 1 when a pronoun binds a prior entity but none
binds the center. Each filter is a pure pass/fail test of one anchor, so
they can run in any order without changing the outcome. A verdict
records every violated filter, not just the first. `run_filters`
decides all three over a whole `AnchorGrid` at once, reading the prior
entities off the grid's centers; its docstring sets out how.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, compress, count

from .model import AnchorGrid, Value

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
    """The verdicts on an AnchorGrid's anchors, kept as the grid and the
    selectors (see `run_filters`) they come from.

    `failed` sets, in each Cf list's byte, the bit of every filter that
    some center fails there, and `passes` pairs an entity with the
    selector of the bits among those that it passes; an entity not
    listed passes none. Row r's verdicts are `failed` less what the
    entity of `grid.cbs[r]` passes. `masks()` writes them, one byte per
    anchor, on each call; `len()` counts the anchors without writing any.
    """

    __slots__ = ("grid", "failed", "passes")

    def __init__(self, grid: AnchorGrid, failed: int, passes: tuple[tuple[str | None, int], ...]) -> None:
        self._set(grid, failed, passes)

    def masks(self) -> bytes:
        """The verdicts, written afresh: byte i holds the verdict on the
        anchor with ordinal i + 1, where bit b is set iff filter
        FILTER_NAMES[b] eliminated it, so 0 means it survived."""
        width, failed, passed = self.grid.width, self.failed, dict(self.passes).get
        return b"".join([(failed ^ passed(cb and cb.entity.id, 0)).to_bytes(width, "big") for cb in self.grid.cbs])

    def __len__(self) -> int:
        return len(self.grid)

    def __iter__(self) -> Iterator[FilterVerdict]:
        # The benchmark's tracer counts eliminations per filter through this.
        for i, mask in enumerate(self.masks()):
            yield FilterVerdict(i + 1, _ELIMINATED[mask])


class SurvivorRows(Value):
    """The surviving anchors of an AnchorGrid, as bytes per center row.

    `rows` pairs each center row that holds a survivor, in increasing
    order, with its kept bytes, shared by the rows of one entity: 1 for
    each of the last `len(kept)` of the `width` columns whose anchor
    survived, and 0 for the others; its first byte is a 1. `len()` and
    iterating, which yields the positions in increasing order, read them.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int, rows: tuple[tuple[int, bytes], ...]) -> None:
        self._set(width, rows)

    def __len__(self) -> int:
        return sum([kept.count(1) for _, kept in self.rows])

    def __iter__(self) -> Iterator[int]:
        width = self.width
        return chain.from_iterable([compress(count((row + 1) * width - len(kept)), kept) for row, kept in self.rows])


def run_filters(grid: AnchorGrid) -> tuple[SurvivorRows, FilterVerdicts]:
    """Evaluate all three filters on every anchor of `grid`.

    The grid is the whole input: slot i's entries realize one marker,
    its first entry's, and the prior entities, most prominent first, are
    the non-null centers' in row order; in `propose_anchors(u,
    prior_cf)`'s grid, `u`'s i-th marker and `prior_cf`'s entities. Any
    grid is decided, and a contra reference to a marker id that no
    slot's marker has is ignored. Returns the survivors, as the kept
    bytes of the center rows that hold any, and the verdicts, which
    record the full elimination set of every anchor.

    No Python step runs per anchor or per Cf list. Each fact about the
    Cf lists is a selector: an int whose bytes, one per Cf list in grid
    order, are 1 where the fact holds and 0 where it does not. Bytes of
    0 and 1 carry nothing into each other under |, &, ^, shifts by up to
    7 and shifts by whole bytes, so each operation decides every Cf list
    at once, and a center row's verdict bytes, when read, are one
    `to_bytes`. Each marker has a selector per entity it can realize,
    which follows from its slot's place in the grid's product: one
    `from_bytes` per slot, shifted by whole runs of bytes; a one-entry
    slot realizes its entity in every Cf list. Everything but the center
    is shared by a grid's rows: a row's verdicts are `failed`, the
    filters some center fails, less what its center entity passes. Only
    the rows of an entity that tops some Cf list under constraint 3 can
    hold survivors; they share that entity's kept selector, written once
    as bytes.
    """
    width = grid.width
    # The selector of every Cf list: width bytes of 1, (256**width - 1) / 255.
    ones = (1 << 8 * width) // 255
    # Each marker's selector per entity it realizes; per entity, the Cf
    # lists in which some marker realizes it and those in which some
    # pronoun binds it.
    binds: dict[str, dict[str, int]] = {}
    realized: dict[str, int] = {}
    bound: dict[str, int] = {}
    # In grid order a slot holds each entry for a run of Cf lists, one per
    # combination of the later slots' entries, and goes through its
    # entries once per combination of the earlier slots' entries.
    repeats = 1
    markers = []
    for slot in filter(None, grid.slots):
        m = slot[0].marker
        markers.append(m)
        if len(slot) == 1:
            sels = binds[m.mid] = {slot[0].entity.id: ones}
            realized.update(sels)  # ones | any selector is ones
        else:
            k = len(slot)
            run = width // (repeats * k)
            # The first entry's selector: a run of 1 and k - 1 runs of 0,
            # once per repeat. Entry j's is that shifted j runs later, and
            # an entity's is the OR of its entries'.
            first = int.from_bytes((b"\1" * run + bytes(run * (k - 1))) * repeats, "big")
            sels = binds[m.mid] = {}
            for j, entry in enumerate(slot):
                eid = entry.entity.id
                sels[eid] = sel = sels.get(eid, 0) | first >> 8 * run * j
                realized[eid] = realized.get(eid, 0) | sel
            repeats *= k
        if m.is_pronoun:
            for eid, sel in sels.items():
                bound[eid] = bound.get(eid, 0) | sel
    # Contraindexing: a contraindexed pair fails where both realize one entity.
    contra = 0
    for m in markers:
        for other in m.contra:
            for eid, sel in binds.get(other, {}).items():
                contra |= sel & binds[m.mid].get(eid, 0)
    # Rule 1: where a pronoun binds a prior entity, no pronoun binds the center.
    centers = [cb and cb.entity.id for cb in grid.cbs]  # None for the null center
    prior_ids = dict.fromkeys(centers)  # None is no entity's id
    bound_prior = 0
    for eid, sel in bound.items():
        if eid in prior_ids:
            bound_prior |= sel
    # Every filter failed, less what each center entity passes: its rule 1
    # where a pronoun binds it, its constraint 3 where it tops.
    failed = contra | ones << 1 | bound_prior << 2
    passes = {eid: (bound_prior & sel) << 2 for eid, sel in bound.items()}
    # Constraint 3: walk the realized prior entities in prominence order,
    # then null, which realizes every Cf list. Each tops the Cf lists it
    # realizes that no entity ahead of it does, and the walk stops once
    # every Cf list is topped. An entity's rows keep the Cf lists it tops
    # where contra passes and rule 1 does: `clear` of both, or bound to it.
    # A complement is taken by `ones ^`, as ~'s negative ints cost more.
    free = ones ^ contra
    clear = free ^ (free & bound_prior)
    walk = chain(filter(realized.__contains__, prior_ids), (None,))
    uncovered = ones
    rows: list[tuple[int, bytes]] = []
    while uncovered:
        eid = next(walk)
        top = realized.get(eid, ones) & uncovered
        uncovered ^= top
        passes[eid] = passes.get(eid, 0) ^ top << 1
        kept = top & (clear | free & bound.get(eid, 0))
        if kept:
            # Its bytes from the first kept column on.
            columns = kept.to_bytes((kept.bit_length() + 7) // 8, "big")
            row = -1
            for _ in range(centers.count(eid)):
                row = centers.index(eid, row + 1)
                rows.append((row, columns))
    rows.sort()  # the rows of two entities may interleave; no two rows are equal
    return SurvivorRows(width, tuple(rows)), FilterVerdicts(grid, failed, tuple(passes.items()))
