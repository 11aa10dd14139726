"""Transition typing and anchor ranking.

A transition is read off two bits: whether the anchor keeps the previous
backward center, and whether its backward center coincides with the new
preferred center. Extended mode splits the changed-center column into
shifting-1 (center equals the preferred center; the more coherent way to
shift) and plain shifting; classic mode lumps both under shifting.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, compress, count, repeat

from .filters import SurvivorRows
from .model import AnchorGrid, CfEntry, CfList, Entity, Mode, Transition, Value, as_mode


class _NoPrior:
    """Marks "no previous utterance", distinct from a null prior center."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "NO_PRIOR"


NO_PRIOR = _NoPrior()


class EmptyCf(Exception):
    """The utterance has no centers, so no transition is defined."""


class NoViableAnchor(Exception):
    """Every proposed anchor was filtered out; resolution failed."""


# Transition's declaration order is the preference order. Iterating an
# Enum class runs Python code, and hashing a member does too, so the hot
# paths read this tuple instead, and find a member's rank by `.index`.
_BY_PREFERENCE = tuple(Transition)
# As model._PRONOUN: what runs per block or per anchor reads these, not the Enum classes.
_CONTINUING, _RETAINING, _SHIFTING_1, _SHIFTING = _BY_PREFERENCE
_EXTENDED = Mode.EXTENDED


def classify(
    cb: CfEntry | None, cf: CfList, prev_cb: Entity | None | _NoPrior, mode: Mode = Mode.EXTENDED
) -> Transition:
    """Type the transition an anchor with center `cb` and Cf list `cf` makes.

    Only `cf[0]`, the preferred center, is read. `prev_cb` is the
    previous utterance's committed center, None when that center was
    null; pass NO_PRIOR when there is no previous utterance, which
    counts as keeping the center. A discourse opener centers its own
    preferred center, so under NO_PRIOR a null center reads as the
    preferred center: a continuation. `mode` may also be a Mode's value
    ("classic", "extended"). Raises ValueError on any other mode, and
    EmptyCf on an empty `cf`.
    """
    mode = as_mode(mode)
    if not cf:
        raise EmptyCf("utterance has no centers to classify")
    cp = cf[0].entity
    if prev_cb is NO_PRIOR:
        return _CONTINUING if cb is None or cb.entity == cp else _RETAINING
    same_cb = cb is not None and prev_cb is not None and cb.entity == prev_cb
    cb_is_cp = cb is not None and cb.entity == cp
    if same_cb:
        return _CONTINUING if cb_is_cp else _RETAINING
    if cb_is_cp and mode is _EXTENDED:
        return _SHIFTING_1
    return _SHIFTING


def shown_center(grid: AnchorGrid, position: int, transition: Transition) -> CfEntry | None:
    """The center the anchor at `position` shows, making `transition`: its own, but a null
    center that continues (only an opener's does; see `classify`) shows as its Cf list's head."""
    cb = grid.cbs[position // grid.width]
    if cb is None and transition is _CONTINUING:
        return grid.cf_list(position % grid.width)[0]
    return cb


class Ranking(Value):
    """The surviving anchors in rank order, as blocks of their rows' bytes.

    `blocks[k]` holds, in grid order, the (base, start, stop, kept)
    blocks of the anchors that make `Transition`'s k-th member: one center
    row under one head entry, at the positions base + i, i in
    range(start, stop), where its row's `SurvivorRows` bytes `kept` hold
    a 1. `sizes[k]` counts them (0 for SHIFTING-1 in classic mode).
    `.positions` and iterating, by (position, transition), write them.
    """

    __slots__ = ("blocks", "sizes")

    def __init__(self, blocks: tuple[tuple[tuple[int, int, int, bytes], ...], ...]) -> None:
        if len(blocks) != len(_BY_PREFERENCE):
            raise ValueError(f"need one tuple of blocks per transition: got {len(blocks)}")
        sizes = [0, 0, 0, 0]
        for k, group in enumerate(blocks):
            for _, start, stop, kept in group:
                sizes[k] += kept.count(1, start, stop)
        self._set(tuple(map(tuple, blocks)), tuple(sizes))

    @property
    def positions(self) -> tuple[int, ...]:
        positions: list[int] = []
        for group in self.blocks:
            for base, start, stop, kept in group:
                positions += compress(count(base + start), kept[start:stop])
        return tuple(positions)

    def __iter__(self) -> Iterator[tuple[int, Transition]]:
        return zip(self.positions, chain.from_iterable(map(repeat, _BY_PREFERENCE, self.sizes)))

    def __len__(self) -> int:
        return sum(self.sizes)


def rank_and_select(
    survivors: SurvivorRows,
    grid: AnchorGrid,
    prev_cb: Entity | None | _NoPrior,
    mode: Mode = Mode.EXTENDED,
) -> tuple[tuple[int, Transition, CfEntry | None, CfList], Ranking, bool]:
    """Order the surviving anchors of `grid` by transition preference and
    pick the winner, the first ranked anchor.

    `survivors` are `run_filters`' SurvivorRows of `grid`. An anchor's
    transition depends only on its center and the head of its Cf list,
    which are fixed over each block of `width // len(slots[0])`
    consecutive positions, so `classify` runs once per block that holds
    a survivor, on its head entry. The blocks are bucketed by preference
    in grid order, which puts their anchors in (preference, construction
    ordinal) order. `tie` reports whether the top preference class holds
    two readings, each a shown center's entity and a Cf list: two center
    rows of one prior entity give one. The winner is the first in
    construction order, leaving the ambiguity visible to callers; it
    shows its `shown_center`, and its Cf list is the only one decoded.
    Raises NoViableAnchor when nothing survived.
    """
    if not survivors.rows:
        raise NoViableAnchor("no anchor survived filtering")
    cbs, width = grid.cbs, grid.width
    # Without markers, one block of the empty Cf list.
    head_slot = grid.slots[0] if grid.slots else ()
    heads = len(head_slot) or 1
    tail = width // heads
    # One bucket of blocks per transition, in preference order.
    buckets: tuple[list[tuple[int, int, int, bytes]], ...] = ([], [], [], [])
    for row, kept in survivors.rows:
        cb = cbs[row]
        lead = width - len(kept)  # the row's columns before its kept bytes
        base = row * width + lead
        for head in range(lead // tail, heads):  # the first block may be cut short
            start, stop = max(head * tail - lead, 0), (head + 1) * tail - lead
            if kept.find(1, start, stop) >= 0:
                transition = classify(cb, head_slot[head : head + 1], prev_cb, mode)
                buckets[_BY_PREFERENCE.index(transition)].append((base, start, stop, kept))
    ranked = Ranking(buckets)
    for best, top in enumerate(ranked.blocks):
        if top:
            break
    transition = _BY_PREFERENCE[best]
    base, start, stop, kept = top[0]
    position = base + kept.find(1, start, stop)
    cb, cf = shown_center(grid, position, transition), grid.cf_list(position % width)
    # A block's survivors have distinct Cf lists. Blocks of one survivor each may
    # share a reading, (shown center's entity, column): the class makes one transition.
    tie = ranked.sizes[best] > len(top)
    if not tie and len(top) > 1:
        readings = set()
        for base, start, stop, kept in top:
            p = base + kept.find(1, start, stop)
            c = shown_center(grid, p, transition)
            readings.add((None if c is None else c.entity.id, p % width))
        tie = len(readings) > 1
    return (position, transition, cb, cf), ranked, tie
