"""Transition typing and anchor ranking.

A transition is read off two bits: whether the anchor keeps the previous
backward center, and whether its backward center coincides with the new
preferred center. Extended mode splits the changed-center column into
shifting-1 (center equals the preferred center; the more coherent way to
shift) and plain shifting; classic mode lumps both under shifting.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, repeat

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
# Enum class runs Python code, so the hot paths read this tuple instead.
_BY_PREFERENCE = tuple(Transition)
# As model._PRONOUN: what runs per block or per anchor reads these, not the Enum classes.
_CONTINUING, _RETAINING, _SHIFTING_1, _SHIFTING = _BY_PREFERENCE
_EXTENDED = Mode.EXTENDED
_PREFERENCE = {transition: rank for rank, transition in enumerate(_BY_PREFERENCE)}


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
    """The surviving anchors in rank order: positions, a count per transition.

    `positions` are the ranked anchors' grid positions, best class first,
    and `sizes[k]` counts those that make `Transition`'s k-th member (0
    for SHIFTING-1 in classic mode). Iterating yields each ranked
    anchor's (position, transition).
    """

    __slots__ = ("positions", "sizes")

    def __init__(self, positions: tuple[int, ...], sizes: tuple[int, int, int, int]) -> None:
        if len(sizes) != len(_BY_PREFERENCE) or sum(sizes) != len(positions) or min(sizes) < 0:
            raise ValueError(f"need one count per transition, none negative, summing to {len(positions)}: got {sizes!r}")
        self._set(positions, sizes)

    def __iter__(self) -> Iterator[tuple[int, Transition]]:
        return zip(self.positions, chain.from_iterable(map(repeat, _BY_PREFERENCE, self.sizes)))

    def __len__(self) -> int:
        return len(self.positions)


def rank_and_select(
    survivors: tuple[int, ...],
    grid: AnchorGrid,
    prev_cb: Entity | None | _NoPrior,
    mode: Mode = Mode.EXTENDED,
) -> tuple[tuple[int, Transition, CfEntry | None, CfList], Ranking, bool]:
    """Order the surviving anchors of `grid` by transition preference and
    pick the winner, the first ranked anchor.

    `survivors` are grid positions, in any order. An anchor's transition
    depends only on its center and the head of its Cf list, which are
    fixed over each block of `width // len(slots[0])` consecutive
    positions, so `classify` runs once per block, on its head entry.
    The survivors are bucketed by preference in increasing grid order,
    which puts them in (preference, construction ordinal) order. `tie`
    reports whether the top preference class holds two readings, each a
    shown center's entity and a Cf list: two center rows of one prior
    entity give one. The winner is the construction-order first, leaving
    the ambiguity visible to callers; it shows its `shown_center`, and
    its Cf list is the only one decoded. Raises NoViableAnchor when
    nothing survived.
    """
    if not survivors:
        raise NoViableAnchor("no anchor survived filtering")
    cbs, width = grid.cbs, grid.width
    # Without markers, one block of the empty Cf list.
    head_slot = grid.slots[0] if grid.slots else ()
    heads = len(head_slot) or 1
    tail = width // heads
    # One bucket per transition, in preference order; sorted, a block's
    # survivors are consecutive, so `classify` runs when the block changes.
    buckets: list[list[int]] = [[], [], [], []]
    best = len(buckets)
    block = None
    for position in sorted(survivors):
        if position // tail != block:
            block = position // tail
            row, head = divmod(block, heads)
            rank = _PREFERENCE[classify(cbs[row], head_slot[head : head + 1], prev_cb, mode)]
            bucket = buckets[rank]
            if rank < best:
                best = rank
        bucket.append(position)
    ranked = Ranking(tuple(chain.from_iterable(buckets)), tuple(map(len, buckets)))
    top, transition = buckets[best], _BY_PREFERENCE[best]
    position = top[0]
    cb, cf = shown_center(grid, position, transition), grid.cf_list(position % width)
    tie = False
    if len(top) > 1:
        # A reading is (shown center's entity, column); the top class makes one transition.
        shown = (shown_center(grid, p, transition) for p in top)
        readings = ((None if c is None else c.entity.id, p % width) for c, p in zip(shown, top))
        first = next(readings)
        tie = any(reading != first for reading in readings)
    return (position, transition, cb, cf), ranked, tie
