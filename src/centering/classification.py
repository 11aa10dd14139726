"""Transition typing and anchor ranking.

A transition is read off two bits: whether the anchor keeps the previous
backward center, and whether its backward center coincides with the new
preferred center. Extended mode splits the changed-center column into
shifting-1 (center equals the preferred center; the more coherent way to
shift) and plain shifting; classic mode lumps both under shifting.
"""

from __future__ import annotations

from collections.abc import Iterator

from .model import AnchorGrid, CfEntry, CfList, Entity, Mode, Transition, Value


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
    if mode is not Mode.EXTENDED and mode is not Mode.CLASSIC:
        mode = Mode(mode)
    if not cf:
        raise EmptyCf("utterance has no centers to classify")
    cp = cf[0].entity
    if prev_cb is NO_PRIOR:
        # An opener keeps the center, and a null one is its preferred center.
        return Transition.CONTINUING if cb is None or cb.entity == cp else Transition.RETAINING
    same_cb = cb is not None and prev_cb is not None and cb.entity == prev_cb
    cb_is_cp = cb is not None and cb.entity == cp
    if same_cb:
        return Transition.CONTINUING if cb_is_cp else Transition.RETAINING
    if cb_is_cp and mode is Mode.EXTENDED:
        return Transition.SHIFTING_1
    return Transition.SHIFTING


class Ranking(Value):
    """The surviving anchors in rank order: grid positions, a transition each.

    `positions[k]` is the grid position of the k-th ranked anchor of
    `grid` and `transitions[k]` its transition; `cells()` reads them
    with their centers and Cf lists.
    """

    __slots__ = ("grid", "positions", "transitions")

    def __init__(self, grid: AnchorGrid, positions: tuple[int, ...], transitions: tuple[Transition, ...]) -> None:
        self._set(grid, positions, transitions)

    def cells(self) -> Iterator[tuple[int, Transition, CfEntry | None, CfList]]:
        """(position, transition, center, Cf list) of each ranked anchor, in
        rank order. A null center that continues is a discourse opener's,
        which centers its own preferred center (see `classify`), so it
        shows as that center, the Cf list's first entry."""
        cbs, width, cf_list = self.grid.cbs, self.grid.width, self.grid.cf_list
        for position, transition in zip(self.positions, self.transitions):
            cb, cf = cbs[position // width], cf_list(position % width)
            if cb is None and transition is Transition.CONTINUING:
                cb = cf[0]
            yield position, transition, cb, cf

    def __len__(self) -> int:
        return len(self.positions)


def rank_and_select(
    survivors: tuple[int, ...],
    grid: AnchorGrid,
    prev_cb: Entity | None | _NoPrior,
    mode: Mode = Mode.EXTENDED,
) -> tuple[tuple[int, Transition, CfEntry | None, CfList], Ranking, bool]:
    """Order the surviving anchors of `grid` by transition preference and
    pick the winner, the first of `ranked.cells()`.

    `survivors` are grid positions, in any order. An anchor's transition
    depends only on its center and the head of its Cf list, which are
    fixed over each block of `width // len(slots[0])` consecutive
    positions, so `classify` runs once per block, on its head entry.
    The survivors are bucketed by preference in increasing grid order,
    which puts them in (preference, construction ordinal) order. `tie`
    reports whether the top preference class holds two readings: a
    reading is a center entity and a Cf list, so two center rows of one
    prior entity give one. The winner is then the construction-order
    first, leaving the ambiguity visible to callers; its Cf list is the
    only one decoded. Raises NoViableAnchor when nothing survived.
    """
    if not survivors:
        raise NoViableAnchor("no anchor survived filtering")
    cbs, width = grid.cbs, grid.width
    # Without markers, one block of the empty Cf list.
    head_slot = grid.slots[0] if grid.slots else ()
    heads = len(head_slot) or 1
    tail = width // heads
    buckets: list[list[int]] = [[] for _ in _BY_PREFERENCE]
    bucket_of: dict[int, list[int]] = {}
    for position in sorted(survivors):
        block = position // tail
        bucket = bucket_of.get(block)
        if bucket is None:
            row, head = divmod(block, heads)
            transition = classify(cbs[row], head_slot[head : head + 1], prev_cb, mode)
            bucket = bucket_of[block] = buckets[_PREFERENCE[transition]]
        bucket.append(position)
    positions: list[int] = []
    transitions: list[Transition] = []
    for transition, bucket in zip(_BY_PREFERENCE, buckets):
        if bucket:
            positions += bucket
            transitions += [transition] * len(bucket)
    ranked = Ranking(grid, tuple(positions), tuple(transitions))
    top = next(filter(None, buckets))
    tie = False
    if len(top) > 1:
        # A reading is (center entity, column); only an opener's null center
        # shows as its head, and an opener's grid has one row.
        ids = [cb.entity.id if cb is not None else None for cb in cbs]
        reading = (ids[top[0] // width], top[0] % width)
        tie = any((ids[position // width], position % width) != reading for position in top)
    return next(ranked.cells()), ranked, tie
