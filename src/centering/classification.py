"""Transition typing and anchor ranking.

A transition is read off two bits: whether the anchor keeps the previous
backward center, and whether its backward center coincides with the new
preferred center. Extended mode splits the changed-center column into
shifting-1 (center equals the preferred center; the more coherent way to
shift) and plain shifting; classic mode lumps both under shifting.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import takewhile

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

    `prev_cb` is the previous utterance's committed center, None when that
    center was null; pass NO_PRIOR when there is no previous utterance,
    which counts as keeping the center. A discourse opener centers its
    own preferred center, so under NO_PRIOR a null center reads as the
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
        set_grid, set_positions, set_transitions = self._setters
        set_grid(self, grid)
        set_positions(self, positions)
        set_transitions(self, transitions)

    def cells(self) -> Iterator[tuple[int, Transition, CfEntry | None, CfList]]:
        """(position, transition, center, Cf list) of each ranked anchor, in
        rank order. A null center that continues is a discourse opener's,
        which centers its own preferred center (see `classify`), so it
        shows as that center, the Cf list's first entry."""
        cbs, cf_lists = self.grid.cbs, self.grid.cf_lists
        width = len(cf_lists)
        for position, transition in zip(self.positions, self.transitions):
            cb, cf = cbs[position // width], cf_lists[position % width]
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
    depends only on its center and its preferred center, so `classify`'s
    rule runs once per distinct (center row, preferred center entity).
    The survivors are bucketed by preference in increasing grid order,
    which puts them in (preference, construction ordinal) order. `tie`
    reports whether the top preference class holds two readings: a
    reading is a center entity and a Cf list, so two center rows of one
    prior entity give one. The winner is then the construction-order
    first, leaving the ambiguity visible to callers. Raises
    NoViableAnchor when nothing survived.
    """
    if not survivors:
        raise NoViableAnchor("no anchor survived filtering")
    cbs, cf_lists = grid.cbs, grid.cf_lists
    width = len(cf_lists)
    buckets: list[list[int]] = [[] for _ in _BY_PREFERENCE]
    bucket_of: dict[tuple[int, str | None], list[int]] = {}
    for position in sorted(survivors):
        row = position // width
        cf = cf_lists[position % width]
        key = (row, cf[0].entity.id if cf else None)
        bucket = bucket_of.get(key)
        if bucket is None:
            transition = classify(cbs[row], cf, prev_cb, mode)
            bucket = bucket_of[key] = buckets[_PREFERENCE[transition]]
        bucket.append(position)
    positions: list[int] = []
    transitions: list[Transition] = []
    for transition, bucket in zip(_BY_PREFERENCE, buckets):
        if bucket:
            positions += bucket
            transitions += [transition] * len(bucket)
    ranked = Ranking(grid, tuple(positions), tuple(transitions))
    cells = ranked.cells()
    winner = next(cells)
    # The top preference class leads the cells; its anchors may be one reading.
    top, first = winner[1], _reading(winner, width)
    tie = any(_reading(cell, width) != first for cell in takewhile(lambda cell: cell[1] is top, cells))
    return winner, ranked, tie


def _reading(cell: tuple[int, Transition, CfEntry | None, CfList], width: int) -> tuple[Entity | None, int]:
    """The reading of a ranked cell of a grid `width` Cf lists wide: its
    center entity, as `Ranking.cells` shows it, and its Cf list column."""
    position, _, cb, _ = cell
    return cb.entity if cb is not None else None, position % width
