"""Transition typing and anchor ranking.

A transition is read off two bits: whether the anchor keeps the previous
backward center, and whether its backward center coincides with the new
preferred center. Extended mode splits the changed-center column into
shifting-1 (center equals the preferred center; the more coherent way to
shift) and plain shifting; classic mode lumps both under shifting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Anchor, Entity, Mode, Transition


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


# Transition's declaration order is the preference order.
_PREFERENCE = {transition: rank for rank, transition in enumerate(Transition)}


@dataclass(frozen=True)
class ClassifiedAnchor:
    anchor: Anchor
    transition: Transition


def preference_rank(transition: Transition) -> int:
    """Position in the preference order (lower is better, both modes)."""
    return _PREFERENCE[transition]


def classify(
    anchor: Anchor, prev_cb: Entity | None | _NoPrior, mode: Mode = Mode.EXTENDED
) -> Transition:
    """Type the transition the anchor would make.

    `prev_cb` is the previous utterance's committed center, None when that
    center was null; pass NO_PRIOR when there is no previous utterance,
    which counts as keeping the center (a discourse opener that centers
    its own preferred center is a continuation).
    """
    if not anchor.cf.entries:
        raise EmptyCf("utterance has no centers to classify")
    cp = anchor.cf.entries[0].entity
    if prev_cb is NO_PRIOR:
        same_cb = True
    else:
        same_cb = anchor.cb is not None and prev_cb is not None and anchor.cb.entity == prev_cb
    cb_is_cp = anchor.cb is not None and anchor.cb.entity == cp
    if same_cb:
        return Transition.CONTINUING if cb_is_cp else Transition.RETAINING
    if cb_is_cp and mode is Mode.EXTENDED:
        return Transition.SHIFTING_1
    return Transition.SHIFTING


def rank_and_select(
    survivors: list[Anchor],
    prev_cb: Entity | None | _NoPrior,
    mode: Mode = Mode.EXTENDED,
) -> tuple[ClassifiedAnchor, list[ClassifiedAnchor], bool]:
    """Order surviving anchors by transition preference and pick the winner.

    The sort key is (preference, construction ordinal), so the result does
    not depend on the order survivors are passed in. `tie` reports whether
    the top preference class holds more than one anchor; the winner is
    then the construction-order first, leaving the ambiguity visible to
    callers.
    """
    if not survivors:
        raise NoViableAnchor("no anchor survived filtering")
    ranked = sorted(
        (ClassifiedAnchor(anchor, classify(anchor, prev_cb, mode)) for anchor in survivors),
        key=lambda c: (preference_rank(c.transition), c.anchor.ordinal),
    )
    tie = len(ranked) > 1 and ranked[0].transition is ranked[1].transition
    return ranked[0], ranked, tie
