"""Anchor construction: enumerate every candidate center/binding pair.

Enumeration is canonical and total so traces are byte-stable across
runs: backward-center candidates run through the prior forward-center
entries in order and end with the null center; within each, binding
assignments iterate the Cartesian product of per-pronoun candidate
lists, later pronouns varying fastest, candidates in prior-Cf order.
The anchor count is therefore always
(len(prior_cf) + 1) * product(len(candidates(p)) for each pronoun p),
and an utterance whose count is over MAX_ANCHORS is refused before any
Cf list is built. The anchors are returned as an `AnchorGrid` of the
centers and one slot per marker: the entries that can realize it, one
per candidate for a pronoun and its own entity's for any other marker.
The grid's Cf lists (tuples of CfEntry) are the product of those slots,
read by column, and an anchor is its position in the grid.

Pronoun candidates come only from the previous utterance's committed
forward centers; an antecedent elsewhere in the same utterance is not
considered unless it also appears there.
"""

from __future__ import annotations

from .model import (
    AnchorGrid,
    CfEntry,
    CfList,
    Entity,
    ReferenceMarker,
    Utterance,
    unify_agreement,
)


# The most anchors one utterance may construct; the count grows
# exponentially with its pronouns.
MAX_ANCHORS = 1_000_000


class AnchorBudgetExceeded(Exception):
    """The utterance would construct more than MAX_ANCHORS anchors."""


class UnresolvablePronoun(Exception):
    """A pronoun has no agreement-compatible antecedent in the prior centers."""

    def __init__(self, marker: ReferenceMarker):
        self.marker = marker
        super().__init__(f"pronoun {marker.index} ({marker.surface!r}) has no compatible antecedent")


def pronoun_candidates(p: ReferenceMarker, prior_cf: CfList) -> list[Entity]:
    """Prior-center entities whose source agreement unifies with the pronoun.

    Prior-Cf order is kept; an entity realized more than once in the prior
    utterance is listed only once (at its first unifying occurrence).
    """
    out: list[Entity] = []
    seen: set[str] = set()
    for entry in prior_cf:
        if entry.entity.id in seen:
            continue
        if unify_agreement(p.agr, entry.marker.agr):
            seen.add(entry.entity.id)
            out.append(entry.entity)
    return out


def propose_anchors(u: Utterance, prior_cf: CfList) -> AnchorGrid:
    """Every candidate anchor, in canonical order with 1-based ordinals.

    The grid's slots hold the entries that can realize each marker, and
    its Cf lists, their product, are the full binding assignments of the
    utterance's markers; an utterance without pronouns has exactly one,
    the fixed entities in marker order. Raises ValueError if a marker
    lacks its index or a non-pronoun its entity, which `allocate_indices`
    fills in, UnresolvablePronoun if any pronoun has an empty candidate
    list, and AnchorBudgetExceeded if the grid would hold more than
    MAX_ANCHORS anchors.
    """
    # One entry per (pronoun, candidate), shared by every list that binds
    # the pronoun to that candidate; a fixed marker's slot is one entry.
    slots = []
    for m in u.markers:
        if m.index is None or (m.entity is None and not m.is_pronoun):
            raise ValueError(f"marker {m.mid!r} has no index or entity; allocate indices first")
        if m.is_pronoun:
            options = pronoun_candidates(m, prior_cf)
            if not options:
                raise UnresolvablePronoun(m)
            slots.append([CfEntry(e, m) for e in options])
        else:
            slots.append((CfEntry(m.entity, m),))
    grid = AnchorGrid((*prior_cf, None), slots)
    anchors = len(grid.cbs) * grid.width  # len(grid) overflows past sys.maxsize
    if anchors > MAX_ANCHORS:
        raise AnchorBudgetExceeded(f"{anchors:,} anchors would exceed the limit of {MAX_ANCHORS:,}")
    return grid
