"""Per-utterance pipeline and discourse-state evolution.

A discourse's indices are allocated once, for the whole of it. Then, for
each utterance: construct the candidate anchors, filter them, classify
and rank the survivors, commit the winner into the rolling state, and
record a full trace of what happened. Resolution failures never abort a
run: the state advances with a null center and the fixed (non-pronoun)
entities, and the result carries the diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classification import (
    NO_PRIOR,
    EmptyCf,
    NoViableAnchor,
    Ranking,
    rank_and_select,
)
from .construction import UnresolvablePronoun, propose_anchors
from .filters import FilterVerdicts, run_filters
from .model import (
    AnchorGrid,
    CfEntry,
    CfList,
    DiscourseState,
    Entity,
    Mode,
    Transition,
    Utterance,
    allocate_indices,
)

DIAG_UNRESOLVABLE = "unresolvable-pronoun"
DIAG_NO_VIABLE = "no-viable-anchor"
DIAG_EMPTY = "empty-utterance"
DIAG_TIE = "tie"
FAILURE_DIAGNOSTICS = frozenset({DIAG_UNRESOLVABLE, DIAG_NO_VIABLE, DIAG_EMPTY})


@dataclass(frozen=True)
class UtteranceResult:
    """Everything recorded about one processed utterance.

    `bindings` maps pronoun index to bound entity and covers exactly the
    pronouns of the utterance; it is None when resolution failed. `cb`
    keeps the realizing marker, so its display shows the prior utterance's
    index for the center (the current utterance's own preferred-center
    marker on a discourse opener). `ranked` is empty when no anchor was
    committed.
    """

    utterance: Utterance
    transition: Transition | None
    cb: CfEntry | None
    cf: CfList
    bindings: dict[str, Entity] | None
    anchors: AnchorGrid
    verdicts: FilterVerdicts
    ranked: Ranking
    tie: bool
    after_retention: bool
    diagnostic_kind: str | None = None
    diagnostic: str | None = None

    @property
    def position(self) -> int:
        return self.utterance.position

    @property
    def anchors_constructed(self) -> int:
        return len(self.anchors)


_NOTHING_RANKED = Ranking(AnchorGrid((), ()), (), (), opener=False)


def _commit_fallback(
    state: DiscourseState,
    u: Utterance,
    kind: str,
    message: str,
    after_retention: bool,
    anchors: AnchorGrid = AnchorGrid((), ()),
    verdicts: FilterVerdicts = FilterVerdicts(b""),
) -> UtteranceResult:
    fixed = CfList(tuple(CfEntry(m.entity, m) for m in u.markers if not m.is_pronoun and m.entity is not None))
    state.prev = (None, fixed)
    state.last_transition = None
    return UtteranceResult(
        utterance=u,
        transition=None,
        cb=None,
        cf=fixed,
        bindings=None,
        anchors=anchors,
        verdicts=verdicts,
        ranked=_NOTHING_RANKED,
        tie=False,
        after_retention=after_retention,
        diagnostic_kind=kind,
        diagnostic=message,
    )


def process_utterance(state: DiscourseState, u: Utterance) -> UtteranceResult:
    """Run the full pipeline on one utterance, advancing `state` in place.

    Every marker of `u` must carry its index, as `allocate_indices` leaves
    it; a missing one raises ValueError.
    """
    after_retention = state.last_transition is Transition.RETAINING
    prev_cb, prior_cf = state.prev or (NO_PRIOR, CfList())
    try:
        anchors = propose_anchors(u, prior_cf)
    except UnresolvablePronoun as exc:
        return _commit_fallback(state, u, DIAG_UNRESOLVABLE, str(exc), after_retention)
    survivors, verdicts = run_filters(anchors, prior_cf, u)
    try:
        winner, ranked, tie = rank_and_select(survivors, prev_cb, state.mode)
    except NoViableAnchor as exc:
        return _commit_fallback(
            state, u, DIAG_NO_VIABLE, str(exc), after_retention, anchors, verdicts
        )
    except EmptyCf as exc:
        return _commit_fallback(
            state, u, DIAG_EMPTY, str(exc), after_retention, anchors, verdicts
        )
    cb, cf = winner.anchor.cb, winner.anchor.cf
    bindings = {e.marker.index: e.entity for e in cf.entries if e.marker.is_pronoun}
    state.prev = (cb.entity if cb is not None else None, cf)
    state.last_transition = winner.transition
    kind = message = None
    if tie:
        top = ranked.transitions.count(winner.transition)
        kind = DIAG_TIE
        message = (
            f"{top} anchors share transition {winner.transition.value}; "
            "kept the construction-order first"
        )
    return UtteranceResult(
        utterance=u,
        transition=winner.transition,
        cb=cb,
        cf=cf,
        bindings=bindings,
        anchors=anchors,
        verdicts=verdicts,
        ranked=ranked,
        tie=tie,
        after_retention=after_retention,
        diagnostic_kind=kind,
        diagnostic=message,
    )


def process_discourse(utterances: list[Utterance], mode: Mode = Mode.EXTENDED) -> list[UtteranceResult]:
    """Allocate the discourse's indices, then fold process_utterance over
    it from a fresh state."""
    state = DiscourseState(mode=mode)
    return [process_utterance(state, u) for u in allocate_indices(utterances)]


def process_document(doc, mode: Mode | None = None) -> list[UtteranceResult]:
    """Process a parsed corpus document; `mode` overrides the document's."""
    from .corpus import build_utterances

    return process_discourse(build_utterances(doc), mode if mode is not None else doc.mode)
