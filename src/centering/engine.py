"""Per-utterance pipeline, one pure step per utterance.

A discourse's indices are allocated once, for the whole of it. Then, for
each utterance: construct the candidate anchors against the previous
utterance's result, filter them, classify and rank the survivors, commit
the winner, and record a full trace of what happened. That result is all
the next utterance reads. Resolution failures never abort a run: the
result commits a null center and the fixed (non-pronoun) entities, and
carries the diagnostic.
"""

from __future__ import annotations

from .classification import (
    NO_PRIOR,
    EmptyCf,
    NoViableAnchor,
    Ranking,
    rank_and_select,
)
from .construction import AnchorBudgetExceeded, UnresolvablePronoun, propose_anchors
from .filters import FilterVerdicts, run_filters
from .model import (
    AnchorGrid,
    CfEntry,
    CfList,
    Entity,
    Mode,
    Transition,
    Utterance,
    Value,
    allocate_indices,
    as_mode,
)

DIAG_TIE = "tie"
# The diagnostic of each resolution failure.
_FAILURES = {UnresolvablePronoun: "unresolvable-pronoun", AnchorBudgetExceeded: "anchor-budget",
             NoViableAnchor: "no-viable-anchor", EmptyCf: "empty-utterance"}
FAILURE_DIAGNOSTICS = frozenset(_FAILURES.values())


class UtteranceResult(Value):
    """Everything recorded about one processed utterance.

    `ranked` is empty when resolution failed; `diagnostic_kind` then
    names the failure, and otherwise is "tie" or None. `cb` is the
    center the winner shows (`shown_center`), with its realizing marker:
    the prior utterance's, or an opener's own preferred-center marker.
    `anchors`, the grid, is read off `verdicts`, and `transition` off
    `ranked`.
    """

    __slots__ = ("utterance", "cb", "cf", "verdicts", "ranked", "after_retention", "diagnostic_kind", "diagnostic")

    def __init__(
        self,
        utterance: Utterance,
        cb: CfEntry | None,
        cf: CfList,
        verdicts: FilterVerdicts,
        ranked: Ranking,
        after_retention: bool,
        diagnostic_kind: str | None = None,
        diagnostic: str | None = None,
    ) -> None:
        self._set(utterance, cb, cf, verdicts, ranked, after_retention, diagnostic_kind, diagnostic)

    @property
    def position(self) -> int:
        return self.utterance.position

    @property
    def anchors(self) -> AnchorGrid:
        return self.verdicts.grid

    @property
    def transition(self) -> Transition | None:
        """The transition of the first ranked anchor, the committed one;
        None when resolution failed."""
        blocks = self.ranked.blocks
        return blocks[0][0] if blocks else None

    @property
    def anchors_constructed(self) -> int:
        return len(self.anchors)

    @property
    def tie(self) -> bool:
        """Whether the top preference class held two readings: anchors
        that differ in center entity or Cf list."""
        return self.diagnostic_kind == DIAG_TIE

    @property
    def bindings(self) -> dict[str, Entity] | None:
        """Pronoun index -> bound entity, covering exactly the utterance's
        pronouns; None when resolution failed."""
        if self.transition is None:
            return None
        return {e.marker.index: e.entity for e in self.cf if e.marker.is_pronoun}


# No center, and one slot without entries: a pronoun with no candidate
# leaves no Cf list, so a failed utterance's grid holds no anchor.
_NO_VERDICTS = FilterVerdicts(AnchorGrid((), ((),)), 0, ())
_NOTHING_RANKED = Ranking(())
_RETAINING = Transition.RETAINING  # as model._PRONOUN


def process_utterance(prev: UtteranceResult | None, u: Utterance, mode: Mode = Mode.EXTENDED) -> UtteranceResult:
    """Run the full pipeline on one utterance and return its result.

    `prev` is the previous utterance's result, None for a discourse
    opener; the step reads its committed center, Cf list and transition,
    and changes no argument. Every marker of `u` must carry its index, as
    `allocate_indices` leaves it; a missing one raises ValueError, and so
    does a `mode` that is neither a Mode nor a Mode's value.
    """
    mode = as_mode(mode)
    if prev is None:
        prev_cb, prior_cf, after_retention = NO_PRIOR, (), False
    else:
        prev_cb = prev.cb.entity if prev.cb is not None else None
        prior_cf, after_retention = prev.cf, prev.transition is _RETAINING
    verdicts, ranked = _NO_VERDICTS, _NOTHING_RANKED
    kind = message = None
    try:
        anchors = propose_anchors(u, prior_cf)
        survivors, verdicts = run_filters(anchors)
        winner, ranked, tie = rank_and_select(survivors, anchors, prev_cb, mode)
    except tuple(_FAILURES) as exc:  # evaluated only when something is raised
        # Commit a null center and the fixed (non-pronoun) entities.
        cb = None
        cf = tuple(CfEntry(m.entity, m) for m in u.markers if not m.is_pronoun)
        kind, message = _FAILURES[type(exc)], str(exc)
    else:
        _, transition, cb, cf = winner
        if tie:
            kind = DIAG_TIE
            message = (
                f"{next(filter(None, ranked.sizes))} anchors share transition {transition.value}; "
                "kept the construction-order first"
            )
    return UtteranceResult(u, cb, cf, verdicts, ranked, after_retention, kind, message)


def process_discourse(utterances: list[Utterance], mode: Mode = Mode.EXTENDED) -> list[UtteranceResult]:
    """Allocate the discourse's indices, then step process_utterance
    through it, each step after the last one's result."""
    results: list[UtteranceResult] = []
    for u in allocate_indices(utterances):
        results.append(process_utterance(results[-1] if results else None, u, mode))
    return results


def process_document(doc, mode: Mode | None = None) -> list[UtteranceResult]:
    """Process a parsed corpus document; `mode` overrides the document's."""
    from .corpus import build_utterances

    return process_discourse(build_utterances(doc), mode if mode is not None else doc.mode)
