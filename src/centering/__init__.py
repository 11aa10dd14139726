"""Local attention tracking and pronoun binding over annotated discourses.

The pipeline allocates a discourse's indices once, then, per utterance,
constructs every candidate (backward center, forward-center list) anchor,
filters them by contraindexing, center realization and the pronoun rule,
classifies the survivors into transition types, and commits the most
coherent one.
"""

from .classification import (
    NO_PRIOR,
    EmptyCf,
    NoViableAnchor,
    Ranking,
    classify,
    rank_and_select,
)
from .construction import (
    AnchorBudgetExceeded,
    UnresolvablePronoun,
    propose_anchors,
)
from .corpus import (
    CorpusDocument,
    CorpusError,
    CorpusUtterance,
    SchemaError,
    build_utterances,
    bundled_corpora,
    format_corpus,
    load_bundled,
    parse_corpus,
)
from .engine import (
    UtteranceResult,
    process_discourse,
    process_document,
    process_utterance,
)
from .filters import (
    FilterVerdict,
    FilterVerdicts,
    SurvivorRows,
    run_filters,
)
from .model import (
    Agreement,
    AnchorGrid,
    CfEntry,
    CfList,
    Entity,
    GrammaticalFunction,
    MarkerError,
    MarkerKind,
    Mode,
    ReferenceMarker,
    Transition,
    Utterance,
    allocate_indices,
)
from .render import render_trace, roman

__version__ = "0.1.0"

__all__ = [
    "Agreement",
    "AnchorBudgetExceeded",
    "AnchorGrid",
    "CfEntry",
    "CfList",
    "CorpusDocument",
    "CorpusError",
    "CorpusUtterance",
    "EmptyCf",
    "Entity",
    "FilterVerdict",
    "FilterVerdicts",
    "GrammaticalFunction",
    "MarkerError",
    "MarkerKind",
    "Mode",
    "NO_PRIOR",
    "NoViableAnchor",
    "Ranking",
    "ReferenceMarker",
    "SchemaError",
    "SurvivorRows",
    "Transition",
    "UnresolvablePronoun",
    "Utterance",
    "UtteranceResult",
    "allocate_indices",
    "build_utterances",
    "bundled_corpora",
    "classify",
    "format_corpus",
    "load_bundled",
    "parse_corpus",
    "process_discourse",
    "process_document",
    "process_utterance",
    "propose_anchors",
    "rank_and_select",
    "render_trace",
    "roman",
    "run_filters",
]
