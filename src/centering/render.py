"""Trace renderers: stanza-style text blocks and line-delimited JSON.

The `figure` format prints one block per utterance (transition label,
text, Cb line, Cf line) followed by a binding line when pronouns were
resolved. The `structured` format emits one JSON record per utterance
with anchor counts, per-filter eliminations, ranked alternatives, and
tie flags; field order is fixed, so identical runs serialize identically.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from json.encoder import encode_basestring
from operator import attrgetter

from .engine import UtteranceResult
from .filters import FILTER_NAMES, SURVIVED
from .model import CfEntry, CfList, Transition

# Roman digits by place value; thousands are repeated "m"s.
_ONES = ("", "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")
_TENS = ("", "x", "xx", "xxx", "xl", "l", "lx", "lxx", "lxxx", "xc")
_HUNDREDS = ("", "c", "cc", "ccc", "cd", "d", "dc", "dcc", "dccc", "cm")


def roman(n: int) -> str:
    """Label of a positive anchor ordinal: its lowercase roman numeral up
    to 3,999, its decimal digits above, so a label's length grows as log n."""
    if n <= 0:
        raise ValueError(f"need a positive ordinal, got {n}")
    if n > 3999:
        return str(n)
    return "m" * (n // 1000) + _HUNDREDS[n // 100 % 10] + _TENS[n // 10 % 10] + _ONES[n % 10]


# _LABELS[i] is the label of ordinal i + 1, grown on demand up to
# _CACHED, the last roman one; labels above it are built for one call and
# dropped with its list, so a render keeps no table of a huge utterance.
_CACHED = 3999
_LABELS: list[str] = []


def _labels(n: int) -> list[str]:
    """A label table holding at least the labels of ordinals 1..n."""
    if len(_LABELS) < min(n, _CACHED):
        _LABELS.extend(roman(k) for k in range(len(_LABELS) + 1, min(n, _CACHED) + 1))
    if n <= _CACHED:
        return _LABELS
    return _LABELS + [roman(k) for k in range(_CACHED + 1, n + 1)]


# Verdict masks (see FilterVerdicts) translated to 1 where a filter's bit
# is set.
_HAS_BIT = {
    name: bytes(mask >> bit & 1 for mask in range(256)) for bit, name in enumerate(FILTER_NAMES)
}
# What `--dump-anchors` writes after an anchor with each verdict mask: the
# filters that eliminated it, and nothing for a survivor, whose transition
# comes from the ranking instead.
_MASK_NOTES = ("",) + tuple(
    "  eliminated: " + ", ".join(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1, 1 << len(FILTER_NAMES))
)
_TRANSITION_NOTES = {t: "  " + t.value for t in Transition}
_display = attrgetter("display")


def display_cb(entry: CfEntry | None) -> str:
    return entry.display if entry is not None else "NIL"


def display_cf(cf: CfList) -> str:
    return "(" + " ".join(map(_display, cf)) + ")"


def _binding_line(result: UtteranceResult) -> str:
    """How a committed utterance bound its pronouns; empty when it has none."""
    if result.transition is None:
        return ""
    return ", ".join(f"{e.marker.surface} = {e.entity.name}" for e in result.cf if e.marker.is_pronoun)


def _labels_by_filter(result: UtteranceResult, labels: list[str]) -> tuple[dict[str, list[str]], list[str]]:
    """Roman labels of the eliminated anchors per filter, and of the
    survivors; `labels` holds at least those of the result's anchors."""
    masks = result.verdicts.masks
    eliminated = {name: list(compress(labels, masks.translate(has))) for name, has in _HAS_BIT.items()}
    return eliminated, list(compress(labels, masks.translate(SURVIVED)))


def _anchor_dump(result: UtteranceResult) -> str:
    """One line per anchor, in grid order: its label, `<center, Cf list>`,
    and either the filters that eliminated it or, for a ranked survivor,
    its transition, with `<- selected` on the winner."""
    grid = result.anchors
    ranked = result.ranked
    notes = [_MASK_NOTES[mask] for mask in result.verdicts.masks]
    for position, transition in zip(ranked.positions, ranked.transitions):
        notes[position] = _TRANSITION_NOTES[transition]
    if ranked:
        notes[ranked.positions[0]] += "  <- selected"
    # Each center and each Cf list is formatted once; the columns are
    # zipped in grid order, center-major.
    width = len(grid.cf_lists)
    centers = chain.from_iterable(repeat(f". <{display_cb(cb)}, ", width) for cb in grid.cbs)
    cf_lists = [display_cf(cf) + ">" for cf in grid.cf_lists] * len(grid.cbs)
    labels = map(str.rjust, _labels(len(notes)), repeat(5))
    return f"anchors ({len(notes)}):\n  " + "\n  ".join(map("".join, zip(labels, centers, cf_lists, notes)))


def _filter_explain(result: UtteranceResult) -> str:
    eliminated, survivors = _labels_by_filter(result, _labels(len(result.verdicts)))
    lines = ["filters:"]
    for name, labels in eliminated.items():
        lines.append(f"  {name}: " + (" ".join(labels) if labels else "-"))
    lines.append("  survivors: " + (" ".join(survivors) if survivors else "-"))
    if result.after_retention:
        lines.append("  note: previous transition was RETAINING")
    return "\n".join(lines)


def _figure(results: list[UtteranceResult], dump_anchors: bool, explain: bool) -> str:
    paragraphs = []
    for r in results:
        stanza = []
        if r.transition is not None:
            stanza.append(f"{r.transition.value}...")
        else:
            stanza.append(f"** {r.diagnostic_kind}: {r.diagnostic}")
        stanza.append(f"U{r.position}: {r.utterance.text}")
        stanza.append(f"Cb: {display_cb(r.cb)}")
        stanza.append(f"Cf: {display_cf(r.cf)}")
        paragraphs.append("\n".join(stanza))
        binding = _binding_line(r)
        if binding:
            paragraphs.append(binding)
        if dump_anchors and r.anchors:
            paragraphs.append(_anchor_dump(r))
        if explain and r.verdicts:
            paragraphs.append(_filter_explain(r))
        if r.tie:
            paragraphs.append(f"** tie: {r.diagnostic}")
    return "\n\n".join(paragraphs) + "\n" if paragraphs else ""


# `structured` writes each record's JSON itself, in the layout of
# json.dumps(record, ensure_ascii=False): ", " and ": " separators, and
# strings escaped by encode_basestring, as json.dumps escapes them.
_TRANSITION_JSON = {t: encode_basestring(t.value) for t in Transition}


def _json_str(text: str | None) -> str:
    return "null" if text is None else encode_basestring(text)


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _json_labels(labels: list[str]) -> str:
    # Labels, roman or decimal, hold nothing to escape.
    return '["' + '", "'.join(labels) + '"]' if labels else "[]"


class _JsonPieces:
    """The JSON of each center and Cf list of one render, encoded once.

    Keyed by id(): the results being rendered keep every center and Cf
    list alive while the pieces are used, so no id is reused meanwhile.
    """

    __slots__ = ("cbs", "cf_lists")

    def __init__(self) -> None:
        self.cbs: dict[int, str] = {}
        self.cf_lists: dict[int, str] = {}

    def cb(self, entry: CfEntry | None) -> str:
        text = self.cbs.get(id(entry))
        if text is None:
            text = self.cbs[id(entry)] = encode_basestring(display_cb(entry))
        return text

    def cf(self, cf: CfList) -> str:
        text = self.cf_lists.get(id(cf))
        if text is None:
            text = "[" + ", ".join([encode_basestring(e.display) for e in cf]) + "]"
            self.cf_lists[id(cf)] = text
        return text


def _structured_line(result: UtteranceResult, pieces: _JsonPieces) -> str:
    """One `structured` record: the utterance, its anchor counts, the
    labels each filter eliminated, and the ranked survivors."""
    cb, cf = pieces.cb, pieces.cf
    labels = _labels(result.anchors_constructed)
    ranked = ", ".join([
        f'{{"anchor": "{labels[position]}", "transition": {_TRANSITION_JSON[transition]}, '
        f'"cb": {cb(center)}, "cf": {cf(cf_list)}}}'
        for position, transition, center, cf_list in result.ranked.cells()
    ])
    bindings = "null"
    bound = result.bindings
    if bound is not None:
        bindings = "{" + ", ".join([
            f"{encode_basestring(index)}: {encode_basestring(entity.id)}"
            for index, entity in bound.items()
        ]) + "}"
    diagnostic = "null"
    if result.diagnostic_kind is not None:
        diagnostic = f'{{"kind": {_json_str(result.diagnostic_kind)}, "message": {_json_str(result.diagnostic)}}}'
    eliminated, survivors = _labels_by_filter(result, labels)
    by_filter = ", ".join([f"{encode_basestring(name)}: {_json_labels(names)}" for name, names in eliminated.items()])
    transition = result.transition.value if result.transition is not None else None
    return (
        f'{{"u": {result.position}, "text": {_json_str(result.utterance.text)}, '
        f'"transition": {_json_str(transition)}, "cb": {cb(result.cb)}, "cf": {cf(result.cf)}, '
        f'"bindings": {bindings}, "anchors_constructed": {result.anchors_constructed}, '
        f'"eliminated": {{{by_filter}}}, "survivors": {_json_labels(survivors)}, '
        f'"ranked": [{ranked}], "tie": {_json_bool(result.tie)}, '
        f'"after_retention": {_json_bool(result.after_retention)}, "diagnostic": {diagnostic}}}\n'
    )


def render_trace(
    results: list[UtteranceResult],
    format: str = "figure",
    *,
    dump_anchors: bool = False,
    explain: bool = False,
) -> str:
    """Render processed results as `figure` stanzas or `structured` JSONL."""
    if format == "structured":
        pieces = _JsonPieces()
        return "".join([_structured_line(r, pieces) for r in results])
    if format == "figure":
        return _figure(results, dump_anchors, explain)
    raise ValueError(f"unknown trace format {format!r}")
