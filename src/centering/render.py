"""Trace renderers: stanza-style text blocks and line-delimited JSON.

The `figure` format prints one block per utterance (transition label,
text, Cb line, Cf line) followed by a binding line when pronouns were
resolved. The `structured` format emits one JSON record per utterance
with anchor counts, per-filter eliminations, ranked alternatives, and
tie flags; field order is fixed, so identical runs serialize identically.
"""

from __future__ import annotations

from itertools import chain, compress, count, product, repeat
from json.encoder import encode_basestring
from operator import attrgetter

from .classification import shown_center
from .engine import UtteranceResult
from .filters import FILTER_NAMES
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
# is set, and to 1 where none is: the survivors.
_HAS_BIT = {
    name: bytes(mask >> bit & 1 for mask in range(256)) for bit, name in enumerate(FILTER_NAMES)
}
_SURVIVED = bytes(mask == 0 for mask in range(256))
# What `--dump-anchors` writes after the entries of an anchor's Cf list,
# by verdict mask: the close of the anchor, then the filters that
# eliminated it, and nothing for a survivor, whose transition comes from
# the ranking instead.
_MASK_NOTES = (")>",) + tuple(
    ")>  eliminated: " + ", ".join(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1, 1 << len(FILTER_NAMES))
)
_TRANSITION_NOTES = {t: ")>  " + t.value for t in Transition}
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


def _labels_by_filter(masks: bytes, labels: list[str]) -> tuple[dict[str, list[str]], list[str]]:
    """Roman labels of the eliminated anchors per filter, and of the
    survivors, from a result's verdict `masks`; `labels` holds at least
    those of its anchors."""
    eliminated = {name: list(compress(labels, masks.translate(has))) for name, has in _HAS_BIT.items()}
    return eliminated, list(compress(labels, masks.translate(_SURVIVED)))


def _anchor_dump(result: UtteranceResult, masks: bytes) -> str:
    """One line per anchor, in grid order: its label, `<center, Cf list>`,
    and either the filters that eliminated it, by its verdict in `masks`,
    or, for a ranked survivor, its transition, with `<- selected` on the
    winner."""
    grid, ranked = result.anchors, result.ranked
    notes = [_MASK_NOTES[mask] for mask in masks]
    # The notes are in preference order, as the ranking's groups of blocks.
    for note, group in zip(_TRANSITION_NOTES.values(), ranked.blocks):
        for base, start, stop, kept in group:
            for position in compress(count(base + start), kept[start:stop]):
                notes[position] = note
    if ranked:  # the winner is the first anchor of the first block
        base, start, stop, kept = next(filter(None, ranked.blocks))[0]
        notes[base + kept.find(1, start, stop)] += "  <- selected"
    # Each center and each slot entry is formatted once, and a Cf list's
    # entries are joined as the product of the slots yields them; the
    # columns are zipped in grid order, center-major.
    cf_lists = list(map(" ".join, product(*[map(_display, slot) for slot in grid.slots])))
    centers = chain.from_iterable(repeat(f". <{display_cb(cb)}, (", len(cf_lists)) for cb in grid.cbs)
    labels = map(str.rjust, _labels(len(notes)), repeat(5))
    return f"anchors ({len(notes)}):\n  " + "\n  ".join(
        map("".join, zip(labels, centers, cf_lists * len(grid.cbs), notes))
    )


def _filter_explain(result: UtteranceResult, masks: bytes) -> str:
    eliminated, survivors = _labels_by_filter(masks, _labels(len(masks)))
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
        # Each call writes the verdict masks afresh: once a result.
        masks = r.verdicts.masks() if dump_anchors or explain else b""
        if dump_anchors and r.anchors:
            paragraphs.append(_anchor_dump(r, masks))
        if explain and r.verdicts:
            paragraphs.append(_filter_explain(r, masks))
        if r.tie:
            paragraphs.append(f"** tie: {r.diagnostic}")
    return "\n\n".join(paragraphs) + "\n" if paragraphs else ""


# `structured` writes each record's JSON itself, in the layout of
# json.dumps(record, ensure_ascii=False): ", " and ": " separators, and
# strings escaped by encode_basestring, as json.dumps escapes them.
_TRANSITION_JSON = {t: encode_basestring(t.value) for t in Transition}  # in preference order


def _json_str(text: str | None) -> str:
    return "null" if text is None else encode_basestring(text)


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _json_labels(labels: list[str]) -> str:
    # Labels, roman or decimal, hold nothing to escape.
    return '["' + '", "'.join(labels) + '"]' if labels else "[]"


def _json_cf(cf: CfList) -> str:
    return "[" + ", ".join(map(encode_basestring, map(_display, cf))) + "]"


def _structured_line(result: UtteranceResult) -> str:
    """One `structured` record: the utterance, its anchor counts, the
    labels each filter eliminated, and the ranked survivors."""
    grid, labels = result.anchors, _labels(result.anchors_constructed)
    cells = []
    if result.ranked:
        # Each slot entry's and each non-null center's JSON is encoded once, and
        # a Cf list's entries are joined as the product of the slots yields them.
        centers = [encode_basestring(cb.display) if cb is not None else None for cb in grid.cbs]
        entries = [map(encode_basestring, map(_display, slot)) for slot in grid.slots]
        cf_lists = list(map(", ".join, product(*entries)))
        width = len(cf_lists)
        # A block fixes its center row, so its shown center, and its transition.
        for (transition, label), group in zip(_TRANSITION_JSON.items(), result.ranked.blocks):
            for base, start, stop, kept in group:
                first = base + start  # the block's first position
                center = centers[first // width] or encode_basestring(display_cb(shown_center(grid, first, transition)))
                fixed = f'"transition": {label}, "cb": {center}, "cf": ['
                row = first - first % width  # the row's first position
                for position in compress(count(first), kept[start:stop]):
                    cells.append(f'{{"anchor": "{labels[position]}", {fixed}{cf_lists[position - row]}]}}')
    ranked = ", ".join(cells)
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
    eliminated, survivors = _labels_by_filter(result.verdicts.masks(), labels)
    by_filter = ", ".join([f"{encode_basestring(name)}: {_json_labels(names)}" for name, names in eliminated.items()])
    transition = result.transition.value if result.transition is not None else None
    return (
        f'{{"u": {result.position}, "text": {_json_str(result.utterance.text)}, '
        f'"transition": {_json_str(transition)}, "cb": {encode_basestring(display_cb(result.cb))}, '
        f'"cf": {_json_cf(result.cf)}, '
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
        return "".join([_structured_line(r) for r in results])
    if format == "figure":
        return _figure(results, dump_anchors, explain)
    raise ValueError(f"unknown trace format {format!r}")
