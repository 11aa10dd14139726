"""Trace renderers: stanza-style text blocks and line-delimited JSON.

The `figure` format prints one block per utterance (transition label,
text, Cb line, Cf line) followed by a binding line when pronouns were
resolved. The `structured` format emits one JSON record per utterance
with anchor counts, per-filter eliminations, ranked alternatives, and
tie flags; field order is fixed, so identical runs serialize identically.
"""

from __future__ import annotations

import json
from itertools import compress, count

from .engine import UtteranceResult
from .filters import FILTER_NAMES
from .model import CfEntry, CfList

# Roman digits by place value; thousands are repeated "m"s.
_ONES = ("", "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix")
_TENS = ("", "x", "xx", "xxx", "xl", "l", "lx", "lxx", "lxxx", "xc")
_HUNDREDS = ("", "c", "cc", "ccc", "cd", "d", "dc", "dcc", "dccc", "cm")


def roman(n: int) -> str:
    """Lowercase roman numeral for a positive anchor ordinal."""
    if n <= 0:
        raise ValueError(f"need a positive ordinal, got {n}")
    return "m" * (n // 1000) + _HUNDREDS[n // 100 % 10] + _TENS[n // 10 % 10] + _ONES[n % 10]


# _LABELS[i] is the label of ordinal i + 1. Grown on demand; it never
# holds more labels than the longest anchor list rendered needs anyway.
_LABELS: list[str] = []


def _labels(n: int) -> list[str]:
    """The label table, holding at least the labels of ordinals 1..n."""
    if len(_LABELS) < n:
        _LABELS.extend(roman(k) for k in range(len(_LABELS) + 1, n + 1))
    return _LABELS


# Verdict masks (see FilterVerdicts) translated to 1 where a filter's bit
# is set, or to 1 where none is (the survivors).
_HAS_BIT = {
    name: bytes(mask >> bit & 1 for mask in range(256)) for bit, name in enumerate(FILTER_NAMES)
}
_PASSED = bytes(mask == 0 for mask in range(256))
_ELIMINATION_NOTES = tuple(
    "eliminated: " + ", ".join(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1 << len(FILTER_NAMES))
)


def display_cb(entry: CfEntry | None) -> str:
    return entry.display if entry is not None else "NIL"


def display_cf(cf: CfList) -> str:
    return "(" + " ".join(e.display for e in cf.entries) + ")"


def _binding_line(result: UtteranceResult) -> str | None:
    pairs = [
        (e.marker.surface, e.entity.name)
        for e in result.cf.entries
        if e.marker.is_pronoun
    ]
    if not pairs or result.bindings is None:
        return None
    return ", ".join(f"{surface} = {name}" for surface, name in pairs)


def _labels_by_filter(result: UtteranceResult) -> tuple[dict[str, list[str]], list[str]]:
    """Roman labels of the eliminated anchors per filter, and of the survivors."""
    masks = result.verdicts.masks
    labels = _labels(len(masks))
    eliminated = {name: list(compress(labels, masks.translate(has))) for name, has in _HAS_BIT.items()}
    return eliminated, list(compress(labels, masks.translate(_PASSED)))


def _anchor_dump(result: UtteranceResult) -> str:
    grid = result.anchors
    transition_by_ordinal = {c.anchor.ordinal: c.transition for c in result.ranked}
    winner = result.ranked[0].anchor.ordinal if result.ranked else None
    # Each center and each Cf list is formatted once, then paired in grid order.
    cb_texts = [display_cb(cb) for cb in grid.cbs]
    cf_texts = [display_cf(cf) for cf in grid.cf_lists]
    bodies = (f"<{cb_text}, {cf_text}>" for cb_text in cb_texts for cf_text in cf_texts)
    lines = [f"anchors ({len(grid)}):"]
    for ordinal, label, mask, body in zip(count(1), _labels(len(grid)), result.verdicts.masks, bodies):
        if mask:
            note = _ELIMINATION_NOTES[mask]
        else:
            transition = transition_by_ordinal.get(ordinal)
            note = transition.value if transition is not None else ""
            if ordinal == winner:
                note = (note + "  <- selected").strip()
        lines.append(f"  {label:>5}. {body}  {note}".rstrip())
    return "\n".join(lines)


def _filter_explain(result: UtteranceResult) -> str:
    eliminated, survivors = _labels_by_filter(result)
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


def _record(result: UtteranceResult) -> dict:
    bindings = None
    if result.bindings is not None:
        bindings = {index: entity.id for index, entity in result.bindings.items()}
    diagnostic = None
    if result.diagnostic_kind is not None:
        diagnostic = {"kind": result.diagnostic_kind, "message": result.diagnostic}
    eliminated, survivors = _labels_by_filter(result)
    labels = _labels(result.anchors_constructed)
    return {
        "u": result.position,
        "text": result.utterance.text,
        "transition": result.transition.value if result.transition else None,
        "cb": display_cb(result.cb),
        "cf": [e.display for e in result.cf.entries],
        "bindings": bindings,
        "anchors_constructed": result.anchors_constructed,
        "eliminated": eliminated,
        "survivors": survivors,
        "ranked": [
            {
                "anchor": labels[c.anchor.ordinal - 1],
                "transition": c.transition.value,
                "cb": display_cb(c.anchor.cb),
                "cf": [e.display for e in c.anchor.cf.entries],
            }
            for c in result.ranked
        ],
        "tie": result.tie,
        "after_retention": result.after_retention,
        "diagnostic": diagnostic,
    }


def render_trace(
    results: list[UtteranceResult],
    format: str = "figure",
    *,
    dump_anchors: bool = False,
    explain: bool = False,
) -> str:
    """Render processed results as `figure` stanzas or `structured` JSONL."""
    if format == "structured":
        return "".join(json.dumps(_record(r), ensure_ascii=False) + "\n" for r in results)
    if format == "figure":
        return _figure(results, dump_anchors, explain)
    raise ValueError(f"unknown trace format {format!r}")
