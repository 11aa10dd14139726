"""Trace renderers: stanza-style text blocks and line-delimited JSON.

The `figure` format prints one block per utterance (transition label,
text, Cb line, Cf line) followed by a binding line when pronouns were
resolved. The `structured` format emits one JSON record per utterance
with anchor counts, per-filter eliminations, ranked alternatives, and
tie flags; field order is fixed, so identical runs serialize identically.
"""

from __future__ import annotations

import json

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
    eliminated: dict[str, list[str]] = {name: [] for name in FILTER_NAMES}
    survivors: list[str] = []
    for v in result.verdicts:
        label = roman(v.anchor_id)
        if v.passed:
            survivors.append(label)
        for name in v.eliminated_by:
            eliminated[name].append(label)
    return eliminated, survivors


def _anchor_dump(result: UtteranceResult) -> str:
    verdict_by_id = {v.anchor_id: v for v in result.verdicts}
    transition_by_ordinal = {c.anchor.ordinal: c.transition for c in result.ranked}
    winner = result.ranked[0].anchor.ordinal if result.ranked else None
    # Anchors that differ only in their center share one Cf list object.
    cf_text: dict[int, str] = {}
    lines = [f"anchors ({result.anchors_constructed}):"]
    for anchor in result.anchors:
        label = roman(anchor.ordinal)
        shown = cf_text.get(id(anchor.cf))
        if shown is None:
            shown = cf_text[id(anchor.cf)] = display_cf(anchor.cf)
        body = f"<{display_cb(anchor.cb)}, {shown}>"
        verdict = verdict_by_id.get(anchor.ordinal)
        if verdict is not None and not verdict.passed:
            note = "eliminated: " + ", ".join(n for n in FILTER_NAMES if n in verdict.eliminated_by)
        else:
            transition = transition_by_ordinal.get(anchor.ordinal)
            note = transition.value if transition is not None else ""
            if anchor.ordinal == winner:
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
                "anchor": roman(c.anchor.ordinal),
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
