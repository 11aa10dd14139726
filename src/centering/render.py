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
from operator import attrgetter, itemgetter

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
# _CACHED, the last roman one; labels above it, their decimal ordinals,
# are built for one call and dropped with its list, so a render keeps no
# table of a huge utterance. _STARTS[i] is what starts ordinal i + 1's
# `--dump-anchors` line: a newline, two spaces and the label right-aligned
# to 5 columns. It grows beside _LABELS and is capped the same way.
_CACHED = 3999
_LABELS: list[str] = []
_STARTS: list[str] = []
_START = "\n  {:>5}".format


def _labels(n: int) -> list[str]:
    """A label table holding at least the labels of ordinals 1..n."""
    if len(_LABELS) < min(n, _CACHED):
        _LABELS.extend(roman(k) for k in range(len(_LABELS) + 1, min(n, _CACHED) + 1))
    if n <= _CACHED:
        return _LABELS
    return _LABELS + list(map(str, range(_CACHED + 1, n + 1)))


def _starts(n: int) -> list[str]:
    """A table of dump line starts holding at least those of ordinals 1..n."""
    cached = min(n, _CACHED)
    if len(_STARTS) < cached:
        _STARTS.extend(map(_START, _labels(cached)[len(_STARTS) : cached]))
    if n <= _CACHED:
        return _STARTS
    return _STARTS + list(map(_START, range(_CACHED + 1, n + 1)))


# Verdict masks (see FilterVerdicts) translated to 1 where a filter's bit
# is set, and to 1 where none is: the survivors.
_HAS_BIT = {
    name: bytes(mask >> bit & 1 for mask in range(256)) for bit, name in enumerate(FILTER_NAMES)
}
_SURVIVED = bytes(mask == 0 for mask in range(256))
# What `--dump-anchors` writes after the entries of an anchor's Cf list,
# by note code. Codes below _RANKED are verdict masks: the close of the
# anchor, then the filters that eliminated it, and nothing for a survivor
# that was not ranked. Then come a ranked survivor's transition, one code
# per Transition, and the same again with `<- selected`, for the winner.
_RANKED = 1 << len(FILTER_NAMES)
_NOTES = (")>",) + tuple(
    ")>  eliminated: " + ", ".join(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
    for mask in range(1, _RANKED)
) + tuple(f")>  {t.value}{selected}" for selected in ("", "  <- selected") for t in Transition)
# Per transition, the verdict masks translated to note codes: a survivor's
# (mask 0) to the transition's, any other to itself.
_TO_RANKED = {t: bytes([_RANKED + i]) + bytes(range(1, 256)) for i, t in enumerate(Transition)}
_SELECTED = len(Transition)  # from a ranked survivor's code to the winner's
_display = attrgetter("display")


def display_cb(entry: CfEntry | None) -> str:
    return entry.display if entry is not None else "NIL"


def display_cf(cf: CfList) -> str:
    return "(" + " ".join(map(_display, cf)) + ")"


def _binding_line(cf: CfList) -> str:
    """How a committed Cf list binds its pronouns; empty when it has none,
    as a failed utterance's, which holds its fixed entities only."""
    return ", ".join(f"{e.marker.surface} = {e.entity.name}" for e in cf if e.marker.is_pronoun)


def _labels_by_filter(masks: bytes, labels: list[str]) -> tuple[dict[str, list[str]], list[str]]:
    """Roman labels of the eliminated anchors per filter, and of the
    survivors, from a result's verdict `masks`; `labels` holds at least
    those of its anchors."""
    eliminated = {name: list(compress(labels, masks.translate(has))) for name, has in _HAS_BIT.items()}
    return eliminated, list(compress(labels, masks.translate(_SURVIVED)))


def _anchor_dump(out: list[str], result: UtteranceResult, masks: bytes) -> None:
    """Append one line per anchor, in grid order: its label, `<center, Cf
    list>`, and either the filters that eliminated it, by its verdict in
    `masks`, or, for a ranked survivor, its transition, with `<- selected`
    on the winner. Four pieces go out per anchor, none built for it alone."""
    grid, blocks = result.anchors, result.ranked.blocks
    # A ranked block's survivors are the zero masks of its columns.
    codes = bytearray(masks)
    for transition, base, start, stop, _ in blocks:
        codes[base + start : base + stop] = masks[base + start : base + stop].translate(_TO_RANKED[transition])
    if blocks:  # the winner is the first survivor of the first block
        transition, base, start, _, kept = blocks[0]
        codes[base + kept.find(1, start)] = _TO_RANKED[transition][0] + _SELECTED
    # One trailing code keeps a one-anchor dump's notes a tuple; zip drops it.
    notes = itemgetter(*codes, 0)(_NOTES)
    # Each center and each slot entry is formatted once, and a Cf list's
    # entries are joined as the product of the slots yields them; the
    # columns are zipped in grid order, center-major.
    cf_lists = list(map(" ".join, product(*[map(_display, slot) for slot in grid.slots])))
    centers = [f". <{display_cb(cb)}, (" for cb in grid.cbs]
    out.append(f"\n\nanchors ({len(masks)}):")
    out += chain.from_iterable(zip(
        _starts(len(masks)), chain.from_iterable(map(repeat, centers, repeat(len(cf_lists)))),
        cf_lists * len(centers), notes,
    ))


def _filter_explain(out: list[str], result: UtteranceResult, masks: bytes) -> None:
    eliminated, survivors = _labels_by_filter(masks, _labels(len(masks)))
    out.append("\n\nfilters:")
    for name, labels in eliminated.items():
        out += f"\n  {name}: ", " ".join(labels) or "-"
    out += "\n  survivors: ", " ".join(survivors) or "-"
    if result.after_retention:
        out.append("\n  note: previous transition was RETAINING")


def _figure(results: list[UtteranceResult], dump_anchors: bool, explain: bool) -> str:
    # Every paragraph goes out as pieces led by its "\n\n" separator, into
    # one list that is joined once.
    out: list[str] = []
    for r in results:
        transition = r.transition
        head = f"{transition.value}..." if transition is not None else f"** {r.diagnostic_kind}: {r.diagnostic}"
        out.append(f"\n\n{head}\nU{r.position}: {r.utterance.text}\nCb: {display_cb(r.cb)}\nCf: {display_cf(r.cf)}")
        binding = _binding_line(r.cf)
        if binding:
            out.append("\n\n" + binding)
        # Each call writes the verdict masks afresh: once a result.
        masks = r.verdicts.masks() if dump_anchors or explain else b""
        if dump_anchors and r.anchors:
            _anchor_dump(out, r, masks)
        if explain and r.verdicts:
            _filter_explain(out, r, masks)
        if r.tie:
            out.append(f"\n\n** tie: {r.diagnostic}")
    if not out:
        return ""
    out[0] = out[0][2:]  # the first stanza has no separator before it
    out.append("\n")
    return "".join(out)


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
        # A block fixes its transition and center row, so its shown center.
        for transition, base, start, stop, kept in result.ranked.blocks:
            first = base + start  # the block's first position
            center = centers[first // width] or encode_basestring(display_cb(shown_center(grid, first, transition)))
            fixed = f'"transition": {_TRANSITION_JSON[transition]}, "cb": {center}, "cf": ['
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
