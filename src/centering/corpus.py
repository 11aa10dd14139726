"""Corpus file reading, validation, and writing.

A corpus file is UTF-8 text holding one discourse in a line-oriented
format; one leading byte-order mark is ignored. Blank lines and lines
starting with `#` are ignored. Directives:

    discourse <id>            required, before anything else
    mode <classic|extended>   optional, at most once, after `discourse`
                              and before the first utterance
    utterance <text>          opens a new utterance; text runs to end of line
    np key=value ...          one noun phrase of the current utterance

A directive's keyword ends at the first space or tab.

`np` fields use POSIX-shell quoting, exactly as `shlex.split` reads it
(surface="Alfa Romeo", surface='the "old" house', surface='it'"'"'s').
A line is read in one of two ways, with identical results. A line in
`format_corpus`'s own layout (the fields in the order below, one space
apart, each value one non-empty plain, "double-quoted" or 'single-quoted'
piece) is read by one regular-expression match, whose groups hold the
values in field order; any other line goes through shlex and the key
checks. Both hand the values by position to one set of value checks.
`format_corpus` rewrites a file into that layout. The fields:

    id=<np-id>      required, non-empty, without a `,`; unique within the
                    utterance; what `contra` references point at
    surface=<str>   required, non-empty; the NP as it appears in the text
    kind=<pronoun|name|definite|indefinite>    required
    gf=<SUBJ|OBJ|OBJ2|OTHER|ADJ>               required
    agr=<gender,number,person>  optional; `-` leaves a feature
                    unspecified (agr=fem,sg,3 or agr=-,pl,-)
    entity=<ID>     optional non-empty semantic identity; forbidden for pronouns.
                    Names/definites default to an id derived from the
                    surface, which they share only with surfaces equal
                    to theirs after NFC normalization and case-folding
                    (`Ann Lee` and `Ann-Lee` both derive ANN-LEE, so the
                    later of them needs entity=); indefinites default to
                    their X index, which must then be no entity id of
                    the discourse (an allocated one skips every index
                    and entity id used elsewhere).
    index=<A_/X_>   optional pre-assigned index: A-series for pronouns,
                    X-series for indefinites, each used at most once in
                    the discourse. Names and definites always use their
                    surface string and take no index field.
    contra=<id,..>  optional contraindexed sibling NPs (same utterance);
                    symmetry is normalized on load

Unknown directives and unknown `np` fields are rejected.

Lines end at `\r\n`, `\r` or `\n`, and only there. Each np line is read
straight into a `ReferenceMarker` (`mid` = np id; names, definites and
`entity=` indefinites bound to one `Entity` per id), whose own rules
report as line-precise `SchemaError`s. The discourse-wide index rules
are `model.reserved_ids`, checked once the whole file is read; its error
is reported at the line of the np it blames. `build_utterances` turns
the document into model `Utterance`s; `model.allocate_indices` then
fills in the missing indices, for `check` and `run` alike.
"""

from __future__ import annotations

import re
import shlex
import unicodedata
from collections.abc import Iterable

from .model import (
    INDEX_SERIES,
    Agreement,
    Entity,
    GrammaticalFunction,
    MarkerError,
    MarkerKind,
    Mode,
    ReferenceMarker,
    Utterance,
    Value,
    as_mode,
    reserved_ids,
)

GF_TOKENS = {
    "SUBJ": GrammaticalFunction.SUBJECT,
    "OBJ": GrammaticalFunction.OBJECT,
    "OBJ2": GrammaticalFunction.OBJECT2,
    "OTHER": GrammaticalFunction.OTHER_SUBCAT,
    "ADJ": GrammaticalFunction.ADJUNCT,
}
GF_NAMES = {v: k for k, v in GF_TOKENS.items()}
KIND_TOKENS = {k.value: k for k in MarkerKind}
NP_FIELDS = ("id", "surface", "kind", "gf", "agr", "entity", "index", "contra")
REQUIRED_NP_FIELDS = ("id", "surface", "kind", "gf")
# An empty one would make NPs share an id or an entity without saying so.
NON_EMPTY_NP_FIELDS = ("id", "surface", "entity")

# An np line in format_corpus's own layout: the fields in NP_FIELDS order,
# one space apart, the last four optional, each value one non-empty
# plain, "double-quoted" or 'single-quoted' piece. Each field has two
# groups: its opening quote, empty for a plain piece, which the piece's
# end matches again, and its value, whose characters the lookbehind on
# that quote (or on the `=` before a plain piece) selects. So
# `groups()[1::2]` are the values in NP_FIELDS order, None where a field
# is absent. A piece's form is fixed by its first character, a value
# ends only at a space or the end, and each key is a distinct literal, so
# a failing match gives back at most the piece it is in: matching is
# linear in the line length. A string, which parse_corpus compiles
# through re's cache, so importing the module costs nothing.
_VALUE = r"""(["']?)((?<==)[^ \t\r\n"'\\]+|(?<=")[^"\\]+|(?<=')[^']+)\{}"""
_CANONICAL_NP = " ".join(f"{key}={_VALUE.format(2 * i + 1)}" for i, key in enumerate(REQUIRED_NP_FIELDS)) + "".join(
    f"(?: {key}={_VALUE.format(2 * i + 1)})?" for i, key in enumerate(NP_FIELDS) if key not in REQUIRED_NP_FIELDS
)


class CorpusError(Exception):
    """Base for corpus validation problems; carries a position."""

    def __init__(self, message: str, line: int | None = None, fieldname: str | None = None):
        self.line = line
        self.fieldname = fieldname
        where = f"line {line}: " if line is not None else ""
        what = f"{fieldname}: " if fieldname else ""
        super().__init__(f"{where}{what}{message}")


class SchemaError(CorpusError):
    """Every corpus error, from a missing field to a dangling contra reference."""


class CorpusUtterance(Value):
    """An utterance's text and its np lines as markers, in file order.

    `nps` is kept as a tuple; a str or a single marker in its place raises
    ValueError.
    """

    __slots__ = ("text", "nps")

    def __init__(self, text: str, nps: Iterable[ReferenceMarker] = ()) -> None:
        if isinstance(nps, (str, ReferenceMarker)):
            raise ValueError(f"nps must be a collection of ReferenceMarkers, got {nps!r}")
        self._set(text, tuple(nps))


class CorpusDocument(Value):
    """A parsed corpus: its discourse id, mode and utterances.

    `mode` is kept as a Mode and may be given as a Mode's value; any other
    raises ValueError. `utterances` is kept as a tuple; a str or a single
    CorpusUtterance in its place raises ValueError.
    """

    __slots__ = ("id", "mode", "utterances")

    def __init__(
        self, id: str, mode: Mode | str = Mode.EXTENDED, utterances: Iterable[CorpusUtterance] = ()
    ) -> None:
        if isinstance(utterances, (str, CorpusUtterance)):
            raise ValueError(f"utterances must be a collection of CorpusUtterances, got {utterances!r}")
        self._set(id, as_mode(mode), tuple(utterances))


def _parse_agreement(value: str, line: int) -> Agreement:
    parts = value.split(",")
    if len(parts) != 3:
        raise SchemaError(f"agr needs gender,number,person, got {value!r}", line, "agr")
    try:
        return Agreement(*(None if p == "-" else p for p in parts))
    except ValueError as exc:
        raise SchemaError(str(exc), line, "agr") from None


def _np_fields(tokens: list[str], line: int) -> dict[str, str]:
    """The fields of a split np line: each token one known `key=value`,
    no key twice, no empty id, surface or entity, every required key."""
    fields: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise SchemaError(f"expected key=value, got {token!r}", line)
        if key not in NP_FIELDS:
            raise SchemaError(f"unknown np field {key!r}", line, key)
        if key in fields:
            raise SchemaError(f"duplicate np field {key!r}", line, key)
        if not value and key in NON_EMPTY_NP_FIELDS:
            raise SchemaError(f"np field {key!r} needs a non-empty value", line, key)
        fields[key] = value
    for key in REQUIRED_NP_FIELDS:
        if key not in fields:
            raise SchemaError(f"missing required np field {key!r}", line, key)
    return fields


def _same_name(a: str, b: str) -> bool:
    """Whether two surfaces that derive one entity id may share it without
    an entity=: equal after NFC normalization and case-folding."""
    return a == b or unicodedata.normalize("NFC", a).casefold() == unicodedata.normalize("NFC", b).casefold()


def _np_marker(
    values: Iterable[str | None],
    line: int,
    agreements: dict[str, Agreement],
    entities: dict[str, Entity],
    derived: dict[str, tuple[str, int]],
) -> ReferenceMarker:
    """One np line's field values as a marker: the eight in NP_FIELDS
    order, None for a field the line leaves out. Both ways of reading a
    line end here, so each rule on the values, and its error, is stated
    once. `agreements` maps each `agr=` value parsed so far to its
    Agreement (a bad value is never stored, so it raises on each line that
    holds it); `entities` interns the document's entities by id, so every
    marker of one entity shares one Entity; `derived` maps each entity id
    derived so far to the surface and line that first derived it."""
    mid, surface, kind_text, gf_text, agr_text, eid, index, contra_text = values
    kind = KIND_TOKENS.get(kind_text)
    if kind is None:
        raise SchemaError(f"bad kind {kind_text!r}", line, "kind")
    gf = GF_TOKENS.get(gf_text)
    if gf is None:
        raise SchemaError(f"bad gf {gf_text!r}", line, "gf")
    if "," in mid:
        # contra= lists are comma-separated, so such an id could not be named there.
        raise SchemaError(f"np id {mid!r} cannot hold a ','", line, "id")
    if agr_text is None:
        agr = Agreement()
    else:
        agr = agreements.get(agr_text)
        if agr is None:
            agr = agreements[agr_text] = _parse_agreement(agr_text, line)
    if index is not None and kind not in INDEX_SERIES:
        raise SchemaError("names and definites take their surface as index", line, "index")
    if eid is None and kind not in INDEX_SERIES:
        try:
            eid = derive_entity_id(surface)
        except ValueError as exc:
            raise SchemaError(str(exc), line, "surface") from None
        first, first_line = derived.setdefault(eid, (surface, line))
        if not _same_name(first, surface):
            raise SchemaError(
                f"{surface!r} derives entity id {eid!r}, as {first!r} on line {first_line} does; "
                "give entity= to say whether they are one entity",
                line,
                "surface",
            )
    entity = None
    if eid is not None:
        entity = entities.get(eid)
        if entity is None:
            entity = entities[eid] = Entity(eid, surface)
    contra = filter(None, contra_text.split(",")) if contra_text else ()
    try:
        return ReferenceMarker(surface, kind, gf, agr, contra, entity, index, mid)
    except MarkerError as exc:
        raise SchemaError(str(exc), line, exc.fieldname) from None


def _close_utterance(text: str, nps: list[tuple[ReferenceMarker, int]]) -> CorpusUtterance:
    by_id = {np.mid: np for np, _ in nps}
    if len(by_id) != len(nps):  # a repeated id: blame its second line
        seen: set[str] = set()
        for np, np_line in nps:
            if np.mid in seen:
                raise SchemaError(f"np id {np.mid!r} already used in this utterance", np_line, "id")
            seen.add(np.mid)
    # Normalize contra symmetry: if a lists b, b lists a. Only an NP that
    # lacks a back-reference is rebuilt.
    missing: dict[str, set[str]] = {}
    for np, np_line in nps:
        for ref in np.contra:
            other = by_id.get(ref)
            if other is None:
                raise SchemaError(f"contra reference {ref!r} names no np here", np_line, "contra")
            if np.mid not in other.contra:
                missing.setdefault(ref, set()).add(np.mid)
    closed = by_id.values()  # the markers in file order: no id repeats
    if missing:
        closed = [
            ReferenceMarker(
                np.surface, np.kind, np.gf, np.agr, np.contra | missing[np.mid], np.entity, np.index, np.mid
            )
            if np.mid in missing
            else np
            for np in closed
        ]
    return CorpusUtterance(text, closed)


def parse_corpus(text: str) -> CorpusDocument:
    """Parse and validate one corpus document; errors carry line positions.
    One leading byte-order mark (U+FEFF) is ignored."""
    doc_id: str | None = None
    mode: Mode | None = None
    utterances: list[CorpusUtterance] = []
    current: str | None = None  # the open utterance's text
    nps: list[tuple[ReferenceMarker, int]] = []  # the document's np lines so far
    opened = 0  # where the open utterance's np lines start in `nps`
    agreements: dict[str, Agreement] = {}
    entities: dict[str, Entity] = {}
    derived: dict[str, tuple[str, int]] = {}

    def flush() -> None:
        nonlocal current, opened
        if current is not None:
            utterances.append(_close_utterance(current, nps[opened:]))
        current, opened = None, len(nps)

    # Not str.splitlines: that also breaks at U+2028, \x0c, \x1c and more,
    # which may sit inside an utterance's text.
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    canonical_np = re.compile(_CANONICAL_NP).fullmatch
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        directive, _, rest = line.partition(" ")
        if "\t" in directive:  # the keyword ends at a tab before any space
            directive, _, rest = line.partition("\t")
        rest = rest.strip()
        if directive == "np":  # most lines: tested first
            if current is None:
                raise SchemaError("np outside any utterance", lineno)
            match = canonical_np(rest)
            if match is not None:
                values = match.groups()[1::2]
            else:
                try:
                    tokens = shlex.split(rest)
                except ValueError as exc:
                    raise SchemaError(f"bad quoting: {exc}", lineno) from None
                values = map(_np_fields(tokens, lineno).get, NP_FIELDS)
            nps.append((_np_marker(values, lineno, agreements, entities, derived), lineno))
        elif not directive or directive.startswith("#"):
            continue
        elif directive == "discourse":
            if doc_id is not None:
                raise SchemaError("duplicate discourse directive", lineno)
            if not rest:
                raise SchemaError("discourse needs an id", lineno)
            doc_id = rest
        elif directive == "mode":
            if doc_id is None:
                raise SchemaError("discourse directive must come first", lineno)
            if mode is not None:
                raise SchemaError("duplicate mode directive", lineno)
            if utterances or current is not None:
                raise SchemaError("mode must precede the first utterance", lineno)
            try:
                mode = as_mode(rest)
            except ValueError:
                raise SchemaError(f"bad mode {rest!r}", lineno, "mode") from None
        elif directive == "utterance":
            if doc_id is None:
                raise SchemaError("discourse directive must come first", lineno)
            if not rest:
                raise SchemaError("utterance text missing", lineno)
            flush()
            current = rest
        else:
            raise SchemaError(f"unknown directive {directive!r}", lineno)
    if doc_id is None:
        raise SchemaError("missing discourse directive", 1)
    flush()
    try:
        reserved_ids([np for np, _ in nps])
    except MarkerError as exc:
        lineno = next(lineno for np, lineno in nps if np is exc.marker)
        raise SchemaError(str(exc), lineno, exc.fieldname) from None
    return CorpusDocument(doc_id, mode if mode is not None else Mode.EXTENDED, tuple(utterances))


def _format_np(np: ReferenceMarker, derived: dict[str, str]) -> str:
    """`np`'s line. `derived` maps each entity id that an earlier line
    left to the reader to derive to that line's surface."""
    parts = [
        f"np id={shlex.quote(np.mid)}",
        f"surface={shlex.quote(np.surface)}",
        f"kind={np.kind.value}",
        f"gf={GF_NAMES[np.gf]}",
    ]
    feats = (np.agr.gender, np.agr.number, np.agr.person)
    if feats != (None, None, None):
        parts.append("agr=" + ",".join(v or "-" for v in feats))
    if np.entity is not None:
        try:  # the id parse_corpus gives the line without an entity=
            implied = None if np.kind in INDEX_SERIES else derive_entity_id(np.surface)
        except ValueError:
            implied = None
        # Left out only where the reader derives it without refusing.
        if np.entity.id != implied or not _same_name(derived.setdefault(implied, np.surface), np.surface):
            parts.append(f"entity={shlex.quote(np.entity.id)}")
    if np.index is not None and np.kind in INDEX_SERIES:
        parts.append(f"index={shlex.quote(np.index)}")
    if np.contra:
        parts.append("contra=" + shlex.quote(",".join(sorted(np.contra))))
    return " ".join(parts)


def _lines(doc: CorpusDocument) -> list[tuple[str, str]]:
    """The lines format_corpus writes for `doc`, each after what it holds."""
    lines = [(f"discourse id {doc.id!r}", f"discourse {doc.id}"), ("mode", f"mode {doc.mode.value}")]
    derived: dict[str, str] = {}
    for position, cu in enumerate(doc.utterances, start=1):
        lines.append(("", ""))
        lines.append((f"utterance {position} text {cu.text!r}", f"utterance {cu.text}"))
        lines.extend((f"utterance {position} np {np.mid!r}", _format_np(np, derived)) for np in cu.nps)
    return lines


def format_corpus(doc: CorpusDocument) -> str:
    """Write a document back out; parse(format_corpus(doc)) == doc.

    The text is read back with parse_corpus. Raises ValueError naming the
    discourse id, the utterance text or the np that would not read back
    equal, and why: a line break, the reader's error, or the line it
    reads back as.
    """
    lines = _lines(doc)
    for what, line in lines:  # one item a line, so a reading error is placed on its item
        if "\r" in line or "\n" in line:
            raise ValueError(f"{what} would not read back: it holds a line break")
    text = "\n".join(line for _, line in lines) + "\n"
    try:
        back = parse_corpus(text)
    except CorpusError as exc:
        raise ValueError(f"{lines[exc.line - 1][0]} would not read back: {exc}") from None
    if back != doc:
        # The lines hold every field equality compares (a name's index is its surface).
        what, read = next((what, read) for (what, line), (_, read) in zip(lines, _lines(back)) if line != read)
        raise ValueError(f"{what} would not read back: it reads back as {read!r}")
    return text


def derive_entity_id(surface: str) -> str:
    """Fallback semantic id for names/definites without an explicit one:
    the surface in Unicode normal form C, upper-cased, with each run of
    characters other than letters, digits and combining marks, in any
    script, made one `-`.

    Raises ValueError when the surface has no letter or digit: such NPs
    would all share one id and so co-specify silently.
    """
    # Marks are kept: as separators they would make Devanagari words that
    # differ only in a vowel sign one id.
    text = unicodedata.normalize("NFC", surface)
    kept = "".join(c if c.isalnum() or unicodedata.category(c)[0] == "M" else " " for c in text)
    derived = "-".join(kept.split()).upper()
    if not derived:
        raise ValueError(
            f"surface {surface!r} has no letter or digit to derive an entity id from; give entity="
        )
    return derived


def build_utterances(doc: CorpusDocument) -> list[Utterance]:
    """The document's model utterances, markers ranked, positions from 1;
    `model.allocate_indices` fills in their missing indices."""
    return [Utterance(cu.text, cu.nps, position) for position, cu in enumerate(doc.utterances, start=1)]


def bundled_corpora() -> dict[str, str]:
    """Map bundled corpus id -> file contents."""
    from importlib import resources  # only here: a CLI start would pay for it

    out = {}
    data = resources.files(__package__) / "data"
    for entry in sorted(data.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".corpus"):
            out[entry.name.removesuffix(".corpus")] = entry.read_text(encoding="utf-8")
    return out


def load_bundled(name: str) -> CorpusDocument:
    """Parse a bundled corpus by id (with or without the .corpus suffix).

    Raises FileNotFoundError when no bundled corpus has that id.
    """
    corpora = bundled_corpora()
    key = name.removesuffix(".corpus")
    if key not in corpora:
        raise FileNotFoundError(f"no such file or bundled corpus: {name} (bundled: {', '.join(corpora)})")
    return parse_corpus(corpora[key])
