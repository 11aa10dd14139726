import gc
import json
import tracemalloc

import pytest

from centering import Mode, load_bundled, parse_corpus, process_discourse, process_document, render_trace, roman
from support import MASC, OBJ, SUBJ, indefinite, name, pronoun, ranked_of, utt


def test_a_render_keeps_no_long_labels():
    # Labels of ordinals from 4,000 on grow with the ordinal, so a render
    # builds them for itself and drops them: what it leaves allocated does
    # not grow with the anchor count. Six names, then five pronouns of
    # unspecified agreement: 7 * 6**5 = 54,432 anchors.
    names = [name(n, n.upper(), gf=OBJ) for n in ("Ann", "Ben", "Cal", "Dee", "Eve", "Fay")]
    pronouns = [pronoun("they", gf=OBJ, mid=f"p{i}") for i in range(5)]
    utterances = [utt("Six met.", *names), utt("They saw them.", *pronouns, position=2)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert render_trace(process_discourse(utterances), "structured").count("mmm") > 50_000
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # At most the labels of ordinals 1-3,999, about 0.25 MB.
    assert after - before < 2**20, after - before


def _subtractive_roman(n):
    out = ""
    for value, glyph in (
        (1000, "m"), (900, "cm"), (500, "d"), (400, "cd"), (100, "c"), (90, "xc"),
        (50, "l"), (40, "xl"), (10, "x"), (9, "ix"), (5, "v"), (4, "iv"), (1, "i"),
    ):
        while n >= value:
            out += glyph
            n -= value
    return out


def test_roman_numerals():
    labels = [roman(n) for n in range(1, 17)]
    assert labels == [
        "i", "ii", "iii", "iv", "v", "vi", "vii", "viii",
        "ix", "x", "xi", "xii", "xiii", "xiv", "xv", "xvi",
    ]
    for n in range(1, 5001):
        assert roman(n) == _subtractive_roman(n), n
    for bad in (0, -1):
        with pytest.raises(ValueError):
            roman(bad)


def test_empty_results_render_empty():
    assert render_trace([]) == ""
    assert render_trace([], "structured") == ""


def test_figure_final_stanza_tokens():
    results = process_document(load_bundled("fig4"))
    text = render_trace(results)
    stanzas = text.strip().split("\n\n")
    final, bindings = stanzas[-2], stanzas[-1]
    lines = final.splitlines()
    assert lines[0].startswith("SHIFTING-1")
    assert lines[1] == "U4: She often beats her."
    assert lines[2] == "Cb: [FRIEDMAN:Friedman]"
    assert lines[3] == "Cf: ([FRIEDMAN:A9] [BRENNAN:A10])"
    assert bindings == "She = Friedman, her = Brennan"


def test_anchor_dump_lists_all_sixteen():
    results = process_document(load_bundled("fig4"))
    text = render_trace([results[3]], dump_anchors=True, explain=True)
    assert "anchors (16):" in text
    for label in ("i.", "xvi."):
        assert label in text
    assert "<- selected" in text
    assert "contra: i iv v viii ix xii xiii xvi" in text
    assert "survivors: ii iii" in text


def test_structured_is_one_json_record_per_utterance():
    results = process_document(load_bundled("fig2"))
    lines = render_trace(results, "structured").splitlines()
    assert len(lines) == 4
    records = [json.loads(line) for line in lines]
    assert [r["u"] for r in records] == [1, 2, 3, 4]
    assert records[3]["transition"] == "RETAINING"
    assert records[3]["bindings"] == {"A4": "FRIEDMAN", "A5": "POLLARD"}
    assert records[0]["survivors"] == ["i"]


def test_structured_records_tie_diagnostics():
    results = process_document(load_bundled("fig4"), Mode.CLASSIC)
    record = json.loads(render_trace(results, "structured").splitlines()[3])
    assert record["tie"] is True
    assert record["diagnostic"]["kind"] == "tie"
    assert record["transition"] == "SHIFTING"


def test_figure_marks_failures():
    text = (
        "discourse d\n"
        "utterance She left.\n"
        "np id=a surface=She kind=pronoun gf=SUBJ agr=fem,sg,3\n"
    )
    results = process_document(parse_corpus(text))
    rendered = render_trace(results)
    assert rendered.startswith("** unresolvable-pronoun")
    assert "Cb: NIL" in rendered
    assert "Cf: ()" in rendered


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_trace([], "csv")


def test_cf_entry_shows_the_surface_only_for_an_anonymous_indefinite():
    # A pronoun indexed A1 bound to a name whose entity id is A1 keeps
    # its index; only an indefinite named after its index shows its surface.
    text = (
        "discourse d\n"
        "utterance Ann waved at a car.\n"
        "np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3 entity=A1\n"
        "np id=c surface=\"a car\" kind=indefinite gf=OBJ agr=neut,sg,3 index=X1\n"
        "utterance She left.\n"
        "np id=s surface=She kind=pronoun gf=SUBJ agr=fem,sg,3 index=A1\n"
    )
    lines = render_trace(process_document(parse_corpus(text))).splitlines()
    assert "Cf: ([A1:Ann] [X1:a car])" in lines
    assert "Cb: [A1:Ann]" in lines
    assert "Cf: ([A1:A1])" in lines


def _awkward_discourse():
    """Surfaces, entity ids and text holding what JSON must escape or may
    keep: quotes, backslashes, a tab, U+2028 and non-ASCII letters."""
    jurgen = name('J\u00fcrgen "Jo" \\', 'J\u00dcRGEN"\\', gf=SUBJ, agr=MASC)
    sokrates = name("\u03a3\u03c9\u03ba\u03c1\u03ac\u03c4\u03b7\u03c2", "\u03a3\u03a9\u039a", gf=OBJ, agr=MASC)
    book = indefinite("a \u201cbook\u201d\t\\")
    return [
        utt('J\u00fcrgen gave "it"\tto\u2028\u03a3\u03c9\u03ba\u03c1\u03ac\u03c4\u03b7\u03c2 \\o/', jurgen, sokrates, book,
            position=1),
        utt("He\tthanked him \u2028 twice.", pronoun("He", gf=SUBJ, agr=MASC), pronoun("him", gf=OBJ, agr=MASC),
            position=2),
        utt("Nobody\u2028else.", position=3),
    ]


@pytest.mark.parametrize("mode", [Mode.EXTENDED, Mode.CLASSIC])
def test_structured_lines_are_canonical_json_of_the_results(mode):
    results = process_discourse(_awkward_discourse(), mode)
    # Split at "\n" only: str.splitlines also splits at the U+2028 that
    # json.dumps(..., ensure_ascii=False) leaves unescaped.
    lines = render_trace(results, "structured").split("\n")
    assert lines.pop() == "" and len(lines) == len(results) == 3
    assert "\u2028" in lines[0] and "J\u00fcrgen" in lines[0] and '\\"Jo\\"' in lines[0]
    for line, r in zip(lines, results):
        record = json.loads(line)
        assert line == json.dumps(record, ensure_ascii=False)
        assert record["text"] == r.utterance.text
        assert record["ranked"] == [
            {
                "anchor": roman(c.anchor.ordinal),
                "transition": c.transition.value,
                "cb": c.anchor.cb.display if c.anchor.cb is not None else "NIL",
                "cf": [e.display for e in c.anchor.cf],
            }
            for c in ranked_of(r.ranked)
        ]
    assert json.loads(lines[1])["ranked"], "the pronouns give more than one reading to rank"
    assert json.loads(lines[2])["diagnostic"]["kind"] == "empty-utterance"
