import json

import pytest

from centering import Mode, load_bundled, parse_corpus, process_document, render_trace, roman


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
