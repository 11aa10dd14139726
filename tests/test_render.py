import gc
import json
import random
import tracemalloc

import pytest

from centering import (
    Mode,
    load_bundled,
    parse_corpus,
    process_discourse,
    process_document,
    process_utterance,
    render_trace,
    roman,
)
from support import (
    MASC,
    OBJ,
    SUBJ,
    indefinite,
    line_events,
    name,
    FEM,
    oracle_figure_trace,
    oracle_ranked_records,
    pronoun,
    random_discourse,
    utt,
)


def _crowd(names, pronouns):
    """Names, then pronouns of unspecified agreement: (names + 1) *
    names**pronouns anchors in the second utterance."""
    cast = [name(n, n.upper(), gf=OBJ) for n in ("Ann", "Ben", "Cal", "Dee", "Eve", "Fay", "Gus", "Hal", "Ivy")]
    they = [pronoun("they", gf=OBJ, mid=f"p{i}") for i in range(pronouns)]
    return [utt("They met.", *cast[:names]), utt("They saw them.", *they, position=2)]


def test_a_render_keeps_no_long_labels():
    # A render builds the labels and dump line starts of ordinals from
    # 4,000 on for itself and drops them: what it leaves allocated does not
    # grow with the anchor count, in `structured` or in a `figure` that
    # dumps and explains. Six names, then five pronouns: 7 * 6**5 = 54,432
    # anchors.
    utterances = _crowd(6, 5)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        results = process_discourse(utterances)
        text = render_trace(results, "structured")
        assert '"4000"' in text and '"54432"' in text
        text = render_trace(results, dump_anchors=True, explain=True)
        assert "\n   4000. <" in text and "\n  54432. <" in text
        assert any(label.isdigit() for label in text.rsplit("filters:", 1)[1].split())
        del results, text
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # At most the labels of ordinals 1-3,999 and their dump line starts,
    # about 0.25 MB each.
    assert after - before < 2**20, after - before


def _render_step(prev, u, format):
    return render_trace([process_utterance(prev, u)], format)


def _step_after(names):
    """The lines that processing and rendering, in each format, three
    pronouns after an opener of `names` agreeing names executes, once a
    first run has grown the label table it needs."""
    opener = process_utterance(None, utt("They met.", *(name(f"N{i}", f"N{i}", gf=OBJ, agr=FEM) for i in range(names))))
    u = utt("She saw her with her.", *(pronoun("she", index=f"A{j}", gf=OBJ, agr=FEM) for j in (1, 2, 3)), position=2)
    events = {}
    for format in ("figure", "structured"):
        _render_step(opener, u, format)
        events[format] = line_events(_render_step, opener, u, format)
    return events


def _contra_crowd(pronouns):
    """Two names, then `pronouns` pronouns each contraindexed with every
    other: 3 * 2**pronouns anchors in three center rows. From three
    pronouns on, two of them always bind one name, so nothing survives."""
    mids = [f"p{i}" for i in range(pronouns)]
    they = [pronoun("they", gf=OBJ, mid=m, contra=[o for o in mids if o != m]) for m in mids]
    return [utt("Ann met Ben.", name("Ann", "ANN"), name("Ben", "BEN", gf=OBJ)), utt("They met.", *they, position=2)]


def _render_everything(results):
    return render_trace(results, dump_anchors=True, explain=True)


def test_the_figure_render_runs_no_line_per_anchor():
    # From 3 to 6 pronouns the anchors grow by 8 (24 to 192), while the
    # center rows (3), the survivors (none) and the filters stay fixed.
    # Dumping and explaining a `figure` lists every anchor, so it writes
    # bytes per anchor but must run no Python line for one: its lines grow
    # by under 1.5, against the anchors' 8.
    events = []
    for pronouns in (3, 6):
        results = process_discourse(_contra_crowd(pronouns))
        assert results[1].anchors_constructed == 3 * 2**pronouns and not results[1].ranked
        assert results[1].diagnostic_kind == "no-viable-anchor"
        text = _render_everything(results)  # grows the label tables it needs
        assert text.count(")>  eliminated: contra") == 3 * 2**pronouns
        events.append(line_events(_render_everything, results))
    small, large = events
    assert large < 1.5 * small, events


def test_trace_work_grows_slower_than_the_grid():
    # From 4 to 8 names, the rows times the markers plus the Cf lists grow
    # by 539 / 79 (9 * 3 + 8**3 against 5 * 3 + 4**3), and the anchors by
    # 14.4 (9 * 8**3 against 5 * 4**3). `figure` lists one anchor and
    # `structured` every anchor, so the lines each executes grow by less.
    small, large = _step_after(4), _step_after(8)
    assert large["figure"] < (9 * 3 + 8**3) / (5 * 3 + 4**3) * small["figure"], (small, large)
    assert large["structured"] < 14.4 * small["structured"], (small, large)


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
    for n in range(1, 4000):
        assert roman(n) == _subtractive_roman(n), n
    # Above 3,999 a roman numeral would repeat "m" n // 1000 times; the
    # label is the decimal ordinal instead.
    for n in (*range(4000, 5001), 10**6, 10**12):
        assert roman(n) == str(n), n
    for bad in (0, -1):
        with pytest.raises(ValueError):
            roman(bad)


@pytest.mark.parametrize("names, pronouns", [(6, 4), (6, 5), (9, 4)])
def test_structured_bytes_per_anchor_stay_bounded(names, pronouns):
    # Each anchor's label is listed once or twice in its utterance's
    # record, so labels must not grow with the ordinal: n // 1000 "m"s
    # would make these 40, 77 and 85 bytes an anchor.
    results = process_discourse(_crowd(names, pronouns))
    anchors = results[-1].anchors_constructed
    assert anchors == (names + 1) * names**pronouns
    record = render_trace(results[-1:], "structured")
    assert len(record.encode("utf-8")) < 48 * anchors, len(record) / anchors


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


def _figure(results, dump_anchors=True, explain=False):
    """`render_trace(results, dump_anchors=..., explain=...)`, checked
    against `oracle_figure_trace` line by line, so that a failure names
    the first line that differs instead of diffing thousands of them."""
    text = render_trace(results, dump_anchors=dump_anchors, explain=explain)
    lines, expected = text.split("\n"), oracle_figure_trace(results, dump_anchors, explain).split("\n")
    for number, (line, want) in enumerate(zip(lines, expected), 1):
        assert line == want, f"line {number}"
    assert len(lines) == len(expected)
    return text


def _every_figure(results):
    """`_figure` of `results` under each of the four flag sets; the text
    that dumps the anchors and does not explain."""
    texts = {(d, e): _figure(results, d, e) for d in (False, True) for e in (False, True)}
    return texts[True, False]


def _structured(results):
    """The `structured` records of `results`, each one's ranked anchors
    checked against those rebuilt one anchor at a time."""
    lines = render_trace(results, "structured").split("\n")
    assert lines.pop() == "" and len(lines) == len(results)
    records = [json.loads(line) for line in lines]
    for record, r in zip(records, results):
        assert record["ranked"] == oracle_ranked_records(r), f"U{r.position}"
    return records


@pytest.mark.parametrize("mode", [Mode.EXTENDED, Mode.CLASSIC])
def test_renderers_match_the_per_anchor_oracles(mode):
    rng = random.Random(2424)
    seen = dict.fromkeys(("opener", "failed", "empty-utterance", "tie", "after retention"), 0)
    for _ in range(300):
        results = process_discourse(random_discourse(rng), mode)
        _every_figure(results)
        _structured(results)
        for r in results:
            seen["opener"] += r.position == 1
            seen["failed"] += r.transition is None
            seen["empty-utterance"] += r.diagnostic_kind == "empty-utterance"
            seen["tie"] += r.tie
            seen["after retention"] += r.after_retention
    assert all(seen.values()), seen


def _dump_lines(text):
    """The anchor lines of the dumps in a `figure` trace."""
    return [line for line in text.splitlines() if line.startswith("  ") and ". <" in line]


def test_renderers_on_an_empty_utterance():
    # Nothing is ranked when the utterance has no centers, so its one
    # survivor, the null center, has no transition to show.
    results = process_discourse([utt("Ann left.", name("Ann", "ANN")), utt("Silence.", position=2)])
    text = _every_figure(results)
    assert results[1].diagnostic_kind == "empty-utterance"
    assert _dump_lines(text)[-2:] == ["      i. <[ANN:Ann], ()>  eliminated: constraint3", "     ii. <NIL, ()>"]
    record = _structured(results)[1]
    assert record["ranked"] == [] and record["cf"] == [] and record["survivors"] == ["ii"]


def test_renderers_on_an_opener():
    # The opener's null center continues, as its preferred center.
    results = process_discourse([utt("Ann met Ben.", name("Ann", "ANN"), name("Ben", "BEN", gf=OBJ))])
    text = _every_figure(results)
    assert _dump_lines(text) == ["      i. <NIL, ([ANN:Ann] [BEN:Ben])>  CONTINUING  <- selected"]
    (record,) = _structured(results)
    assert record["ranked"] == [
        {"anchor": "i", "transition": "CONTINUING", "cb": "[ANN:Ann]", "cf": ["[ANN:Ann]", "[BEN:Ben]"]}
    ]


def test_renderers_on_a_one_candidate_pronoun():
    # The pronoun's slot holds one entry, so the utterance has one Cf list.
    results = process_discourse([
        utt("Ann met Ben.", name("Ann", "ANN", agr=FEM), name("Ben", "BEN", gf=OBJ, agr=MASC)),
        utt("She left Cal.", pronoun("She", agr=FEM), name("Cal", "CAL", gf=OBJ, agr=MASC), position=2),
    ])
    text = _every_figure(results)
    assert results[1].anchors_constructed == 3
    assert _dump_lines(text)[1:] == [
        "      i. <[ANN:Ann], ([ANN:A1] [CAL:Cal])>  CONTINUING  <- selected",
        "     ii. <[BEN:Ben], ([ANN:A1] [CAL:Cal])>  eliminated: constraint3, rule1",
        "    iii. <NIL, ([ANN:A1] [CAL:Cal])>  eliminated: constraint3, rule1",
    ]
    assert _structured(results)[1]["ranked"] == [
        {"anchor": "i", "transition": "CONTINUING", "cb": "[ANN:Ann]", "cf": ["[ANN:A1]", "[CAL:Cal]"]}
    ]


def test_anchor_dump_of_a_classic_tie():
    results = process_document(load_bundled("fig4"), Mode.CLASSIC)
    assert results[3].tie
    text = _every_figure(results)
    assert text.endswith(f"\n\n** tie: {results[3].diagnostic}\n")
    assert text.count("<- selected") == len(results)


def test_anchor_dump_past_the_roman_labels():
    # 7 * 6**4 = 9,072 anchors: labels above 3,999 are decimal, and some
    # roman ones are wider than the 5 columns labels are padded to.
    results = process_discourse(_crowd(6, 4))
    assert results[1].anchors_constructed == 9072
    text = _every_figure(results)
    lines = _dump_lines(text)[1:]  # after the opener's one anchor
    assert len(lines) == 9072
    assert lines[3998].startswith("  mmmcmxcix. <") and lines[3999].startswith("   4000. <")
    assert lines[-1].startswith("   9072. <")
    ranked = _structured(results)[1]["ranked"]
    assert any(cell["anchor"].isdigit() for cell in ranked), "a ranked anchor has a decimal label"


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
        assert record["ranked"] == oracle_ranked_records(r)
    assert json.loads(lines[1])["ranked"], "the pronouns give more than one reading to rank"
    assert json.loads(lines[2])["diagnostic"]["kind"] == "empty-utterance"
