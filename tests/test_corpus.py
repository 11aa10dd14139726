import random
import re
import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centering import (
    Agreement,
    CorpusDocument,
    CorpusError,
    CorpusUtterance,
    DanglingContraRef,
    DuplicateNpId,
    Entity,
    GrammaticalFunction,
    MarkerKind,
    Mode,
    ReferenceMarker,
    SchemaError,
    allocate_indices,
    build_utterances,
    bundled_corpora,
    format_corpus,
    load_bundled,
    parse_corpus,
)
from centering import corpus
from centering.corpus import GF_TOKENS, KIND_TOKENS, derive_entity_id
from centering.model import MarkerError
from support import OBJ, SUBJ, indefinite, name, pronoun, utt

MINIMAL = """\
discourse demo
mode classic

utterance Ann waved.
np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3
"""


def test_parse_minimal():
    doc = parse_corpus(MINIMAL)
    assert doc.id == "demo"
    assert doc.mode is Mode.CLASSIC
    assert len(doc.utterances) == 1
    np = doc.utterances[0].nps[0]
    assert np.kind is MarkerKind.NAME
    assert np.gf is GrammaticalFunction.SUBJECT
    assert np.agr == Agreement("fem", "sg", "3")


def test_bundled_race_corpus_shape():
    doc = load_bundled("fig4")
    assert doc.id == "fig4"
    assert len(doc.utterances) == 4
    last = doc.utterances[3]
    pronouns = [np for np in last.nps if np.kind is MarkerKind.PRONOUN]
    assert len(pronouns) == 2
    a, b = pronouns
    assert b.mid in a.contra and a.mid in b.contra


def test_unknown_bundled_corpus_is_a_missing_file():
    with pytest.raises(FileNotFoundError) as err:
        load_bundled("no-such-corpus")
    assert "fig4" in str(err.value)


def test_empty_utterance_list_is_valid():
    doc = parse_corpus("discourse empty\n")
    assert doc.utterances == ()


def test_contra_symmetry_normalized_on_load():
    doc = parse_corpus(
        "discourse d\n"
        "utterance x y.\n"
        "np id=a surface=x kind=name gf=SUBJ\n"
        "np id=b surface=y kind=name gf=OBJ contra=a\n"
    )
    a, b = doc.utterances[0].nps
    assert a.contra == frozenset({"b"})
    assert b.contra == frozenset({"a"})


class TestErrors:
    def test_dangling_contra_ref(self):
        text = (
            "discourse d\n"
            "utterance x.\n"
            "np id=a surface=x kind=name gf=SUBJ contra=ghost\n"
        )
        with pytest.raises(DanglingContraRef) as err:
            parse_corpus(text)
        assert err.value.line == 3

    def test_duplicate_np_id(self):
        text = (
            "discourse d\n"
            "utterance x y.\n"
            "np id=a surface=x kind=name gf=SUBJ\n"
            "np id=a surface=y kind=name gf=OBJ\n"
        )
        with pytest.raises(DuplicateNpId) as err:
            parse_corpus(text)
        assert err.value.line == 4

    def test_unknown_field_rejected(self):
        text = "discourse d\nutterance x.\nnp id=a surface=x kind=name gf=SUBJ color=red\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert "color" in str(err.value)

    def test_bad_enum_value(self):
        text = "discourse d\nutterance x.\nnp id=a surface=x kind=noun gf=SUBJ\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert err.value.line == 3 and "kind" in str(err.value)

    def test_missing_required_field(self):
        text = "discourse d\nutterance x.\nnp id=a kind=name gf=SUBJ\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert "surface" in str(err.value)

    def test_pronoun_with_entity_rejected(self):
        text = "discourse d\nutterance x.\nnp id=a surface=she kind=pronoun gf=SUBJ entity=ANN\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (3, "entity")

    def test_self_contra_rejected(self):
        text = "discourse d\nutterance x.\nnp id=a surface=x kind=name gf=SUBJ contra=a\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (3, "contra")

    def test_duplicate_explicit_index_across_utterances(self):
        text = (
            "discourse d\n"
            "utterance x.\n"
            "np id=a surface=she kind=pronoun gf=SUBJ index=A1\n"
            "utterance y.\n"
            "np id=b surface=her kind=pronoun gf=SUBJ index=A1\n"
        )
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert err.value.line == 5

    @pytest.mark.parametrize("name_first", [True, False])
    def test_anonymous_indefinite_index_that_is_an_entity_id(self, name_first):
        # The indefinite's entity would be named X1 and merge with Ann's.
        ann = "utterance Ann waved.\nnp id=a surface=Ann kind=name gf=SUBJ entity=X1\n"
        car = 'utterance A car came.\nnp id=c surface="a car" kind=indefinite gf=SUBJ index=X1\n'
        text = "discourse d\n" + (ann + car if name_first else car + ann)
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (5 if name_first else 3, "index")
        # With an entity of its own, the index is only a display label.
        assert parse_corpus(text.replace("index=X1", "index=X1 entity=CAR"))

    # Each discourse index rule, broken at line 5 of a corpus and by the
    # same discourse built in the library: (corpus lines, discourse).
    INDEX_RULES = {
        "index used twice": (
            "utterance x.\nnp id=a surface=she kind=pronoun gf=SUBJ index=A1\n"
            "utterance y.\nnp id=b surface=her kind=pronoun gf=SUBJ index=A1\n",
            lambda: [
                utt("x.", pronoun("she", index="A1", mid="a")),
                utt("y.", pronoun("her", index="A1", mid="b"), position=2),
            ],
        ),
        "anonymous index is an entity id": (
            "utterance Ann waved.\nnp id=a surface=Ann kind=name gf=SUBJ entity=X1\n"
            'utterance A car came.\nnp id=c surface="a car" kind=indefinite gf=SUBJ index=X1\n',
            lambda: [
                utt("Ann waved.", name("Ann", "X1", mid="a")),
                utt("A car came.", indefinite("a car", index="X1", gf=SUBJ, mid="c"), position=2),
            ],
        ),
    }

    @pytest.mark.parametrize("rule", INDEX_RULES)
    def test_index_rule_reads_as_the_library_states_it(self, rule):
        lines, discourse = self.INDEX_RULES[rule]
        utterances = discourse()
        with pytest.raises(MarkerError) as stated:
            allocate_indices(utterances)
        assert stated.value.marker is utterances[1].markers[0]
        with pytest.raises(SchemaError) as err:
            parse_corpus("discourse d\n" + lines)
        assert str(err.value) == f"line 5: index: {stated.value}"

    @pytest.mark.parametrize("kind", ["name", "definite"])
    def test_surface_without_letters_or_digits_needs_an_entity(self, kind):
        # Both would otherwise derive one shared id and co-specify silently.
        text = (
            "discourse d\n"
            "utterance !! ??\n"
            f'np id=a surface="!!" kind={kind} gf=SUBJ contra=b\n'
            f'np id=b surface="??" kind={kind} gf=OBJ\n'
        )
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (3, "surface")
        fixed = text.replace('"!!"', '"!!" entity=BANG').replace('"??"', '"??" entity=HUH')
        assert [np.entity.id for np in parse_corpus(fixed).utterances[0].nps] == ["BANG", "HUH"]

    @pytest.mark.parametrize("kinds", [("name", "name"), ("name", "definite"), ("definite", "name")])
    def test_surfaces_that_derive_one_id_differently_need_an_entity(self, kinds):
        # Ann Lee and Ann-Lee both derive ANN-LEE: without entity= they
        # would be one entity without saying so.
        text = (
            "discourse d\n"
            "utterance Ann Lee waved.\n"
            f'np id=a surface="Ann Lee" kind={kinds[0]} gf=SUBJ agr=fem,sg,3\n'
            "utterance Ann-Lee smiled.\n"
            f"np id=b surface=Ann-Lee kind={kinds[1]} gf=SUBJ agr=fem,sg,3\n"
        )
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (5, "surface")
        assert "'Ann Lee' on line 3" in str(err.value) and "'ANN-LEE'" in str(err.value)
        # entity= on either line says what is meant.
        for old, new, ids in (
            ("Ann-Lee kind", "Ann-Lee entity=ANN-LEE kind", ["ANN-LEE", "ANN-LEE"]),
            ('Lee" kind', 'Lee" entity=AL kind', ["AL", "ANN-LEE"]),
        ):
            doc = parse_corpus(text.replace(old, new))
            assert [cu.nps[0].entity.id for cu in doc.utterances] == ids

    @pytest.mark.parametrize("surfaces", [("Ann", "ANN"), ("Zo\u00eb", "zoe\u0308"), ("Straße", "STRASSE")])
    def test_surfaces_equal_after_nfc_and_case_folding_share_their_derived_id(self, surfaces):
        text = "discourse d\n" + "".join(
            f"utterance {surface} waved.\nnp id=a surface={surface} kind=name gf=SUBJ\n" for surface in surfaces
        )
        first, second = (cu.nps[0].entity for cu in parse_corpus(text).utterances)
        assert first is second and first.name == surfaces[0]

    @pytest.mark.parametrize("empty", ["id=", "surface=''", 'entity=""'])
    def test_empty_id_surface_or_entity_rejected(self, empty):
        # Two names with entity= would both get entity id "" and merge.
        key = empty.partition("=")[0]
        fields = {"id": "id=a", "surface": "surface=Ann", "entity": "entity=ANN"}
        fields[key] = empty
        text = (
            "discourse d\n"
            "utterance Ann met Bo.\n"
            f"np {' '.join(fields.values())} kind=name gf=SUBJ contra=b\n"
            "np id=b surface=Bo kind=name gf=OBJ entity=BO\n"
        )
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (3, key)

    @pytest.mark.parametrize("np_id", ['"a,b"', "a,", ",b"])
    def test_comma_in_np_id_rejected(self, np_id):
        # contra= lists are comma-separated: the sibling's contra, written
        # out, would name two ids and fail to re-parse.
        text = (
            "discourse d\n"
            "utterance It hit it.\n"
            f"np id={np_id} surface=it kind=pronoun gf=SUBJ contra=c\n"
            "np id=c surface=it kind=pronoun gf=OBJ\n"
        )
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (3, "id")

    def test_agreement_values_are_shared_and_a_bad_one_reports_its_line(self):
        lines = [
            "discourse d",
            "utterance Ann met Eve.",
            "np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3",
            "np id=b surface=Eve kind=name gf=OBJ agr=fem,sg,3",
        ]
        a, b = parse_corpus("\n".join(lines) + "\n").utterances[0].nps
        assert a.agr is b.agr and a.agr == Agreement("fem", "sg", "3")
        for bad in ("fem,sg,4", "fem,sg"):
            text = "\n".join([*lines, f"np id=c surface=Cy kind=name gf=OBJ2 agr={bad}"]) + "\n"
            for _ in range(2):  # the same failure on a second parse
                with pytest.raises(SchemaError) as err:
                    parse_corpus(text)
                assert (err.value.line, err.value.fieldname) == (5, "agr")

    def test_long_np_line_with_a_stray_quote_is_a_quoting_error(self):
        # About 10,000 characters, read by shlex: a tokenizer that backtracks
        # exponentially on an unbalanced quote would never finish this test.
        text = (
            "discourse d\n"
            "utterance x.\n"
            "np id=a kind=name gf=SUBJ surface=" + "x" * 10_000 + '"\n'
        )
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert err.value.line == 3 and "bad quoting: No closing quotation" in str(err.value)

    @pytest.mark.parametrize(
        "fields",
        [
            ["id=a", "surface=" + "x" * 10_000 + '"', "kind=name", "gf=SUBJ"],
            ["id=a", "surface=Ann", "kind=name", "gf=SUBJ", "agr=" + "x" * 10_000 + '"'],
            [f"{key}=" + "x" * 1_250 for key in corpus.NP_FIELDS[:-1]] + ["contra=" + "x" * 1_250 + '"'],
            [f'{key}="' + "x" * 1_250 + '"' for key in corpus.NP_FIELDS[:-1]] + ['contra="' + "x" * 1_250],
        ],
    )
    def test_long_canonical_np_line_with_a_stray_quote_is_a_quoting_error(self, fields):
        # The same for a line in format_corpus's layout, which the canonical
        # pattern tries first: on each of these it fails only at the end.
        text = "discourse d\nutterance x.\nnp " + " ".join(fields) + "\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert err.value.line == 3 and "bad quoting: No closing quotation" in str(err.value)

    def test_name_with_index_rejected(self):
        text = "discourse d\nutterance x.\nnp id=a surface=Ann kind=name gf=SUBJ index=A1\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (3, "index")

    def test_wrong_index_series(self):
        text = "discourse d\nutterance x.\nnp id=a surface=she kind=pronoun gf=SUBJ index=X1\n"
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert (err.value.line, err.value.fieldname) == (3, "index")

    def test_np_outside_utterance(self):
        with pytest.raises(SchemaError):
            parse_corpus("discourse d\nnp id=a surface=x kind=name gf=SUBJ\n")

    def test_missing_discourse_directive(self):
        with pytest.raises(SchemaError):
            parse_corpus("utterance x.\n")

    def test_unknown_directive(self):
        with pytest.raises(SchemaError):
            parse_corpus("discourse d\nchapter 1\n")

    def test_mode_after_utterances_rejected(self):
        with pytest.raises(SchemaError):
            parse_corpus("discourse d\nutterance x.\nmode classic\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("mode classic\ndiscourse d\nutterance x.\n", 1),
            ("discourse d\nmode extended\n# again\nmode classic\nutterance x.\n", 4),
        ],
        ids=["before-discourse", "repeated"],
    )
    def test_mode_only_once_and_after_discourse(self, text, line):
        with pytest.raises(SchemaError) as err:
            parse_corpus(text)
        assert err.value.line == line

    def test_bad_agreement_shape(self):
        with pytest.raises(SchemaError):
            parse_corpus("discourse d\nutterance x.\nnp id=a surface=x kind=name gf=SUBJ agr=fem,sg\n")


def test_only_cr_lf_and_crlf_end_a_line():
    # str.splitlines would also break at each of these.
    breaks = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"
    text = (
        "discourse d\r\n"
        f"utterance Ann met Bo{breaks}in town.\r"
        f"np id=a surface='Ann{breaks}Lee' kind=name gf=SUBJ\n"
        "np id=b surface=Bo kind=name gf=OBJ\n"
    )
    doc = parse_corpus(text)
    (cu,) = doc.utterances
    assert cu.text == f"Ann met Bo{breaks}in town."
    assert cu.nps[0].surface == f"Ann{breaks}Lee"
    assert parse_corpus(format_corpus(doc)) == doc
    with pytest.raises(SchemaError) as err:
        parse_corpus(text + "np id=c surface=Cy kind=noun gf=OBJ\n")
    assert err.value.line == 5


def test_one_leading_byte_order_mark_is_ignored():
    assert parse_corpus("\ufeff" + MINIMAL) == parse_corpus(MINIMAL)
    with pytest.raises(SchemaError) as err:
        parse_corpus("\ufeff\ufeff" + MINIMAL)
    assert err.value.line == 1 and "unknown directive" in str(err.value)


SPACED = """\
discourse demo
mode classic
utterance Ann waved\tat Bo.
np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3
np id=b surface=Bo kind=name gf=OBJ
"""


@pytest.mark.parametrize("keyword", ["discourse", "mode", "utterance", "np"])
@pytest.mark.parametrize("gap", ["\t", "\t\t", "\t ", " \t"])
def test_a_tab_ends_a_directive_keyword(keyword, gap):
    lines = SPACED.splitlines(keepends=True)
    tabbed = "".join(
        keyword + gap + line[len(keyword) + 1 :] if line.startswith(keyword + " ") else line for line in lines
    )
    assert tabbed != SPACED
    doc = parse_corpus(tabbed)
    assert doc == parse_corpus(SPACED)
    assert doc.utterances[0].text == "Ann waved\tat Bo."
    with pytest.raises(SchemaError, match="unknown directive 'nq'") as err:
        parse_corpus(SPACED + "nq\tid=c surface=Cy kind=name gf=OBJ\n")
    assert err.value.line == 6


@pytest.mark.parametrize(
    "surface, derived",
    [
        # ASCII surfaces keep the ids they always had.
        ("Carl", "CARL"),
        ("Laguna Seca", "LAGUNA-SECA"),
        ("the big_red car!", "THE-BIG-RED-CAR"),
        ("  R2-D2 ", "R2-D2"),
        ("O'Brien & co.", "O-BRIEN-CO"),
        # Other letters and digits count as letters and digits.
        ("Jürgen", "JÜRGEN"),
        ("Jörgen", "JÖRGEN"),
        ("Σωκράτης", "ΣΩΚΡΆΤΗΣ"),
        ("東京 タワー", "東京-タワー"),
        ("٣ Zoë", "٣-ZOË"),
        # A decomposed accent is read as the precomposed letter.
        ("Jo\u0301rgen", "JÓRGEN"),
        ("Jo\u0300rgen", "JÒRGEN"),
        # Marks without a precomposed form stay with their letter.
        ("हिन्दी", "हिन्दी"),
        ("हुन्दु", "हुन्दु"),
    ],
)
def test_derive_entity_id(surface, derived):
    assert derive_entity_id(surface) == derived


class TestRoundTrip:
    def test_bundled_corpora_round_trip(self):
        for name, text in bundled_corpora().items():
            doc = parse_corpus(text)
            assert parse_corpus(format_corpus(doc)) == doc

    def test_entity_written_where_the_reader_would_refuse_its_derived_id(self):
        # Each surface derives ANN-LEE, but only the first and the equal
        # one after case-folding may leave it to the reader.
        surfaces = ("Ann Lee", "Ann-Lee", "ANN LEE", "Ann-Lee")
        doc = CorpusDocument(
            "d",
            Mode.EXTENDED,
            tuple(CorpusUtterance(f"{s} waved.", (name(s, "ANN-LEE", mid="a"),)) for s in surfaces),
        )
        text = format_corpus(doc)
        written = [line.endswith("entity=ANN-LEE") for line in text.splitlines() if line.startswith("np ")]
        assert written == [False, True, False, True]
        assert parse_corpus(text) == doc

    def test_quoting_survives(self):
        # format_corpus quotes with shlex.quote: the second surface comes out
        # as adjacent pieces, 'the "old" captain'"'"'s log'. The last two
        # inputs have ids, and so contra lists, holding blanks, quotes, `=`
        # and `;`.
        inputs = [
            (("n1", surface, frozenset()),)
            for surface in ("a tricky 'case'", 'the "old" captain\'s log')
        ]
        inputs.append((("a b", "it", frozenset({"c'd"})), ("c'd", "that", frozenset({"a b"}))))
        # A contra list of two ids, each needing quotes of its own.
        inputs.append((
            ("x=1", "it", frozenset({"p;q", "r s"})),
            ("p;q", "that", frozenset({"x=1"})),
            ("r s", "this", frozenset({"x=1"})),
        ))
        for nps in inputs:
            doc = CorpusDocument(
                "q",
                Mode.EXTENDED,
                (
                    CorpusUtterance(
                        "A tricky 'case'.",
                        tuple(
                            ReferenceMarker(
                                surface,
                                MarkerKind.INDEFINITE,
                                GrammaticalFunction.OBJECT,
                                Agreement("neut", "sg", "3"),
                                contra,
                                mid=np_id,
                            )
                            for np_id, surface, contra in nps
                        ),
                    ),
                ),
            )
            assert parse_corpus(format_corpus(doc)) == doc

    @pytest.mark.parametrize(
        "doc_id, text",
        [
            ("d", "Ann waved. "),
            ("d", " Ann"),
            ("d", "Ann\nwaved."),
            ("d", "Ann\rwaved."),
            ("d", ""),
            ("d ", "Ann waved."),
            ("a\nb", "Ann waved."),
        ],
    )
    def test_format_corpus_refuses_what_would_not_read_back(self, doc_id, text):
        # Both are written unquoted to the end of their line, so parse_corpus
        # would strip them, split them or find them missing.
        fine = CorpusUtterance("Ann\twaved.", ())
        doc = CorpusDocument(doc_id, Mode.EXTENDED, (fine, CorpusUtterance(text, ())))
        named = f"utterance 2 text {text!r}" if doc_id == "d" else f"discourse id {doc_id!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            format_corpus(doc)
        ok = CorpusDocument("d", Mode.EXTENDED, (fine, CorpusUtterance("Ann waved.", ())))
        assert parse_corpus(format_corpus(ok)) == ok

    # The reader's reason, or the writer's own line-break rule, for each
    # value; test ids stay `field-value`.
    _NP_VALUE_REFUSALS = [
        ("id", "a\nb", "it holds a line break"),
        ("id", "a\rb", "it holds a line break"),
        ("id", "a,b", "line 7: id: np id 'a,b' cannot hold a ','"),
        ("id", "", "line 7: id: np field 'id' needs a non-empty value"),
        ("surface", "Ann\nLee", "it holds a line break"),
        ("surface", "Ann\r", "it holds a line break"),
        ("surface", "", "line 7: surface: np field 'surface' needs a non-empty value"),
        ("entity", "ANN\nLEE", "it holds a line break"),
        ("entity", "\rANN", "it holds a line break"),
        ("entity", "", "line 7: entity: np field 'entity' needs a non-empty value"),
        ("contra id", "b\nc", "it holds a line break"),
        ("contra id", "b\r", "it holds a line break"),
        ("contra id", "b,c", "line 7: contra: contra reference 'c' names no np here"),
        ("contra id", "", "it reads back as 'np id=a surface=Ann kind=name gf=SUBJ contra=b'"),
    ]

    @pytest.mark.parametrize(
        "field, value, reason",
        _NP_VALUE_REFUSALS,
        ids=[f"{field}-{value}" for field, value, _ in _NP_VALUE_REFUSALS],
    )
    def test_format_corpus_refuses_an_np_value_that_would_not_read_back(self, field, value, reason):
        # Each would come back as a quoting error, a missing value, another
        # id or contra list, or a line of its own.
        def doc(id="a", surface="Ann", entity="ANN", contra_id="b"):
            nps = (
                name(surface, entity, contra={contra_id}, mid=id),
                name("Bo", "BO", GrammaticalFunction.OBJECT, contra={"a"}, mid="b"),
            )
            utterances = (CorpusUtterance("Hi.", ()), CorpusUtterance("Ann met Bo.", nps))
            return CorpusDocument("d", Mode.EXTENDED, utterances)

        bad = doc(**{field.replace(" ", "_"): value})
        named = f"utterance 2 np {bad.utterances[1].nps[0].mid!r} would not read back: {reason}"
        with pytest.raises(ValueError, match=re.escape(named) + r"\Z"):
            format_corpus(bad)
        assert parse_corpus(format_corpus(doc())) == doc()

    @pytest.mark.parametrize(
        "utterances, named",
        [
            # The reader makes contra symmetric.
            (
                [[name("Ann", "ANN", contra={"b"}, mid="a"), name("Bo", "BO", OBJ, mid="b")]],
                "utterance 1 np 'b' would not read back: "
                "it reads back as 'np id=b surface=Bo kind=name gf=OBJ contra=a'",
            ),
            (
                [[name("Ann", "ANN", contra={"z"}, mid="a"), name("Bo", "BO", OBJ, mid="b")]],
                "utterance 1 np 'a' would not read back: "
                "line 5: contra: contra reference 'z' names no np here",
            ),
            (
                [[name("Ann", "ANN", mid="a"), name("Bo", "BO", OBJ, mid="a")]],
                "utterance 1 np 'a' would not read back: "
                "line 6: id: np id 'a' already used in this utterance",
            ),
            (
                [[pronoun("she", "A1", mid="s")], [pronoun("her", "A1", mid="h")]],
                "utterance 2 np 'h' would not read back: "
                "line 8: index: index A1 already used in this discourse",
            ),
            (
                [[name("Ann", "X1", mid="a")], [indefinite("a car", index="X1", mid="c")]],
                "utterance 2 np 'c' would not read back: "
                "line 8: index: index X1 is also an entity id",
            ),
        ],
        ids=["one-sided-contra", "contra-names-no-np", "np-id-twice", "index-twice", "index-is-an-entity-id"],
    )
    def test_format_corpus_refuses_markers_the_reader_would_reject_or_change(self, utterances, named):
        doc = CorpusDocument(
            "d", Mode.EXTENDED, tuple(CorpusUtterance("Hi.", tuple(nps)) for nps in utterances)
        )
        with pytest.raises(ValueError, match=re.escape(named)):
            format_corpus(doc)


# Values that read back, and values that do not: blanks at either end
# read back, a `,`, an empty value or a line break may not.
_CLEAN = ("a", "b", "Ann", "Bo Lee", "X1")
_AWKWARD = (" a", "b ", "a,b", "", "a\nb", "a\rb")


def _code_built_document(rng):
    """A seeded document built in code, consistent or not: contra lists
    that are one-sided or name no sibling, np ids used twice, explicit
    indices used twice or that are entity ids, awkward values anywhere."""

    def value():
        return rng.choice(_AWKWARD) if rng.random() < 0.04 else rng.choice(_CLEAN)

    utterances = []
    for _ in range(rng.randint(1, 3)):
        mids = [value() for _ in range(rng.randint(0, 3))]
        nps = []
        for j, mid in enumerate(mids):
            # Often listed on one side only.
            contra = {m for m in mids[:j] if rng.random() < 0.5}
            contra |= {m for m in mids[j + 1 :] if rng.random() < 0.2}
            if rng.random() < 0.05:
                contra.add(value())
            contra.discard(mid)
            gf = rng.choice(list(GrammaticalFunction))
            kind = rng.randrange(3)
            if kind == 0:
                np = name(value(), value(), gf, contra=contra, mid=mid)
            elif kind == 1:
                np = pronoun(value(), rng.choice([None, "A1", "A2", "A3"]), gf, contra=contra, mid=mid)
            else:
                entity = rng.choice([None, None, value()])
                np = indefinite(value(), entity, rng.choice([None, "X1", "X2"]), gf, contra=contra, mid=mid)
            nps.append(np)
        text = value() if rng.random() < 0.1 else rng.choice(["Hi.", "Hi there."])
        utterances.append(CorpusUtterance(text, tuple(nps)))
    return CorpusDocument(value(), rng.choice(list(Mode)), tuple(utterances))


def _names_its_place(message, doc):
    """Whether `message` names the discourse id, an utterance's text or
    one of its np ids, by an utterance number in range."""
    if message.startswith(f"discourse id {doc.id!r} would not read back: "):
        return True
    match = re.match(r"utterance (\d+) ", message)
    if match is None or not 1 <= int(match[1]) <= len(doc.utterances):
        return False
    cu = doc.utterances[int(match[1]) - 1]
    places = [f"text {cu.text!r}", *(f"np {np.mid!r}" for np in cu.nps)]
    return any(message.startswith(f"{match[0]}{place} would not read back: ") for place in places)


def test_format_corpus_reads_back_equal_or_names_what_would_not():
    rng = random.Random(15)
    written, reasons = 0, []
    for _ in range(300):
        doc = _code_built_document(rng)
        try:
            text = format_corpus(doc)
        except ValueError as exc:
            assert _names_its_place(str(exc), doc), exc
            reasons.append(str(exc).partition(" would not read back: ")[2])
            continue
        assert parse_corpus(text) == doc
        written += 1
    # Both outcomes, and each way a document fails to read back, occur.
    assert written >= 50 and len(reasons) >= 50
    for reason in (
        "holds a line break",
        "names no np here",
        "already used in this utterance",
        "already used in this discourse",
        "is also an entity id",
        "reads back as",
    ):
        assert any(reason in r for r in reasons), reason


# Values for each np field, valid and not: quotes, blanks, `=`, `,`,
# backslashes, and words outside the kind and gf vocabularies.
_NP_VALUES = {
    "id": ["a", "n0", "a b", "a,b", "x=1", "c'd", 'q"r', "\\"],
    "surface": ["Ann", " the old house ", "it's", 'the "old" house', "!!", "a\\\\b", "x\\", "Zoë"],
    "kind": [*KIND_TOKENS, "Name", "the name"],
    "gf": [*GF_TOKENS, "subj"],
    "agr": ["fem,sg,3", "-,pl,-", "fem,sg", "fem,sg,4"],
    "entity": ["ANN", "A B", "it's", "E\\"],
    "index": ["A1", "X2", "A0", "B3"],
    "contra": ["c", "c,a", ",c", "zz"],
}
_FLAWS = ("order", "repeat", "drop", "unknown", "empty", "gap", "quoting")


@st.composite
def _np_value(draw, value, tidy):
    """`value` written as an np field value, and whether that is one
    non-empty piece of the canonical layout. A tidy value takes such a
    form when one fits it; another may be split into pieces or quoted
    in a form that does not fit it."""
    forms = [
        (value, not set(value) & set(" \t\"'\\")),
        (f'"{value}"', not set(value) & set('"\\')),
        (f"'{value}'", "'" not in value),
        (shlex.quote(value), "'" not in value),
    ]
    if tidy and value and any(fits for _, fits in forms):
        return draw(st.sampled_from([text for text, fits in forms if fits])), True
    if draw(st.booleans()):
        text, fits = draw(st.sampled_from(forms))
        return text, bool(value) and fits
    cut = draw(st.integers(0, len(value)))
    return f"'{value[:cut]}'" + shlex.quote(value[cut:]), False


@st.composite
def np_lines(draw):
    """An np line, and whether it is in format_corpus's layout: the fields
    in order, one space apart, each value one non-empty piece. A line
    with a flaw has its fields out of order, one repeated, a required one
    dropped, an unknown one added or one value empty, a tab or two spaces
    in one gap, or one value quoted in any form; a line without one is
    canonical unless a value admits no one-piece form."""
    flaw = draw(st.sampled_from([None] * len(_FLAWS) + list(_FLAWS)))
    keys = [*corpus.REQUIRED_NP_FIELDS] + [k for k in corpus.NP_FIELDS[4:] if draw(st.booleans())]
    canonical = True
    if flaw == "order":
        keys = draw(st.permutations(keys))
        canonical = list(keys) == [k for k in corpus.NP_FIELDS if k in keys]
    elif flaw == "repeat":
        keys = [*keys, draw(st.sampled_from(keys))]
        canonical = False
    elif flaw == "drop":
        dropped = draw(st.sampled_from(corpus.REQUIRED_NP_FIELDS))
        keys = [k for k in keys if k != dropped]
        canonical = False
    odd = draw(st.sampled_from(keys)) if flaw in ("empty", "quoting") else None
    fields = []
    for key in keys:
        value = "" if key == odd and flaw == "empty" else draw(st.sampled_from(_NP_VALUES[key]))
        text, one_piece = draw(_np_value(value, key != odd or flaw != "quoting"))
        fields.append(f"{key}={text}")
        canonical = canonical and one_piece
    if flaw == "unknown":
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(["foo=1", "id", "=x"])))
        canonical = False
    gaps = [" "] * (len(fields) - 1)
    if flaw == "gap":
        gaps[draw(st.integers(0, len(gaps) - 1))] = draw(st.sampled_from(["  ", "\t", " \t"]))
        canonical = False
    return "".join(gap + field for gap, field in zip(["", *gaps], fields)), canonical


def _parse_outcome(text):
    """The document and its entities' names (Entity compares by id only),
    or the error's type, line, field and message."""
    try:
        doc = parse_corpus(text)
    except CorpusError as exc:
        return type(exc), exc.line, exc.fieldname, str(exc)
    return doc, [np.entity and np.entity.name for cu in doc.utterances for np in cu.nps]


def _assert_parses_as_the_general_path_does(line, canonical):
    assert (re.fullmatch(corpus._CANONICAL_NP, line) is not None) == canonical
    text = f"discourse d\nutterance x.\nnp id=c surface=Cy kind=name gf=OBJ2 entity=CY\nnp {line}\n"
    outcome = _parse_outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_CANONICAL_NP", "(?!)")  # matches nothing
        assert _parse_outcome(text) == outcome


@settings(max_examples=400)
@given(np_lines())
def test_canonical_np_lines_parse_as_the_general_path_does(case):
    _assert_parses_as_the_general_path_does(*case)


@pytest.mark.parametrize(
    "line, canonical",
    [
        ("id=a surface='the old house' kind=definite gf=OBJ agr=neut,sg,3 entity=HOUSE contra=c", True),
        ('id=a surface="say \'hi\'" kind=name gf=SUBJ entity=\'A "B"\' index=X1', True),
        ('id=a surface="a\\b" kind=name gf=SUBJ', False),  # shlex keeps this backslash
        ('id=a surface="a\\\\b" kind=name gf=SUBJ', False),  # and reads this pair as one
        ('id=a surface="x\\" kind=name gf=SUBJ', False),  # an escaped closing quote
        ("id=a surface='x\\' kind=name gf=SUBJ", True),  # no escapes in single quotes
        ("id=a surface='it'\"'\"'s' kind=name gf=SUBJ", False),
        ("id=a surface=it\\'s kind=name gf=SUBJ", False),
        ("id=a surface=\"Ann kind=name gf=SUBJ", False),
        ("id=a kind=name surface=Ann gf=SUBJ", False),
        ("id=a surface=Ann  kind=name gf=SUBJ", False),
        ("id=a surface=Ann\tkind=name gf=SUBJ", False),
        ("id=a surface=Ann kind=name gf=SUBJ\tagr=fem,sg,3", False),
        ("id=a surface=Ann kind=name gf=SUBJ gf=OBJ", False),
        ("id=a surface='' kind=name gf=SUBJ entity=ANN", False),
        ("id=a surface=Ann kind=name gf=SUBJ contra=''", False),
        ("id=a surface=Ann kind=noun gf=SUBJ", True),
        ("id=a,b surface=Ann kind=name gf=SUBJ", True),
        ("id=a=b surface=Ann kind=name gf=SUBJ agr=entity=X", True),
    ],
)
def test_tricky_np_lines_parse_as_the_general_path_does(line, canonical):
    _assert_parses_as_the_general_path_does(line, canonical)


def test_format_corpus_np_lines_take_the_canonical_path():
    # Every np line format_corpus writes for the bundled corpora, none of
    # which needs a multi-piece value.
    for text in bundled_corpora().values():
        for line in format_corpus(parse_corpus(text)).splitlines():
            if line.startswith("np "):
                assert re.fullmatch(corpus._CANONICAL_NP, line[3:]), line


# Values that need quoting, a backslash, a tab or a `=`.
_SURFACES = ("Ann", "Alfa Romeo", "it's", 'the "old" house', "a\\b", "Zoë", "x=1", "one\ttab")


def _generated_document(rng):
    """A seeded document of every marker kind, with agreement, indices,
    symmetric contra lists, and ids and entity ids that need quoting."""
    utterances = []
    for position in range(1, rng.randint(2, 5)):
        mids = [rng.choice([f"n{j}", f"n {j}", f"n'{j}"]) for j in range(rng.randint(1, 4))]
        contra = {mid: set() for mid in mids}
        for i, a in enumerate(mids):
            for b in mids[i + 1 :]:
                if rng.random() < 0.3:
                    contra[a].add(b)
                    contra[b].add(a)
        nps = []
        for j, mid in enumerate(mids):
            kind = rng.choice(list(MarkerKind))
            surface = rng.choice(_SURFACES)
            entity = index = None
            if kind is MarkerKind.PRONOUN:
                index = rng.choice([None, f"A{position}{j}"])
            elif kind is MarkerKind.INDEFINITE:
                index, entity = rng.choice(
                    [(None, None), (f"X{position}{j}", None), (None, rng.choice(_SURFACES))]
                )
            else:
                entity = rng.choice([derive_entity_id(surface), rng.choice(_SURFACES)])
            agr = rng.choice([Agreement(), Agreement("fem", "sg", "3"), Agreement(None, "pl", None)])
            gf = rng.choice(list(GrammaticalFunction))
            entity = entity and Entity(entity)
            nps.append(ReferenceMarker(surface, kind, gf, agr, contra[mid], entity, index, mid))
        utterances.append(CorpusUtterance(f"Utterance {position}.", tuple(nps)))
    return CorpusDocument("generated", rng.choice(list(Mode)), tuple(utterances))


def _relaid(text, rng):
    """`text` with each np line's fields in shuffled order, a tab or two
    spaces between each two, so that shlex reads every np line."""
    lines = []
    for line in text.splitlines():
        if line.startswith("np "):
            tokens = (token.partition("=") for token in shlex.split(line[3:]))
            fields = [f"{key}={shlex.quote(value)}" for key, _, value in tokens]
            rng.shuffle(fields)
            line = "np " + fields[0] + "".join(rng.choice(["\t", "  "]) + field for field in fields[1:])
            assert not re.fullmatch(corpus._CANONICAL_NP, line[3:]), line
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_layout_does_not_change_what_an_np_line_means():
    # Every bundled corpus and seeded generated documents, written by
    # format_corpus and then relaid: the same document, the same entity names.
    rng = random.Random(14)
    texts = [format_corpus(parse_corpus(text)) for text in bundled_corpora().values()]
    texts += [format_corpus(_generated_document(rng)) for _ in range(200)]
    for text in texts:
        outcome = _parse_outcome(text)
        assert isinstance(outcome[0], CorpusDocument), outcome
        assert _parse_outcome(_relaid(text, rng)) == outcome


class TestBuildUtterances:
    def test_entities_interned_across_utterances(self):
        doc = parse_corpus(
            "discourse d\n"
            "utterance Ann waved.\n"
            "np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3\n"
            "utterance Ann left.\n"
            "np id=a surface=Ann kind=name gf=SUBJ agr=fem,sg,3\n"
        )
        u1, u2 = build_utterances(doc)
        assert u1.markers[0].entity is u2.markers[0].entity
        assert u1.markers[0].entity.id == "ANN"

    def test_derived_entity_id_from_surface(self):
        doc = parse_corpus(
            "discourse d\nutterance x.\n"
            'np id=a surface="Laguna Seca" kind=definite gf=OTHER\n'
        )
        (u,) = build_utterances(doc)
        assert u.markers[0].entity.id == "LAGUNA-SECA"

    def test_anonymous_indefinite_gets_x_index_from_allocation(self):
        doc = parse_corpus(
            "discourse d\nutterance x.\n"
            'np id=a surface="Alfa Romeo" kind=indefinite gf=OBJ\n'
        )
        (built,) = build_utterances(doc)
        assert built.markers[0] is doc.utterances[0].nps[0]
        assert built.markers[0].entity is None
        (u,) = allocate_indices([built])
        m = u.markers[0]
        assert (m.index, m.entity.id, m.entity.name) == ("X1", "X1", "Alfa Romeo")

    def test_positions_are_one_based(self):
        doc = load_bundled("fig2")
        assert [u.position for u in build_utterances(doc)] == [1, 2, 3, 4]
