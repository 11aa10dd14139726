import pytest

from centering import (
    Agreement,
    AnchorGrid,
    CfEntry,
    CorpusDocument,
    CorpusUtterance,
    Entity,
    FilterVerdict,
    FilterVerdicts,
    GrammaticalFunction,
    MarkerKind,
    Mode,
    Ranking,
    ReferenceMarker,
    Utterance,
    UtteranceResult,
    allocate_indices,
    load_bundled,
    process_document,
)
from centering.model import GENDERS, NUMBERS, PERSONS, MarkerError, Value, unify_agreement
from support import (
    ADJ,
    FEM,
    MASC,
    NEUT,
    OBJ,
    OTHER,
    SUBJ,
    _agree,
    assert_value_by_fields,
    indefinite,
    name,
    pronoun,
    utt,
)


class TestAgreement:
    def test_identity_unifies(self):
        assert unify_agreement(FEM, Agreement("fem", "sg", "3"))

    def test_gender_clash_fails(self):
        # The reason a neuter entity is never offered for "she"/"her".
        assert not unify_agreement(FEM, NEUT)

    def test_unspecified_matches_anything(self):
        assert unify_agreement(Agreement(None, "sg", "3"), MASC)
        assert unify_agreement(Agreement(), Agreement())

    def test_symmetry(self):
        values = [FEM, MASC, NEUT, Agreement(), Agreement(None, "pl", None), Agreement("fem", None, "1")]
        for a in values:
            for b in values:
                assert unify_agreement(a, b) == unify_agreement(b, a)

    def test_matches_the_oracle_on_every_pair(self):
        values = [
            Agreement(g, n, p)
            for g in (*sorted(GENDERS), None)
            for n in (*sorted(NUMBERS), None)
            for p in (*sorted(PERSONS), None)
        ]
        assert len(values) == 48
        for a in values:
            for b in values:
                assert unify_agreement(a, b) is _agree(a, b), (a, b)

    def test_bad_feature_rejected(self):
        with pytest.raises(ValueError):
            Agreement("female", "sg", "3")


def rank_markers(markers):
    # An Utterance ranks its markers on construction.
    return list(Utterance("", markers).markers)


class TestRankMarkers:
    def test_already_ordered_stays_put(self):
        ms = [
            name("Carl", "POLLARD", gf=SUBJ, agr=MASC),
            name("HP", "HP", gf=OTHER, agr=NEUT),
            name("Natural Language Project", "NATLANG", gf=ADJ, agr=NEUT),
        ]
        assert rank_markers(ms) == ms

    def test_reorders_by_obliqueness(self):
        her = pronoun("her", index="A8", gf=OBJ, agr=FEM)
        friedman = name("Friedman", "FRIEDMAN", gf=SUBJ, agr=FEM)
        weekends = indefinite("weekends", entity_id="WEEKEND", index="X3", gf=ADJ)
        assert rank_markers([her, friedman, weekends]) == [friedman, her, weekends]

    def test_empty(self):
        assert rank_markers([]) == []

    def test_idempotent_permutation(self):
        ms = [
            pronoun("a", index="A1", gf=ADJ),
            pronoun("b", index="A2", gf=SUBJ),
            pronoun("c", index="A3", gf=ADJ),
            pronoun("d", index="A4", gf=OBJ),
        ]
        once = rank_markers(ms)
        assert rank_markers(once) == once
        assert sorted(m.mid for m in once) == sorted(m.mid for m in ms)
        # Ties (the two adjuncts) keep their input order.
        assert [m.mid for m in once if m.gf == ADJ] == ["A1", "A3"]


class TestEntity:
    def test_equality_is_by_id_only(self):
        a7 = Entity("BRENNAN", "Brennan")
        a8 = Entity("BRENNAN", "she")
        assert a7 == a8
        assert hash(a7) == hash(a8)
        assert Entity("BRENNAN") != Entity("FRIEDMAN")

    def test_display_name_defaults_to_id(self):
        assert Entity("HP").name == "HP"


class TestMarkers:
    def test_name_index_is_surface(self):
        m = name("Carl", "POLLARD")
        assert m.index == "Carl"
        assert m.mid == "Carl"
        assert ReferenceMarker("Carl", MarkerKind.NAME, SUBJ, entity=Entity("POLLARD"), index="Carl") == m
        # Another index would display the marker as [POLLARD:Carlo], and
        # format_corpus, which writes no index for a name, could not keep it.
        for kind in (MarkerKind.NAME, MarkerKind.DEFINITE):
            with pytest.raises(MarkerError) as err:
                ReferenceMarker("Carl", kind, SUBJ, entity=Entity("POLLARD"), index="Carlo")
            assert err.value.fieldname == "index"

    def test_pronoun_index_series_checked(self):
        with pytest.raises(ValueError):
            pronoun("she", index="X1")
        with pytest.raises(ValueError):
            indefinite("a car", index="A1")

    def test_pronoun_cannot_be_prebound(self):
        with pytest.raises(ValueError):
            ReferenceMarker(
                surface="she", kind=MarkerKind.PRONOUN, gf=SUBJ,
                entity=Entity("BRENNAN"),
            )

    @pytest.mark.parametrize("kind", [MarkerKind.NAME, MarkerKind.DEFINITE])
    def test_name_or_definite_needs_an_entity(self, kind):
        # Allocation only ever binds indefinites, so nothing would give it one.
        with pytest.raises(MarkerError) as err:
            ReferenceMarker("Ann", kind, SUBJ)
        assert err.value.fieldname == "entity"

    def test_self_contraindexing_rejected(self):
        with pytest.raises(ValueError):
            pronoun("she", index="A1", contra={"A1"})

    def test_contra_given_as_one_string_rejected(self):
        # frozenset("her1") would be the letters, which name no marker.
        with pytest.raises(MarkerError) as err:
            ReferenceMarker("she", MarkerKind.PRONOUN, SUBJ, contra="her1")
        assert err.value.fieldname == "contra"
        assert ReferenceMarker("she", MarkerKind.PRONOUN, SUBJ, contra=["her1"]).contra == frozenset({"her1"})

    @pytest.mark.parametrize(
        ("fieldname", "value"),
        [
            ("kind", "name"), ("gf", "SUBJ"), ("gf", 0), ("agr", None), ("agr", ("fem", "sg", "3")), ("entity", "ANN"),
            ("surface", None), ("surface", 3), ("index", 7), ("mid", 5),
        ],
    )
    def test_fields_of_the_wrong_type_rejected(self, fieldname, value):
        # Unchecked, each would pass construction and fail deep in the
        # pipeline, with an AttributeError or a TypeError from the sort or
        # the index pattern, or render as a binding like `None = Ann`.
        # A name's index is only compared with its surface; a pronoun's
        # is matched against the A-series pattern.
        kind = MarkerKind.PRONOUN if fieldname == "index" else MarkerKind.NAME
        entity = Entity("ANN") if kind is MarkerKind.NAME else None
        fields = {"surface": "Ann", "kind": kind, "gf": SUBJ, "agr": FEM, "entity": entity, fieldname: value}
        with pytest.raises(MarkerError) as err:
            ReferenceMarker(**fields)
        assert err.value.fieldname == fieldname

    def test_utterance_sorts_and_rejects_duplicate_mids(self):
        u = utt("x", pronoun("her", index="A2", gf=OBJ), pronoun("She", index="A1", gf=SUBJ))
        assert [m.index for m in u.markers] == ["A1", "A2"]
        with pytest.raises(ValueError):
            utt("x", pronoun("she", mid="m"), pronoun("her", mid="m"))


class TestAllocateIndices:
    def test_first_pronoun_gets_a1(self):
        u1, u2 = allocate_indices([
            utt("She left.", pronoun("She", agr=FEM)),
            utt("She came back.", pronoun("She", agr=FEM), position=2),
        ])
        assert u1.markers[0].index == "A1"
        assert u2.markers[0].index == "A2"

    def test_series_continue_in_marker_order(self):
        u = utt(
            "She often beats her.",
            pronoun("her", gf=OBJ, agr=FEM, mid="her"),
            pronoun("She", gf=SUBJ, agr=FEM, mid="she"),
            position=2,
        )
        _, out = allocate_indices([utt("x", pronoun("she", index="A8")), u])
        assert [(m.mid, m.index) for m in out.markers] == [("she", "A9"), ("her", "A10")]

    def test_indefinites_draw_from_x_series(self):
        (u,) = allocate_indices([utt("a car", indefinite("Alfa Romeo"))])
        m = u.markers[0]
        assert m.index == "X1"
        # Anonymous indefinites come back bound to a fresh entity.
        assert m.entity is not None
        assert (m.entity.id, m.entity.name) == (m.index, "Alfa Romeo")

    def test_explicit_indices_advance_counters(self):
        # Each utterance's explicit indices pull the counter forward before
        # its own fresh ones are drawn.
        u1 = utt("x", pronoun("She", index="A7", agr=FEM), pronoun("her", gf=OBJ, agr=FEM), position=1)
        u2 = utt("y", pronoun("her", agr=FEM), position=2)
        out1, out2 = allocate_indices([u1, u2])
        assert [m.index for m in out1.markers] == ["A7", "A8"]
        assert out2.markers[0].index == "A9"

    def test_fresh_index_skips_an_explicit_index_of_a_later_utterance(self):
        u1 = utt("x", pronoun("She", agr=FEM), indefinite("a car"), position=1)
        u2 = utt("y", pronoun("her", index="A1", agr=FEM), indefinite("a dog", index="X1"), position=2)
        out1, out2 = allocate_indices([u1, u2])
        assert [m.index for m in out1.markers] == ["A2", "X2"]
        assert [m.index for m in out2.markers] == ["A1", "X1"]

    def test_duplicate_explicit_index_rejected(self):
        u1 = utt("x", pronoun("She", index="A7", agr=FEM))
        u2 = utt("y", pronoun("her", index="A7", agr=FEM), position=2)
        with pytest.raises(ValueError, match="A7"):
            allocate_indices([u1, u2])

    def test_anonymous_indefinite_index_must_not_be_an_entity_id(self):
        car = indefinite("a car", index="X1", mid="car")
        for discourse in (
            [utt("x", name("Ann", "X1")), utt("y", car, position=2)],
            [utt("y", car), utt("x", name("Ann", "X1"), position=2)],
        ):
            with pytest.raises(ValueError, match="X1"):
                allocate_indices(discourse)
        # With an entity of its own, its index only labels it.
        owned = indefinite("a car", "CAR", index="X1")
        assert allocate_indices([utt("x", name("Ann", "X1")), utt("y", owned, position=2)])

    def test_only_markers_missing_something_are_rebuilt(self):
        indexed = utt("x", name("Carl", "POLLARD"), pronoun("he", index="A1", gf=OBJ),
                      indefinite("a car", "CAR", index="X1"))
        assert allocate_indices([indexed])[0] is indexed
        partly = utt("y", name("Carl", "POLLARD"), pronoun("he", gf=OBJ))
        (out,) = allocate_indices([partly])
        assert out.markers[0] is partly.markers[0]
        assert out.markers[1].index == "A1" and out.markers[1].mid == "he"

    def test_names_are_untouched(self):
        # A name's index is its surface, which reserves nothing in a series.
        u = utt("x", name("A1", "ROBOT", agr=NEUT), pronoun("it", gf=OBJ, agr=NEUT))
        (out,) = allocate_indices([u])
        assert out.markers[0] is u.markers[0] and out.markers[0].index == "A1"
        assert out.markers[1].index == "A1"


def test_obliqueness_total_order():
    ranks = list(GrammaticalFunction)
    assert ranks == sorted(ranks)
    assert ranks[0] is GrammaticalFunction.SUBJECT
    assert ranks[-1] is GrammaticalFunction.ADJUNCT


def _value_types(base=Value):
    """Every Value subclass, at any depth."""
    for cls in base.__subclasses__():
        yield cls
        yield from _value_types(cls)


def test_every_value_type_is_a_value_of_its_fields():
    # Each type checks its own fields and sets them once; afterwards it
    # compares, hashes, pickles and copies as its fields, and no field
    # can be assigned. One value and an unequal one per type, from fig4.
    doc = load_bundled("fig4")
    first, *_, last = process_document(doc)
    grid, verdicts, ranked = last.anchors, last.verdicts, last.ranked
    markers = last.utterance.markers
    brennan = Entity("BRENNAN", "Brennan")
    cases = {
        Agreement: (FEM, MASC),
        Entity: (brennan, Entity("FRIEDMAN", "Brennan")),
        ReferenceMarker: (markers[0], markers[1]),
        Utterance: (last.utterance, first.utterance),
        CfEntry: (last.cf[0], last.cf[1]),
        FilterVerdict: tuple(verdicts)[:2],
        UtteranceResult: (last, first),
        CorpusUtterance: (doc.utterances[-1], doc.utterances[0]),
        CorpusDocument: (doc, CorpusDocument(doc.id, Mode.CLASSIC, doc.utterances)),
        AnchorGrid: (grid, first.anchors),
        FilterVerdicts: (verdicts, first.verdicts),
        Ranking: (ranked, first.ranked),
    }
    assert set(cases) == set(_value_types())
    for value, other in cases.values():
        assert_value_by_fields(value, other)
    # An entity's fields are its id: a new name makes no new entity.
    renamed = Entity("BRENNAN", "she")
    assert renamed == brennan and hash(renamed) == hash(brennan)


def test_every_value_type_sets_its_fields_through_its_slot_setters():
    # Construction skips the guard by calling the class's own slot
    # descriptors' __set__, in __slots__ order; no __init__ goes through
    # a __setattr__, the guard's or object's.
    for cls in _value_types():
        descriptors = [cls.__dict__[name] for name in cls.__slots__]
        assert [s.__self__ for s in cls._setters] == descriptors, cls
        assert all(s.__name__ == "__set__" for s in cls._setters), cls
        assert "__setattr__" not in cls.__init__.__code__.co_names, cls
