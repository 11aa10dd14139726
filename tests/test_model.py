import pytest

from centering import (
    Agreement,
    DiscourseState,
    Entity,
    EntityKind,
    GrammaticalFunction,
    MarkerKind,
    ReferenceMarker,
    allocate_indices,
    rank_markers,
    unify_agreement,
)
from support import ADJ, FEM, MASC, NEUT, OBJ, OTHER, SUBJ, indefinite, name, pronoun, utt


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

    def test_bad_feature_rejected(self):
        with pytest.raises(ValueError):
            Agreement("female", "sg", "3")


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
        a7 = Entity("BRENNAN", EntityKind.NAMED, "Brennan")
        a8 = Entity("BRENNAN", EntityKind.NAMED, "she")
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

    def test_self_contraindexing_rejected(self):
        with pytest.raises(ValueError):
            pronoun("she", index="A1", contra={"A1"})

    def test_utterance_sorts_and_rejects_duplicate_mids(self):
        u = utt("x", pronoun("her", index="A2", gf=OBJ), pronoun("She", index="A1", gf=SUBJ))
        assert [m.index for m in u.markers] == ["A1", "A2"]
        with pytest.raises(ValueError):
            utt("x", pronoun("she", mid="m"), pronoun("her", mid="m"))


class TestAllocateIndices:
    def test_first_pronoun_gets_a1(self):
        state = DiscourseState()
        u = allocate_indices(utt("She left.", pronoun("She", agr=FEM)), state)
        assert u.markers[0].index == "A1"
        assert state.pronoun_count == 1

    def test_series_continue_in_marker_order(self):
        state = DiscourseState()
        state.pronoun_count = 8
        state.used_indices = {f"A{i}" for i in range(1, 9)}
        u = utt(
            "She often beats her.",
            pronoun("She", gf=SUBJ, agr=FEM, mid="she"),
            pronoun("her", gf=OBJ, agr=FEM, mid="her"),
        )
        out = allocate_indices(u, state)
        assert [m.index for m in out.markers] == ["A9", "A10"]

    def test_indefinites_draw_from_x_series(self):
        state = DiscourseState()
        u = allocate_indices(utt("a car", indefinite("Alfa Romeo")), state)
        m = u.markers[0]
        assert m.index.startswith("X")
        # Anonymous indefinites come back bound to a fresh entity.
        assert m.entity is not None
        assert m.entity.id == m.index
        assert m.entity.kind is EntityKind.INDEFINITE
        assert m.entity.name == "Alfa Romeo"

    def test_explicit_indices_advance_counters(self):
        state = DiscourseState()
        u1 = utt("x", pronoun("She", index="A7", agr=FEM), position=1)
        allocate_indices(u1, state)
        u2 = allocate_indices(utt("y", pronoun("her", agr=FEM), position=2), state)
        assert u2.markers[0].index == "A8"

    def test_duplicate_explicit_index_rejected(self):
        state = DiscourseState()
        allocate_indices(utt("x", pronoun("She", index="A7", agr=FEM)), state)
        with pytest.raises(ValueError):
            allocate_indices(utt("y", pronoun("her", index="A7", agr=FEM), position=2), state)

    def test_only_markers_missing_something_are_rebuilt(self):
        indexed = utt("x", name("Carl", "POLLARD"), pronoun("he", index="A1", gf=OBJ),
                      indefinite("a car", "CAR", index="X1"))
        assert allocate_indices(indexed, DiscourseState()) is indexed
        partly = utt("y", name("Carl", "POLLARD"), pronoun("he", gf=OBJ))
        out = allocate_indices(partly, DiscourseState())
        assert out.markers[0] is partly.markers[0]
        assert out.markers[1].index == "A1" and out.markers[1].mid == "he"

    def test_names_are_untouched(self):
        state = DiscourseState()
        u = allocate_indices(utt("x", name("Carl", "POLLARD", agr=MASC)), state)
        assert u.markers[0].index == "Carl"
        assert state.used_indices == set()


def test_obliqueness_total_order():
    ranks = list(GrammaticalFunction)
    assert ranks == sorted(ranks)
    assert ranks[0] is GrammaticalFunction.SUBJECT
    assert ranks[-1] is GrammaticalFunction.ADJUNCT
