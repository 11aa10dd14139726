import copy
import gc
import hashlib
import pickle
import random
import tracemalloc
from itertools import product

import pytest

from centering import (
    Agreement,
    AnchorBudgetExceeded,
    AnchorGrid,
    UnresolvablePronoun,
    propose_anchors,
    run_filters,
)
from centering import construction
from centering.construction import pronoun_candidates
from support import (
    FEM,
    MASC,
    OBJ,
    OBJ2,
    OTHER,
    SUBJ,
    Anchor,
    anchors_of,
    cf_of,
    name,
    oracle_enumerate_anchors,
    pronoun,
    race_scene,
    random_scene,
    utt,
)


def columns(grid):
    """A grid's Cf lists, read through `cf_list` one column at a time."""
    return [grid.cf_list(column) for column in range(grid.width)]


def bound_pronouns(u, prior_cf):
    """Indices of the pronouns each proposed Cf list binds, in slot order."""
    return {
        tuple(e.marker.index for e in cf if e.marker.is_pronoun)
        for cf in columns(propose_anchors(u, prior_cf))
    }


class TestCollectPronouns:
    def test_two_pronouns_in_order(self):
        prior_cf, u, _ = race_scene()
        assert bound_pronouns(u, prior_cf) == {("A9", "A10")}

    def test_no_pronouns(self):
        u = utt("Carl works at HP.", name("Carl", "POLLARD", agr=MASC))
        assert bound_pronouns(u, ()) == {()}

    def test_subject_pronoun_first(self):
        prior = cf_of(name("Carl", "POLLARD", agr=MASC), name("Lyn", "FRIEDMAN", gf=OBJ, agr=FEM))
        u = utt(
            "He promised to get her a raise.",
            pronoun("her", index="A3", gf=OBJ, agr=FEM),
            pronoun("He", index="A2", gf=SUBJ, agr=MASC),
        )
        assert bound_pronouns(u, prior) == {("A2", "A3")}


class TestPronounCandidates:
    def test_agreement_prunes_prior_centers(self):
        prior_cf, u, _ = race_scene()
        she = u.markers[0]
        assert [e.id for e in pronoun_candidates(she, prior_cf)] == ["FRIEDMAN", "BRENNAN"]

    def test_both_masculine_candidates_offered(self):
        prior = cf_of(
            name("Max", "PLANCK", gf=SUBJ, agr=MASC),
            name("Fred", "FLINTSTONE", gf=OTHER, agr=MASC),
        )
        him = pronoun("him", index="A3", gf=OBJ, agr=MASC)
        assert [e.id for e in pronoun_candidates(him, prior)] == ["PLANCK", "FLINTSTONE"]

    def test_empty_prior_cf(self):
        she = pronoun("she", index="A1", agr=FEM)
        assert pronoun_candidates(she, ()) == []

    def test_duplicate_prior_entity_listed_once(self):
        prior = cf_of(
            name("Max", "PLANCK", gf=SUBJ, agr=MASC, mid="m1"),
            name("Max", "PLANCK", gf=OBJ, agr=MASC, mid="m2"),
        )
        he = pronoun("he", index="A1", agr=MASC)
        assert [e.id for e in pronoun_candidates(he, prior)] == ["PLANCK"]


class TestGridCfLists:
    def test_canonical_order_of_four(self):
        prior_cf, u, _ = race_scene()
        lists = columns(propose_anchors(u, prior_cf))
        got = [tuple(e.entity.id for e in cf) for cf in lists]
        assert got == [
            ("FRIEDMAN", "FRIEDMAN"),
            ("FRIEDMAN", "BRENNAN"),
            ("BRENNAN", "FRIEDMAN"),
            ("BRENNAN", "BRENNAN"),
        ]

    def test_no_pronouns_single_fixed_list(self):
        u = utt("Carl works.", name("Carl", "POLLARD", agr=MASC))
        lists = columns(propose_anchors(u, ()))
        assert len(lists) == 1
        assert [e.entity.id for e in lists[0]] == ["POLLARD"]

    def test_mixed_candidate_sizes(self):
        # Three pronouns with 2, 1 and 2 candidates -> 4 assignments,
        # matching a hand enumeration of the cross product.
        prior = cf_of(
            name("Ann", "ANN", gf=SUBJ, agr=FEM),
            name("Ben", "BEN", gf=OBJ, agr=MASC),
            name("Eve", "EVE", gf=OBJ2, agr=FEM),
        )
        u = utt(
            "x",
            pronoun("she", index="A1", gf=SUBJ, agr=FEM),
            pronoun("he", index="A2", gf=OBJ, agr=MASC),
            pronoun("her", index="A3", gf=OBJ2, agr=FEM),
        )
        lists = columns(propose_anchors(u, prior))
        assert len(lists) == 4
        oracle = oracle_enumerate_anchors(u, prior)
        assert len(lists) == len(oracle) // (len(prior) + 1)

    def test_unresolvable_pronoun_reports_marker(self):
        prior = cf_of(name("HP", "HP", gf=SUBJ, agr=Agreement("neut", "sg", "3")))
        u = utt("She left.", pronoun("She", index="A1", agr=FEM))
        with pytest.raises(UnresolvablePronoun) as err:
            propose_anchors(u, prior)
        assert "A1" in str(err.value)


class TestProposeAnchors:
    def test_sixteen_for_the_race_scene(self):
        prior_cf, u, _ = race_scene()
        anchors = anchors_of(propose_anchors(u, prior_cf))
        assert len(anchors) == 16
        assert [a.ordinal for a in anchors] == list(range(1, 17))
        # cb-major layout: the first four share the top prior center.
        assert [a.cb.entity.id for a in anchors[:4]] == ["FRIEDMAN"] * 4
        assert [a.cb.entity.id for a in anchors[4:8]] == ["BRENNAN"] * 4
        assert [a.cb.entity.id for a in anchors[8:12]] == ["WEEKEND"] * 4
        assert [a.cb for a in anchors[12:]] == [None] * 4
        # Within one cb block, assignments iterate the later pronoun fastest.
        assert [tuple(e.entity.id for e in a.cf) for a in anchors[:4]] == [
            ("FRIEDMAN", "FRIEDMAN"),
            ("FRIEDMAN", "BRENNAN"),
            ("BRENNAN", "FRIEDMAN"),
            ("BRENNAN", "BRENNAN"),
        ]

    def test_no_pronoun_count(self):
        prior = cf_of(
            name("Ann", "ANN", gf=SUBJ, agr=FEM),
            name("Ben", "BEN", gf=OBJ, agr=MASC),
        )
        u = utt("Cam arrived.", name("Cam", "CAM", agr=MASC))
        anchors = propose_anchors(u, prior)
        assert len(anchors) == 3 == len(oracle_enumerate_anchors(u, prior))

    def test_discourse_initial_single_nil_anchor(self):
        u = utt("Carl works.", name("Carl", "POLLARD", agr=MASC))
        anchors = anchors_of(propose_anchors(u, ()))
        assert len(anchors) == 1
        assert anchors[0].cb is None

    def test_every_marker_realized_exactly_once(self):
        prior_cf, u, _ = race_scene()
        for anchor in anchors_of(propose_anchors(u, prior_cf)):
            assert [e.marker.mid for e in anchor.cf] == [m.mid for m in u.markers]

    def test_deterministic(self):
        prior_cf, u, _ = race_scene()
        assert propose_anchors(u, prior_cf) == propose_anchors(u, prior_cf)


def test_anchor_count_law_randomized():
    rng = random.Random(421)
    for _ in range(300):
        prior_cf, u = random_scene(rng)
        oracle = oracle_enumerate_anchors(u, prior_cf)
        pronouns = [m for m in u.markers if m.is_pronoun]
        if not oracle and pronouns:
            with pytest.raises(UnresolvablePronoun):
                propose_anchors(u, prior_cf)
            continue
        anchors = propose_anchors(u, prior_cf)
        assert len(anchors) == len(oracle)
        expected = len(prior_cf) + 1
        for p in pronouns:
            expected *= len(pronoun_candidates(p, prior_cf))
        assert len(anchors) == expected
        # No anchor binds a pronoun against agreement.
        for anchor in anchors_of(anchors):
            assert _oracle_key(anchor) in oracle


def _oracle_key(anchor):
    return (
        anchor.cb.entity.id if anchor.cb else None,
        tuple(e.entity.id for e in anchor.cf if e.marker.is_pronoun),
    )


def _scene_grids(rng, count):
    """`count` random scenes that construct: each one's prior Cf list,
    utterance and anchor grid."""
    out = []
    while len(out) < count:
        prior_cf, u = random_scene(rng)
        try:
            out.append((prior_cf, u, propose_anchors(u, prior_cf)))
        except UnresolvablePronoun:
            continue
    return out


def test_anchor_grid_against_the_oracle_randomized():
    for prior_cf, u, grid in _scene_grids(random.Random(9090), 200):
        oracle = oracle_enumerate_anchors(u, prior_cf)
        # Center-major, the Cf lists varying fastest.
        expected = [
            Anchor(cb, cf, ordinal)
            for ordinal, (cb, cf) in enumerate(
                ((cb, cf) for cb in grid.cbs for cf in columns(grid)), start=1
            )
        ]
        assert [_oracle_key(a) for a in expected] == oracle
        assert len(grid) == len(expected) and anchors_of(grid) == expected


def test_anchor_budget_is_checked_against_the_count(monkeypatch):
    # The race scene makes 16 anchors: at a limit of 16 they are built,
    # at 15 the utterance is refused.
    prior_cf, u, _ = race_scene()
    monkeypatch.setattr(construction, "MAX_ANCHORS", 16)
    assert len(propose_anchors(u, prior_cf)) == 16
    monkeypatch.setattr(construction, "MAX_ANCHORS", 15)
    with pytest.raises(AnchorBudgetExceeded, match="^16 anchors would exceed the limit of 15$"):
        propose_anchors(u, prior_cf)


def test_anchor_budget_refuses_a_count_past_the_index_range():
    # Two names, then 64 pronouns: 3 * 2**64 anchors, more than len() can
    # return. The utterance is refused like any other over the budget.
    prior = cf_of(name("Ann", "ANN", agr=FEM), name("Bea", "BEA", gf=OBJ, agr=FEM))
    u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in range(1, 65)))
    with pytest.raises(AnchorBudgetExceeded, match=f"^{3 * 2**64:,} anchors would exceed the limit of 1,000,000$"):
        propose_anchors(u, prior)


def test_empty_anchor_grid():
    # No center, or a slot without entries, which leaves no Cf list: the
    # engine's fallback results carry a grid with neither. No slot at all
    # leaves one Cf list, the empty one.
    prior_cf, _, _ = race_scene()
    for grid in (AnchorGrid((), ((),)), AnchorGrid((*prior_cf, None), (prior_cf, ())), AnchorGrid((), ())):
        assert not grid and anchors_of(grid) == []
    assert AnchorGrid((), ((),)).width == 0 and AnchorGrid((), ()).width == 1
    assert columns(AnchorGrid((), ((),))) == [] and AnchorGrid((), ()).cf_list(0) == ()
    unmarked = AnchorGrid((*prior_cf, None), ())
    assert unmarked and len(unmarked) == 4 and [a.cf for a in anchors_of(unmarked)] == [()] * 4
    assert AnchorGrid((), ((),)) == AnchorGrid([], [[]]) != AnchorGrid((), ())


def test_cf_lists_are_the_product_of_the_slots():
    # One slot per marker, in marker order: a pronoun's holds an entry per
    # candidate, any other marker's its one entry.
    for _, u, grid in _scene_grids(random.Random(4242), 200):
        expected = list(product(*grid.slots))
        assert columns(grid) == expected and grid.width == len(expected)
        assert len(grid.slots) == len(u.markers)
        for m, slot in zip(u.markers, grid.slots):
            assert type(slot) is tuple and all(e.marker is m for e in slot)
            assert m.is_pronoun or len(slot) == 1
        # The Cf lists hold their slots' very entries.
        assert all(e is x for cf, want in zip(columns(grid), expected) for e, x in zip(cf, want))
        for column in (-1, grid.width):
            with pytest.raises(IndexError):
                grid.cf_list(column)


def test_cf_list_decodes_a_column_of_a_grid_too_wide_to_enumerate():
    # 62 slots of two entries: 2**62 Cf lists. Reading a column by its
    # digits takes one step per slot; enumerating up to it would not end.
    prior_cf, _, _ = race_scene()
    first, second = prior_cf[:2]
    grid = AnchorGrid((None,), [(first, second)] * 62)
    assert grid.width == len(grid) == 2**62 and grid
    assert grid.cf_list(2**62 - 1) == (second,) * 62
    assert grid.cf_list(2**61 + 1) == (second,) + (first,) * 60 + (second,)
    # Past sys.maxsize len() overflows, a CPython limit; truth and the
    # counts it is made of still read.
    wide = AnchorGrid((None,), [(first, second)] * 64)
    with pytest.raises(OverflowError):
        len(wide)
    assert wide and len(wide.cbs) * wide.width == 2**64
    assert wide.cf_list(2**64 - 1) == (second,) * 64


def test_anchor_grid_survives_pickling():
    for _, _, grid in _scene_grids(random.Random(4343), 50):
        back = pickle.loads(pickle.dumps(grid))
        assert back == grid and back.slots == grid.slots and columns(back) == columns(grid)
        assert anchors_of(back) == anchors_of(grid)


def test_anchor_grid_pickles_and_copies_without_its_cf_lists():
    # Six names, then four pronouns: 9,072 anchors. The Cf lists are read
    # from the slots, so the grid holds none to store.
    prior = cf_of(*(name(f"N{i}", f"N{i}", agr=FEM) for i in range(6)))
    u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in range(1, 5)))
    grid = propose_anchors(u, prior)
    pickled = pickle.dumps(grid)
    assert len(grid) == 9072 and len(pickled) < 2000
    assert not hasattr(grid, "cf_lists") and "cf_lists" not in repr(grid)
    for back in (pickle.loads(pickled), copy.copy(grid), copy.deepcopy(grid)):
        assert back == grid and hash(back) == hash(grid) and back.width == grid.width
        assert columns(back) == columns(grid) == list(product(*back.slots))


def test_a_grid_keeps_its_slots_and_no_cf_list():
    # Six names, then six pronouns: 46,656 Cf lists over 36 slot entries.
    # Building the Cf lists would keep megabytes; the slots keep a few KB.
    prior = cf_of(*(name(f"N{i}", f"N{i}", agr=FEM) for i in range(6)))
    u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in range(1, 7)))
    propose_anchors(u, prior)  # warms up what a first build allocates once
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        grid = propose_anchors(u, prior)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.width == 6**6 and len(grid) == 7 * 6**6
    assert after - before < 16 * 2**10, after - before


def _verdicts_and_bytes_retained(prior, u):
    """The verdicts `run_filters` returns on `u` after `prior`, and the
    bytes they retain, by `tracemalloc`."""
    grid = propose_anchors(u, prior)
    run_filters(grid)  # warms up what a first call allocates once
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        survivors, verdicts = run_filters(grid)
        del survivors
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return verdicts, after - before


def test_verdicts_keep_a_selector_per_center_entity_and_write_masks_on_call():
    # Six `she` after six agreeing names and six names they cannot agree
    # with: 13 center rows of 6**6 Cf lists. The verdicts keep `failed` and
    # a pass selector per entity a pronoun binds, 7 selectors of 6**6
    # bytes, not the 13 rows' verdict bytes; each call of `masks()` writes
    # them afresh.
    prior = cf_of(
        *(name(f"F{i}", f"F{i}", agr=FEM) for i in range(6)), *(name(f"M{i}", f"M{i}", agr=MASC) for i in range(6))
    )
    u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in range(1, 7)))
    verdicts, retained = _verdicts_and_bytes_retained(prior, u)
    assert len(verdicts) == 13 * 6**6
    assert retained < 7 * 1.1 * 6**6, retained
    masks = verdicts.masks()
    assert masks is not verdicts.masks() and masks == verdicts.masks()
    # The masks as every earlier version wrote them: 6**6 survivors, and
    # each other anchor eliminated by constraint 3 alone or with rule 1.
    assert [masks.count(mask) for mask in range(8)] == [6**6, 0, 139530, 0, 0, 0, 420342, 0]
    assert hashlib.sha256(masks).hexdigest() == "d6ced283d0c5b9008e971f0b321f04dcd8b8b10aefe9b371896f17297a46e3bd"


def test_verdicts_retain_at_most_a_tenth_more_than_masks_where_every_row_is_bound():
    # Six `she` after six agreeing names: the 7 center rows are the 6
    # entities the pronouns bind and the null center's, so the verdicts
    # keep 7 selectors of 6**6 bytes, as many as the 326,592 bytes of
    # masks that earlier versions kept. A Python int's 30-bit digits cost
    # about 7 % over bytes; the selectors may cost no more than 10 %.
    prior = cf_of(*(name(f"N{i}", f"N{i}", agr=FEM) for i in range(6)))
    u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in range(1, 7)))
    verdicts, retained = _verdicts_and_bytes_retained(prior, u)
    assert len(verdicts) == len(verdicts.masks()) == 7 * 6**6
    assert retained < 1.1 * 7 * 6**6, retained
