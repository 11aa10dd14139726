import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from centering import (
    Agreement,
    AnchorGrid,
    NO_PRIOR,
    FilterVerdicts,
    GrammaticalFunction,
    Ranking,
    ReferenceMarker,
    SurvivorRows,
    UnresolvablePronoun,
    UtteranceResult,
    bundled_corpora,
    load_bundled,
    process_document,
    propose_anchors,
    rank_and_select,
    render_trace,
    run_filters,
)
from support import (
    FEM,
    MASC,
    OBJ,
    SUBJ,
    Anchor,
    anchors_of,
    assert_value_by_fields,
    bind,
    cf_lists_of,
    cf_of,
    filtered_in_every_order,
    line_events,
    name,
    oracle_constraint3,
    oracle_contra,
    oracle_rule1,
    pronoun,
    race_scene,
    random_scene,
    reference_filters,
    stages,
    survivors_of,
    utt,
)


@pytest.fixture()
def scene():
    prior_cf, u, prev_cb = race_scene()
    return prior_cf, u, stages(u, prior_cf, prev_cb)


@pytest.fixture()
def grid_scene():
    prior_cf, u, _ = race_scene()
    return prior_cf, u, propose_anchors(u, prior_cf)


class TestContraindex:
    def test_eliminates_co_bound_contraindexed_pairs(self, scene):
        prior_cf, u, s = scene
        eliminated = {a.ordinal for a in s.anchors if not oracle_contra(a, u)}
        assert eliminated == {1, 4, 5, 8, 9, 12, 13, 16} == {k for k, by in s.eliminated.items() if "contra" in by}

    def test_distinct_binding_passes(self, scene):
        prior_cf, u, s = scene
        assert oracle_contra(s.anchors[1], u)  # anchor ii

    def test_vacuous_without_contra_sets(self):
        prior = cf_of(name("Ann", "ANN", agr=FEM), name("Eve", "EVE", gf=OBJ, agr=FEM))
        u = utt(
            "x",
            pronoun("she", index="A1", gf=SUBJ, agr=FEM),
            pronoun("her", index="A2", gf=OBJ, agr=FEM),
        )
        for anchor in stages(u, prior).anchors:
            assert oracle_contra(anchor, u)


class TestConstraint3:
    def test_center_must_top_the_realized_prior_entities(self, scene):
        prior_cf, u, s = scene
        eliminated = {a.ordinal for a in s.anchors if not oracle_constraint3(a, prior_cf)}
        # The stated constraint also removes anchor vi (its Cf realizes the
        # higher-ranked FRIEDMAN while centering BRENNAN), and iv/v/vii;
        # the survivor set is unaffected.
        assert 6 in eliminated
        assert eliminated == {4, 5, 6, 7} | set(range(9, 17))
        assert eliminated == {k for k, by in s.eliminated.items() if "constraint3" in by}

    def test_nothing_realized_requires_null_center(self):
        prior = cf_of(name("Ann", "ANN", agr=FEM))
        cam = name("Cam", "CAM", agr=MASC)
        u = utt("Cam arrived.", cam)
        nil = Anchor(None, cf_of(cam), 2)
        assert oracle_constraint3(nil, prior)
        non_nil = Anchor(bind(prior[0].marker, prior[0].entity), cf_of(cam), 1)
        assert not oracle_constraint3(non_nil, prior)

    def test_empty_prior_with_null_center_passes(self):
        cam = name("Cam", "CAM", agr=MASC)
        assert oracle_constraint3(Anchor(None, cf_of(cam), 1), ())


class TestRule1:
    def test_eliminates_noncenter_pronoun_realizations(self, scene):
        prior_cf, u, s = scene
        eliminated = {a.ordinal for a in s.anchors if not oracle_rule1(a, prior_cf)}
        assert eliminated >= set(range(9, 17))
        assert eliminated == {4, 5} | set(range(9, 17)) == {k for k, by in s.eliminated.items() if "rule1" in by}

    def test_center_realized_as_pronoun_passes(self):
        # "She doesn't believe him" keeping the previous center via "him".
        prior = cf_of(
            name("Carl", "POLLARD", gf=SUBJ, agr=MASC),
            name("Lyn", "FRIEDMAN", gf=OBJ, agr=FEM),
        )
        u = utt(
            "She doesn't believe him.",
            pronoun("She", index="A4", gf=SUBJ, agr=FEM, contra={"A5"}),
            pronoun("him", index="A5", gf=OBJ, agr=MASC, contra={"A4"}),
        )
        anchors = stages(u, prior).anchors
        keep_carl = [a for a in anchors if a.cb and a.cb.entity.id == "POLLARD"]
        assert keep_carl and all(oracle_rule1(a, prior) for a in keep_carl)

    def test_vacuous_without_pronouns(self):
        prior = cf_of(name("Ann", "ANN", agr=FEM))
        cam = name("Cam", "CAM", agr=MASC)
        assert oracle_rule1(Anchor(None, cf_of(cam), 2), prior)


class TestRunFilters:
    def test_survivors_are_ii_and_iii(self, grid_scene):
        prior_cf, u, anchors = grid_scene
        survivors, verdicts = run_filters(anchors)
        assert [a.ordinal for a in anchors_of(anchors, survivors)] == [2, 3]
        assert len(verdicts) == 16
        by_id = {v.anchor_id: v.eliminated_by for v in verdicts}
        assert by_id[1] == {"contra"}
        assert by_id[6] == {"constraint3"}
        assert by_id[16] == {"contra", "constraint3", "rule1"}

    def test_empty_input(self):
        # The scene's slots without a center, and its centers with a
        # pronoun's slot emptied: a pronoun without candidates leaves no
        # Cf list.
        prior, u, _ = race_scene()
        scene = propose_anchors(u, prior)
        for grid in (AnchorGrid((), scene.slots), AnchorGrid(scene.cbs, (scene.slots[0], ()))):
            survivors, verdicts = run_filters(grid)
            assert survivors == survivors_of((), grid) and not survivors and len(survivors) == 0
            assert anchors_of(grid, survivors) == []
            assert len(verdicts) == 0 and list(verdicts) == []
            assert verdicts.masks() == b""

    def test_decides_a_grid_that_does_not_match_the_utterance(self):
        # After "Ann met Bea.": a grid without slots for a two-pronoun
        # utterance, and grids whose slot for a name holds no entry or two.
        # Each is decided from the grid alone, as the per-anchor oracles
        # decide its anchors.
        prior = cf_of(name("Ann", "ANN", agr=FEM), name("Bea", "BEA", gf=OBJ, agr=FEM))
        two = utt("She met her.", pronoun("She", index="A1", agr=FEM), pronoun("her", index="A2", gf=OBJ, agr=FEM))
        named = utt("Ann met her.", name("Ann", "ANN", agr=FEM), pronoun("her", index="A3", gf=OBJ, agr=FEM))
        grid = propose_anchors(named, prior)
        cases = [
            # One empty Cf list under each center: only the null center passes.
            (AnchorGrid((*prior, None), ()), two, (2,)),
            (AnchorGrid(grid.cbs, ((), grid.slots[1])), named, ()),
            (AnchorGrid(grid.cbs, (prior, grid.slots[1])), named, (0, 2, 7)),
        ]
        for variant, u, expected_survivors in cases:
            survivors, verdicts = run_filters(variant)
            _, expected = _per_anchor_verdicts(anchors_of(variant), prior, u)
            assert [(v.anchor_id, v.passed, v.eliminated_by) for v in verdicts] == expected
            assert survivors == survivors_of(expected_survivors, variant) and len(verdicts) == len(variant)
            assert tuple(survivors) == expected_survivors

    def test_verdicts_iterate_in_ordinal_order(self, grid_scene):
        prior_cf, u, anchors = grid_scene
        _, verdicts = run_filters(anchors)
        listed = list(verdicts)
        assert [v.anchor_id for v in listed] == list(range(1, 17))
        assert [bool(m) for m in verdicts.masks()] == [not v.passed for v in listed]

    def test_survivors_are_grid_positions(self, grid_scene):
        prior_cf, u, anchors = grid_scene
        survivors, _ = run_filters(anchors)
        assert survivors == survivors_of((2, 1), anchors) and tuple(survivors) == (1, 2)
        assert len(survivors) == 2 and anchors_of(anchors, survivors) == anchors_of(anchors)[1:3]
        # The opener reading is carried by the ranking's transitions, not the survivors.
        _, as_opener, _ = rank_and_select(survivors, anchors, NO_PRIOR)
        _, as_follower, _ = rank_and_select(survivors, anchors, None)
        assert as_opener.positions == as_follower.positions and as_opener.sizes != as_follower.sizes

    def test_order_invariance_against_sequential_application(self, grid_scene):
        prior_cf, u, anchors = grid_scene
        survivors, _ = run_filters(anchors)
        for remaining in filtered_in_every_order(anchors_of(anchors), prior_cf, u):
            assert remaining == anchors_of(anchors, survivors)


def test_a_render_writes_each_results_masks_once(monkeypatch):
    # Each call of `masks()` writes them afresh, so a render calls it once
    # a result, though --dump-anchors and --explain both list its verdicts.
    written = FilterVerdicts.masks
    calls = Counter()

    def counted(verdicts):
        calls["masks"] += 1
        return written(verdicts)

    monkeypatch.setattr(FilterVerdicts, "masks", counted)
    for corpus in bundled_corpora():
        results = process_document(load_bundled(corpus))
        for format, flags in (("figure", {"dump_anchors": True, "explain": True}), ("structured", {})):
            calls.clear()
            render_trace(results, format, **flags)
            assert calls["masks"] == len(results), (corpus, format)


def test_grid_values_compare_by_fields():
    # The grid, verdicts and ranking of the 16-anchor scene compare, hash
    # and print by their fields.
    prior_cf, u, prev_cb = race_scene()
    grid = propose_anchors(u, prior_cf)
    survivors, verdicts = run_filters(grid)
    _, ranked, _ = rank_and_select(survivors, grid, prev_cb)
    eliminated = {1: {"contra"}, 2: set(), 3: set(), 6: {"constraint3"}, 16: {"contra", "constraint3", "rule1"}}
    listed = list(verdicts)
    assert [v.anchor_id for v in listed] == list(range(1, 17))
    assert all(listed[k - 1].eliminated_by == names for k, names in eliminated.items())
    assert [bool(m) for m in verdicts.masks()] == [not v.passed for v in listed]
    assert survivors == survivors_of((2, 1), grid) and tuple(survivors) == (1, 2)
    for value in (grid, verdicts, ranked, survivors):
        assert_value_by_fields(value)
    # Equal anchors do not make equal values: a value equals only its own type.
    empty = (
        AnchorGrid((), ()), FilterVerdicts(AnchorGrid((), ()), 0, ()), Ranking(((), (), (), ())), SurvivorRows(1, ())
    )
    for a, b in combinations(empty, 2):
        assert a != b and len(a) == len(b) == 0


def test_pairwise_contraindexing_keeps_survivor_assignments_distinct(scene):
    # With every marker contraindexed against every other, no two survivors
    # can share both the center and the full marker-to-entity assignment;
    # they may still share the same unordered pool of entities (the two
    # surviving readings of the race scene do).
    prior_cf, u, s = scene
    keys = [
        (
            a.cb.entity.id if a.cb else None,
            frozenset((e.marker.mid, e.entity.id) for e in a.cf),
        )
        for a in s.survivors
    ]
    assert len(keys) == len(set(keys))
    for anchor in s.survivors:
        bound = [e.entity.id for e in anchor.cf]
        assert len(bound) == len(set(bound))


def _per_anchor_verdicts(anchors, prior_cf, u):
    """run_filters' contract, stated with the per-anchor oracles."""
    verdicts, survivors = [], []
    for anchor in anchors:
        failed = set()
        if not oracle_contra(anchor, u):
            failed.add("contra")
        if not oracle_constraint3(anchor, prior_cf):
            failed.add("constraint3")
        if not oracle_rule1(anchor, prior_cf):
            failed.add("rule1")
        verdicts.append((anchor.ordinal, not failed, frozenset(failed)))
        if not failed:
            survivors.append(anchor)
    return survivors, verdicts


def _grids(rng, grid, prior_cf):
    """The canonical grid, its slots under re-paired centers, those
    centers over pronoun slots that repeat an entry or hold an equal but
    distinct copy of one, and over slots where one fixed marker may
    realize a second entity."""
    yield grid
    # Centers from anywhere, the slots' own entries included, not just
    # the prior centers; the same center may come back.
    own = [e for slot in grid.slots for e in slot]
    cbs = tuple(rng.choice((None, *prior_cf, *own)) for _ in range(rng.randint(1, 6)))
    yield AnchorGrid(cbs, grid.slots)
    # Repeated Cf lists, and equal but distinct ones.
    slots = [
        [e if rng.random() < 0.5 else bind(e.marker, e.entity) for e in rng.choices(slot, k=2 * len(slot))]
        if slot[0].marker.is_pronoun
        else slot
        for slot in grid.slots
    ]
    yield AnchorGrid(cbs, slots)
    # A fixed marker's slot of two entries, which no utterance's grid
    # holds: the second may bind any entity, its own one included.
    fixed = [i for i, slot in enumerate(grid.slots) if not slot[0].marker.is_pronoun]
    if fixed:
        i = rng.choice(fixed)
        entry = grid.slots[i][0]
        other = rng.choice([e.entity for e in (*prior_cf, *own)])
        yield AnchorGrid(cbs, (*grid.slots[:i], (entry, bind(entry.marker, other)), *grid.slots[i + 1 :]))


def _crowded(rng, u):
    """`u`'s non-pronoun markers and three pronouns of unspecified gender,
    which share every candidate, with each pair of markers contraindexed
    at random."""
    fixed = [m for m in u.markers if not m.is_pronoun]
    markers = fixed + [
        pronoun("pro", index=f"A{j}", gf=rng.choice(list(GrammaticalFunction)), agr=Agreement(None, "sg", "3"), mid=f"c{j}")
        for j in (1, 2, 3)
    ]
    contra = {m.mid: set() for m in markers}
    for a, b in combinations(markers, 2):
        if rng.random() < 0.4:
            contra[a.mid].add(b.mid)
            contra[b.mid].add(a.mid)
    return utt(u.text, *(
        ReferenceMarker(m.surface, m.kind, m.gf, m.agr, contra[m.mid], m.entity, m.index, m.mid) for m in markers
    ), position=u.position)


def _risks(grid, prior_cf, u):
    """The cases a grid holds where a filter decision that looks at the
    Cf lists as a whole could go wrong, worked out one Cf list at a time."""
    risks = set()
    prior_ids = [e.entity.id for e in prior_cf]
    pairs = [(a, b) for a, b in combinations(u.markers, 2) if b.mid in a.contra or a.mid in b.contra]
    for cf in cf_lists_of(grid):
        bound = {e.marker.mid: e.entity.id for e in cf}
        top = next((pid for pid in prior_ids if pid in bound.values()), None)
        if top is not None and top not in {e.entity.id for e in cf if not e.marker.is_pronoun}:
            risks.add("pronoun top ahead of every fixed entity")
        for a, b in pairs:
            if bound[a.mid] == bound[b.mid] and (a.is_pronoun or b.is_pronoun):
                risks.add("pronoun-pronoun contra" if a.is_pronoun and b.is_pronoun else "pronoun-fixed contra")
        if any(e.marker.is_pronoun and e.entity.id not in prior_ids for e in cf):
            risks.add("pronoun bound outside the prior")
    cb_ids = [cb.entity.id if cb is not None else None for cb in grid.cbs]
    if len(set(cb_ids)) < len(cb_ids):
        risks.add("rows sharing a center entity")
    return risks


def test_run_filters_matches_the_per_anchor_predicates_randomized():
    rng = random.Random(5150)
    checked = repeated = 0
    risks = Counter()
    for k in range(500):
        prior_cf, u = random_scene(rng)
        if k >= 400:
            u = _crowded(rng, u)
        try:
            grid = propose_anchors(u, prior_cf)
        except UnresolvablePronoun:
            continue
        # Without the head prior center, some pronouns are bound outside
        # the prior entities.
        for base in (grid, AnchorGrid(grid.cbs[1:], grid.slots)):
            for variant in _grids(rng, base, base.cbs[:-1]):
                # The prior entities are the variant's non-null centers.
                prior = tuple(cb for cb in variant.cbs if cb is not None)
                survivors, verdicts = run_filters(variant)
                expected_survivors, expected = _per_anchor_verdicts(anchors_of(variant), prior, u)
                assert [(v.anchor_id, v.passed, v.eliminated_by) for v in verdicts] == expected
                # The very center and Cf list entries of each survivor.
                assert [(a.ordinal, id(a.cb), [*map(id, a.cf)]) for a in anchors_of(variant, survivors)] == [
                    (a.ordinal, id(a.cb), [*map(id, a.cf)]) for a in expected_survivors
                ]
                risks.update(_risks(variant, prior, u))
                checked += 1
                cf_lists = cf_lists_of(variant)
                repeated += len(set(cf_lists)) < len(cf_lists)
    assert checked > 900 and repeated > 120
    floors = {
        "pronoun top ahead of every fixed entity": 400,
        "pronoun-pronoun contra": 300,
        "pronoun-fixed contra": 200,
        "pronoun bound outside the prior": 300,
        "rows sharing a center entity": 700,
    }
    assert risks.keys() == floors.keys() and all(risks[case] >= floors[case] for case in floors), risks


def test_run_filters_matches_the_position_reference_randomized():
    # The survivors and verdicts equal those of `reference_filters`, which
    # builds each entity's selector by one `int.from_bytes` of its slot's
    # runs and writes the survivors as positions, on the grids of the
    # test above: slots that repeat an entry, so a slot's entity is the
    # OR of its entries' shifted selectors, and fixed slots of two.
    rng = random.Random(3636)
    seen = Counter()
    for k in range(300):
        prior_cf, u = random_scene(rng)
        if k >= 200:
            u = _crowded(rng, u)
        try:
            grid = propose_anchors(u, prior_cf)
        except UnresolvablePronoun:
            continue
        for variant in _grids(rng, grid, prior_cf):
            survivors, verdicts = run_filters(variant)
            positions, expected = reference_filters(variant)
            assert verdicts == expected and verdicts.masks() == expected.masks()
            assert survivors == survivors_of(positions, variant)
            assert tuple(survivors) == positions and len(survivors) == len(positions)
            # Each center entity's rows share one bytes object.
            kept = {}
            for row, columns in survivors.rows:
                cb = variant.cbs[row]
                assert kept.setdefault(cb and cb.entity.id, columns) is columns
            seen["survivors"] += bool(survivors)
            seen["rows sharing bytes"] += len(kept) < len(survivors.rows)
            seen["slot repeating an entity"] += any(
                len({e.entity.id for e in slot}) < len(slot) for slot in variant.slots
            )
    floors = {"survivors": 350, "rows sharing bytes": 160, "slot repeating an entity": 110}
    assert seen.keys() == floors.keys() and all(seen[case] >= floors[case] for case in floors), seen


def test_run_filters_work_grows_with_the_slots_not_the_anchors():
    # Three contraindexed pronouns after 4 and after 8 agreeing names: the
    # anchors grow by 14.4 (9 * 8**3 against 5 * 4**3), and the entries
    # that the pronoun slots compare with each other by 4 (3 * 8**2
    # against 3 * 4**2). The lines run_filters executes grow by less.
    def work(names):
        prior = cf_of(*(name(f"N{i}", f"N{i}", agr=FEM) for i in range(names)))
        mids = ("A1", "A2", "A3")
        u = utt("x", *(pronoun("she", index=mid, agr=FEM, contra=set(mids) - {mid}) for mid in mids))
        grid = propose_anchors(u, prior)
        return len(grid), line_events(run_filters, grid)

    # A trace function installed before the count is installed again after it.
    def installed(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(installed)
    try:
        few, small = work(4)
        assert sys.gettrace() is installed
    finally:
        sys.settrace(previous)
    many, large = work(8)
    assert many / few == 14.4
    assert large < 4 * small, (small, large)


def test_filtering_and_ranking_work_does_not_grow_with_the_center_rows():
    # Three `she` after two agreeing names and 4 or 12 names they cannot
    # agree with: the Cf lists are the same 8, the center rows 7 or 15.
    # Only the rows of an entity that tops a Cf list hold survivors, so
    # the lines that filtering and ranking execute stay nearly the same,
    # and so do those of the default `figure` render of the result. The
    # result is built outside the count: construction's candidate loop
    # grows with the prior Cf list.
    def work(others):
        prior = cf_of(
            *(name(f"F{i}", f"F{i}", agr=FEM) for i in range(2)),
            *(name(f"M{i}", f"M{i}", agr=MASC) for i in range(others)),
        )
        u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in (1, 2, 3)))
        grid = propose_anchors(u, prior)

        def filter_and_rank():
            survivors, verdicts = run_filters(grid)
            return survivors, verdicts, rank_and_select(survivors, grid, prior[0].entity)

        survivors, verdicts, ((_, transition, cb, cf), ranked, tie) = filter_and_rank()
        assert tie
        result = UtteranceResult(u, transition, cb, cf, verdicts, ranked, False, "tie", "tied")
        return len(grid.cbs), survivors, line_events(filter_and_rank), line_events(render_trace, [result])

    (few, kept, small, drawn_small), (many, same, large, drawn_large) = work(4), work(12)
    assert (few, many, len(kept)) == (7, 15, 8) and kept == same
    assert large <= 1.1 * small, (small, large)
    assert drawn_large <= 1.1 * drawn_small, (drawn_small, drawn_large)


def test_eighteen_pronouns_over_two_names():
    # Every one of the 2**18 Cf lists binds Ann, Bea or both, and its most
    # prominent prior entity is its one surviving center: Ann's row
    # survives but for the last Cf list, which binds Bea alone, and
    # only that Cf list survives in Bea's row. Rule 1 eliminates the null
    # center everywhere, and each name's row where no pronoun binds it.
    prior = cf_of(name("Ann", "ANN", agr=FEM), name("Bea", "BEA", gf=OBJ, agr=FEM))
    u = utt("x", *(pronoun("one", index=f"A{j}", agr=Agreement(None, "sg", "3")) for j in range(1, 19)))
    grid = propose_anchors(u, prior)
    width = 2**18
    survivors, verdicts = run_filters(grid)
    eliminated = [verdicts.masks().translate(bytes(m >> bit & 1 for m in range(256))).count(1) for bit in range(3)]
    assert len(grid) == 3 * width and eliminated == [0, 2**19, 2**18 + 2]
    assert survivors == survivors_of((2 * width - 1, *range(width - 1)), grid)
    assert tuple(survivors) == (*range(width - 1), 2 * width - 1)


def _one_sided(rng, u):
    """`u` with each contraindexed pair named by one of its two markers,
    picked at random, instead of by both."""
    contra = {m.mid: set(m.contra) for m in u.markers}
    for a, b in combinations(u.markers, 2):
        if b.mid in contra[a.mid]:
            dropped, kept = rng.sample((a, b), 2)
            contra[dropped.mid].discard(kept.mid)
    return utt(u.text, *(
        ReferenceMarker(m.surface, m.kind, m.gf, m.agr, contra[m.mid], m.entity, m.index, m.mid) for m in u.markers
    ), position=u.position)


def test_contra_named_by_one_marker_of_a_pair_binds_both():
    # Contraindexing is symmetric: a pair counts when either marker names
    # the other, between two pronouns, two fixed markers or one of each.
    rng = random.Random(6262)
    checked = 0
    for _ in range(400):
        prior_cf, u = random_scene(rng)
        u = _one_sided(rng, u)
        try:
            grid = propose_anchors(u, prior_cf)
        except UnresolvablePronoun:
            continue
        _, verdicts = run_filters(grid)
        _, expected = _per_anchor_verdicts(anchors_of(grid), prior_cf, u)
        assert [(v.anchor_id, v.passed, v.eliminated_by) for v in verdicts] == expected
        checked += any(m.contra for m in u.markers)
    assert checked > 50


def test_contra_naming_no_marker_of_the_utterance_is_ignored():
    # A library-built utterance may name, in a marker's contra, a marker id
    # it does not have (the parser refuses one). That name realizes no
    # entity, so it eliminates nothing, beside a name's contra or a
    # pronoun's: the survivors and masks are those without it.
    prior = cf_of(name("Ann", "ANN", agr=FEM), name("Bea", "BEA", gf=OBJ, agr=FEM))

    def filtered(*unknown):
        u = utt(
            "Cat said she met her.",
            name("Cat", "CAT", agr=FEM, contra=unknown, mid="n1"),
            pronoun("she", index="A1", agr=FEM, contra={"p2", *unknown}, mid="p1"),
            pronoun("her", index="A2", gf=OBJ, agr=FEM, contra=unknown, mid="p2"),
        )
        survivors, verdicts = run_filters(propose_anchors(u, prior))
        return survivors, verdicts.masks()

    survivors, masks = filtered()
    assert survivors and any(mask & 1 for mask in masks)  # she and her never co-refer
    for unknown in (("x9",), ("x9", "x8")):
        assert filtered(*unknown) == (survivors, masks)
