import copy
import json
import pickle
import random
import sys
import tracemalloc
from itertools import product

import pytest

from centering import (
    NO_PRIOR,
    AnchorGrid,
    EmptyCf,
    Entity,
    Mode,
    NoViableAnchor,
    Ranking,
    Transition,
    UnresolvablePronoun,
    UtteranceResult,
    allocate_indices,
    classify,
    load_bundled,
    process_document,
    process_utterance,
    propose_anchors,
    rank_and_select,
    render_trace,
    run_filters,
)
from centering.render import display_cb
from support import (
    FEM,
    MASC,
    OBJ,
    OTHER,
    SUBJ,
    Anchor,
    anchors_of,
    bind,
    cf_of,
    line_events,
    name,
    oracle_passes_filters,
    oracle_tie,
    preference_rank,
    pronoun,
    race_scene,
    random_discourse,
    random_scene,
    ranked_of,
    stages,
    utt,
)


def surviving(prior_cf, u):
    """The grid and its survivors' positions."""
    grid = propose_anchors(u, prior_cf)
    survivors, _ = run_filters(grid, prior_cf, u)
    return grid, survivors


def select(grid_and_survivors, prev_cb, mode=Mode.EXTENDED):
    """rank_and_select on a (grid, survivors) pair, with the winner and
    the ranking as Ranked records; checks that the winner is the first
    ranked anchor."""
    grid, survivors = grid_and_survivors
    winner, ranking, tie = rank_and_select(survivors, grid, prev_cb, mode)
    ranked = ranked_of(ranking, grid)
    first = ranked[0]
    assert winner == (first.anchor.ordinal - 1, first.transition, first.anchor.cb, first.anchor.cf)
    return first, ranked, tie


class TestClassify:
    def test_shift_cells_in_extended_mode(self):
        prior_cf, u, prev_cb = race_scene()
        ii, iii = stages(u, prior_cf, prev_cb).survivors
        assert classify(ii.cb, ii.cf, prev_cb) is Transition.SHIFTING_1
        assert classify(iii.cb, iii.cf, prev_cb) is Transition.SHIFTING

    def test_classic_mode_collapses_the_shift_cells(self):
        prior_cf, u, prev_cb = race_scene()
        ii, iii = stages(u, prior_cf, prev_cb).survivors
        assert classify(ii.cb, ii.cf, prev_cb, Mode.CLASSIC) is Transition.SHIFTING
        assert classify(iii.cb, iii.cf, prev_cb, Mode.CLASSIC) is Transition.SHIFTING

    def test_a_mode_is_a_mode_or_its_value(self):
        # A Mode's value types as the Mode does; any other mode is refused.
        prior_cf, u, prev_cb = race_scene()
        ii, _ = stages(u, prior_cf, prev_cb).survivors
        assert classify(ii.cb, ii.cf, prev_cb, "extended") is Transition.SHIFTING_1
        assert classify(ii.cb, ii.cf, prev_cb, "classic") is Transition.SHIFTING
        with pytest.raises(ValueError):
            classify(ii.cb, ii.cf, prev_cb, "bogus")

    def test_retaining_when_center_kept_but_not_preferred(self):
        # "She doesn't believe him": center stays POLLARD, Cp is FRIEDMAN.
        pollard = Entity("POLLARD", name="Carl")
        prior = cf_of(
            name("Carl", "POLLARD", gf=SUBJ, agr=MASC),
            name("Lyn", "FRIEDMAN", gf=OBJ, agr=FEM),
        )
        she = pronoun("She", index="A4", gf=SUBJ, agr=FEM)
        him = pronoun("him", index="A5", gf=OBJ, agr=MASC)
        anchor = Anchor(prior[0], (bind(she, prior[1].entity), bind(him, pollard)), 1)
        assert classify(anchor.cb, anchor.cf, pollard) is Transition.RETAINING

    def test_retaining_with_named_subject(self):
        # "Friedman races her on weekends": center stays BRENNAN via "her".
        brennan = Entity("BRENNAN", name="Brennan")
        friedman_m = name("Friedman", "FRIEDMAN", gf=SUBJ, agr=FEM)
        her = pronoun("her", index="A8", gf=OBJ, agr=FEM)
        prior_entry = bind(pronoun("She", index="A7", gf=SUBJ, agr=FEM), brennan)
        anchor = Anchor(prior_entry, (bind(friedman_m, friedman_m.entity), bind(her, brennan)), 1)
        assert classify(anchor.cb, anchor.cf, brennan) is Transition.RETAINING

    def test_continuing_when_center_kept_and_preferred(self):
        pollard = Entity("POLLARD", name="Carl")
        he = pronoun("He", index="A1", gf=SUBJ, agr=MASC)
        lyn = name("Lyn", "FRIEDMAN", gf=OBJ, agr=FEM)
        carl = name("Carl", "POLLARD", gf=SUBJ, agr=MASC)
        anchor = Anchor(bind(carl, pollard), (bind(he, pollard), bind(lyn, lyn.entity)), 1)
        assert classify(anchor.cb, anchor.cf, pollard) is Transition.CONTINUING

    def test_no_prior_utterance_counts_as_keeping_the_center(self):
        carl = name("Carl", "POLLARD", agr=MASC)
        opener = Anchor(bind(carl, carl.entity), cf_of(carl), 1)
        assert classify(opener.cb, opener.cf, NO_PRIOR) is Transition.CONTINUING

    def test_opener_null_center_reads_as_its_preferred_center(self):
        carl = name("Carl", "POLLARD", agr=MASC)
        for mode in Mode:
            assert classify(None, cf_of(carl), NO_PRIOR, mode) is Transition.CONTINUING

    def test_null_center_is_a_shift(self):
        cam = name("Cam", "CAM", agr=MASC)
        anchor = Anchor(None, cf_of(cam), 1)
        assert classify(anchor.cb, anchor.cf, Entity("ANN")) is Transition.SHIFTING
        assert classify(anchor.cb, anchor.cf, None) is Transition.SHIFTING

    def test_empty_cf_raises(self):
        with pytest.raises(EmptyCf):
            classify(None, (), NO_PRIOR)


class TestRankAndSelect:
    def test_shifting_1_beats_shifting(self):
        prior_cf, u, prev_cb = race_scene()
        winner, ranked, tie = select(surviving(prior_cf, u), prev_cb)
        assert winner.transition is Transition.SHIFTING_1
        assert winner.anchor.ordinal == 2
        assert not tie
        assert [c.anchor.ordinal for c in ranked] == [2, 3]
        bound = {e.marker.index: e.entity.name for e in winner.anchor.cf}
        assert bound == {"A9": "Friedman", "A10": "Brennan"}

    def test_classic_mode_cannot_choose(self):
        prior_cf, u, prev_cb = race_scene()
        winner, ranked, tie = select(surviving(prior_cf, u), prev_cb, Mode.CLASSIC)
        assert tie
        assert {c.transition for c in ranked} == {Transition.SHIFTING}
        assert winner.anchor.ordinal == 2  # deterministic construction-order break

    def test_continuing_reading_beats_retaining_reading(self):
        planck = Entity("PLANCK", name="Max")
        prior = cf_of(
            name("Max", "PLANCK", gf=SUBJ, agr=MASC, mid="p1"),
            name("Fred", "FLINTSTONE", gf=OTHER, agr=MASC, mid="p2"),
        )
        u = utt(
            "He invited him to dinner.",
            pronoun("He", index="A2", gf=SUBJ, agr=MASC, contra={"A3"}),
            pronoun("him", index="A3", gf=OBJ, agr=MASC, contra={"A2"}),
        )
        winner, ranked, tie = select(surviving(prior, u), planck)
        assert winner.transition is Transition.CONTINUING
        assert not tie
        assert [e.entity.name for e in winner.anchor.cf] == ["Max", "Fred"]
        assert ranked[1].transition is Transition.RETAINING

    def test_empty_survivors_raise(self):
        with pytest.raises(NoViableAnchor):
            rank_and_select((), AnchorGrid((), ()), NO_PRIOR)

    def test_winner_invariant_under_permutation(self):
        prior_cf, u, prev_cb = race_scene()
        grid, survivors = surviving(prior_cf, u)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = list(survivors)
            rng.shuffle(shuffled)
            winner, ranked, _ = select((grid, shuffled), prev_cb)
            assert winner.anchor.ordinal == 2
            assert [c.anchor.ordinal for c in ranked] == [2, 3]


def test_winner_permutation_invariance_randomized():
    rng = random.Random(65)
    for _ in range(200):
        prior_cf, u = random_scene(rng)
        try:
            grid, survivors = surviving(prior_cf, u)
        except UnresolvablePronoun:
            continue
        if not survivors or not u.markers:
            continue
        prev_cb = prior_cf[0].entity if prior_cf else None
        winner, _, _ = select((grid, survivors), prev_cb)
        shuffled = list(survivors)
        rng.shuffle(shuffled)
        again, _, _ = select((grid, shuffled), prev_cb)
        assert winner.anchor.ordinal == again.anchor.ordinal


def test_preference_order():
    # Declaration order is the preference order; ranking relies on it.
    assert list(Transition) == [Transition.CONTINUING, Transition.RETAINING, Transition.SHIFTING_1, Transition.SHIFTING]


def test_modes_agree_outside_the_shift_cells():
    # Classic and extended only repartition the changed-center column.
    rng = random.Random(12)
    for _ in range(200):
        prior_cf, u = random_scene(rng)
        if not u.markers:
            continue
        prev_cb = prior_cf[0].entity if prior_cf else None
        try:
            anchors = stages(u, prior_cf, prev_cb).anchors
        except UnresolvablePronoun:
            continue
        for anchor in anchors:
            ext = classify(anchor.cb, anchor.cf, prev_cb, Mode.EXTENDED)
            cls = classify(anchor.cb, anchor.cf, prev_cb, Mode.CLASSIC)
            if ext in (Transition.CONTINUING, Transition.RETAINING):
                assert cls is ext
            else:
                assert cls is Transition.SHIFTING
                assert ext in (Transition.SHIFTING_1, Transition.SHIFTING)


def test_corpus_exercises_every_transition_cell():
    seen = set()
    for corpus in ("fig2", "fig4", "fig5", "fig6", "fig7"):
        for result in process_document(load_bundled(corpus)):
            seen.update(c.transition for c in ranked_of(result.ranked, result.anchors))
    assert seen == set(Transition)


def _reference_ranking(anchors, prev_cb, mode):
    """rank_and_select's contract stated per anchor: promote an opener's
    null centers, classify every anchor, sort by (preference, ordinal)."""
    if prev_cb is NO_PRIOR:
        anchors = [
            Anchor(a.cf[0], a.cf, a.ordinal) if a.cb is None and a.cf else a for a in anchors
        ]
    classified = [(classify(a.cb, a.cf, prev_cb, mode), a) for a in anchors]
    classified.sort(key=lambda c: (preference_rank(c[0]), c[1].ordinal))
    return [(a.ordinal, t, a.cb, a.cf) for t, a in classified]


def _priors(rng, prior_cf):
    """The scene's prior Cf list, and one that realizes an entity twice
    (two center rows for one entity), via a pronoun bound to it."""
    yield prior_cf
    if prior_cf:
        twice = rng.choice(prior_cf)
        again = bind(pronoun("pro", index="A99", gf=OTHER, agr=twice.marker.agr), twice.entity)
        entries = list(prior_cf)
        entries.insert(rng.randint(0, len(entries)), again)
        yield tuple(entries)


def test_grid_ranking_matches_the_per_anchor_reference_randomized():
    rng = random.Random(8080)
    seen = {"tie": 0, "promoted": 0, "twice": 0, "contra": 0, "empty": 0}
    for _ in range(300):
        scene_prior, u = random_scene(rng)
        for prior_cf in _priors(rng, scene_prior):
            try:
                grid = propose_anchors(u, prior_cf)
            except UnresolvablePronoun:
                continue
            survivors, _ = run_filters(grid, prior_cf, u)
            passing = [a for a in anchors_of(grid) if oracle_passes_filters(a, prior_cf, u)]
            ids = [e.entity.id for e in prior_cf]
            for prev_cb in (NO_PRIOR, None, *(e.entity for e in prior_cf[:1]), Entity("FRESH")):
                for mode in Mode:
                    if not passing:
                        with pytest.raises(NoViableAnchor):
                            rank_and_select(survivors, grid, prev_cb, mode)
                        continue
                    if not u.markers:
                        seen["empty"] += 1
                        with pytest.raises(EmptyCf):
                            rank_and_select(survivors, grid, prev_cb, mode)
                        continue
                    expected = _reference_ranking(passing, prev_cb, mode)
                    winner, ranked, tie = rank_and_select(survivors, grid, prev_cb, mode)
                    got = [(c.anchor.ordinal, c.transition, c.anchor.cb, c.anchor.cf) for c in ranked_of(ranked, grid)]
                    assert got == expected
                    assert [(p + 1, t) for p, t in ranked] == [e[:2] for e in expected]
                    position, *cell = winner
                    assert (position + 1, *cell) == expected[0]
                    assert tie == oracle_tie((t, cb, cf) for _, t, cb, cf in expected)
                    seen["tie"] += tie
                    seen["promoted"] += prev_cb is NO_PRIOR and any(a.cb is None for a in passing)
                    seen["twice"] += len(set(ids)) < len(ids)
                    seen["contra"] += any(m.contra for m in u.markers)
    assert min(seen.values()) > 20, seen


def test_a_tie_needs_two_readings_when_the_prior_realizes_an_entity_twice():
    # Two center rows of one prior entity give one reading: a top class
    # of one Cf list under both rows is no tie, and a tie is reported
    # exactly when the top class holds two distinct readings. Ranked
    # unfiltered, one Cf list may also top the class under two entities.
    rng = random.Random(1717)
    seen = {"tie": 0, "one reading": 0, "one Cf list": 0}
    for _ in range(400):
        scene_prior, u = random_scene(rng)
        *_, prior_cf = _priors(rng, scene_prior)
        ids = [e.entity.id for e in prior_cf]
        if len(set(ids)) == len(ids):
            continue
        try:
            grid = propose_anchors(u, prior_cf)
        except UnresolvablePronoun:
            continue
        survivors, _ = run_filters(grid, prior_cf, u)
        if not survivors or not u.markers:
            continue
        for positions in (survivors, range(len(grid))):
            for prev_cb in (None, prior_cf[0].entity, Entity("FRESH")):
                for mode in Mode:
                    _, ranked, tie = rank_and_select(positions, grid, prev_cb, mode)
                    cells = [(c.transition, c.anchor.cb, c.anchor.cf) for c in ranked_of(ranked, grid)]
                    assert tie == oracle_tie(cells)
                    seen["tie"] += tie
                    top_class = sum(t is cells[0][0] for t, _, _ in cells)
                    seen["one reading"] += top_class > 1 and not tie
                    seen["one Cf list"] += tie and len({cf for t, _, cf in cells if t is cells[0][0]}) == 1
    assert min(seen.values()) > 20, seen


def test_structured_shows_each_ranked_center_as_that_anchor_would_win():
    # One rule decides the center an anchor shows: each ranked center of a
    # `structured` record is the one its anchor commits as the only
    # survivor. A null center continues under NO_PRIOR and shows its Cf
    # list's head; after a null center it shifts and shows NIL.
    rng = random.Random(1818)
    seen = {"opener": 0, "head": 0, "NIL": 0}
    for _ in range(300):
        prior_cf, u = random_scene(rng)
        if rng.random() < 0.3:
            prior_cf = ()
        try:
            grid = propose_anchors(u, prior_cf)
        except UnresolvablePronoun:
            continue
        survivors, verdicts = run_filters(grid, prior_cf, u)
        if not survivors or not u.markers:
            continue
        for prev_cb, mode in product((NO_PRIOR, None), Mode):
            (_, transition, cb, cf), ranked, _ = rank_and_select(survivors, grid, prev_cb, mode)
            result = UtteranceResult(u, transition, cb, cf, grid, verdicts, ranked, False)
            (record,) = map(json.loads, render_trace([result], "structured").splitlines())
            for (position, _), cell in zip(ranked, record["ranked"], strict=True):
                (_, _, alone, _), _, _ = rank_and_select((position,), grid, prev_cb, mode)
                assert cell["cb"] == display_cb(alone), (position, prev_cb, mode)
                null = grid.cbs[position // grid.width] is None
                seen["opener"] += not prior_cf
                seen["head"] += null and alone is not None
                seen["NIL"] += null and alone is None
    assert min(seen.values()) > 20, seen


def _split_shifting(classic: Ranking, grid: AnchorGrid) -> Ranking:
    """`classic`, a ranking of `grid`, with its SHIFTING bucket split in
    two: the anchors whose center is their own preferred center, as
    SHIFTING-1, then the rest, each part in the bucket's order."""
    kept, centered, shifting = [], [], []
    for c in ranked_of(classic, grid):
        position, cb, cf = c.anchor.ordinal - 1, c.anchor.cb, c.anchor.cf
        if c.transition is not Transition.SHIFTING:
            kept.append(position)
        elif cb is not None and cb.entity == cf[0].entity:
            centered.append(position)
        else:
            shifting.append(position)
    continuing, retaining, _, _ = classic.sizes
    return Ranking((*kept, *centered, *shifting), (continuing, retaining, len(centered), len(shifting)))


def test_extended_ranking_splits_the_classic_shifting_bucket():
    # The paper's extension refines the classic typology and changes
    # nothing else: from one state, the extended ranking of the same
    # survivors, and so its winner and tie flag, is the classic ranking
    # with the SHIFTING bucket split, SHIFTING-1 first.
    rng = random.Random(1994)
    splits = mixed = 0
    for _ in range(250):
        utterances = allocate_indices(random_discourse(rng))
        for mode in Mode:
            prev = None
            for u in utterances:
                if prev is None:
                    prev_cb, prior_cf = NO_PRIOR, ()
                else:
                    prev_cb, prior_cf = prev.cb.entity if prev.cb is not None else None, prev.cf
                try:
                    grid, survivors = surviving(prior_cf, u)
                    _, classic, _ = rank_and_select(survivors, grid, prev_cb, Mode.CLASSIC)
                    _, extended, tie = rank_and_select(survivors, grid, prev_cb, Mode.EXTENDED)
                except (UnresolvablePronoun, NoViableAnchor, EmptyCf):
                    pass
                else:
                    expected = _split_shifting(classic, grid)
                    assert extended == expected
                    cells = ranked_of(expected, grid)
                    assert tie == oracle_tie((c.transition, c.anchor.cb, c.anchor.cf) for c in cells)
                    splits += expected.sizes[2] > 0
                    mixed += expected.sizes[2] > 0 and expected.sizes[3] > 0
                prev = process_utterance(prev, u, mode)
    assert splits > 50 and mixed > 0


def test_ranking_and_reading_it_grow_with_the_survivors():
    # Three pronouns after 4 and after 8 agreeing names: every Cf list
    # survives in one row, so the survivors grow by 8 (8**3 against 4**3),
    # and the lines that ranking them and reading the ranking back execute
    # grow as fast, and no faster. Iterating a ranking runs no Python
    # line, so the count is rank_and_select's.
    def work(names):
        prior = cf_of(*(name(f"N{i}", f"N{i}", agr=FEM) for i in range(names)))
        u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in (1, 2, 3)))
        grid = propose_anchors(u, prior)
        survivors, _ = run_filters(grid, prior, u)

        def rank_and_read():
            _, ranked, _ = rank_and_select(survivors, grid, prior[0].entity)
            assert len(list(ranked)) == len(survivors)

        return len(survivors), line_events(rank_and_read)

    (few, small), (many, large) = work(4), work(8)
    assert many / few == 8
    assert large < 1.1 * 8 * small, (small, large)


def test_a_ranking_is_its_positions_and_one_count_per_transition():
    # In both modes a ranking keeps the ranked positions and one count
    # per transition, in preference order; iterating it pairs each
    # position with its class, and it pickles and copies as those fields.
    assert Ranking.__slots__ == ("positions", "sizes")
    rng = random.Random(3030)
    seen = {mode: 0 for mode in Mode}
    for _ in range(200):
        prior_cf, u = random_scene(rng)
        try:
            grid, survivors = surviving(prior_cf, u)
        except UnresolvablePronoun:
            continue
        if not survivors or not u.markers:
            continue
        # Ranked unfiltered too, so that a ranking often spans classes.
        for positions in (survivors, range(len(grid))):
            for prev_cb, mode in product((NO_PRIOR, None, *(e.entity for e in prior_cf[:1])), Mode):
                _, ranked, _ = rank_and_select(positions, grid, prev_cb, mode)
                assert len(ranked.sizes) == 4 and sum(ranked.sizes) == len(ranked.positions) == len(ranked)
                assert sorted(ranked.positions) == list(positions)
                if mode is Mode.CLASSIC:
                    assert ranked.sizes[2] == 0
                pairs = list(ranked)
                assert [p for p, _ in pairs] == list(ranked.positions)
                ranks = [preference_rank(t) for _, t in pairs]
                assert ranks == sorted(ranks)
                assert [ranks.count(k) for k in range(4)] == list(ranked.sizes)
                assert [(c.anchor.ordinal - 1, c.transition) for c in ranked_of(ranked, grid)] == pairs
                for same in (pickle.loads(pickle.dumps(ranked)), copy.copy(ranked), copy.deepcopy(ranked)):
                    assert same == ranked and list(same) == pairs
                seen[mode] += len(set(ranks)) > 1
    assert min(seen.values()) > 20, seen
    for positions, sizes in (((1, 2), (2, 0, 0)), ((1, 2), (1, 0, 0, 0)), ((), (0, 0, 0, 1))):
        with pytest.raises(ValueError):
            Ranking(positions, sizes)


def test_a_ranking_retains_its_positions_and_a_constant():
    # 8 agreeing names and 3 pronouns leave 512 survivors in one class. The
    # ranking keeps their positions, the survivors' own int objects, and a
    # count per class: nothing else grows with the survivors.
    prior = cf_of(*(name(f"N{i}", f"N{i}", agr=FEM) for i in range(8)))
    u = utt("x", *(pronoun("she", index=f"A{j}", agr=FEM) for j in (1, 2, 3)))
    grid, survivors = surviving(prior, u)
    rank_and_select(survivors, grid, prior[0].entity)  # warm-up
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _, ranked, _ = rank_and_select(survivors, grid, prior[0].entity)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranked) == 8**3
    assert after - before <= sys.getsizeof(ranked.positions) + 512, (after - before, sys.getsizeof(ranked.positions))
