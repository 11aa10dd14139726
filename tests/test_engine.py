import gc
import tracemalloc

import pytest

from centering import construction
from centering import (
    AnchorGrid,
    Mode,
    Transition,
    allocate_indices,
    build_utterances,
    load_bundled,
    process_discourse,
    process_document,
    process_utterance,
    render_trace,
)
from support import FEM, MASC, NEUT, OBJ, SUBJ, anchors_of, indefinite, name, pronoun, ranked_of, stages, utt
from support import line_events, validate_committed


def bindings_by_surface(result):
    return [(e.marker.surface, e.entity.name) for e in result.cf if e.marker.is_pronoun]


class TestBundledDiscourses:
    def test_carl_and_lyn(self):
        results = process_document(load_bundled("fig2"))
        assert [r.transition for r in results] == [
            Transition.CONTINUING,
            Transition.CONTINUING,
            Transition.CONTINUING,
            Transition.RETAINING,
        ]
        assert bindings_by_surface(results[1]) == [("He", "Carl")]
        assert bindings_by_surface(results[2]) == [("He", "Carl"), ("her", "Lyn")]
        assert bindings_by_surface(results[3]) == [("She", "Lyn"), ("him", "Carl")]

    def test_brennan_and_friedman(self):
        results = process_document(load_bundled("fig4"))
        assert [r.transition for r in results] == [
            Transition.CONTINUING,
            Transition.CONTINUING,
            Transition.RETAINING,
            Transition.SHIFTING_1,
        ]
        assert bindings_by_surface(results[3]) == [("She", "Friedman"), ("her", "Brennan")]

    def test_max_and_fred(self):
        results = process_document(load_bundled("fig5"))
        assert [r.transition for r in results] == [Transition.CONTINUING] * 3
        assert bindings_by_surface(results[2]) == [("He", "Max"), ("him", "Fred")]

    def test_replayed_final_utterance_statistics(self):
        results = process_document(load_bundled("fig4"))
        last = results[3]
        assert last.anchors_constructed == 16
        assert [v.anchor_id for v in last.verdicts if v.passed] == [2, 3]
        assert ranked_of(last.ranked, last.anchors)[0].anchor.ordinal == 2

    def test_laguna_seca_continuation(self):
        results = process_document(load_bundled("fig7"))
        last = results[3]
        assert last.transition is Transition.CONTINUING
        assert bindings_by_surface(last) == [("She", "Brennan")]
        assert last.after_retention  # the context informants hesitate over

    def test_committed_anchors_pass_independent_validation(self):
        for corpus in ("fig2", "fig4", "fig5", "fig6", "fig7"):
            results = process_document(load_bundled(corpus))
            assert validate_committed(results) == []


class TestStateEvolution:
    def test_empty_discourse(self):
        assert process_discourse([]) == []

    def test_opener_promotes_its_preferred_center(self):
        result = process_utterance(None, utt("Carl works.", name("Carl", "POLLARD", agr=MASC)))
        assert result.transition is Transition.CONTINUING
        assert result.cb is not None and result.cb.entity.id == "POLLARD"
        assert result.cb.marker.index == "Carl"

    def test_center_display_uses_prior_marker(self):
        u1 = utt("Carl works.", name("Carl", "POLLARD", agr=MASC), position=1)
        u2 = utt("He naps.", pronoun("He", agr=MASC), position=2)
        results = process_discourse([u1, u2])
        assert results[1].cb.marker.index == "Carl"
        assert results[1].cf[0].marker.index == "A1"

    def test_unresolvable_pronoun_degrades_gracefully(self):
        u1 = utt("She left.", pronoun("She", agr=FEM), position=1)
        u2 = utt("Ann arrived.", name("Ann", "ANN", agr=FEM), position=2)
        results = process_discourse([u1, u2])
        first, second = results
        assert first.diagnostic_kind == "unresolvable-pronoun"
        assert first.bindings is None and first.cb is None
        assert len(first.cf) == 0
        # No center and a slot without entries: no Cf list, so no anchor.
        assert first.anchors == AnchorGrid((), ((),)) and len(first.verdicts) == 0
        # The discourse continues; the next utterance opens fresh via a shift.
        assert second.transition is Transition.SHIFTING
        assert second.cb is None

    def test_no_viable_anchor_when_contra_blocks_every_binding(self):
        u1 = utt("Ann waved.", name("Ann", "ANN", agr=FEM), position=1)
        u2 = utt(
            "She greeted Ann.",
            pronoun("She", gf=SUBJ, agr=FEM, mid="she", contra={"ann"}),
            name("Ann", "ANN", gf=OBJ, agr=FEM, mid="ann", contra={"she"}),
            position=2,
        )
        results = process_discourse([u1, u2])
        second = results[1]
        assert second.diagnostic_kind == "no-viable-anchor"
        # Every anchor and verdict is kept for the trace to explain.
        assert len(second.anchors) == len(second.verdicts) == 2
        assert not any(v.passed for v in second.verdicts)
        assert ranked_of(second.ranked, second.anchors) == [] and not second.tie
        assert second.cb is None
        assert [e.entity.id for e in second.cf] == ["ANN"]

    def test_over_budget_utterance_commits_the_fallback_in_bounded_memory(self):
        # Six names, then eight pronouns of unspecified agreement: 7 * 6**8
        # = 11,757,312 anchors. The count is refused before one is built.
        names = [name(n, n.upper(), gf=OBJ) for n in ("Ann", "Ben", "Cal", "Dee", "Eve", "Fay")]
        pronouns = [pronoun("they", gf=OBJ, mid=f"p{i}") for i in range(8)]
        utterances = [utt("Six met.", *names, position=1), utt("They saw them.", *pronouns, position=2)]
        tracemalloc.start()
        try:
            first, second = process_discourse(utterances)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.transition is Transition.CONTINUING
        assert second.diagnostic_kind == "anchor-budget"
        assert second.diagnostic == "11,757,312 anchors would exceed the limit of 1,000,000"
        assert second.transition is None and second.cb is None and second.cf == ()
        assert second.anchors_constructed == 0 and len(second.verdicts) == 0
        assert validate_committed([first, second]) == []
        assert peak < 4 * 2**20, peak

    def test_fresh_x_index_skips_an_entity_id_in_use(self):
        # An anonymous indefinite's entity is named after its X-index: X1,
        # Ann's entity, would merge the two referents.
        u1 = utt("Ann saw a car.", name("Ann", "X1", agr=FEM), indefinite("a car", gf=OBJ), position=1)
        u2 = utt("It was red.", pronoun("It", agr=NEUT), position=2)
        first, second = process_discourse([u1, u2])
        assert [e.display for e in first.cf] == ["[X1:Ann]", "[X2:a car]"]
        assert second.bindings == {"A1": first.cf[1].entity}
        assert second.diagnostic_kind is None

    def test_utterance_without_markers(self):
        u1 = utt("Ann waved.", name("Ann", "ANN", agr=FEM), position=1)
        u2 = utt("Yes.", position=2)
        results = process_discourse([u1, u2])
        second = results[1]
        assert second.diagnostic_kind == "empty-utterance"
        assert second.transition is None
        # Ann's center and the null center, each with the one empty Cf list.
        assert len(second.anchors) == len(second.verdicts) == 2
        assert ranked_of(second.ranked, second.anchors) == []
        assert second.bindings is None and not second.tie

    def test_exactly_one_anchor_committed_per_utterance(self):
        utterances = allocate_indices(build_utterances(load_bundled("fig4")))
        for mode in Mode:
            prev = None
            for u, expected in zip(utterances, process_discourse(utterances, mode)):
                result = process_utterance(prev, u, mode)
                assert result.position == u.position
                assert result == expected
                # The step reads exactly the committed center and Cf list.
                if prev is not None:
                    s = stages(u, prev.cf, prev.cb.entity if prev.cb is not None else None, mode)
                    assert anchors_of(result.anchors) == s.anchors
                    assert ranked_of(result.ranked, result.anchors) == s.ranked
                    assert result.after_retention == (prev.transition is Transition.RETAINING)
                prev = result

    def test_allocated_utterances_are_not_rebuilt(self):
        # Once fig4's anonymous indefinite is bound, nothing is missing.
        utterances = allocate_indices(build_utterances(load_bundled("fig4")))
        results = process_discourse(utterances)
        assert all(r.utterance is u for r, u in zip(results, utterances))

    def test_process_utterance_needs_allocated_indices(self):
        for u in (utt("She left.", pronoun("She", agr=FEM)), utt("A car came.", indefinite("a car", gf=SUBJ))):
            with pytest.raises(ValueError, match="allocate indices first"):
                process_utterance(None, u)
        # Also when a pronoun fails first and the fallback commits the rest.
        u = utt("She saw a car.", pronoun("She", index="A1"), indefinite("a car", gf=OBJ, mid="car"))
        with pytest.raises(ValueError, match="'car' has no entity"):
            process_utterance(None, u)

    def test_prefix_replay_equivalence(self):
        utterances = build_utterances(load_bundled("fig4"))
        whole = process_discourse(utterances)
        for k in range(len(utterances) + 1):
            prefix = process_discourse(utterances[:k])
            assert render_trace(prefix, "structured") == render_trace(whole[:k], "structured")

    def test_determinism_byte_for_byte(self):
        doc = load_bundled("fig4")
        first = render_trace(process_document(doc), "structured")
        second = render_trace(process_document(doc), "structured")
        assert first == second


class TestModes:
    def test_one_entity_realized_twice_is_one_reading(self):
        # Ann and the girl are one entity: two center rows, one reading.
        u1 = utt(
            "Ann met the girl.",
            name("Ann", "ANN", agr=FEM),
            name("the girl", "ANN", gf=OBJ, agr=FEM),
            position=1,
        )
        u2 = utt("She left.", pronoun("She", agr=FEM), position=2)
        second = process_discourse([u1, u2])[1]
        assert second.transition is Transition.CONTINUING
        assert [r.transition for r in ranked_of(second.ranked, second.anchors)] == [Transition.CONTINUING] * 2
        assert not second.tie and second.diagnostic_kind is None

    def test_classic_mode_reports_the_tie(self):
        doc = load_bundled("fig4")
        results = process_document(doc, Mode.CLASSIC)
        last = results[3]
        assert last.transition is Transition.SHIFTING
        assert last.tie and last.diagnostic_kind == "tie"
        # Extended mode disambiguates the same utterance.
        extended = process_document(doc)
        assert not extended[3].tie and extended[3].diagnostic_kind is None

    def test_a_mode_may_be_given_by_its_value(self):
        doc = load_bundled("fig4")
        for mode in Mode:
            assert process_document(doc, mode.value) == process_document(doc, mode)
        assert process_document(doc, "extended") != process_document(doc, Mode.CLASSIC)
        with pytest.raises(ValueError, match="'Extended' is not a valid Mode"):
            process_document(doc, "Extended")

    def test_a_bad_mode_is_refused_when_no_utterance_reaches_ranking(self, monkeypatch):
        # Construction never reads the mode, so an utterance it refuses
        # must not let a bad one through.
        unresolvable = [utt("She left.", pronoun("She", gf=SUBJ, agr=FEM), position=1)]
        over_budget = [utt("Ann waved.", name("Ann", "ANN", gf=SUBJ, agr=FEM), position=1)]
        monkeypatch.setattr(construction, "MAX_ANCHORS", 0)
        for utterances, kind in ((unresolvable, "unresolvable-pronoun"), (over_budget, "anchor-budget")):
            for mode in ("classic", "extended", *Mode):
                assert [r.diagnostic_kind for r in process_discourse(utterances, mode)] == [kind]
            with pytest.raises(ValueError, match="'bogus' is not a valid Mode"):
                process_discourse(utterances, "bogus")

    def test_modes_agree_until_the_shift(self):
        doc = load_bundled("fig4")
        classic = process_document(doc, Mode.CLASSIC)
        extended = process_document(doc)
        assert [r.transition for r in classic[:3]] == [r.transition for r in extended[:3]]


def _pronouns_after_names(names, pronouns):
    """The opener of `names` agreeing names, and an utterance of
    `pronouns` pronouns after it, each of which may bind any of them."""
    opener = process_utterance(None, utt("They met.", *(name(f"N{i}", f"N{i}", agr=FEM) for i in range(names))))
    u = utt("She saw her.", *(pronoun("she", index=f"A{j}", agr=FEM) for j in range(1, pronouns + 1)), position=2)
    return opener, u


def test_processing_and_the_figure_do_not_grow_with_the_survivors():
    # Six pronouns after 2 and after 4 names: each Cf list survives under
    # its most prominent name, so the survivors grow by 64 (4**6 against
    # 2**6), while the slot entries and the center rows only double. The
    # lines that processing the utterance and rendering its `figure`
    # execute grow by less than twice: no Python runs per survivor.
    def work(names):
        opener, u = _pronouns_after_names(names, 6)

        def step():
            return render_trace([process_utterance(opener, u)])

        step()  # grows the label table, as a first render does
        return len(process_utterance(opener, u).ranked), line_events(step)

    (few, small), (many, large) = work(2), work(4)
    assert many / few == 64
    assert large < 2 * small, (small, large)


def test_a_figure_result_keeps_its_survivors_in_a_tenth_of_their_positions():
    # Six pronouns after six names, 326,592 anchors and 46,656 survivors:
    # a ranking of positions retained 1.68 MB, a tuple and an int per
    # survivor. The ranking now keeps each topping entity's bytes, from
    # its first survivor on, and a few ints per block: under a tenth.
    opener, u = _pronouns_after_names(6, 6)
    process_utterance(opener, u)  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = process_utterance(opener, u)
        assert render_trace([result]).startswith("CONTINUING...")
        ranked = result.ranked
        del result
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ranked) == 6**6
    assert after - before < 0.168e6, after - before
