"""Acceptance suite: one test per criterion, each printing a PASS line
(visible with `pytest -s` or on failure). Expected values are frozen from
hand-checked traces and independent brute-force oracles in support.py."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from centering import (
    Mode,
    Transition,
    UnresolvablePronoun,
    load_bundled,
    process_discourse,
    process_document,
    render_trace,
)
from centering.cli import cli_main
from centering.construction import pronoun_candidates
from support import (
    filtered_in_every_order,
    oracle_enumerate_anchors,
    oracle_passes_filters,
    oracle_rank_then_filter,
    random_discourse,
    random_scene,
    ranked_of,
    stages,
    validate_committed,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
CORPORA = ("fig2", "fig4", "fig5", "fig6", "fig7")


def report(criterion, description):
    print(f"PASS criterion {criterion}: {description}")


def binding_pairs(result):
    return [(e.marker.surface, e.entity.name) for e in result.cf if e.marker.is_pronoun]


def test_criterion_1_carl_lyn_transitions_and_bindings():
    results = process_document(load_bundled("fig2"))
    assert [r.transition for r in results] == [
        Transition.CONTINUING,
        Transition.CONTINUING,
        Transition.CONTINUING,
        Transition.RETAINING,
    ]
    assert binding_pairs(results[0]) == []
    assert binding_pairs(results[1]) == [("He", "Carl")]
    assert binding_pairs(results[2]) == [("He", "Carl"), ("her", "Lyn")]
    assert binding_pairs(results[3]) == [("She", "Lyn"), ("him", "Carl")]
    report(1, "fig2 transitions [C,C,C,R]; He=Carl x2, her=Lyn, She=Lyn, him=Carl")


def test_criterion_2_brennan_friedman_extended():
    results = process_document(load_bundled("fig4"))
    assert [r.transition for r in results] == [
        Transition.CONTINUING,
        Transition.CONTINUING,
        Transition.RETAINING,
        Transition.SHIFTING_1,
    ]
    assert binding_pairs(results[3]) == [("She", "Friedman"), ("her", "Brennan")]
    report(2, "fig4 transitions [C,C,R,S1]; She=Friedman, her=Brennan")


def test_criterion_3_appendix_replay_on_fig4_u4():
    results = process_document(load_bundled("fig4"))
    last = results[3]
    assert last.anchors_constructed == 16
    eliminated = {
        name: {v.anchor_id for v in last.verdicts if name in v.eliminated_by}
        for name in ("contra", "constraint3", "rule1")
    }
    assert eliminated["contra"] == {1, 4, 5, 8, 9, 12, 13, 16}
    assert eliminated["rule1"] >= set(range(9, 17))
    assert eliminated["rule1"] == {4, 5} | set(range(9, 17))
    # The stated realization constraint also removes anchor vi; the
    # survivor set is the same either way.
    assert 6 in eliminated["constraint3"]
    assert eliminated["constraint3"] == {4, 5, 6, 7} | set(range(9, 17))
    survivors = [v.anchor_id for v in last.verdicts if v.passed]
    assert survivors == [2, 3]
    ranked = ranked_of(last.ranked, last.anchors)
    assert ranked[0].anchor.ordinal == 2
    assert ranked[0].transition is Transition.SHIFTING_1
    assert ranked[1].anchor.ordinal == 3
    assert ranked[1].transition is Transition.SHIFTING
    report(3, "16 anchors; contra {i,iv,v,viii,ix,xii,xiii,xvi}; survivors {ii,iii}; ii=S1 over iii=S")


def test_criterion_4_classic_mode_cannot_disambiguate(capsys):
    doc = load_bundled("fig4")
    classic = process_document(doc, Mode.CLASSIC)
    last = classic[3]
    assert last.transition is Transition.SHIFTING
    assert last.tie and last.diagnostic_kind == "tie"
    tied = [c for c in ranked_of(last.ranked, last.anchors) if c.transition is Transition.SHIFTING]
    assert [c.anchor.ordinal for c in tied] == [2, 3]
    extended = process_document(doc)
    assert not extended[3].tie
    assert extended[3].transition is Transition.SHIFTING_1
    assert cli_main(["run", "fig4", "--classic"]) == 1
    assert cli_main(["run", "fig4"]) == 0
    capsys.readouterr()
    report(4, "classic fig4 U4 ties ii/iii as SHIFTING (exit 1); extended disambiguates (exit 0)")


def test_criterion_5_continuing_reading_preferred():
    for corpus in ("fig5", "fig6"):
        results = process_document(load_bundled(corpus))
        last = results[2]
        assert last.transition is Transition.CONTINUING
        assert binding_pairs(last) == [("He", "Max"), ("him", "Fred")]
        alternatives = ranked_of(last.ranked, last.anchors)[1:]
        retaining = [c for c in alternatives if c.transition is Transition.RETAINING]
        assert retaining, "the retaining reading must appear below the winner"
        alt = retaining[0].anchor
        assert [e.entity.name for e in alt.cf] == ["Fred", "Max"]
    report(5, "fig5/fig6 U3 winner He=Max, him=Fred (CONTINUING); retaining reading ranked below")


def test_criterion_6_post_retention_continuation():
    results = process_document(load_bundled("fig7"))
    last = results[3]
    assert last.transition is Transition.CONTINUING
    assert binding_pairs(last) == [("She", "Brennan")]
    assert last.after_retention
    report(6, "fig7 U4 CONTINUING with She=Brennan")


def test_criterion_7a_anchor_count_law():
    rng = random.Random(1234)
    checked = 0
    while checked < 1000:
        prior_cf, u = random_scene(rng)
        oracle = oracle_enumerate_anchors(u, prior_cf)
        pronouns = [m for m in u.markers if m.is_pronoun]
        if not oracle and pronouns:
            with pytest.raises(UnresolvablePronoun):
                stages(u, prior_cf)
            checked += 1
            continue
        anchors = stages(u, prior_cf).anchors
        expected = len(prior_cf) + 1
        for p in pronouns:
            expected *= len(pronoun_candidates(p, prior_cf))
        assert len(anchors) == expected == len(oracle)
        checked += 1
    report("7a", f"anchor-count law holds on {checked} randomized cases vs brute-force recount")


def test_criterion_7b_filter_order_invariance():
    rng = random.Random(4321)
    checked = 0
    while checked < 300:
        prior_cf, u = random_scene(rng)
        try:
            s = stages(u, prior_cf)
        except UnresolvablePronoun:
            continue
        for remaining in filtered_in_every_order(s.anchors, prior_cf, u):
            assert remaining == s.survivors
        # And agreement with the independent filter re-derivation.
        assert [a.ordinal for a in s.survivors] == [
            a.ordinal for a in s.anchors if oracle_passes_filters(a, prior_cf, u)
        ]
        checked += 1
    report("7b", f"filter outcome invariant over all 3! orders on {checked} randomized cases")


def test_criterion_7c_rank_filter_commutation():
    # All bundled corpora, replaying the engine's per-utterance inputs.
    for corpus in CORPORA:
        results = process_document(load_bundled(corpus))
        prev_cf = prev_cb = None
        for r in results:
            if prev_cf is not None and r.anchors:
                s = stages(r.utterance, prev_cf, prev_cb, Mode.EXTENDED)
                alt = oracle_rank_then_filter(s.anchors, prev_cf, r.utterance, prev_cb, Mode.EXTENDED)
                assert s.ranked[0].anchor.ordinal == alt
            prev_cf = r.cf
            prev_cb = r.cb.entity if r.cb is not None else None
    # Randomized cases.
    rng = random.Random(77)
    checked = 0
    while checked < 300:
        prior_cf, u = random_scene(rng)
        if not u.markers:
            continue
        prev_cb = prior_cf[0].entity if prior_cf else None
        try:
            s = stages(u, prior_cf, prev_cb, Mode.EXTENDED)
        except UnresolvablePronoun:
            continue
        alt = oracle_rank_then_filter(s.anchors, prior_cf, u, prev_cb, Mode.EXTENDED)
        if not s.survivors:
            assert alt is None
        else:
            assert s.ranked[0].anchor.ordinal == alt
        checked += 1
    report("7c", "rank-then-filter equals filter-then-rank on bundled corpora and randomized cases")


def test_criterion_7d_committed_anchors_respect_the_rules():
    rng = random.Random(31337)
    for _ in range(400):
        utterances = random_discourse(rng)
        results = process_discourse(utterances)
        problems = validate_committed(results)
        assert problems == [], problems
    for corpus in CORPORA:
        assert validate_committed(process_document(load_bundled(corpus))) == []
    report("7d", "independent validator finds no constraint/rule violations in committed anchors")


def test_criterion_7e_replay_prefix_equivalence():
    rng = random.Random(99999)
    for _ in range(150):
        utterances = random_discourse(rng)
        whole = process_discourse(utterances)
        for k in range(len(utterances) + 1):
            prefix = process_discourse(utterances[:k])
            assert render_trace(prefix, "structured") == render_trace(whole[:k], "structured")
    report("7e", "prefix processing replays identically to whole-discourse processing")


def test_criterion_8_golden_traces():
    hashes = json.loads((GOLDEN_DIR / "structured.sha256.json").read_text(encoding="utf-8"))
    assert set(hashes) == set(CORPORA)
    for corpus in CORPORA:
        results = process_document(load_bundled(corpus))
        figure = render_trace(results, "figure")
        golden = (GOLDEN_DIR / f"{corpus}.figure.txt").read_text(encoding="utf-8")
        assert figure == golden, f"{corpus} figure trace drifted from its golden"
        structured = render_trace(results, "structured")
        digest = hashlib.sha256(structured.encode("utf-8")).hexdigest()
        assert digest == hashes[corpus], f"{corpus} structured trace hash drifted"
    report(8, "figure traces match goldens token-for-token; structured hashes stable")
