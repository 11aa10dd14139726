"""Property checks backed by hypothesis and seeded randomized inputs."""

import io
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centering import (
    NO_PRIOR,
    Agreement,
    CorpusError,
    GrammaticalFunction,
    Mode,
    Transition,
    UnresolvablePronoun,
    Utterance,
    allocate_indices,
    build_utterances,
    format_corpus,
    parse_corpus,
    process_discourse,
    process_document,
    render_trace,
)
from centering.cli import cli_main
from centering.corpus import derive_entity_id
from centering.model import unify_agreement
from support import (
    filtered_in_every_order,
    oracle_allocate,
    oracle_rank_then_filter,
    pronoun,
    random_discourse,
    random_scene,
    stages,
    validate_committed,
)

agreements = st.builds(
    Agreement,
    st.sampled_from(["fem", "masc", "neut", None]),
    st.sampled_from(["sg", "pl", None]),
    st.sampled_from(["1", "2", "3", None]),
)


@given(agreements, agreements)
def test_unification_symmetry(a, b):
    assert unify_agreement(a, b) == unify_agreement(b, a)


@given(agreements)
def test_unspecified_agreement_is_universal(a):
    assert unify_agreement(Agreement(), a)


@given(st.lists(st.sampled_from(list(GrammaticalFunction)), max_size=8))
def test_rank_markers_is_an_idempotent_permutation(gfs):
    markers = [pronoun(f"p{i}", index=f"A{i + 1}", gf=gf) for i, gf in enumerate(gfs)]
    ranked = list(Utterance("", markers).markers)
    assert sorted(m.mid for m in ranked) == sorted(m.mid for m in markers)
    assert list(Utterance("", ranked).markers) == ranked
    assert all(x.gf <= y.gf for x, y in zip(ranked, ranked[1:]))


def test_filter_order_invariance_randomized():
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        prior_cf, u = random_scene(rng)
        try:
            s = stages(u, prior_cf)
        except UnresolvablePronoun:
            continue
        for remaining in filtered_in_every_order(s.anchors, prior_cf, u):
            assert remaining == s.survivors
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("mode", [Mode.EXTENDED, Mode.CLASSIC])
def test_rank_before_filter_matches_filter_before_rank(mode):
    rng = random.Random(2024)
    checked = 0
    for _ in range(400):
        prior_cf, u = random_scene(rng)
        if not u.markers:
            continue
        prev_cb = prior_cf[0].entity if prior_cf else None
        try:
            s = stages(u, prior_cf, prev_cb, mode)
        except UnresolvablePronoun:
            continue
        alternative = oracle_rank_then_filter(s.anchors, prior_cf, u, prev_cb, mode)
        if not s.survivors:
            assert alternative is None
            continue
        assert s.ranked[0].anchor.ordinal == alternative
        checked += 1
    assert checked > 100


def test_random_discourses_satisfy_the_constraints():
    rng = random.Random(31337)
    for _ in range(250):
        utterances = random_discourse(rng)
        results = process_discourse(utterances)
        assert validate_committed(results) == []
        # The verdicts keep the result's own grid, a failed utterance's too.
        assert all(r.verdicts.grid is r.anchors for r in results)


def test_index_allocation_never_reuses_indices():
    rng = random.Random(5150)
    for _ in range(200):
        utterances = random_discourse(rng)
        results = process_discourse(utterances)
        seen = set()
        for r in results:
            for m in r.utterance.markers:
                if m.kind.value in ("pronoun", "indefinite"):
                    assert m.index not in seen
                    seen.add(m.index)


def test_replay_prefix_equivalence_randomized():
    rng = random.Random(808)
    for _ in range(100):
        utterances = random_discourse(rng)
        whole = process_discourse(utterances)
        k = rng.randint(0, len(utterances))
        prefix = process_discourse(utterances[:k])
        assert render_trace(prefix, "structured") == render_trace(whole[:k], "structured")


@pytest.mark.parametrize("mode", list(Mode))
def test_results_of_a_prefix_are_a_prefix_of_the_results(mode):
    # Streaming results relies on this. It is stated on allocated
    # utterances: on raw input, an explicit index later in the discourse
    # moves earlier fresh indices, by design.
    rng = random.Random(4242)
    prefixes = 0
    for _ in range(250):
        us = allocate_indices(random_discourse(rng, max_utterances=8))
        whole = process_discourse(us, mode)
        for k in range(len(us) + 1):
            assert process_discourse(us[:k], mode) == whole[:k]
            prefixes += 1
    assert prefixes > 1000


_CAST = {"fem": ("Brennan", "Friedman", "Lyn", "Susan", "Rosa"), "masc": ("Carl", "Max", "Fred", "Tom", "Ivo")}
_PRONOUNS = {"fem": ("She", "her"), "masc": ("He", "him"), "-": ("It", "it")}
_THINGS = ("weekends", "races", "tires", "laps")


def _fig4_member(rng: random.Random) -> tuple[str, str, str]:
    """A fig4-shaped discourse and its two entity ids, old then new: the
    old one is named and kept as center, the new one comes in as subject
    while a pronoun keeps the old one (a RETAINING step), then two
    contraindexed pronouns of one agreement, subject and object. Around
    them: an optional continuation before the retention, plural things
    that agree with no pronoun, and optional contra between the names."""
    gender = rng.choice(["fem", "masc"])
    old, new = rng.sample(_CAST[gender], 2)
    agr = f"{gender},sg,3"
    # A gender-blind pronoun still has just the two women or men to bind.
    pronoun_agr = rng.choice([agr, "-,sg,3"])
    subj, obj = _PRONOUNS[gender if pronoun_agr == agr else "-"]

    def things() -> list[str]:
        return [
            f"np id=t{k} surface={rng.choice(_THINGS)} kind=indefinite gf={rng.choice(['OBJ2', 'OTHER', 'ADJ'])}"
            " agr=neut,pl,3"
            for k in range(rng.randint(0, 2))
        ]

    lines = ["discourse fig4-family"]
    lines += [f"utterance {old} drives.", f"np id=n surface={old} kind=name gf=SUBJ agr={agr}", *things()]
    if rng.random() < 0.5:
        lines += [f"utterance {subj} drives fast.", f"np id=p surface={subj} kind=pronoun gf=SUBJ agr={pronoun_agr}"]
    contra = rng.choice([("", ""), (" contra=p", " contra=n")])
    lines += [
        f"utterance {new} races {obj}.",
        f"np id=n surface={new} kind=name gf=SUBJ agr={agr}{contra[0]}",
        f"np id=p surface={obj} kind=pronoun gf=OBJ agr={pronoun_agr}{contra[1]}",
        *things(),
        f"utterance {subj} beats {obj}.",
        f"np id=s surface={subj} kind=pronoun gf=SUBJ agr={pronoun_agr} contra=o",
        f"np id=o surface={obj} kind=pronoun gf=OBJ agr={pronoun_agr} contra=s",
        *things(),
    ]
    return "\n".join(lines) + "\n", derive_entity_id(old), derive_entity_id(new)


def test_extension_breaks_the_classic_tie_on_a_fig4_shaped_family():
    # The case the paper's extension adds: after a RETAINING step, two
    # agreement-identical pronouns as subject and object. Classic mode
    # ties two SHIFTING readings; extended mode ranks the one whose
    # center is its preferred center (SHIFTING-1) first and binds as fig4
    # does: the subject to the newcomer, the object to the old center.
    rng = random.Random("fig4-family")
    for _ in range(40):
        text, old, new = _fig4_member(rng)
        doc = parse_corpus(text)
        classic = process_document(doc, Mode.CLASSIC)
        extended = process_document(doc, Mode.EXTENDED)
        assert classic[-2].transition is extended[-2].transition is Transition.RETAINING, text
        assert classic[-1].transition is Transition.SHIFTING and classic[-1].tie, text
        last = extended[-1]
        assert last.transition is Transition.SHIFTING_1 and not last.tie, text
        bound = {e.marker.mid: e.entity.id for e in last.cf if e.marker.is_pronoun}
        assert bound == {"s": new, "o": old}, text


def test_classification_requires_no_prior_marker_for_first_use():
    # NO_PRIOR is a distinct sentinel: a null previous center is not the
    # same thing as having no previous utterance.
    assert NO_PRIOR is not None
    assert repr(NO_PRIOR) == "NO_PRIOR"


# --- generated corpus text -------------------------------------------------

_SURFACES = {
    "name": ("Ann", "Bo", "Cy"),
    "definite": ("the car", "the dog"),
    "indefinite": ("a car", "a dog"),
    "pronoun": ("she", "he", "it", "they"),
}
_SERIES = {"pronoun": "A", "indefinite": "X"}
# X- and A-shaped ids can meet allocated indices; ANN meets a derived id.
_ENTITY_IDS = ("ANN", "CAR", "X1", "X2", "A1")
# Each breaks a rule of the format, at least for some kinds.
_BAD_FIELDS = (
    "gf=BAD", "kind=noun", "agr=fem,sg", "color=red", "contra=ghost", 'surface="open', "index=A1", "entity=ANN",
)


@st.composite
def corpus_texts(draw):
    """Corpus text of at most 4 utterances with at most 3 pronouns each,
    varying kinds, gfs, agreement, explicit A-/X-indices, `entity=` and
    `contra`; some lines break a rule of the format."""
    lines = ["discourse h"]
    if draw(st.booleans()):
        lines.append(f"mode {draw(st.sampled_from(['classic', 'extended']))}")
    for u in range(draw(st.integers(0, 4))):
        lines.append(f"utterance u{u}.")
        ids = [f"n{j}" for j in range(draw(st.integers(0, 4)))]
        pronouns = 0
        for np_id in ids:
            kind = draw(st.sampled_from(sorted(_SURFACES)))
            if kind == "pronoun":
                pronouns += 1
                if pronouns > 3:
                    kind = "name"
            fields = [
                f"id={np_id}",
                f"surface={shlex.quote(draw(st.sampled_from(_SURFACES[kind])))}",
                f"kind={kind}",
                f"gf={draw(st.sampled_from(['SUBJ', 'OBJ', 'OBJ2', 'OTHER', 'ADJ']))}",
            ]
            gender = draw(st.sampled_from(["fem", "masc", "neut", "-"]))
            fields.append(f"agr={gender},{draw(st.sampled_from(['sg', 'pl', '-']))},3")
            if kind in _SERIES and draw(st.integers(0, 2)) == 0:
                series = _SERIES[kind] if draw(st.integers(0, 7)) else draw(st.sampled_from("AX"))
                fields.append(f"index={series}{draw(st.integers(1, 6))}")
            if kind != "pronoun" and draw(st.integers(0, 2)) == 0:
                fields.append(f"entity={draw(st.sampled_from(_ENTITY_IDS))}")
            others = [other for other in ids if other != np_id]
            if others and draw(st.integers(0, 2)) == 0:
                fields.append(f"contra={draw(st.sampled_from(others))}")
            if draw(st.integers(0, 19)) == 0:
                fields.append(draw(st.sampled_from((*_BAD_FIELDS, f"contra={np_id}"))))
            lines.append("np " + " ".join(fields))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(corpus_texts())
def test_corpus_text_parses_or_raises_a_corpus_error_and_round_trips(text):
    try:
        doc = parse_corpus(text)
    except CorpusError as exc:
        assert exc.line is not None
        return
    assert parse_corpus(format_corpus(doc)) == doc


def _allocated(utterances):
    """What allocation decides, with each entity's name, which equality
    of entities (by id) leaves out."""
    return [(u, [m.entity and m.entity.name for m in u.markers]) for u in utterances]


def test_allocation_matches_the_oracle_on_random_discourses():
    rng = random.Random("allocate")
    for _ in range(200):
        utterances = random_discourse(rng, max_utterances=8)
        assert _allocated(allocate_indices(utterances)) == _allocated(oracle_allocate(utterances))


# A4 and X3 pull their series forward ahead of the fresh indices drawn
# before them in marker order; X1, X2 and A1 are entity ids that fresh
# indices skip; `d` is an anonymous indefinite with an explicit index,
# `c` and `g` ones without.
_ALLOCATION_CASES = """\
discourse h
utterance u0.
np id=p surface=she kind=pronoun gf=SUBJ agr=fem,sg,3
np id=c surface="a car" kind=indefinite gf=OBJ
np id=q surface=he kind=pronoun gf=OBJ2 agr=masc,sg,3 index=A4
np id=d surface="a dog" kind=indefinite gf=ADJ index=X3
utterance u1.
np id=a surface=Ann kind=name gf=SUBJ entity=X5
np id=b surface=Bo kind=definite gf=OBJ entity=A6
np id=r surface=it kind=pronoun gf=OTHER
np id=g surface="a dog" kind=indefinite gf=ADJ
utterance u2.
np id=e surface=Cy kind=name gf=SUBJ entity=X1
np id=f surface="a car" kind=indefinite gf=OBJ entity=A1
np id=t surface=they kind=pronoun gf=ADJ agr=-,pl,3
"""


@settings(max_examples=150, deadline=None)
@given(corpus_texts())
@example(_ALLOCATION_CASES)
@example(_ALLOCATION_CASES.replace(" index=A4", "").replace(" index=X3", " index=X2"))
def test_allocation_matches_the_oracle_on_parsed_corpus_text(text):
    try:
        utterances = build_utterances(parse_corpus(text))
    except CorpusError:
        return
    assert _allocated(allocate_indices(utterances)) == _allocated(oracle_allocate(utterances))


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "h.corpus"


def _cli(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli_main(argv)


@settings(max_examples=75, deadline=None)
@given(text=corpus_texts())
def test_run_exits_0_1_or_2_and_check_ok_means_run_works(corpus_file, text):
    corpus_file.write_text(text, encoding="utf-8")
    code = _cli(["run", str(corpus_file)])
    assert code in (0, 1, 2)
    if _cli(["check", str(corpus_file)]) == 0:
        assert code != 2
