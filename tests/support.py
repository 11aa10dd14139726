"""Shared test helpers: marker factories, brute-force oracles, random
discourse generation, and an independent validator for committed anchors.

The oracles deliberately avoid the library's own enumeration and
filtering code paths so they stay meaningful as checks.
"""

from __future__ import annotations

import copy
import inspect
import pickle
import random
import sys
from collections.abc import Iterable
from itertools import combinations, permutations, product
from typing import NamedTuple

from centering import (
    NO_PRIOR,
    Agreement,
    AnchorGrid,
    CfEntry,
    CfList,
    Entity,
    GrammaticalFunction,
    MarkerKind,
    Mode,
    ReferenceMarker,
    Transition,
    Utterance,
    classify,
    propose_anchors,
    rank_and_select,
    render_trace,
    roman,
    run_filters,
)
from centering.engine import FAILURE_DIAGNOSTICS, UtteranceResult
from centering.filters import FILTER_NAMES

FEM = Agreement("fem", "sg", "3")
MASC = Agreement("masc", "sg", "3")
NEUT = Agreement("neut", "sg", "3")

SUBJ = GrammaticalFunction.SUBJECT
OBJ = GrammaticalFunction.OBJECT
OBJ2 = GrammaticalFunction.OBJECT2
OTHER = GrammaticalFunction.OTHER_SUBCAT
ADJ = GrammaticalFunction.ADJUNCT


def name(surface, entity_id, gf=SUBJ, agr=None, contra=(), mid=None):
    return ReferenceMarker(
        surface=surface,
        kind=MarkerKind.NAME,
        gf=gf,
        agr=agr if agr is not None else Agreement(),
        contra=frozenset(contra),
        entity=Entity(entity_id, surface),
        mid=mid,
    )


def pronoun(surface, index=None, gf=SUBJ, agr=None, contra=(), mid=None):
    return ReferenceMarker(
        surface=surface,
        kind=MarkerKind.PRONOUN,
        gf=gf,
        agr=agr if agr is not None else Agreement(),
        contra=frozenset(contra),
        index=index,
        mid=mid,
    )


def indefinite(surface, entity_id=None, index=None, gf=ADJ, agr=None, contra=(), mid=None):
    entity = Entity(entity_id, surface) if entity_id else None
    return ReferenceMarker(
        surface=surface,
        kind=MarkerKind.INDEFINITE,
        gf=gf,
        agr=agr if agr is not None else NEUT,
        contra=frozenset(contra),
        entity=entity,
        index=index,
        mid=mid,
    )


def utt(text, *markers, position=1):
    return Utterance(text, tuple(markers), position)


def cf_of(*markers):
    """A Cf list over already-bound markers (names/indefinites)."""
    return tuple(CfEntry(m.entity, m) for m in markers)


def bind(marker, entity):
    return CfEntry(entity, marker)


def race_scene():
    """The two-pronoun shift scenario, built directly: prior centers
    (FRIEDMAN:Friedman, BRENNAN:A8, WEEKEND:X3), current utterance
    "She often beats her" with contraindexed A9/A10, previous center
    BRENNAN."""
    friedman_m = name("Friedman", "FRIEDMAN", gf=SUBJ, agr=FEM)
    her_prior = pronoun("her", index="A8", gf=OBJ, agr=FEM)
    weekends = indefinite("weekends", entity_id="WEEKEND", index="X3", gf=ADJ,
                          agr=Agreement("neut", "pl", "3"))
    brennan = Entity("BRENNAN", "Brennan")
    prior_cf = (
        CfEntry(friedman_m.entity, friedman_m),
        CfEntry(brennan, her_prior),
        CfEntry(weekends.entity, weekends),
    )
    u = utt(
        "She often beats her.",
        pronoun("She", index="A9", gf=SUBJ, agr=FEM, contra={"A10"}),
        pronoun("her", index="A10", gf=OBJ, agr=FEM, contra={"A9"}),
        position=4,
    )
    return prior_cf, u, brennan


# --- anchor records --------------------------------------------------------


class Anchor(NamedTuple):
    """One candidate anchor as the tests see it: its backward center (None
    for the null center), its Cf list and its 1-based construction
    ordinal."""

    cb: CfEntry | None
    cf: CfList
    ordinal: int


class Ranked(NamedTuple):
    """A ranked anchor with the transition it makes."""

    anchor: Anchor
    transition: Transition


def anchors_of(grid: AnchorGrid, positions: Iterable[int] | None = None) -> list[Anchor]:
    """The anchors of a grid, or those at the given positions, in the
    positions' order. The Cf lists are rebuilt as the product of the
    slots, not read through the grid."""
    cf_lists = cf_lists_of(grid)
    if positions is None:
        positions = range(len(grid.cbs) * len(cf_lists))
    width = len(cf_lists)
    return [Anchor(grid.cbs[p // width], cf_lists[p % width], p + 1) for p in positions]


def cf_lists_of(grid: AnchorGrid) -> list[CfList]:
    """A grid's Cf lists in column order: the product of its slots."""
    return list(product(*grid.slots))


def ranked_of(ranking, grid: AnchorGrid) -> list[Ranked]:
    """A Ranking of `grid`'s anchors in rank order, each with its
    transition. The anchors are rebuilt by `anchors_of`, and each
    position's transition is read off `ranking.sizes`, not by iterating
    the ranking. An opener centers its own preferred center, so a null
    center that continues shows as the head of its Cf list."""
    transitions = [t for t, size in zip(Transition, ranking.sizes) for _ in range(size)]
    ranked = []
    for anchor, transition in zip(anchors_of(grid, ranking.positions), transitions, strict=True):
        if anchor.cb is None and transition is Transition.CONTINUING:
            anchor = anchor._replace(cb=anchor.cf[0])
        ranked.append(Ranked(anchor, transition))
    return ranked


class Stages(NamedTuple):
    """What each stage made of one utterance, in the oracles' shapes."""

    anchors: list[Anchor]  # every candidate, in ordinal order
    eliminated: dict[int, frozenset[str]]  # ordinal -> the filters that eliminated it
    survivors: list[Anchor]
    ranked: list[Ranked]  # in rank order; empty when nothing was ranked
    tie: bool


# The stage calls and the shapes they return, which only support.py and
# the tests that pin the documented shapes name.
STAGE_SHAPES = r"\b(propose_anchors|run_filters|rank_and_select)\b|\.(cf_list|width|cbs|slots|masks|positions|sizes)\b"
SHAPE_MODULES = frozenset({"support.py", "test_construction.py", "test_filters.py", "test_classification.py"})


def stages(u: Utterance, prior_cf: CfList, prev_cb=NO_PRIOR, mode: Mode = Mode.EXTENDED) -> Stages:
    """Construct, filter and rank the anchors of `u` after `prior_cf`.
    Ranking runs only when something survived and `u` has markers; every
    exception a stage raises propagates."""
    grid = propose_anchors(u, prior_cf)
    survivors, verdicts = run_filters(grid, prior_cf, u)
    ranked, tie = [], False
    if survivors and u.markers:
        _, ranking, tie = rank_and_select(survivors, grid, prev_cb, mode)
        ranked = ranked_of(ranking, grid)
    eliminated = {v.anchor_id: v.eliminated_by for v in verdicts}
    return Stages(anchors_of(grid), eliminated, anchors_of(grid, survivors), ranked, tie)


def assert_value_by_fields(value, *others):
    """`value` is a value of its fields.

    A fresh one built from the fields its constructor takes equals it,
    hashes alike and prints alike, its repr opening with the type's name;
    so do its pickle, its copy and its deep copy. Each of `others`, of
    the same type with some field changed, is unequal to it. Assigning
    any field raises AttributeError and leaves the field as it was.
    """
    cls = type(value)
    twin = cls(*(getattr(value, name) for name in inspect.signature(cls).parameters))
    assert twin is not value and repr(twin) == repr(value) and repr(value).startswith(cls.__name__ + "(")
    for same in (twin, pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(same) is cls and same == value and hash(same) == hash(value), same
    for other in others:
        assert type(other) is cls and other != value, other
    for name in value.__slots__:
        field = getattr(value, name)
        try:
            setattr(value, name, None)
        except AttributeError:
            assert getattr(value, name) is field
            continue
        raise AssertionError(f"{cls.__name__}.{name} could be assigned")


def line_events(fn, *args) -> int:
    """The number of "line" events `sys.settrace` reports while
    `fn(*args)` runs, in `fn` and every Python function it calls: a count
    of the lines executed that reads no clock, so it does not depend on
    the machine's speed. Comprehensions may be inlined on some Python
    versions, so compare counts between input sizes, not with constants.
    The trace function installed before, if any, is installed again.
    """
    events = 0

    def on_line(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return events


# --- independent oracles ---------------------------------------------------


def _agree(a: Agreement, b: Agreement) -> bool:
    pairs = ((a.gender, b.gender), (a.number, b.number), (a.person, b.person))
    return all(x is None or y is None or x == y for x, y in pairs)


def oracle_candidate_ids(p: ReferenceMarker, prior_cf: CfList) -> list[str]:
    ids: list[str] = []
    for entry in prior_cf:
        if entry.entity.id not in ids and _agree(p.agr, entry.marker.agr):
            ids.append(entry.entity.id)
    return ids


def oracle_enumerate_anchors(u: Utterance, prior_cf: CfList):
    """All (cb id or None, pronoun-binding tuple) pairs by plain nested
    list-building; empty when some pronoun has no candidate."""
    pronouns = [m for m in u.markers if m.kind is MarkerKind.PRONOUN]
    assignments: list[list[str]] = [[]]
    for p in pronouns:
        ids = oracle_candidate_ids(p, prior_cf)
        assignments = [done + [eid] for done in assignments for eid in ids]
    cbs = [entry.entity.id for entry in prior_cf] + [None]
    return [(cb, tuple(done)) for cb in cbs for done in assignments]


def _bound_ids(anchor: Anchor) -> dict[str, str]:
    return {e.marker.mid: e.entity.id for e in anchor.cf}


def oracle_contra(anchor: Anchor, u: Utterance) -> bool:
    """Contraindexing: no two contraindexed markers bound to one entity."""
    bound = _bound_ids(anchor)
    for a, b in combinations(u.markers, 2):
        if (b.mid in a.contra or a.mid in b.contra) and bound.get(a.mid) == bound.get(b.mid):
            if bound.get(a.mid) is not None:
                return False
    return True


def oracle_constraint3(anchor: Anchor, prior_cf: CfList) -> bool:
    """Constraint 3: the center is the most prominent prior entity
    realized, and null when none is."""
    realized = set(_bound_ids(anchor).values())
    top = None
    for entry in prior_cf:
        if entry.entity.id in realized:
            top = entry.entity.id
            break
    cb_id = anchor.cb.entity.id if anchor.cb is not None else None
    return cb_id == top


def oracle_rule1(anchor: Anchor, prior_cf: CfList) -> bool:
    """Rule 1: if a pronoun realizes a prior entity, one realizes the center."""
    prior_ids = {entry.entity.id for entry in prior_cf}
    pronoun_ids = {e.entity.id for e in anchor.cf if e.marker.kind is MarkerKind.PRONOUN}
    cb_id = anchor.cb.entity.id if anchor.cb is not None else None
    return not pronoun_ids & prior_ids or cb_id in pronoun_ids


def oracle_passes_filters(anchor: Anchor, prior_cf: CfList, u: Utterance) -> bool:
    """Re-derivation of all three filters from their statements."""
    return oracle_contra(anchor, u) and oracle_constraint3(anchor, prior_cf) and oracle_rule1(anchor, prior_cf)


def filtered_in_every_order(anchors, prior_cf: CfList, u: Utterance):
    """`anchors` put through the three filters' oracles in each of the 3!
    orders, one list of the anchors left per order."""
    predicates = (
        lambda a: oracle_contra(a, u),
        lambda a: oracle_constraint3(a, prior_cf),
        lambda a: oracle_rule1(a, prior_cf),
    )
    for order in permutations(predicates):
        remaining = list(anchors)
        for predicate in order:
            remaining = [a for a in remaining if predicate(a)]
        yield remaining


def preference_rank(transition: Transition) -> int:
    """Position in the preference order (lower is better, both modes)."""
    return list(Transition).index(transition)


def oracle_tie(ranked) -> bool:
    """Whether the top preference class of `ranked`, (transition, center,
    Cf list) triples in rank order, holds two distinct readings: a
    reading is the center's entity id (None for a null center) and the
    Cf list."""
    ranked = list(ranked)
    top = {(cb.entity.id if cb is not None else None, cf) for t, cb, cf in ranked if t is ranked[0][0]}
    return len(top) > 1


def oracle_rank_then_filter(anchors, prior_cf: CfList, u: Utterance, prev_cb, mode: Mode) -> int | None:
    """The alternative control structure: classify and rank every anchor,
    then take the ordinal of the first that passes all the filters (None
    when none does). Only the filtering is re-derived; the transition
    rule is the library's own `classify`."""
    keyed = sorted(anchors, key=lambda a: (preference_rank(classify(a.cb, a.cf, prev_cb, mode)), a.ordinal))
    for anchor in keyed:
        if oracle_passes_filters(anchor, prior_cf, u):
            return anchor.ordinal
    return None


def oracle_anchor_dump(result: UtteranceResult) -> str:
    """The `--dump-anchors` block of one result, written one anchor at a
    time: its label, `<center, Cf list>`, and the filters that eliminated
    it, or a ranked survivor's transition with `<- selected` on the
    winner; an unranked survivor gets no note."""
    ranked = ranked_of(result.ranked, result.anchors)
    transition_at = {r.anchor.ordinal - 1: r.transition for r in ranked}
    winner = ranked[0].anchor.ordinal - 1 if ranked else None
    lines = [f"anchors ({len(result.anchors)}):"]
    for anchor, mask in zip(anchors_of(result.anchors), result.verdicts.masks()):
        position = anchor.ordinal - 1
        if mask:
            note = "eliminated: " + ", ".join(name for bit, name in enumerate(FILTER_NAMES) if mask >> bit & 1)
        else:
            transition = transition_at.get(position)
            note = transition.value if transition is not None else ""
            if position == winner:
                note = (note + "  <- selected").strip()
        cb = anchor.cb.display if anchor.cb is not None else "NIL"
        cf = "(" + " ".join(e.display for e in anchor.cf) + ")"
        lines.append(f"  {roman(anchor.ordinal):>5}. <{cb}, {cf}>  {note}".rstrip())
    return "\n".join(lines)


def oracle_ranked_records(result: UtteranceResult) -> list[dict]:
    """The `ranked` list of a result's `structured` record, rebuilt one
    ranked anchor at a time from `ranked_of`, which decodes each from the
    grid by itself."""
    return [
        {
            "anchor": roman(r.anchor.ordinal),
            "transition": r.transition.value,
            "cb": r.anchor.cb.display if r.anchor.cb is not None else "NIL",
            "cf": [e.display for e in r.anchor.cf],
        }
        for r in ranked_of(result.ranked, result.anchors)
    ]


def oracle_dump_trace(results: list[UtteranceResult]) -> str:
    """`render_trace(results, dump_anchors=True)` rebuilt from each
    result's plain `figure` stanzas, with `oracle_anchor_dump` put in
    before its tie line."""
    paragraphs: list[str] = []
    for r in results:
        own = render_trace([r]).removesuffix("\n").split("\n\n")
        if r.anchors:
            own.insert(len(own) - r.tie, oracle_anchor_dump(r))
        paragraphs += own
    return "\n\n".join(paragraphs) + "\n" if paragraphs else ""


# --- randomized inputs -----------------------------------------------------

_GENDERS = ("fem", "masc", "neut")


def random_scene(rng: random.Random):
    """A random (prior_cf, utterance) pair: prior centers realized by
    name-like markers, current utterance a mix of names and pronouns with
    random agreement and random symmetric contraindexing."""
    pool = [Entity(f"E{i}", f"E{i}") for i in range(rng.randint(1, 5))]
    gender = {e.id: rng.choice(_GENDERS) for e in pool}

    prior_markers = []
    for j, e in enumerate(rng.sample(pool, rng.randint(0, len(pool)))):
        prior_markers.append(
            ReferenceMarker(
                surface=e.name.lower(),
                kind=MarkerKind.NAME,
                gf=rng.choice(list(GrammaticalFunction)),
                agr=Agreement(gender[e.id], "sg", "3"),
                entity=e,
                mid=f"p{j}",
            )
        )
    prior_cf = tuple(CfEntry(m.entity, m) for m in prior_markers)

    markers = []
    for j in range(rng.randint(0, 3)):
        gf = rng.choice(list(GrammaticalFunction))
        if rng.random() < 0.5:
            e = rng.choice(pool)
            markers.append(
                ReferenceMarker(
                    surface=e.name.lower(),
                    kind=MarkerKind.NAME,
                    gf=gf,
                    agr=Agreement(gender[e.id], "sg", "3"),
                    entity=e,
                    mid=f"n{j}",
                )
            )
        else:
            g = rng.choice(_GENDERS + (None,))
            markers.append(
                ReferenceMarker(
                    surface="pro",
                    kind=MarkerKind.PRONOUN,
                    gf=gf,
                    agr=Agreement(g, "sg", "3"),
                    index=f"A{j + 1}",
                    mid=f"n{j}",
                )
            )
    contra: dict[str, set[str]] = {m.mid: set() for m in markers}
    for a, b in combinations(markers, 2):
        if rng.random() < 0.4:
            contra[a.mid].add(b.mid)
            contra[b.mid].add(a.mid)
    markers = [
        ReferenceMarker(
            surface=m.surface, kind=m.kind, gf=m.gf, agr=m.agr,
            contra=frozenset(contra[m.mid]), entity=m.entity,
            index=m.index, mid=m.mid,
        )
        for m in markers
    ]
    return prior_cf, Utterance("random scene", tuple(markers), 2)


def random_discourse(rng: random.Random, max_utterances: int = 5) -> list[Utterance]:
    """A random well-formed discourse of unannotated names and pronouns."""
    pool = [Entity(f"E{i}", f"E{i}") for i in range(rng.randint(2, 5))]
    gender = {e.id: rng.choice(_GENDERS) for e in pool}
    utterances = []
    for position in range(1, rng.randint(1, max_utterances) + 1):
        markers = []
        for j in range(rng.randint(0, 3)):
            gf = rng.choice(list(GrammaticalFunction))
            mid = f"u{position}n{j}"
            if rng.random() < 0.55:
                e = rng.choice(pool)
                markers.append(
                    ReferenceMarker(
                        surface=e.name.lower(), kind=MarkerKind.NAME, gf=gf,
                        agr=Agreement(gender[e.id], "sg", "3"), entity=e, mid=mid,
                    )
                )
            else:
                g = rng.choice(_GENDERS + (None,))
                markers.append(
                    ReferenceMarker(
                        surface="pro", kind=MarkerKind.PRONOUN, gf=gf,
                        agr=Agreement(g, "sg", "3"), mid=mid,
                    )
                )
        contra: dict[str, set[str]] = {m.mid: set() for m in markers}
        for a, b in combinations(markers, 2):
            if rng.random() < 0.4:
                contra[a.mid].add(b.mid)
                contra[b.mid].add(a.mid)
        markers = [
            ReferenceMarker(
                surface=m.surface, kind=m.kind, gf=m.gf, agr=m.agr,
                contra=frozenset(contra[m.mid]), entity=m.entity, mid=m.mid,
            )
            for m in markers
        ]
        utterances.append(Utterance(f"utterance {position}", tuple(markers), position))
    return utterances


# --- independent validator -------------------------------------------------


def validate_committed(results: list[UtteranceResult]) -> list[str]:
    """Re-check every committed anchor against the constraints and the
    pronoun rule, without reusing the engine's predicates.

    A discourse opener must center its own preferred center (or nothing,
    when it has no markers). Failed utterances are checked for the
    documented fallback shape instead: null center plus the fixed entities.
    """
    problems: list[str] = []
    prev_cf: CfList | None = None
    for r in results:
        u = r.utterance
        where = f"U{r.position}"
        if r.diagnostic_kind in FAILURE_DIAGNOSTICS:
            if r.cb is not None:
                problems.append(f"{where}: fallback commit must have a null center")
            fixed = [m.mid for m in u.markers if m.kind is not MarkerKind.PRONOUN]
            if [e.marker.mid for e in r.cf] != fixed:
                problems.append(f"{where}: fallback Cf must hold the fixed entities")
            prev_cf = r.cf
            continue
        # Constraint 2: every marker realized exactly once, in order.
        if [e.marker.mid for e in r.cf] != [m.mid for m in u.markers]:
            problems.append(f"{where}: committed Cf does not realize the markers 1:1")
        bound = {e.marker.mid: e.entity.id for e in r.cf}
        if prev_cf is None:
            # Constraint 1 for an opener: the center is its own Cp.
            if r.cf:
                if r.cb is None or r.cb.entity.id != r.cf[0].entity.id:
                    problems.append(f"{where}: opener must center its preferred center")
            elif r.cb is not None:
                problems.append(f"{where}: empty opener must have a null center")
        else:
            realized = set(bound.values())
            top = next((e.entity.id for e in prev_cf if e.entity.id in realized), None)
            cb_id = r.cb.entity.id if r.cb is not None else None
            if top is None:
                if cb_id is not None:
                    problems.append(f"{where}: nothing prior realized, center must be null")
            elif cb_id != top:
                problems.append(f"{where}: center {cb_id} is not the top realized prior entity {top}")
            prior_ids = {e.entity.id for e in prev_cf}
            pronoun_entries = [e for e in r.cf if e.marker.kind is MarkerKind.PRONOUN]
            pronoun_ids = {e.entity.id for e in pronoun_entries}
            if pronoun_ids & prior_ids and (cb_id is None or cb_id not in pronoun_ids):
                problems.append(f"{where}: a prior entity is pronominalized but the center is not")
            for e in pronoun_entries:
                sources = [p for p in prev_cf if p.entity.id == e.entity.id]
                if not sources:
                    problems.append(f"{where}: pronoun {e.marker.mid} bound outside the prior centers")
                elif not any(_agree(e.marker.agr, s.marker.agr) for s in sources):
                    problems.append(f"{where}: pronoun {e.marker.mid} bound against agreement")
        # Contraindexing on the committed anchor.
        for a, b in combinations(u.markers, 2):
            if (b.mid in a.contra or a.mid in b.contra) and bound.get(a.mid) == bound.get(b.mid):
                if bound.get(a.mid) is not None:
                    problems.append(f"{where}: contraindexed markers {a.mid}/{b.mid} co-bound")
        prev_cf = r.cf
    return problems
