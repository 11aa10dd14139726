"""Seeded generator of synthetic corpus files for the benchmark.

Cost in the centering pipeline is driven by three numbers: utterances per
discourse, pronouns per utterance, and agreement-compatible candidates per
pronoun. An utterance constructs (|Cf_prev| + 1) * prod(|candidates(p)|)
anchors before filtering. Each workload fixes ranges for those numbers,
and for NP density and quoting, which drive the parser; the seed picks
values inside the ranges, and the names, genders, grammatical functions
and contraindexing. Only the standard library is used. The generator
never imports the program: it writes corpus text and nothing else.

Candidate counts are set through agreement, because a pronoun's
candidates are the distinct prior entities whose realizing marker agrees
with it:

- unspecified-gender pronouns (agr=-,sg,3) agree with every singular
  entity. Every utterance names the whole per-discourse cast of
  `candidates` singular characters, so whatever the previous pronouns
  bound to is named there too, and each pronoun has exactly that many
  candidates;
- gendered pronouns get a gender that at most `candidates[1]` markers of
  the previous utterance share. Their utterance's other NPs never
  re-mention an entity the previous utterance realized (its names, and
  any character of its pronouns' gender), so a name cannot outrank the
  pronoun's antecedent and leave no viable anchor.

Contraindexing joins pairs of pronouns or pairs of fixed NPs, never a
pronoun and a fixed NP.

Utterance counts across a pool, and pronoun counts across a discourse,
are balanced over their ranges rather than drawn one by one, so a pool's
cost, and the medians and tail percentiles measured on it, do not hinge
on a few unlucky draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

GFS = ("SUBJ", "OBJ", "OBJ2", "OTHER", "ADJ")


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's corpus and the CLI flags it is run with.

    Ranges are inclusive. `discourses` is the pool size; `pronouns`
    applies to every utterance but the opener, which has none; `nps` is
    the NP count per utterance, pronouns included, for gendered pronouns
    (None otherwise: such utterances name the whole cast besides their
    pronouns); `quoted` is the share of multi-word (quoted) surfaces;
    `contra` is the chance that an eligible pair of NPs is contraindexed.
    """

    name: str
    why: str
    discourses: int
    utterances: tuple[int, int]
    pronouns: tuple[int, int]
    candidates: tuple[int, int]
    nps: tuple[int, int] | None
    quoted: float
    contra: float
    flags: tuple[str, ...]

    @property
    def gendered(self) -> bool:
        """Gendered pronouns among fresh NPs, or (no `nps`) unspecified-gender
        pronouns over the named cast."""
        return self.nps is not None


WORKLOADS = {
    w.name: w
    for w in (
        # Construction, filters and ranking do most of the work here.
        Workload(
            name="ambiguous",
            why=(
                "8-10 utterances, 3-4 unspecified-gender pronouns each over 3 "
                "candidates: anchor construction, filters and ranking dominate; "
                "structured output"
            ),
            discourses=48,
            utterances=(8, 10),
            pronouns=(3, 4),
            candidates=(3, 3),
            nps=None,
            quoted=0.3,
            contra=0.35,
            flags=("--format", "structured"),
        ),
        # The np-line parser (shlex) does most of the work here.
        Workload(
            name="narrative",
            why=(
                "100-120 utterances of 4-5 NPs, many quoted, at most one pronoun "
                "with <=2 candidates: the np-line parser dominates and filters do little"
            ),
            discourses=24,
            utterances=(100, 120),
            pronouns=(0, 1),
            candidates=(1, 2),
            nps=(4, 5),
            quoted=0.6,
            contra=0.25,
            flags=(),
        ),
        # Rendering of every anchor and verdict does most of the work here.
        Workload(
            name="explain",
            why=(
                "classic mode, 2 pronouns over 5 candidates, --dump-anchors "
                "--explain: ties, and every anchor and verdict rendered with its "
                "roman label"
            ),
            discourses=48,
            utterances=(9, 11),
            pronouns=(2, 2),
            candidates=(5, 5),
            nps=None,
            quoted=0.3,
            contra=0.3,
            flags=("--classic", "--dump-anchors", "--explain"),
        ),
    )
}

_FIRST = {
    "fem": ("Anna", "Brennan", "Carla", "Dora", "Edith", "Friedman", "Greta", "Hilde", "Ines", "Julia"),
    "masc": ("Arno", "Bruno", "Carl", "David", "Emil", "Fred", "Gustav", "Hugo", "Ivan", "Max"),
}
_LAST = ("Lopez", "Meyer", "Novak", "Okafor", "Petrov", "Quinn", "Rossi", "Sato", "Tanaka", "Ueda")
_THINGS = (
    ("car", "Alfa Romeo"), ("house", "old harbour house"), ("book", "green ledger"),
    ("boat", "red schooner"), ("lamp", "brass lamp"), ("garden", "walled garden"),
    ("bridge", "iron bridge"), ("clock", "station clock"),
)
_PLURALS = ("weekends", "races", "letters", "tools", "roses", "papers", "stairs", "windows")
_PRONOUNS = {"fem": ("she", "her"), "masc": ("he", "him"), None: ("it", "that")}
_VERBS = ("meets", "follows", "calls", "watches", "helps", "visits", "thanks", "warns")


@dataclass
class _Np:
    id: str
    surface: str
    kind: str
    agr: str
    entity: str | None = None
    gf: str = "ADJ"
    contra: tuple[str, ...] = ()

    def line(self) -> str:
        surface = f'"{self.surface}"' if " " in self.surface else self.surface
        parts = [f"np id={self.id} surface={surface} kind={self.kind} gf={self.gf} agr={self.agr}"]
        if self.entity is not None:
            parts.append(f"entity={self.entity}")
        if self.contra:
            parts.append("contra=" + ",".join(self.contra))
        return " ".join(parts)


def _entity_id(surface: str) -> str:
    return surface.upper().replace(" ", "-")


def _referents(rng: random.Random, size: int, quoted: float, things: bool) -> list[_Np]:
    """Distinct singular referents (characters, and things when asked) as
    fixed-NP templates."""
    out: dict[str, _Np] = {}
    while len(out) < size:
        if things and rng.random() < 0.3:
            short, long = rng.choice(_THINGS)
            surface = f"the {long}" if rng.random() < quoted else f"the {short}"
            np = _Np("", surface, "definite", "neut,sg,3", _entity_id(surface))
        else:
            gender = rng.choice(("fem", "masc"))
            first = rng.choice(_FIRST[gender])
            surface = f"{first} {rng.choice(_LAST)}" if rng.random() < quoted else first
            np = _Np("", surface, "name", f"{gender},sg,3", _entity_id(surface))
        out.setdefault(np.entity, np)
    return list(out.values())


def _plural(rng: random.Random, quoted: float) -> _Np:
    plural = rng.choice(_PLURALS)
    return _Np("", f"some {plural}" if rng.random() < quoted else plural, "indefinite", "neut,pl,3")


def _pronoun_gender(rng: random.Random, prev: list[_Np], limit: int) -> str | None:
    """A gender that one to `limit` markers of the previous utterance carry."""
    counts: dict[str, int] = {}
    for np in prev:
        gender, number, _ = np.agr.split(",")
        if number == "sg" and gender in ("fem", "masc"):
            counts[gender] = counts.get(gender, 0) + 1
    fits = sorted(g for g, n in counts.items() if n <= limit)
    return rng.choice(fits) if fits else None


def _contra(rng: random.Random, group: list[_Np], p: float) -> None:
    for i, a in enumerate(group):
        for b in group[i + 1:]:
            if rng.random() < p:
                a.contra += (b.id,)
                b.contra += (a.id,)


def _schedule(rng: random.Random, span: tuple[int, int], count: int) -> list[int]:
    """`count` values that cycle through `span`, in seeded order."""
    values = [span[0] + k % (span[1] - span[0] + 1) for k in range(count)]
    rng.shuffle(values)
    return values


def _utterance(rng: random.Random, w: Workload, cast: list[_Np], prev: list[_Np] | None, n_pron: int) -> list[_Np]:
    pronouns = []
    for k in range(n_pron):
        gender = _pronoun_gender(rng, prev, w.candidates[1]) if w.gendered else None
        if w.gendered and gender is None:
            break
        agr = f"{gender},sg,3" if gender else "-,sg,3"
        pronouns.append(_Np(f"p{k}", _PRONOUNS[gender][k % 2], "pronoun", agr))
    if w.gendered:
        # Leave out whom the previous utterance realized: its NPs, and any
        # character its pronouns' gender could have bound them to.
        taken = {np.entity for np in prev or ()}
        bound = {np.agr for np in prev or () if np.kind == "pronoun"}
        pool = [c for c in cast if c.entity not in taken and c.agr not in bound]
        rng.shuffle(pool)
        templates = []
        for _ in range(rng.randint(*w.nps) - len(pronouns)):
            templates.append(pool.pop() if pool and rng.random() < 0.8 else _plural(rng, w.quoted))
    else:
        # Naming the whole cast every time makes the candidate count exact:
        # whatever the pronouns bound to, it is a cast member named here.
        templates = list(cast)
    fixed = [_Np(f"n{k}", t.surface, t.kind, t.agr, t.entity) for k, t in enumerate(templates)]
    nps = pronouns + fixed
    gfs = list(GFS) * 2
    rng.shuffle(gfs)
    for np, gf in zip(nps, gfs):
        np.gf = gf
    _contra(rng, pronouns, w.contra)
    _contra(rng, fixed, w.contra)
    return nps


def discourse_text(w: Workload, seed: int, index: int) -> str:
    """Corpus text of discourse `index` of workload `w` under `seed`."""
    count = _schedule(random.Random(f"{w.name}:{seed}"), w.utterances, w.discourses)[index % w.discourses]
    rng = random.Random(f"{w.name}:{seed}:{index}")
    if w.gendered:
        cast = _referents(rng, 16, w.quoted, things=True)
    else:
        cast = _referents(rng, rng.randint(*w.candidates), w.quoted, things=False)
    lines = [f"discourse {w.name}-{seed}-{index}", "mode extended"]
    prev = None
    for position, n_pron in enumerate([0] + _schedule(rng, w.pronouns, count - 1), start=1):
        nps = _utterance(rng, w, cast, prev, n_pron)
        ordered = sorted(nps, key=lambda np: GFS.index(np.gf))
        text = f"{ordered[0].surface} {rng.choice(_VERBS)} " + ", ".join(np.surface for np in ordered[1:])
        lines += ["", f"utterance {text} ({position})."]
        lines += [np.line() for np in nps]
        prev = nps
    return "\n".join(lines) + "\n"


def write_corpus(w: Workload, seed: int, directory: Path, count: int | None = None) -> list[Path]:
    """Write the workload's first `count` discourses (default: all) under
    `directory` and return their paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(w.discourses if count is None else count):
        path = directory / f"{w.name}-{index:03d}.corpus"
        path.write_text(discourse_text(w, seed, index), encoding="utf-8")
        paths.append(path)
    return paths
