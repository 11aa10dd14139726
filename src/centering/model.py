"""Domain model for tracking local attention in discourse.

Everything the pipeline shares lives here: grammatical functions and
their prominence order, agreement features, discourse entities,
per-utterance reference markers, forward-center lists, candidate
anchors, transition types, and the rolling per-discourse state. All
types are immutable values after construction; only DiscourseState is
mutable, and only the engine advances it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum, IntEnum

GENDERS = frozenset({"fem", "masc", "neut"})
NUMBERS = frozenset({"sg", "pl"})
PERSONS = frozenset({"1", "2", "3"})


class GrammaticalFunction(IntEnum):
    """Obliqueness rank of a marker; a lower value is more prominent."""

    SUBJECT = 0
    OBJECT = 1
    OBJECT2 = 2
    OTHER_SUBCAT = 3
    ADJUNCT = 4


class MarkerKind(Enum):
    """Surface category of a noun phrase."""

    PRONOUN = "pronoun"
    NAME = "name"
    DEFINITE = "definite"
    INDEFINITE = "indefinite"

    # Members are singletons, so identity hashing agrees with equality and
    # spares dict lookups Enum's Python-level __hash__.
    __hash__ = object.__hash__


# The index series of each kind that draws from one; names and definites
# are indexed by their surface string instead.
INDEX_SERIES = {MarkerKind.PRONOUN: "A", MarkerKind.INDEFINITE: "X"}
_INDEX_PATTERNS = {kind: re.compile(rf"{prefix}[1-9][0-9]*\Z") for kind, prefix in INDEX_SERIES.items()}


class MarkerError(ValueError):
    """A ReferenceMarker breaks a rule; `fieldname` names the field at fault.

    `marker` is the marker blamed when a discourse-wide rule fails, and
    None when the marker at fault could not be built.
    """

    def __init__(self, message: str, fieldname: str, marker: ReferenceMarker | None = None):
        super().__init__(message)
        self.fieldname = fieldname
        self.marker = marker


class Mode(Enum):
    """Transition typology: classic three-way or extended four-way."""

    CLASSIC = "classic"
    EXTENDED = "extended"


class Transition(Enum):
    """How an utterance relates to the previous center of attention.

    Extended preference order is CONTINUING > RETAINING > SHIFTING_1 >
    SHIFTING; classic mode never produces SHIFTING_1.
    """

    CONTINUING = "CONTINUING"
    RETAINING = "RETAINING"
    SHIFTING_1 = "SHIFTING-1"
    SHIFTING = "SHIFTING"

    __hash__ = object.__hash__  # as for MarkerKind


@dataclass(frozen=True)
class Agreement:
    """Gender/number/person features; None leaves a feature unspecified."""

    gender: str | None = None
    number: str | None = None
    person: str | None = None

    def __post_init__(self) -> None:
        for value, allowed in (
            (self.gender, GENDERS),
            (self.number, NUMBERS),
            (self.person, PERSONS),
        ):
            if value is not None and value not in allowed:
                raise ValueError(f"bad agreement feature {value!r}")


def unify_agreement(a: Agreement, b: Agreement) -> bool:
    """True iff no specified feature clashes; unspecified matches anything."""
    return all(
        x is None or y is None or x == y
        for x, y in (
            (a.gender, b.gender),
            (a.number, b.number),
            (a.person, b.person),
        )
    )


@dataclass(frozen=True, eq=False)
class Entity:
    """A discourse-level individual.

    Identity, and hence co-specification, is by `id` alone; `name` is the
    display form used in binding reports (the surface that introduced the
    entity, e.g. "Carl" for POLLARD).
    """

    id: str
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", self.id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Entity) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"Entity({self.id})"


@dataclass(frozen=True)
class ReferenceMarker:
    """One NP occurrence in an utterance.

    `mid` identifies the marker within its utterance and is what contra
    sets refer to. `index` is the display index: A-series for pronouns,
    X-series for indefinites, the surface string for names and definites.
    Pronouns stay unbound (`entity` None); proposed bindings live in
    CfList entries, never on the marker itself.

    Construction raises MarkerError unless a pronoun carries no entity, a
    name or definite carries one, an A-/X-index is of its kind's series
    and `mid` is not in `contra`.
    """

    surface: str
    kind: MarkerKind
    gf: GrammaticalFunction
    agr: Agreement = Agreement()
    contra: frozenset[str] = frozenset()
    entity: Entity | None = None
    index: str | None = None
    mid: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.contra, frozenset):
            object.__setattr__(self, "contra", frozenset(self.contra))
        if self.kind is MarkerKind.PRONOUN and self.entity is not None:
            raise MarkerError("pronouns cannot carry an entity id", "entity")
        pattern = _INDEX_PATTERNS.get(self.kind)
        if pattern is None:
            if self.entity is None:
                raise MarkerError(f"{self.kind.value} {self.surface!r} needs an entity", "entity")
            if self.index is None:
                object.__setattr__(self, "index", self.surface)
        elif self.index is not None and not pattern.match(self.index):
            series = INDEX_SERIES[self.kind]
            raise MarkerError(f"{self.kind.value} index must be {series}-series, got {self.index!r}", "index")
        if self.mid is None:
            object.__setattr__(self, "mid", self.index or self.surface)
        if self.mid in self.contra:
            raise MarkerError(f"marker {self.mid!r} is contraindexed with itself", "contra")

    @property
    def is_pronoun(self) -> bool:
        return self.kind is MarkerKind.PRONOUN


def rank_markers(markers: list[ReferenceMarker]) -> list[ReferenceMarker]:
    """Stable sort by grammatical-function rank; input order breaks ties."""
    return sorted(markers, key=lambda m: m.gf)


@dataclass(frozen=True)
class Utterance:
    """One utterance; markers are (re)ordered by obliqueness on construction."""

    text: str
    markers: tuple[ReferenceMarker, ...]
    position: int = 1

    def __post_init__(self) -> None:
        ordered = tuple(rank_markers(list(self.markers)))
        object.__setattr__(self, "markers", ordered)
        mids = [m.mid for m in ordered]
        if len(set(mids)) != len(mids):
            raise ValueError(f"duplicate marker ids in utterance {self.position}")


@dataclass(frozen=True)
class CfEntry:
    """One forward-center slot: an entity plus the marker realizing it.

    `display` is its trace form, worked out once: one entry is shared by
    every Cf list that binds its marker to its entity.
    """

    entity: Entity
    marker: ReferenceMarker
    display: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.entity is None:
            raise ValueError(f"entry for marker {self.marker.mid!r} has no entity")
        # An anonymous indefinite's entity id is its index; showing the
        # surface there keeps displays like [X2:Alfa Romeo] readable.
        marker = self.marker
        anonymous = marker.kind is MarkerKind.INDEFINITE and marker.index == self.entity.id
        tag = marker.surface if anonymous else marker.index
        object.__setattr__(self, "display", f"[{self.entity.id}:{tag}]")


@dataclass(frozen=True)
class CfList:
    """Forward-looking centers in obliqueness order; head is the preferred center."""

    entries: tuple[CfEntry, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def assignment(self) -> dict[str, Entity]:
        """Map marker mid -> bound entity."""
        return {e.marker.mid: e.entity for e in self.entries}


@dataclass(frozen=True)
class Anchor:
    """A candidate pairing of backward center (None = null center) and Cf.

    `ordinal` is the 1-based construction-order position; it labels the
    anchor in traces and provides the deterministic tie-break.
    """

    cb: CfEntry | None
    cf: CfList
    ordinal: int


class View(Sequence):
    """Base of the pipeline's lazy sequences, each a value kept in slots.

    A view names its fields in `__slots__` and defines `__len__` and
    `_at(i)`, which builds item i when it is read. Views are equal when
    they are of one type with equal fields, and hash and print by their
    fields; indices and slices work as on a list. Do not reassign fields.
    """

    # Not frozen dataclasses: making one costs about 1 ms at import, which
    # every CLI start pays.
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __getitem__(self, index):
        positions = range(len(self))[index]
        if isinstance(positions, range):
            return [self._at(i) for i in positions]
        return self._at(positions)

    def __iter__(self) -> Iterator:
        return map(self._at, range(len(self)))


class AnchorGrid(View):
    """Every candidate anchor of one utterance, kept as positions.

    The anchors are the pairs of `cbs` × `cf_lists`, center-major: index
    i pairs cbs[i // len(cf_lists)] with cf_lists[i % len(cf_lists)] and
    has ordinal i + 1.
    """

    __slots__ = ("cbs", "cf_lists")

    def __init__(self, cbs: tuple[CfEntry | None, ...], cf_lists: tuple[CfList, ...]) -> None:
        self.cbs = cbs
        self.cf_lists = cf_lists

    def __len__(self) -> int:
        return len(self.cbs) * len(self.cf_lists)

    def _at(self, i: int) -> Anchor:
        row, column = divmod(i, len(self.cf_lists))
        return Anchor(self.cbs[row], self.cf_lists[column], i + 1)


@dataclass
class DiscourseState:
    """Rolling per-discourse bookkeeping; owned and advanced by the engine.

    `prev` is what the next utterance reads of the last committed one: its
    center (None for a null center) and its Cf list; None before the
    first utterance.
    """

    mode: Mode = Mode.EXTENDED
    prev: tuple[Entity | None, CfList] | None = None
    last_transition: Transition | None = None


def reserved_ids(markers: Iterable[ReferenceMarker]) -> set[str]:
    """The ids that fresh A-/X-indices must skip in a discourse of
    `markers`: every explicit index, and every entity id, as an anonymous
    indefinite's entity is named after its index.

    Raises MarkerError blaming the marker at fault when an explicit index
    is used a second time, or when an anonymous indefinite's explicit
    index is an entity id: the two referents would merge.
    """
    taken: set[str] = set()
    entity_ids: set[str] = set()
    anonymous: list[ReferenceMarker] = []  # indefinites with an index but no entity
    for m in markers:
        if m.entity is not None:
            entity_ids.add(m.entity.id)
        if m.index is not None and m.kind in INDEX_SERIES:
            if m.index in taken:
                raise MarkerError(f"index {m.index} already used in this discourse", "index", m)
            taken.add(m.index)
            if m.entity is None and m.kind is MarkerKind.INDEFINITE:
                anonymous.append(m)
    for m in anonymous:
        if m.index in entity_ids:
            raise MarkerError(
                f"index {m.index} is also an entity id, so this indefinite would merge with it; "
                "use another index or give entity=",
                "index",
                m,
            )
    return taken | entity_ids


def allocate_indices(utterances: Sequence[Utterance]) -> list[Utterance]:
    """The discourse with every missing A-/X-series index filled in, in
    discourse and obliqueness order.

    An index is a property of the whole discourse: fresh indices skip the
    discourse's `reserved_ids`, which also raises its MarkerError here.
    Before an utterance's fresh indices are drawn, its explicit ones pull
    their series' counter forward; a fresh index is the counter + 1,
    skipping taken ids, so it is also above every index drawn before it.
    Anonymous indefinites are bound to a fresh entity named after their
    surface and identified by their index. Only a marker that gains an
    index or an entity is rebuilt, and an utterance missing nothing comes
    back itself.
    """
    taken = reserved_ids(m for u in utterances for m in u.markers)
    counts = dict.fromkeys(INDEX_SERIES, 0)
    out = []
    for u in utterances:
        for m in u.markers:
            if m.index is not None and m.kind in INDEX_SERIES:
                counts[m.kind] = max(counts[m.kind], int(m.index[1:]))
        markers = None
        for i, m in enumerate(u.markers):
            index, entity = m.index, m.entity
            if index is None:  # only A-/X-series kinds are left without one
                prefix, count = INDEX_SERIES[m.kind], counts[m.kind] + 1
                while f"{prefix}{count}" in taken:
                    count += 1
                counts[m.kind] = count
                index = f"{prefix}{count}"
            if entity is None and m.kind is MarkerKind.INDEFINITE:
                entity = Entity(index, m.surface)
            if index is not m.index or entity is not m.entity:
                if markers is None:
                    markers = list(u.markers)
                markers[i] = ReferenceMarker(m.surface, m.kind, m.gf, m.agr, m.contra, entity, index, m.mid)
        out.append(u if markers is None else Utterance(u.text, tuple(markers), u.position))
    return out
