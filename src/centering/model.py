"""Domain model for tracking local attention in discourse.

Everything the pipeline shares lives here: grammatical functions and
their prominence order, agreement features, discourse entities,
per-utterance reference markers, forward-center lists, the grid of an
utterance's candidate anchors, transition types, and the allocation of a
discourse's indices.

Every type is a `Value`: a slot class whose `__init__` checks its fields
and sets each once through the class's one `_set`, which unpickling and
copying call too. After that its fields are read-only, and it compares,
hashes, prints and pickles by them.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from enum import Enum, IntEnum
from math import prod

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


# Reading a member off an Enum class costs about five plain attribute
# reads (CPython 3.11); what runs per marker or per utterance reads a
# module constant instead.
_PRONOUN = MarkerKind.PRONOUN

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


_CLASSIC, _EXTENDED = Mode.CLASSIC, Mode.EXTENDED  # as _PRONOUN


def as_mode(mode: Mode | str) -> Mode:
    """`mode` itself if it is a Mode, else the Mode whose value it is
    ("classic", "extended"); raises ValueError on any other value. A
    member skips the call to `Mode`, an `Enum.__call__`."""
    return mode if mode is _EXTENDED or mode is _CLASSIC else Mode(mode)


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


class Value:
    """Base of the model's immutable values, each kept in slots.

    A value names its fields in `__slots__`. Each value class gets
    `_setters`, the `__set__` of its own slot descriptors in `__slots__`
    order, and `_set(self, <its fields>)`, generated from them, which
    calls each once in that order. That skips the guard: assigning or
    deleting a field still raises AttributeError. A class's `__init__`
    checks the fields, works out any derived one, such as
    `CfEntry.display`, and ends in one `self._set(...)`; pickle and copy
    restore a value through `_set` too, so a state of the wrong length
    raises TypeError. Values are equal when they are of one type with
    equal fields, and hash and print by their fields.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in names)
        # Generated as dataclasses generates __init__: one descriptor call a
        # line, as written by hand; a loop over `_setters` costs more per field.
        namespace = {f"set_{name}": setter for name, setter in zip(names, cls._setters)}
        calls = "".join(f"\n    set_{name}(self, {name})" for name in names) or " pass"
        exec(f"def _set(self, {', '.join(names)}):{calls}", namespace)
        cls._set = namespace["_set"]
        cls._set.__qualname__ = f"{cls.__qualname__}._set"

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} fields are read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} fields are read-only")

    def __getstate__(self) -> tuple:
        return self._fields()

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)


class Agreement(Value):
    """Gender/number/person features; None leaves a feature unspecified."""

    __slots__ = ("gender", "number", "person")

    def __init__(
        self, gender: str | None = None, number: str | None = None, person: str | None = None
    ) -> None:
        for value, allowed in ((gender, GENDERS), (number, NUMBERS), (person, PERSONS)):
            if value is not None and value not in allowed:
                raise ValueError(f"bad agreement feature {value!r}")
        self._set(gender, number, person)


def unify_agreement(a: Agreement, b: Agreement) -> bool:
    """True iff no specified feature clashes; unspecified matches anything."""
    return (
        (a.gender is None or b.gender is None or a.gender == b.gender)
        and (a.number is None or b.number is None or a.number == b.number)
        and (a.person is None or b.person is None or a.person == b.person)
    )


class Entity(Value):
    """A discourse-level individual.

    Identity, and hence co-specification, is by `id` alone; `name` is the
    display form used in binding reports (the surface that introduced the
    entity, e.g. "Carl" for POLLARD), and defaults to the id.
    """

    __slots__ = ("id", "name")

    def __init__(self, id: str, name: str = "") -> None:
        self._set(id, name or id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Entity) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"Entity({self.id})"


class ReferenceMarker(Value):
    """One NP occurrence in an utterance.

    `mid` identifies the marker within its utterance and is what contra
    sets refer to. `index` is the display index: A-series for pronouns,
    X-series for indefinites, the surface string for names and definites.
    Pronouns stay unbound (`entity` None); proposed bindings live in
    Cf list entries, never on the marker itself.

    Construction raises MarkerError unless `surface` is a str, `kind` a
    MarkerKind, `gf` a GrammaticalFunction, `agr` an Agreement, `entity`
    an Entity or None, `index` and `mid` each a str or None, a pronoun
    carries no entity, a name or definite carries one and no index but
    its surface, an A-/X-index is of its kind's series, `contra` is a
    collection of mids rather than one string, and `mid` is not in
    `contra`.
    """

    __slots__ = ("surface", "kind", "gf", "agr", "contra", "entity", "index", "mid")

    def __init__(
        self,
        surface: str,
        kind: MarkerKind,
        gf: GrammaticalFunction,
        agr: Agreement = Agreement(),
        contra: Iterable[str] = frozenset(),
        entity: Entity | None = None,
        index: str | None = None,
        mid: str | None = None,
    ) -> None:
        # Exact types: a marker is built for every np line.
        if type(surface) is not str:
            raise MarkerError(f"surface must be a str, got {surface!r}", "surface")
        if type(kind) is not MarkerKind:
            raise MarkerError(f"kind must be a MarkerKind, got {kind!r}", "kind")
        if type(gf) is not GrammaticalFunction:
            raise MarkerError(f"gf must be a GrammaticalFunction, got {gf!r}", "gf")
        if type(agr) is not Agreement:
            raise MarkerError(f"agr must be an Agreement, got {agr!r}", "agr")
        if entity is not None and type(entity) is not Entity:
            raise MarkerError(f"entity must be an Entity or None, got {entity!r}", "entity")
        if index is not None and type(index) is not str:
            raise MarkerError(f"index must be a str or None, got {index!r}", "index")
        if mid is not None and type(mid) is not str:
            raise MarkerError(f"mid must be a str or None, got {mid!r}", "mid")
        if isinstance(contra, str):
            raise MarkerError(f"contra must be a collection of marker ids, got the string {contra!r}", "contra")
        contra = frozenset(contra)
        if kind is _PRONOUN and entity is not None:
            raise MarkerError("pronouns cannot carry an entity id", "entity")
        pattern = _INDEX_PATTERNS.get(kind)
        if pattern is None:
            if entity is None:
                raise MarkerError(f"{kind.value} {surface!r} needs an entity", "entity")
            if index is None:
                index = surface
            elif index != surface:
                raise MarkerError(f"{kind.value} {surface!r} takes its surface as index, got {index!r}", "index")
        elif index is not None and not pattern.match(index):
            series = INDEX_SERIES[kind]
            raise MarkerError(f"{kind.value} index must be {series}-series, got {index!r}", "index")
        if mid is None:
            mid = index or surface
        if mid in contra:
            raise MarkerError(f"marker {mid!r} is contraindexed with itself", "contra")
        self._set(surface, kind, gf, agr, contra, entity, index, mid)

    @property
    def is_pronoun(self) -> bool:
        return self.kind is _PRONOUN


class Utterance(Value):
    """One utterance; construction sorts its markers stably by obliqueness."""

    __slots__ = ("text", "markers", "position")

    def __init__(self, text: str, markers: Iterable[ReferenceMarker], position: int = 1) -> None:
        ordered = tuple(sorted(markers, key=lambda m: m.gf))
        mids = [m.mid for m in ordered]
        if len(set(mids)) != len(mids):
            raise ValueError(f"duplicate marker ids in utterance {position}")
        self._set(text, ordered, position)


class CfEntry(Value):
    """One forward-center slot: an entity plus the marker realizing it.

    `display` is its trace form, worked out once: one entry is shared by
    every Cf list that binds its marker to its entity. It follows from
    the other two fields, so it changes no comparison.
    """

    __slots__ = ("entity", "marker", "display")

    def __init__(self, entity: Entity, marker: ReferenceMarker) -> None:
        if entity is None:
            raise ValueError(f"entry for marker {marker.mid!r} has no entity")
        # An anonymous indefinite's entity id is its index; showing the
        # surface there keeps displays like [X2:Alfa Romeo] readable.
        anonymous = marker.kind is MarkerKind.INDEFINITE and marker.index == entity.id
        tag = marker.surface if anonymous else marker.index
        self._set(entity, marker, f"[{entity.id}:{tag}]")


# A forward-center list: its entries in obliqueness order; the head is
# the preferred center.
CfList = tuple[CfEntry, ...]


class AnchorGrid(Value):
    """Every candidate anchor of one utterance, kept as positions.

    `slots[i]` holds the CfEntrys that can realize the utterance's i-th
    marker. The grid's Cf lists are the slots' Cartesian product, in
    `itertools.product(*slots)` order, later markers varying fastest,
    and none of them is kept: `cf_list(column)` picks one out of the
    slots. `width`, the product of the slots' lengths, counts them, so
    an utterance without markers has one Cf list, the empty one, and a
    slot without entries leaves none. The anchors are the pairs of
    `cbs` × the Cf lists, center-major: the anchor at position i pairs
    cbs[i // width] with cf_list(i % width) and has ordinal i + 1,
    which labels it in traces and breaks ties.
    """

    __slots__ = ("cbs", "slots", "width")

    def __init__(self, cbs: Iterable[CfEntry | None], slots: Iterable[Iterable[CfEntry]]) -> None:
        slots = tuple(map(tuple, slots))
        self._set(tuple(cbs), slots, prod(map(len, slots)))

    def cf_list(self, column: int) -> CfList:
        """The Cf list in `column`, slot i's entry at its i-th mixed-radix
        digit, the last varying fastest; IndexError outside 0..width - 1."""
        if not 0 <= column < self.width:
            raise IndexError(f"column {column} is outside a grid of {self.width} Cf lists")
        entries = []
        for slot in reversed(self.slots):
            column, digit = divmod(column, len(slot))
            entries.append(slot[digit])
        return tuple(reversed(entries))

    def __len__(self) -> int:
        return len(self.cbs) * self.width  # OverflowError past sys.maxsize

    def __bool__(self) -> bool:
        return bool(self.cbs) and self.width > 0


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
