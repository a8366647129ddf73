"""Runtime values for the object-oriented data model.

The calculus and the algebra of the paper operate over a small universe of
values: scalars (booleans, numbers, strings), records (tuples with named
attributes), the three collection kinds (sets, bags, lists), and ``NULL``.

Every value in this module is *immutable and hashable*.  This is a deliberate
engineering choice: the nest operator of the algebra groups streams by
arbitrary value keys, and the set monoid must deduplicate arbitrary elements;
hashability makes both O(1) per element.  A record is the layout of its
attribute names' order, which it iterates and encodes in, and the tuple of
its values in sorted-name order, which it hashes and compares: ``<a=1, b=2>``
built either way round is one value.

Object identity.  The paper's data model is object-oriented: two objects
with identical state are still *distinct* objects.  Stored objects are
:class:`Record` values carrying an engine-assigned OID (stamped by
:meth:`repro.data.database.Database.add_extent`), held *outside* structural
equality: ``==``/``hash`` on records stay purely value-based, so monoid
set-dedup and cross-path result comparison keep deep value equality.  Code
that must distinguish objects — grouping keys in the nest operator,
equi-join keys, object equality in queries — goes through
:func:`identity_key` / :func:`identity_eq`, which collapse to plain value
semantics for identity-free values (literals and computed records never get
an OID, and a computed record free of stored objects is its own key).
:class:`BagValue` counts its elements per identity key in ``_counts`` and keeps
in ``_reps`` the first element of each key that is not that element (a stored
object's), so a bag extent holds value-equal but distinct objects apart; its
public ``==``/``hash``/``count`` remain value-based.
"""

from __future__ import annotations

from collections import _count_elements  # type: ignore[attr-defined]
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from itertools import chain, repeat, starmap
from math import copysign
from operator import is_, is_not, itemgetter
from typing import Any


class NullValue:
    """The distinguished ``NULL`` value of the paper's calculus.

    The paper extends every type domain with ``NULL`` and supports exactly
    two operations on it: creating it and testing for it (Section 2).  The
    unnesting algorithm introduces NULLs via outer-joins and outer-unnests
    and removes them via the nest operator's null-to-zero conversion.

    This class is a singleton; use the module-level :data:`NULL`.
    """

    _instance: "NullValue | None" = None

    def __new__(cls) -> "NullValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __hash__(self) -> int:
        return hash("repro.NULL")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullValue)

    def __bool__(self) -> bool:
        # NULL must never be silently used as a truth value; predicates
        # decide explicitly via ``is_null``.
        raise TypeError("NULL has no truth value; test with is_null() instead")


NULL = NullValue()


def is_null(value: Any) -> bool:
    """Return True iff *value* is the distinguished NULL value."""
    return isinstance(value, NullValue)


#: Layouts by name order: *names* → (each name's position among the names
#: sorted, iterated in *names*' order; an ``itemgetter`` sorting values listed
#: in that order, None where they are).  Only a cache, so no record
#: construction sorts: no answer depends on a layout's identity, and it is
#: cleared at 4 096 entries.
LAYOUTS: dict[tuple[str, ...], tuple[dict[str, int], Any]] = {}


def layout_of(names: tuple[str, ...]) -> tuple[dict[str, int], Any]:
    """The layout of records listing the attributes *names* in this order, and
    the getter that puts values listed so into sorted-name order."""
    found = LAYOUTS.get(names)
    if found is None:
        if len(LAYOUTS) >= 4096:
            LAYOUTS.clear()
        ordered = sorted(names)
        position = {name: i for i, name in enumerate(ordered)}
        layout = {name: position[name] for name in names}
        sort = None if list(names) == ordered else itemgetter(*map(names.index, ordered))
        found = LAYOUTS[names] = layout, sort
    return found


class Record(Mapping[str, Any]):
    """An immutable record (the calculus' tuple ``(A1=e1, ..., An=en)``).

    Attributes are accessed by projection (``record["name"]`` or
    ``record.get``).  A record is the layout of its name order
    (:func:`layout_of`), which it iterates in, and the tuple of its values in
    sorted-name order, which it hashes and compares: records are set
    elements and grouping keys whatever order they list their fields in.

    A record may additionally carry an engine-assigned :attr:`oid` — the
    object identity of the paper's OO model.  The OID deliberately does
    *not* participate in ``==``/``hash`` (two objects with identical state
    are value-equal); identity-sensitive code uses :func:`identity_key`.
    Derived records (:meth:`with_field`, query-built structs) carry no OID.

    >>> r = Record(name="Smith", age=40)
    >>> r["name"]
    'Smith'
    >>> r == Record(age=40, name="Smith")
    True
    >>> r.with_oid(7) == r and r.with_oid(7).oid == 7
    True
    """

    __slots__ = ("_layout", "_values", "__dict__")
    #: A stored object's own ``__dict__`` holds its OID (:meth:`with_oid`),
    #: and its identity key and hash once computed; other records read these.
    _oid = _ikey = _hash = None

    def __init__(self, _fields: Mapping[str, Any] | None = None, **kwargs: Any):
        fields = {**_fields, **kwargs} if _fields and kwargs else _fields or kwargs
        layout, sort = layout_of(tuple(fields))
        values = tuple(fields.values())
        _set_layout(self, layout)
        _set_values(self, values if sort is None else sort(values))

    @classmethod
    def _of(cls, layout: dict[str, int], values: tuple) -> "Record":
        """The record of *layout* and *values* in sorted-name order (a kernel's
        struct)."""
        made = _new(cls)
        _set_layout(made, layout)
        _set_values(made, values)
        return made

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Record is immutable")

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[self._layout[name]]
        except KeyError:
            raise KeyError(
                f"record has no attribute {name!r}; attributes are {sorted(self._layout)}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._layout)

    def __len__(self) -> int:
        return len(self._values)

    def attributes(self) -> tuple[str, ...]:
        """The record's attribute names, sorted."""
        return tuple(sorted(self._layout))

    def with_field(self, name: str, value: Any) -> "Record":
        """A copy of this record with attribute *name* set to *value*: a
        *derived* value, with no OID even when this record has one."""
        return Record({**self, name: value})

    # -- object identity ---------------------------------------------------

    @property
    def oid(self) -> int | None:
        """The engine-assigned object identity, or None for plain values."""
        return self._oid

    def with_oid(self, oid: int) -> "Record":
        """This record stamped with object identity *oid*, sharing its layout
        and values (O(1))."""
        stamped = Record._of(self._layout, self._values)
        object.__setattr__(stamped, "__dict__", {"_oid": oid})  # a small dict
        return stamped

    # -- structural equality ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Record or isinstance(other, Record):
            mine, theirs = self._layout, other._layout
            return (mine is theirs or mine.keys() == theirs.keys()) and (
                self._values == other._values
            )
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash  # a stored object keeps its own
        if cached is None:
            cached = hash(self._values)
            if self._oid is not None:
                self.__dict__["_hash"] = cached
        return cached

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(sorted(self._layout), self._values))
        return f"<{inner}>"


_new = object.__new__
_set_layout, _set_values = Record._layout.__set__, Record._values.__set__


class CollectionValue:
    """Base class for the three collection kinds (set, bag, list)."""

    __slots__ = ()

    def elements(self) -> Iterator[Any]:
        """Iterate over the elements *with* multiplicity."""
        raise NotImplementedError

    def members(self) -> Sequence[Any]:
        """The elements, in order: a set's or a list's own tuple, no copy."""
        return tuple(self.elements())

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        return self.elements()


class SetValue(CollectionValue):
    """An immutable set — the carrier of the paper's set monoid (∪, {}).

    Elements iterate in first-insertion order, *not* Python hash order:
    extent scans (and everything downstream of them — join probe order,
    group first-seen order, bag results built from set extents) are
    therefore deterministic across processes regardless of
    ``PYTHONHASHSEED``.  Equality, hashing, and membership remain
    order-insensitive; only iteration order is pinned.  Membership (``in``,
    ``==``, ``hash``) is a frozenset built on first use, not by ``__init__``
    (threads racing to build it build equal frozensets).
    """

    __slots__ = ("_items", "_order")

    def __init__(self, items: Iterable[Any] = ()):
        # dict.fromkeys dedups by the same ==/hash as frozenset and keeps
        # the first occurrence, so value semantics are unchanged.
        _set_order(self, tuple(dict.fromkeys(items)))
        _set_items(self, None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("SetValue is immutable")

    def _membership(self) -> frozenset:
        items = self._items
        if items is None:
            items = frozenset(self._order)
            _set_items(self, items)
        return items

    def elements(self) -> Iterator[Any]:
        return iter(self._order)

    def members(self) -> tuple[Any, ...]:
        return self._order

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, value: Any) -> bool:
        return value in self._membership()

    def union(self, other: "SetValue") -> "SetValue":
        return SetValue(self._order + other._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetValue):
            return NotImplemented
        return self._membership() == other._membership()

    def __hash__(self) -> int:
        return hash(("set", self._membership()))

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in _stable_order(self._order))
        return "{" + inner + "}"


_set_items, _set_order = SetValue._items.__set__, SetValue._order.__set__


class BagValue(CollectionValue):
    """An immutable bag (multiset) — carrier of the bag monoid (⊎, {{}}).

    ``_counts`` maps each :func:`identity_key` to its multiplicity in
    first-seen order, so a bag holds two value-equal but distinct objects
    apart (where the OO model and multiset-of-values semantics diverge);
    ``_reps`` holds the first element of each key that is not its element.
    The *public* interface — ``==``, ``hash``, :meth:`count`, ``in`` —
    remains value-based, matching the value semantics of every other collection.
    """

    __slots__ = ("_counts", "_reps", "_hash")

    def __init__(self, items: Iterable[Any] = ()):
        if isinstance(items, BagValue):
            counts, reps = items._counts, items._reps
        else:
            items = items if isinstance(items, (list, tuple)) else list(items)
            keys = list(map(identity_key, items))
            counts = {}
            _count_elements(counts, keys)  # a dict keeps its first key
            reps = {}
            if any(map(is_not, keys, items)):  # reversed: the first one wins
                pairs = zip(reversed(keys), reversed(items))
                reps = {k: v for k, v in pairs if k is not v}
        _set_counts(self, counts)
        _set_reps(self, reps)
        _set_bag_hash(self, None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("BagValue is immutable")

    @classmethod
    def _of(cls, counts: dict[Any, int], reps: dict[Any, Any]) -> "BagValue":
        bag = cls.__new__(cls)
        _set_counts(bag, counts)
        _set_reps(bag, reps)
        _set_bag_hash(bag, None)
        return bag

    @classmethod
    def of_plain(cls, items: Iterable[Any]) -> "BagValue":
        """The bag of *items*, each its own :func:`identity_key` (a scalar,
        NULL, or a computed struct of those): counted as they are, with no
        key to compute and no representative to keep."""
        counts: dict[Any, int] = {}
        _count_elements(counts, items)  # a dict keeps its first key
        return cls._of(counts, {})

    @classmethod
    def from_counts(cls, counts: Mapping[Any, int]) -> "BagValue":
        return cls(chain.from_iterable(starmap(repeat, counts.items())))

    def _counted(self) -> Iterable[tuple[Any, int]]:
        """(element, multiplicity) per identity key, in first-seen order."""
        reps, counts = self._reps, self._counts.items()
        return ((reps.get(k, k), c) for k, c in counts) if reps else counts

    def _value_counts(self) -> dict[Any, int]:
        """Multiplicity per *value* (identity collapsed) — the bag's public
        value semantics.  Without representatives every key is its element,
        so that is ``_counts`` itself (read-only, like every bag's)."""
        if not self._reps:
            return self._counts
        counts: dict[Any, int] = {}
        for value, count in self._counted():
            counts[value] = counts.get(value, 0) + count
        return counts

    def count(self, value: Any) -> int:
        """Multiplicity of *value* in the bag (by value, ignoring identity)."""
        return sum(c for v, c in self._counted() if v == value)

    def elements(self) -> Iterator[Any]:
        return chain.from_iterable(starmap(repeat, self._counted()))

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __contains__(self, value: Any) -> bool:
        return any(v == value for v, _ in self._counted())

    def additive_union(self, other: "BagValue") -> "BagValue":
        counts = dict(self._counts)
        for key, count in other._counts.items():
            counts[key] = counts.get(key, 0) + count
        return BagValue._of(counts, {**other._reps, **self._reps})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BagValue):
            return NotImplemented
        return self._value_counts() == other._value_counts()

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(("bag", frozenset(self._value_counts().items())))
            _set_bag_hash(self, cached)
        return cached

    def __repr__(self) -> str:
        inner = ", ".join(repr(v) for v in _stable_order(list(self.elements())))
        return "{{" + inner + "}}"


_set_counts, _set_reps, _set_bag_hash = (getattr(BagValue, s).__set__ for s in BagValue.__slots__)


class ListValue(CollectionValue):
    """An immutable list — carrier of the list monoid (++, [])."""

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[Any] = ()):
        object.__setattr__(self, "_items", tuple(items))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ListValue is immutable")

    def elements(self) -> Iterator[Any]:
        return iter(self._items)

    def members(self) -> tuple[Any, ...]:
        return self._items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def concat(self, other: "ListValue") -> "ListValue":
        return ListValue(self._items + other._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ListValue):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(("list", self._items))

    def __repr__(self) -> str:
        return "[" + ", ".join(repr(v) for v in self._items) + "]"


def _stable_order(items: Iterable[Any]) -> list[Any]:
    """Order arbitrary hashable values deterministically (for repr only)."""
    return sorted(items, key=lambda v: (str(type(v).__name__), repr(v)))


def is_collection(value: Any) -> bool:
    """True iff *value* is one of the three collection kinds."""
    return isinstance(value, CollectionValue)


def ensure_hashable(value: Any) -> Any:
    """Validate that *value* can live inside sets / grouping keys.

    Raises TypeError for unhashable values; returns the value unchanged.
    """
    if not isinstance(value, Hashable):
        raise TypeError(f"value of type {type(value).__name__} is not hashable")
    hash(value)
    return value


# ---------------------------------------------------------------------------
# Object identity
# ---------------------------------------------------------------------------

#: Tags for identity keys.  The NUL prefix keeps them disjoint from every
#: real value in the model (values never contain raw Python tuples).
_OID_TAG = "\x00oid"
_REC_TAG = "\x00rec"
_SET_TAG = "\x00set"
_BAG_TAG = "\x00bag"
_LIST_TAG = "\x00list"
_SCALARS = (int, str, float, bool)


def identity_key(value: Any) -> Any:
    """A hashable key that distinguishes values by *object identity*.

    For identity-free values (scalars, NULL, literals, computed records)
    the value itself is returned unchanged, so identity keys degrade to
    plain value semantics exactly where the OO model prescribes value
    equality.  For a record stamped with an OID the key is the OID alone;
    for containers holding identity-bearing elements the key recurses.
    Two stored objects with identical state therefore get *different* keys,
    which is what lets grouping and joins keep them apart.

    >>> identity_key(Record(j=1)) == identity_key(Record(j=1))
    True
    >>> identity_key(Record(j=1).with_oid(0)) == identity_key(Record(j=1).with_oid(1))
    False
    """
    # Exact-class fast paths: scalars dominate join/group keys, and the
    # ``is``-check skips ABCMeta's __instancecheck__ on the Record test.
    cls = value.__class__
    if cls is bool or cls is int or cls is float or cls is str:
        return value
    if cls is Record or isinstance(value, Record):
        key = value._ikey  # a stored object's, once computed
        if key is None and value._oid is not None:
            key = value.__dict__["_ikey"] = (_OID_TAG, value._oid)
        elif key is None:
            key = value  # unless some field carries identity
            for v in value._values:
                if v.__class__ not in _SCALARS and identity_key(v) is not v:
                    keys = map(identity_key, value._values)
                    return (_REC_TAG, tuple(zip(sorted(value._layout), keys)))
        return key
    if isinstance(value, SetValue):
        keys = tuple(map(identity_key, value._order))
        if all(map(is_, keys, value._order)):
            return value  # no member carries identity
        return (_SET_TAG, frozenset(keys))
    if isinstance(value, BagValue):
        if not value._reps:
            return value  # every element is its own key
        return (_BAG_TAG, frozenset(value._counts.items()))
    if isinstance(value, ListValue):
        keys = tuple(identity_key(v) for v in value._items)
        if all(k is v for k, v in zip(keys, value._items)):
            return value
        return (_LIST_TAG, keys)
    return value


def exact_key(value: Any) -> Any:
    """A hashable key equal only for values no expression can tell apart.

    :func:`identity_key` leaves identity-free values to Python's ``==``,
    under which ``1 == 1.0 == True``, ``0.0 == -0.0`` and two sets are
    equal whatever order they iterate in — fine for grouping and joins,
    which *mean* that equality, but not for deciding that a computation
    over one value may stand in for the same computation over another:
    ``sum`` over ``{{1, 2}}`` is ``3`` and over ``{{1.0, 2}}`` is ``3.0``.
    This key tags every scalar with its class, the sign of a float zero
    and the iteration order of a collection, all the way down; a stored
    object is its OID.

    >>> exact_key(BagValue([1, 2])) == exact_key(BagValue([1.0, 2]))
    False
    >>> exact_key(SetValue([1, 2])) == exact_key(SetValue([2, 1]))
    False
    >>> exact_key(Record(j=1).with_oid(0)) == exact_key(Record(j=1).with_oid(1))
    False
    """
    cls = value.__class__
    if cls is int or cls is str or cls is bool:
        return (cls, value)
    if cls is float:
        return (cls, value) if value else (cls, value, copysign(1.0, value))
    if cls is Record or isinstance(value, Record):
        if value._oid is not None:
            return (_OID_TAG, value._oid)
        return (_REC_TAG, tuple(zip(sorted(value._layout), map(exact_key, value._values))))
    if isinstance(value, SetValue):
        return (_SET_TAG, tuple(map(exact_key, value._order)))
    if isinstance(value, BagValue):
        return (_BAG_TAG, tuple((exact_key(v), c) for v, c in value._counted()))
    if isinstance(value, ListValue):
        return (_LIST_TAG, tuple(map(exact_key, value._items)))
    return (cls, value)


def has_identity(value: Any) -> bool:
    """True iff *value* carries object identity anywhere inside it."""
    return identity_key(value) is not value


def identity_eq(left: Any, right: Any) -> bool:
    """Equality by object identity where present, by value otherwise.

    This is what OQL ``=`` means on the OO model: scalars and plain values
    compare by value; stored objects compare by OID (a literal twin of a
    stored object is *not* that object).  All execution paths share this
    predicate via ``apply_binop``, so they cannot disagree on it.
    """
    return identity_key(left) == identity_key(right)
