"""An in-memory OODB object store with class extents.

The paper's prototype produced "physical plans that are evaluated in memory";
this module is the corresponding substrate.  A :class:`Database` pairs a
:class:`~repro.data.schema.Schema` with the actual extent contents (immutable
collection values over :class:`~repro.data.values.Record` objects).  It
implements the ``ExtentProvider`` protocol used by every evaluator in the
system.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Iterable

from repro.data.schema import Schema
from repro.data.values import BagValue, CollectionValue, ListValue, Record, SetValue
from repro.errors import UnknownExtentError


#: How many closed build sides one database keeps (:class:`BuildMemo`).
BUILD_MEMO_SIZE = 128


class BuildMemo:
    """The hash indexes the engine builds over stored data.

    A hash join's or group-join's build side is *closed* when it reads one
    extent and nothing of the query — no parameter, no outer variable (the
    planner decides; DESIGN §7).  Its hash table depends only on the
    database's state, so the database keeps it, keyed by what the build
    reads, never by a query; an index scan probes the same entry a hash
    join building its extent on its attribute reads.  A thread-safe
    LRU of at most ``maxsize`` entries, tagged with the
    :attr:`Database.schema_version` they were built at: a lookup or store
    at a newer version drops them all.  An entry is immutable once stored.

    >>> memo = BuildMemo(maxsize=1)
    >>> memo.store("k", 0, "entry"); memo.lookup("k", 0)
    'entry'
    >>> memo.lookup("k", 1) is None, len(memo)
    (True, 0)
    """

    def __init__(self, maxsize: int = BUILD_MEMO_SIZE):
        self.maxsize = maxsize
        self.version = 0
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def _at(self, version: int) -> bool:
        """Whether *version* is the entries' own, dropping them for a newer
        one (caller holds the lock)."""
        if version > self.version:
            self._entries.clear()
            self.version = version
        return version == self.version

    def lookup(self, key: Any, version: int) -> Any:
        """The entry stored for *key* at *version*, or None."""
        with self._lock:
            entry = self._entries.get(key) if self._at(version) else None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: Any, version: int, entry: Any) -> None:
        """Keep *entry*, built at *version*, evicting the least recently
        used beyond ``maxsize``; an entry of an older state is dropped."""
        with self._lock:
            if not self._at(version):
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class Database:
    """A schema plus in-memory extents, with optional attribute indexes.

    >>> from repro.core.optimizer import Optimizer
    >>> db = Database()
    >>> db.add_extent("Employees", [Record(name="Smith", dno=1)])
    >>> len(db.extent("Employees"))
    1
    >>> db.create_index("Employees", "dno")
    >>> Optimizer(db).run_oql("select e.name from e in Employees where e.dno = 1")
    {{'Smith'}}
    """

    def __init__(self, schema: Schema | None = None):
        self.schema = schema or Schema()
        self._extents: dict[str, CollectionValue] = {}
        self._extent_cache: dict[str, CollectionValue] = {}
        self._indexes: set[tuple[str, str]] = set()
        #: The closed build sides of hash joins and group-joins, per state.
        self.builds = BuildMemo()
        self._statistics: dict[tuple[str, str], int] | None = None
        #: Monotone counter bumped by every change that can alter plan choice
        #: (extent contents, indexes, statistics).  The plan cache keys on it
        #: so stale plans are never served after the database changes.
        self.schema_version: int = 0
        #: Next engine-assigned object identity.  Every record stored via
        #: :meth:`add_extent` gets a database-unique OID (see :meth:`adopt`).
        self._next_oid: int = 0
        #: The SQLite backend's image of this database, as ``(schema_version,
        #: db_path, store)`` — see :func:`repro.backends.shred.shredded_store`.
        #: It lives here so that the two die together: the store refers back
        #: to its database, and a cycle is collected as one.
        self.shredded: tuple[int, str | None, Any] | None = None

    # -- object identity (OID allocation) --------------------------------------

    def allocate_oid(self) -> int:
        """Hand out the next database-unique object identity."""
        oid = self._next_oid
        self._next_oid += 1
        return oid

    def adopt(self, value: Any) -> Any:
        """Stamp engine OIDs onto *value* and everything stored inside it.

        Records without an OID get a fresh one; records that already carry
        an OID (e.g. reloaded from a persisted image) keep it, and the
        allocator is bumped past it so future OIDs stay unique.  Each
        occurrence of a value-equal duplicate in a bag is adopted
        separately, so duplicates become identity-distinct objects.
        Scalars and NULL pass through unchanged — only stored objects have
        identity; query literals and computed records never go through
        ``adopt`` and stay identity-free.
        """
        if isinstance(value, Record):  # its layout, its values adopted
            values = tuple(map(self.adopt, value._values))
            oid = value.oid
            if oid is None:
                oid = self.allocate_oid()
            elif oid >= self._next_oid:
                self._next_oid = oid + 1
            return Record._of(value._layout, values).with_oid(oid)
        if isinstance(value, SetValue):
            return SetValue(self.adopt(v) for v in value.elements())
        if isinstance(value, BagValue):
            # elements() re-expands multiplicities, so each occurrence of a
            # value-equal duplicate is stamped with its own OID.
            return BagValue(self.adopt(v) for v in value.elements())
        if isinstance(value, ListValue):
            return ListValue(self.adopt(v) for v in value.elements())
        return value

    def add_extent(
        self,
        name: str,
        objects: Iterable[Any],
        kind: str = "set",
    ) -> None:
        """Install extent *name* with the given objects.

        *kind* selects the collection monoid of the extent (class extents in
        the paper are sets; bags and lists are supported for completeness).
        Every object is adopted on the way in: it receives an engine OID
        (preserving any it already carries), making value-equal duplicates
        in bag extents identity-distinct, as the OO model requires.
        """
        items = [self.adopt(obj) for obj in objects]
        if kind == "set":
            self._extents[name] = SetValue(items)
        elif kind == "bag":
            self._extents[name] = BagValue(items)
        elif kind == "list":
            self._extents[name] = ListValue(items)
        else:
            raise ValueError(f"unknown extent kind {kind!r}")
        self._extent_cache.clear()
        self.schema_version += 1

    def extent(self, name: str) -> CollectionValue:
        """Resolve an extent by name (the ExtentProvider protocol).

        An extent of a class logically contains the objects of every
        registered extent of its subclasses (OODB extent inclusion), so a
        query over ``Persons`` also ranges over ``Employees`` when
        ``Employee extends Person``.
        """
        try:
            base = self._extents[name]
        except KeyError:
            raise UnknownExtentError(
                f"unknown extent {name!r}; known extents: {sorted(self._extents)}"
            ) from None
        if name in self._extent_cache:
            return self._extent_cache[name]
        merged = self._with_subextents(name, base)
        self._extent_cache[name] = merged
        return merged

    def _with_subextents(self, name: str, base: CollectionValue) -> CollectionValue:
        class_name = self.schema.extents.get(name)
        if class_name is None or not self.schema.supertypes:
            return base
        extra = []
        for other, other_class in self.schema.extents.items():
            if (
                other != name
                and other in self._extents
                and other_class != class_name
                and self.schema.is_subclass(other_class, class_name)
            ):
                extra.extend(self._extents[other].elements())
        if not extra:
            return base
        if isinstance(base, SetValue):
            return SetValue(list(base.elements()) + extra)
        if isinstance(base, BagValue):
            return BagValue(list(base.elements()) + extra)
        return ListValue(list(base.elements()) + extra)

    def has_extent(self, name: str) -> bool:
        return name in self._extents

    def extent_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._extents))

    def cardinality(self, name: str) -> int:
        """Number of objects in an extent (used by the cost model)."""
        return len(self.extent(name))

    # -- statistics (ANALYZE) --------------------------------------------------

    def analyze(self) -> None:
        """Collect per-attribute statistics for the cost model.

        For every record-valued extent, records the number of distinct
        values of each scalar attribute.  The cost model uses ``1/ndv`` as
        the selectivity of equality predicates on analyzed attributes
        instead of its fixed default.
        """
        self._statistics = {}
        for name in self.extent_names():
            distinct: dict[str, set[Any]] = {}
            for obj in self.extent(name):
                if not isinstance(obj, Record):
                    continue
                for attr, value in obj.items():
                    try:
                        distinct.setdefault(attr, set()).add(value)
                    except TypeError:  # pragma: no cover - all values hashable
                        continue
            for attr, values in distinct.items():
                self._statistics[(name, attr)] = len(values)
        self.schema_version += 1

    def distinct_count(self, extent_name: str, attr: str) -> int | None:
        """Distinct values of ``extent.attr``, or None when not analyzed."""
        if self._statistics is None:
            return None
        return self._statistics.get((extent_name, attr))

    # -- indexes ("choosing access paths", paper Section 6) ------------------

    def create_index(self, extent_name: str, attr: str) -> None:
        """Declare a hash index over attribute *attr* of extent *extent_name*.

        The planner turns equality selections on indexed attributes into
        index scans.  The index's table is a kept build
        (:class:`BuildMemo`): built by the first scan that probes it, and
        again after any change of state, so it never goes stale.
        """
        for obj in self.extent(extent_name):
            if not isinstance(obj, Record) or attr not in obj:
                raise ValueError(
                    f"cannot index {extent_name!r} on {attr!r}: objects lack "
                    "that attribute"
                )
        self._indexes.add((extent_name, attr))
        self.schema_version += 1

    def has_index(self, extent_name: str, attr: str) -> bool:
        return (extent_name, attr) in self._indexes

    def indexed_attributes(self, extent_name: str) -> tuple[str, ...]:
        return tuple(
            sorted(attr for ext, attr in self._indexes if ext == extent_name)
        )

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}: {len(c)}" for n, c in sorted(self._extents.items()))
        return f"Database({sizes})"
