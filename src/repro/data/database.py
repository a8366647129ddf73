"""An in-memory OODB object store with class extents.

The paper's prototype produced "physical plans that are evaluated in memory";
this module is the corresponding substrate.  A :class:`Database` pairs a
:class:`~repro.data.schema.Schema` with the actual extent contents (immutable
collection values over :class:`~repro.data.values.Record` objects).  It
implements the ``ExtentProvider`` protocol used by every evaluator in the
system.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.data.schema import Schema
from repro.data.values import BagValue, CollectionValue, ListValue, Record, SetValue
from repro.errors import UnknownExtentError


class Database:
    """A schema plus in-memory extents, with optional attribute indexes.

    >>> db = Database()
    >>> db.add_extent("Employees", [Record(name="Smith", dno=1)])
    >>> len(db.extent("Employees"))
    1
    >>> db.create_index("Employees", "dno")
    >>> [r["name"] for r in db.index_lookup("Employees", "dno", 1)]
    ['Smith']
    """

    def __init__(self, schema: Schema | None = None):
        self.schema = schema or Schema()
        self._extents: dict[str, CollectionValue] = {}
        self._extent_cache: dict[str, CollectionValue] = {}
        self._indexes: dict[tuple[str, str], dict[Any, list[Any]]] = {}
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
        if isinstance(value, Record):
            fields = {attr: self.adopt(v) for attr, v in value.items()}
            oid = value.oid
            if oid is None:
                oid = self.allocate_oid()
            elif oid >= self._next_oid:
                self._next_oid = oid + 1
            return Record(fields).with_oid(oid)
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
        """Build a hash index over attribute *attr* of extent *extent_name*.

        The planner turns equality selections on indexed attributes into
        index scans.  Indexes are built eagerly and must be (re)created
        after ``add_extent`` replaces the extent's contents.
        """
        table: dict[Any, list[Any]] = {}
        for obj in self.extent(extent_name):
            if not isinstance(obj, Record) or attr not in obj:
                raise ValueError(
                    f"cannot index {extent_name!r} on {attr!r}: objects lack "
                    "that attribute"
                )
            table.setdefault(obj[attr], []).append(obj)
        self._indexes[(extent_name, attr)] = table
        self.schema_version += 1

    def has_index(self, extent_name: str, attr: str) -> bool:
        return (extent_name, attr) in self._indexes

    def indexed_attributes(self, extent_name: str) -> tuple[str, ...]:
        return tuple(
            sorted(attr for ext, attr in self._indexes if ext == extent_name)
        )

    def index_lookup(self, extent_name: str, attr: str, value: Any) -> list[Any]:
        """Objects of *extent_name* whose *attr* equals *value* (via index)."""
        try:
            table = self._indexes[(extent_name, attr)]
        except KeyError:
            raise KeyError(
                f"no index on {extent_name}.{attr}; create one with "
                "create_index()"
            ) from None
        return table.get(value, [])

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}: {len(c)}" for n, c in sorted(self._extents.items()))
        return f"Database({sizes})"
