"""The query-shredding SQLite backend (``OptimizerOptions.backend="sqlite"``).

Fegaras' unnesting algebra produces flat join/outer-join/unnest chains
separated by nest operators — exactly the shape *query shredding* (Cheney,
Lindley & Wadler, arXiv:1404.7078) translates to a bounded set of flat
relational queries plus a stitching step.  This module implements that
translation over the stdlib ``sqlite3`` engine in three layers:

**Shredded storage** (:class:`ShreddedStore`).  Every extent is flattened
into SQLite tables: one root table per extent keyed by the engine-assigned
``$oid`` (scalar attributes as columns, nested *records* flattened in place
with ``$``-joined column prefixes), and one child table per nested
collection (``Extent$path``) whose rows carry ``$parent`` (the owning row's
``$oid``) and ``$pos`` (the occurrence index — bag multiplicity and list
order survive shredding).  The catalog is **data-driven**: shapes are
inferred from the stored values, not the declared schema (the ``ab`` demo
database stores plain integers under a record-typed schema).  Anything the
flat encoding cannot represent faithfully — inheritance hierarchies,
NULL-valued collection attributes, heterogeneous record shapes, mixed-type
columns — raises :class:`~repro.errors.BackendUnsupportedError` instead of
risking silent divergence.  The store holds what only it has: the tables,
their catalog and indexes, the connections.  The objects stay the
:class:`~repro.data.database.Database`'s: :attr:`ShreddedStore.objects`
maps each ``$oid`` to the database's own record, and as the plan's
``ExtentProvider`` :meth:`ShreddedStore.extent` is the refusal check plus
``database.extent(name)``.

**SQL lowering** (:func:`compile_segments`).  Maximal chains of
scan/select/join/outer-join/unnest/outer-unnest/map operators are compiled
into **one flat ``SELECT`` per nesting level**: joins become parenthesized
join trees (inner predicates in ``ON``/``WHERE``, which are equivalent for
inner joins), outer-joins become ``LEFT JOIN`` with the right side's
residual filters lifted into the ``ON`` clause (the standard equivalence),
and (outer-)unnests become joins against the child tables on ``$parent``.
The translated predicates rely on SQLite's Kleene three-valued logic
matching the calculus: ``WHERE`` drops NULL predicates exactly as the
engine treats NULL predicates as false, ``AND``/``OR``/``NOT``/``CASE``
agree with the evaluator's 3VL, and object equality compares ``$oid``
columns — the same identity semantics as
:func:`~repro.data.values.identity_eq`.  Expressions the translation cannot
prove equivalent (division — SQLite truncates integers and yields NULL on
zero — parameters, string concatenation, collection-valued terms) are
simply *not* compiled: the operator stays residual.  Every segment orders
by the constituent ``$pos`` columns, reproducing the in-memory engine's
nested-loop enumeration order exactly.

**Aggregation pushdown** (the same :func:`compile_segments`).  The paper's
O4/O7 reduce/nest operators lower into SQL whenever their monoid has an
exact SQL rendering: ``sum``/``max``/``avg``/``all``/``some`` (and ``min``
at a segment root) become aggregates over a ``CASE``-guarded contribution
— NULL padding and failed predicates contribute ``NULL``, which every SQL
aggregate skips, reproducing the calculus' null-to-zero conversion.  A
lowered nest is one of three forms, tried in this order; the first two are
the shapes the physical planner fuses, recognised by its own functions:

* *an aggregate joined to its left side* — a nest over an outer-join on
  equalities (``Γ ∘ =⋈``, :func:`~repro.engine.planner.group_join_shape`)
  is ``L LEFT JOIN (SELECT key, AGG(...) FROM R GROUP BY key) ON L.key =
  key`` with the monoid's zero restored outside the join: no (left, right)
  pair is formed to be grouped back, and the chain stays L's;
* *a binding domain* — a nest whose spine reads its left side only through
  stored column values (:func:`~repro.engine.planner.shared_spine`) states
  L once (``WITH l``), runs the spine over one row of ``l`` per distinct
  binding, and joins each L row to its value with ``IS``;
* *the grouped product* otherwise — ``GROUP BY`` over the joined rows,
  first-seen group order kept as ``MIN("$rn")`` of a ``ROW_NUMBER()`` over
  the chain's ``$pos`` ordering, a record key passing its payload columns
  through the derived table under a ``k<i>$`` prefix, an occurrence as ``k<i>#``.

The first two emit one row per *row* of L, the product form one per group
of L's keys, and the two agree: a variable over a bag or list table is
keyed by its occurrence, its row's ``$pos``, so no two rows of L share a
group.  The first is refused when a join conjunct that is not an equality
reads both sides (no key to aggregate under), the second unless every
binding is one stored column compared exactly — not ``num`` (``1`` and
``1.0`` would share), not computed, not a collection.  Stacked
aggregations are *one* statement either way.  A ``Reduce`` root is the
engine's ``Reduce`` over a segment of its values (kept heads, or the one
aggregated row).  A collection-monoid ``Nest``, ``prod`` and parameters
stay operators above the segments.

**Stitching** (:class:`SqlSegment` / :class:`PSqlSegment`).  Lowering does
not produce a second executor: :func:`compile_segments` returns the
optimized plan with every lowered subtree replaced by a ``SqlSegment``
*leaf*, and the one physical planner (:mod:`repro.engine.planner`) builds
it into a ``PSqlSegment`` that runs the flat SELECT and decodes the rows
straight into chunk columns (``$oid`` → the database's own object: the
index a flat query returns, followed into the one heap).  Every operator
*above* a segment — a folding ``Reduce``, a grouping ``HashNest``, residual
expressions, refused extents — is an ordinary physical operator over those
chunks, with the store as the extent provider: kernels, the group-join,
governor ticks, memory charges and EXPLAIN ANALYZE apply to both backends
by construction.  This is the shredding paper's stitching *phase*, not a
stitching evaluator.
Execution is governed inside SQLite itself: a progress handler ticks the
shared governor every few thousand VM opcodes, so timeouts, budgets, and
cancellation trip mid-``SELECT``.

**Out-of-core storage**.  ``ShreddedStore(db_path=...)`` shreds to a file
instead of ``:memory:`` (WAL journal, file-backed temp store, bounded page
cache) and records a fingerprint (layout version, schema version, a
per-extent digest of every stored value and OID).  A reopen whose
fingerprint matches skips ``CREATE``/``INSERT`` and re-derives the catalog
from the database, as a fresh shred does; SQL's working set is bounded by
``cache_size``, the Python objects are the database's, held once.  Join
columns discovered at lowering time get indexes on demand, and ``ANALYZE``
keeps the SQLite planner's estimates honest.
"""

from __future__ import annotations

import itertools
import math
import sqlite3
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Mapping

from repro.algebra.operators import (
    Join,
    Map,
    Nest,
    Operator,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Seed,
    Select,
    Unnest,
    occurrence,
    operators,
    rebuild,
)
from repro.calculus.monoids import CollectionMonoid
from repro.calculus.terms import (
    BinOp,
    Const,
    If,
    IsNull,
    Not,
    Null,
    Proj,
    Term,
    Var,
    free_vars,
)
from repro.data.database import Database
from repro.data.values import (
    NULL,
    BagValue,
    CollectionValue,
    ListValue,
    Record,
    SetValue,
    is_null,
)
from repro.engine.batch import Chunk
from repro.engine.physical import PhysicalOperator, _Context, _column_chunks
from repro.engine.planner import (
    group_join_shape,
    shared_spine,
    split_equi_conjuncts,
)
from repro.errors import BackendUnsupportedError, ExecutionError, GovernorError

__all__ = [
    "ShreddedStore",
    "shredded_store",
    "SqlSegment",
    "PSqlSegment",
    "compile_segments",
    "execute_shredded",
    "explain_shredded",
    "shredded_sql",
    "fused_forms",
]


def _q(name: str) -> str:
    """Quote a SQL identifier (``$oid``-style names and user attributes
    like ``oid`` both need it)."""
    return '"' + name.replace('"', '""') + '"'


#: Rows fetched (and governor-ticked) per batch while draining a cursor.
_FETCH_BATCH = 1024
#: SQLite VM opcodes between governor checkpoints mid-SELECT.
_PROGRESS_OPCODES = 2000
#: Default page-cache budget (KiB) for file-backed stores; the rest of the
#: working set stays on disk, which is the whole point of out-of-core mode.
_FILE_CACHE_KIB = 16384
#: Bumped whenever the flat encoding or what the fingerprint digests
#: changes; part of the fingerprint, so a stale file re-shreds instead of
#: being misread.
_LAYOUT_VERSION = 4
_MANIFEST_TABLE = "repro$manifest"
#: What only the two fused nest forms write into a statement (the
#: pre-aggregate's column, the domain's SELECT): :func:`fused_forms`.
_PREAGGREGATE = "$a"
_DOMAIN_SELECT = "SELECT * FROM "


# ---------------------------------------------------------------------------
# Shredded storage
# ---------------------------------------------------------------------------


_SCALAR_TAGS = {bool: "bool", int: "int", float: "float", str: "str"}


def _scalar_tag(value: Any) -> str | None:
    return _SCALAR_TAGS.get(type(value))


def _merge_tag(a: str | None, b: str) -> str:
    if a is None or a == b:
        return b
    if {a, b} <= {"int", "float", "num"}:
        return "num"
    raise BackendUnsupportedError(
        f"mixed value types in one column ({a} vs {b}) cannot be shredded "
        "faithfully (SQLite orders across storage classes; the engine "
        "raises a type error)"
    )


@dataclass
class _Table:
    """One flat SQLite table: an extent's root or a lifted nested collection.

    ``columns`` maps scalar attribute paths (``salary``,
    ``manager$name``) to their value tags; ``records`` is the set of
    nested-record paths ("" is the element itself for record-shaped
    tables, each contributing a ``path$oid`` column); ``children`` maps
    nested-collection paths to their child tables.
    """

    name: str
    element: str  # "record" | "scalar"
    kind: str  # set | bag | list
    child: bool  # has $parent?
    columns: dict[str, str] = field(default_factory=dict)
    records: set[str] = field(default_factory=set)
    children: dict[str, "_Table"] = field(default_factory=dict)

    def oid_column(self, path: str = "") -> str:
        return "$oid" if path == "" else path + "$oid"

    def value_column(self, path: str) -> str:
        return "$value" if path == "" else path

    def payload_columns(self) -> list[str]:
        """The non-structural columns, in deterministic order."""
        cols = [self.value_column(p) for p in sorted(self.columns)]
        cols += [self.oid_column(p) for p in sorted(self.records) if p]
        return sorted(cols)

    def all_columns(self) -> list[str]:
        structural = ["$oid"] + (["$parent"] if self.child else []) + ["$pos"]
        return structural + self.payload_columns()


def _encode(value: Any) -> Any:
    if is_null(value):
        return None
    if isinstance(value, bool):
        return int(value)
    return value


class ShreddedStore:
    """A database's extents shredded into flat SQLite tables.

    The store keeps the tables, their catalog and indexes, and the
    connections; the objects are the database's.  :attr:`objects` resolves
    a ``$oid`` column to the database's own record — the very object a
    residual operator reaches through :meth:`extent`, which (the
    ``ExtentProvider`` protocol) checks for a refusal and delegates.
    """

    def __init__(
        self,
        database: Database,
        db_path: str | None = None,
        cache_kib: int | None = None,
    ):
        if database.schema.supertypes:
            raise BackendUnsupportedError(
                "the SQLite shredding backend does not support inheritance "
                "hierarchies (extent inclusion would shred objects into "
                "multiple root tables)"
            )
        self._database = database
        self.db_path = db_path
        if cache_kib is None and db_path is not None:
            cache_kib = _FILE_CACHE_KIB
        self.cache_kib = cache_kib
        self.lock = threading.Lock()
        # Connection policy: an in-memory store IS one connection (a second
        # ``:memory:`` connection would see a different, empty database), so
        # it stays shared across threads with ``self.lock`` serializing
        # statements.  A file-backed store gives every thread its own
        # connection (see :meth:`connection`): concurrent sessions then
        # read in parallel under WAL, and — the bug this replaced — never
        # interleave cursors, statement caches, or progress handlers on a
        # connection another thread is mid-query on.
        self._shared_connection: sqlite3.Connection | None = None
        self._tlocal = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        self._closed = False
        first_connection = self._open_connection()
        if db_path is None:
            self._shared_connection = first_connection
        else:
            self._tlocal.connection = first_connection
        #: extent name -> root table (only extents that shredded cleanly).
        self.tables: dict[str, _Table] = {}
        #: extent name -> refusal reason (never silent: surfaced by extent()).
        self.refusals: dict[str, str] = {}
        #: oid -> the database's own Record, nested ones included.
        self.objects: dict[int, Record] = {}
        self._next_surrogate = -1
        self._join_indexed: set[tuple[str, str]] = set()
        #: Monotonic nonce for governed statements (see PSqlSegment).  An
        #: itertools counter: ``next()`` is atomic under the GIL, where the
        #: old ``+= 1`` read-modify-write raced concurrent sessions into
        #: sharing a nonce (and thus a cached statement's VM-step phase,
        #: corrupting per-query governor accounting).
        self._governed_nonce = itertools.count(1)
        fingerprint = self._index_objects()
        #: True when a file-backed store found its fingerprint in the file
        #: and kept the tables there instead of re-shredding.
        self.reused = (
            db_path is not None and self._stored_fingerprint() == fingerprint
        )
        rewrite = db_path is not None and not self.reused
        self._shred_all(fingerprint if rewrite else None)
        self.connection.execute("ANALYZE")

    # -- connection / file management ---------------------------------------

    @property
    def connection(self) -> sqlite3.Connection:
        """The calling thread's connection.

        In-memory stores share one connection (callers serialize on
        :attr:`lock`); file-backed stores hand every thread its own,
        opened lazily against :attr:`db_path` with the same pragmas.
        """
        if self._closed:
            # Without this check a closed in-memory store would lazily
            # open a brand-new empty ':memory:' database here and answer
            # post-close queries with silently wrong (empty) results.
            raise sqlite3.ProgrammingError(
                "cannot use a closed ShreddedStore"
            )
        shared = self._shared_connection
        if shared is not None:
            return shared
        connection = getattr(self._tlocal, "connection", None)
        if connection is None:
            connection = self._open_connection()
            self._tlocal.connection = connection
        return connection

    def _open_connection(self) -> sqlite3.Connection:
        """A configured connection — or, for a ``db_path`` that cannot be
        opened as a database or that holds somebody else's, a typed refusal
        before a pragma or a statement of ours has touched the file."""
        connection = None
        try:
            connection = sqlite3.connect(
                self.db_path or ":memory:", check_same_thread=False
            )
            # Autocommit; shredding wraps itself in an explicit transaction.
            connection.isolation_level = None
            schema = connection.execute("SELECT name FROM sqlite_master")
            names = [name for (name,) in schema]
            if names and _MANIFEST_TABLE not in names:
                raise sqlite3.DatabaseError(
                    f"it holds {len(names)} schema object(s) and no "
                    f"{_MANIFEST_TABLE!r}: not a store of ours, left untouched"
                )
            self._configure_pragmas(connection)
        except sqlite3.Error as exc:
            if connection is not None:
                connection.close()
            raise ExecutionError(
                f"sqlite backend error: cannot use {self.db_path!r} "
                f"as a shredded store: {exc}"
            ) from exc
        with self._connections_lock:
            self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Close every connection this store has opened (all threads).
        The store is unusable afterwards: further statements raise
        :class:`sqlite3.ProgrammingError` instead of silently running
        against a fresh empty database."""
        self._closed = True
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - best-effort cleanup
                pass
        self._shared_connection = None
        self._tlocal = threading.local()

    def _configure_pragmas(self, connection: sqlite3.Connection) -> None:
        execute = connection.execute
        if self.db_path is not None:
            # Streaming-friendly file mode: WAL keeps readers unblocked,
            # NORMAL sync is durable enough for a rebuildable cache, and a
            # file-backed temp store lets sorts/group-bys spill to disk.
            execute("PRAGMA journal_mode=WAL")
            execute("PRAGMA synchronous=NORMAL")
            execute("PRAGMA temp_store=FILE")
            execute("PRAGMA busy_timeout=5000")
        if self.cache_kib is not None:
            execute(f"PRAGMA cache_size=-{int(self.cache_kib)}")

    def _shred_all(self, manifest: str | None) -> None:
        """Describe every extent and — unless the file's tables are being
        reused — create and fill its tables.  The catalog is never read
        back: a reopen derives it as a fresh shred does, so the two cannot
        disagree.  A rewrite (*manifest*: the new fingerprint) drops the
        stale tables and records the manifest in the one transaction — a
        file holding tables and no manifest is somebody else's."""
        self.connection.execute("BEGIN IMMEDIATE")
        try:
            if manifest is not None:
                self._reset_file()
            for name in self._database.extent_names():
                try:
                    self._shred_extent(name)
                except BackendUnsupportedError as exc:
                    self.refusals[name] = exc.message
            if manifest is not None:
                self._write_manifest(manifest)
            self.connection.execute("COMMIT")
        except BaseException:
            self.connection.execute("ROLLBACK")
            raise

    def _index_objects(self) -> str:
        """One walk of the database: :attr:`objects` learns every stored
        record, and the returned fingerprint digests the layout and schema
        versions and, per extent, every value *and OID* in iteration order
        — what the tables encode.  OIDs count because ``$oid`` columns
        resolve through :attr:`objects`: a file whose OIDs are another
        database's must re-shred, not answer with the wrong object."""
        objects = self.objects

        def canon(value: Any, out: list[str]) -> None:
            if isinstance(value, Record):
                if value.oid is not None:
                    objects[value.oid] = value
                out.append(f"<{value.oid}")
                for attr in value.attributes():
                    out.append(attr + "=")
                    canon(value[attr], out)
                out.append(">")
            elif isinstance(value, CollectionValue):
                out.append(type(value).__name__ + "[")
                for element in value.elements():
                    canon(element, out)
                out.append("]")
            else:
                out.append(repr(value))

        parts = [
            f"format:{_LAYOUT_VERSION}",
            f"schema:{self._database.schema_version}",
        ]
        for name in self._database.extent_names():
            value = self._database.extent(name)
            digest = 0
            for element in value.elements():
                out: list[str] = []
                canon(element, out)
                digest = zlib.crc32(",".join(out).encode("utf-8"), digest)
            kind = type(value).__name__
            parts.append(f"{name}:{kind}:{len(value)}:{digest}")
        return ";".join(parts)

    def _stored_fingerprint(self) -> str | None:
        try:
            row = self.connection.execute(
                f"SELECT value FROM {_q(_MANIFEST_TABLE)} "
                "WHERE key = 'fingerprint'"
            ).fetchone()
        except sqlite3.OperationalError:
            return None  # no manifest table: a fresh file
        return None if row is None else row[0]

    def _reset_file(self) -> None:
        names = [
            row[0]
            for row in self.connection.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
            ).fetchall()
        ]
        for name in names:
            self.connection.execute(f"DROP TABLE IF EXISTS {_q(name)}")

    def _write_manifest(self, fingerprint: str) -> None:
        self.connection.execute(
            f"CREATE TABLE IF NOT EXISTS {_q(_MANIFEST_TABLE)} "
            "(key TEXT PRIMARY KEY, value TEXT)"
        )
        self.connection.execute(
            f"INSERT OR REPLACE INTO {_q(_MANIFEST_TABLE)} (key, value) "
            "VALUES ('fingerprint', ?)",
            (fingerprint,),
        )

    @contextmanager
    def statement_guard(self) -> Iterator[sqlite3.Connection]:
        """Exclusive use of the calling thread's connection for one
        statement's full lifetime (execute through final fetch).

        In-memory stores serialize on :attr:`lock` — the connection is
        shared, and interleaving another thread's cursor (or progress
        handler) mid-fetch is exactly the corruption this guards against.
        File-backed stores yield the thread's own connection with no lock:
        WAL readers proceed in parallel.
        """
        if self._shared_connection is not None:
            with self.lock:
                yield self._shared_connection
        else:
            yield self.connection

    def prepare_indexes(self, requests: set[tuple[str, str]]) -> list[str]:
        """Create indexes for lowering-time equi-join columns (idempotent);
        re-ANALYZE when anything new appears.  Returns new index names."""
        created: list[str] = []
        with self.lock:
            for table_name, column in sorted(requests):
                if (table_name, column) in self._join_indexed:
                    continue
                if table_name not in {
                    t.name for t in self._all_tables()
                }:  # pragma: no cover - requests come from the catalog
                    continue
                index = f"ix$join${table_name}${column}"
                self.connection.execute(
                    f"CREATE INDEX IF NOT EXISTS {_q(index)} "
                    f"ON {_q(table_name)} ({_q(column)})"
                )
                self._join_indexed.add((table_name, column))
                created.append(index)
            if created:
                self.connection.execute("ANALYZE")
        return created

    def _all_tables(self) -> Iterator[_Table]:
        def walk(table: _Table) -> Iterator[_Table]:
            yield table
            for child in table.children.values():
                yield from walk(child)

        for table in self.tables.values():
            yield from walk(table)

    # -- shredding ----------------------------------------------------------

    def _surrogate(self) -> int:
        oid = self._next_surrogate
        self._next_surrogate -= 1
        return oid

    def _shred_extent(self, name: str) -> None:
        value = self._database.extent(name)
        elements = list(value.elements())
        table = self._describe(name, _collection_kind(value), elements, False)
        if not self.reused:
            self._create(table)
            self._insert(table, elements, None, set())
        self.tables[name] = table

    def _describe(
        self, table_name: str, kind: str, elements: list[Any], child: bool
    ) -> _Table:
        """The table of *elements*: the extent's, or those of every parent
        row's nested collection."""
        table = _Table(table_name, "record", kind, child)
        present = [e for e in elements if not is_null(e)]
        records = [e for e in present if isinstance(e, Record)]
        if records:
            if len(records) != len(elements):
                raise BackendUnsupportedError(
                    f"{table_name}: record-shaped collection mixes records "
                    "with other elements"
                )
            table.records.add("")
            self._describe_fields(table, "", records)
            return table
        scalars = [e for e in present if _scalar_tag(e) is not None]
        if len(scalars) != len(present):
            raise BackendUnsupportedError(
                f"{table_name}: elements are neither records nor scalars"
            )
        tag: str | None = None
        for e in scalars:
            tag = _merge_tag(tag, _scalar_tag(e))
        table.element = "scalar"
        table.columns[""] = tag or "any"
        return table

    def _describe_fields(
        self, table: _Table, prefix: str, records: list[Record]
    ) -> None:
        attrs = records[0].attributes()
        if any(r.attributes() != attrs for r in records):
            raise BackendUnsupportedError(
                f"{table.name}: heterogeneous record shapes at "
                f"{prefix or 'the element'!r}"
            )
        for attr in attrs:
            path = f"{prefix}${attr}" if prefix else attr
            values = [r[attr] for r in records]
            present = [v for v in values if not is_null(v)]
            if not present:
                table.columns[path] = "any"
                continue
            if all(_scalar_tag(v) is not None for v in present):
                tag: str | None = None
                for v in present:
                    tag = _merge_tag(tag, _scalar_tag(v))
                table.columns[path] = tag or "any"
            elif all(isinstance(v, Record) for v in present):
                table.records.add(path)
                self._describe_fields(table, path, present)
            elif all(isinstance(v, CollectionValue) for v in present):
                if len(present) != len(values):
                    raise BackendUnsupportedError(
                        f"{table.name}: NULL-valued collection attribute "
                        f"{path!r} (a missing child table cannot distinguish "
                        "NULL from empty)"
                    )
                kinds = {_collection_kind(v) for v in present}
                if len(kinds) != 1:
                    raise BackendUnsupportedError(
                        f"{table.name}: mixed collection kinds at {path!r}"
                    )
                nested = [e for v in present for e in v.elements()]
                table.children[path] = self._describe(
                    f"{table.name}${path}", kinds.pop(), nested, True
                )
            else:
                raise BackendUnsupportedError(
                    f"{table.name}: attribute {path!r} mixes value categories"
                )

    def _create(self, table: _Table) -> None:
        cols = ", ".join(_q(c) for c in table.all_columns())
        self.connection.execute(f"CREATE TABLE {_q(table.name)} ({cols})")
        if table.child:
            # Composite: probes join on $parent and scan children in $pos
            # order, so one index covers both the join and the sort.
            self.connection.execute(
                f"CREATE INDEX {_q('ix$' + table.name)} "
                f"ON {_q(table.name)} ({_q('$parent')}, {_q('$pos')})"
            )
        for child in table.children.values():
            self._create(child)

    def _insert(
        self, table: _Table, elements: list[Any], parent: int | None, owners: set
    ) -> None:
        """*elements* as rows of *table*; a collection once per *owners*."""
        columns = table.all_columns()
        sql = (
            f"INSERT INTO {_q(table.name)} "
            f"({', '.join(_q(c) for c in columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})"
        )
        for pos, element in enumerate(elements):
            row = {c: None for c in columns}
            row["$pos"] = pos
            if table.child:
                row["$parent"] = parent
            if table.element == "record":
                oid = element.oid if element.oid is not None else self._surrogate()
                row["$oid"] = oid
                self._flatten(table, "", element, row)
            else:
                row["$oid"] = self._surrogate()
                row["$value"] = _encode(element)
            self.connection.execute(sql, [row[c] for c in columns])
            for path, child in table.children.items():
                value = _walk_path(element, path)
                owner = (child.name, row["$oid"])
                if value is None or is_null(value) or owner in owners:
                    continue
                owners.add(owner)
                self._insert(child, list(value.elements()), row["$oid"], owners)

    def _flatten(
        self, table: _Table, prefix: str, record: Record, row: dict
    ) -> None:
        for attr in record.attributes():
            path = f"{prefix}${attr}" if prefix else attr
            value = record[attr]
            if path in table.columns:
                row[table.value_column(path)] = _encode(value)
            elif path in table.records:
                if is_null(value):
                    continue  # the path$oid column stays NULL
                oid = value.oid if value.oid is not None else self._surrogate()
                row[table.oid_column(path)] = oid
                self._flatten(table, path, value, row)
            # collection paths are handled by the child-table inserts

    # -- the ExtentProvider protocol ------------------------------------------

    def extent(self, name: str) -> CollectionValue:
        """The database's extent, unless shredding refused it: a residual
        scan of a refused extent fails here, at scan time, as typed as a
        lowered one."""
        if name in self.refusals:
            raise BackendUnsupportedError(
                f"extent {name!r} was not shredded: {self.refusals[name]}"
            )
        return self._database.extent(name)


def _collection_kind(value: CollectionValue) -> str:
    if isinstance(value, SetValue):
        return "set"
    if isinstance(value, BagValue):
        return "bag"
    if isinstance(value, ListValue):
        return "list"
    raise BackendUnsupportedError(
        f"unknown collection kind {type(value).__name__}"
    )


def _walk_path(element: Any, path: str) -> Any | None:
    """Navigate ``a$b$c`` through nested records; None when unreachable."""
    value = element
    for attr in path.split("$"):
        if is_null(value) or not isinstance(value, Record):
            return None
        value = value[attr]
    return value


_STORE_BUILD_LOCK = threading.Lock()


def shredded_store(
    database: Database,
    db_path: str | None = None,
    cache_kib: int | None = None,
) -> ShreddedStore:
    """The (cached) shredded image of *database*, one per database: it
    hangs on the database itself (``Database.shredded``), so dropping the
    database releases the SQLite image and its connections with it.

    Rebuilt whenever ``schema_version`` changes (mirroring the plan cache's
    staleness rule) or when ``db_path`` switches — an in-memory store and a
    file-backed one are different images.  A file-backed store that finds a
    matching manifest fingerprint reuses the on-disk shred.
    """

    def lookup() -> ShreddedStore | None:
        entry = database.shredded
        if (
            entry is not None
            and entry[0] == database.schema_version
            and entry[1] == db_path
        ):
            return entry[2]
        return None

    store = lookup()
    if store is not None:
        return store
    # Serialize builds: two threads that both miss must not each shred the
    # same database (and, file-backed, write the same file) concurrently.
    # Creation is rare — once per schema version — so one coarse lock is
    # fine; re-check under it so the loser adopts the winner's store.
    with _STORE_BUILD_LOCK:
        store = lookup()
        if store is None:
            store = ShreddedStore(database, db_path=db_path, cache_kib=cache_kib)
            database.shredded = (database.schema_version, db_path, store)
    return store


# ---------------------------------------------------------------------------
# SQL lowering: expression translation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SqlExpr:
    """A translated scalar expression: SQL text plus a value tag.

    ``tag`` is a value-type tag (``int``/``float``/``num``/``str``/
    ``bool``/``any``/``null``) or ``object`` — in which case ``sql`` is the
    ``$oid`` column, the identity the engine's ``=`` compares.
    """

    sql: str
    tag: str


@dataclass
class _VarBind:
    """How one range variable is realized inside a SQL segment.

    ``prefix`` supports lowered nests used as derived tables: a record
    group key passes its payload columns through under a ``k<i>$`` prefix,
    so the rebound variable resolves ``alias."k<i>$<column>"`` instead of
    the physical column names.  ``occurrence``: over a bag or list, the
    SQL of the variable's occurrence (its row's ``$pos``, or ``k<i>#``).
    """

    kind: str  # "record" | "scalar" | "expr"
    alias: str = ""
    table: _Table | None = None
    expr: _SqlExpr | None = None
    prefix: str = ""
    occurrence: str = ""


def _bcol(bind: _VarBind, column: str) -> str:
    """A bound table column as qualified SQL (prefix-aware)."""
    return f"{bind.alias}.{_q(bind.prefix + column)}"


def _table_bind(alias: str, table: _Table, occurs: bool) -> _VarBind:
    """A variable over *table*'s rows; one that *occurs* (a nest keys it by
    its occurrence: :func:`~repro.engine.planner.occurring_vars`) with its
    row's ``$pos`` as the occurrence."""
    kind = "record" if table.element == "record" else "scalar"
    occurrence = f"{alias}.{_q('$pos')}" if occurs else ""
    return _VarBind(kind, alias, table, occurrence=occurrence)


def _column(bind: _VarBind) -> tuple[str, str, str]:
    """A bound variable as one result column: ``(sql, decode kind, tag)``
    — a record by its ``$oid``, the identity a group key compares."""
    if bind.kind == "expr":
        assert bind.expr is not None
        sql, tag = bind.expr.sql, bind.expr.tag
    else:
        assert bind.table is not None
        if bind.kind == "record":
            return _bcol(bind, bind.table.oid_column()), "object", ""
        sql, tag = _bcol(bind, bind.table.value_column("")), bind.table.columns[""]
    return (sql, "object", "") if tag == "object" else (sql, "scalar", tag)


_NUMERIC = frozenset(("int", "float", "num", "bool"))


def _comparable(a: str, b: str) -> bool:
    if "any" in (a, b) or "null" in (a, b):
        return True  # a NULL operand yields NULL on both backends
    return (a in _NUMERIC and b in _NUMERIC) or (a == "str" and b == "str")


def _literal(value: Any) -> _SqlExpr | None:
    if isinstance(value, bool):
        return _SqlExpr("1" if value else "0", "bool")
    if isinstance(value, int):
        return _SqlExpr(str(value), "int")
    if isinstance(value, float):
        if not math.isfinite(value):
            return None  # SQLite has no literal NaN/inf
        return _SqlExpr(repr(value), "float")
    if isinstance(value, str):
        if "\x00" in value:
            return None
        return _SqlExpr("'" + value.replace("'", "''") + "'", "str")
    return None


def _sql_expr(term: Term, binds: Mapping[str, _VarBind]) -> _SqlExpr | None:
    """Translate a calculus term to SQL, or None when no faithful
    translation exists (the caller falls back to residual Python).

    Deliberately untranslated: ``/`` and ``%`` (SQLite truncates integer
    division and yields NULL on zero where the engine raises a structured
    error), parameters (bound per execution, after segment compilation),
    string concatenation, and anything collection- or record-constructing.
    """
    if isinstance(term, Const):
        return _literal(term.value)
    if isinstance(term, Null):
        return _SqlExpr("NULL", "null")
    if isinstance(term, (Var, Proj)):
        return _resolve_path(term, binds)
    if isinstance(term, IsNull):
        inner = _sql_expr(term.expr, binds)
        if inner is None:
            return None
        return _SqlExpr(f"({inner.sql} IS NULL)", "bool")
    if isinstance(term, Not):
        inner = _sql_expr(term.expr, binds)
        if inner is None or inner.tag not in ("bool", "any", "null"):
            return None
        return _SqlExpr(f"(NOT {inner.sql})", "bool")
    if isinstance(term, If):
        cond = _sql_expr(term.cond, binds)
        then = _sql_expr(term.then, binds)
        orelse = _sql_expr(term.orelse, binds)
        if cond is None or then is None or orelse is None:
            return None
        if "object" in (cond.tag, then.tag, orelse.tag):
            return None
        # SQL CASE takes ELSE on a NULL condition, matching the calculus.
        return _SqlExpr(
            f"(CASE WHEN {cond.sql} THEN {then.sql} ELSE {orelse.sql} END)",
            _result_tag(then.tag, orelse.tag),
        )
    if isinstance(term, BinOp):
        return _sql_binop(term, binds)
    return None


def _result_tag(a: str, b: str) -> str:
    if a == b:
        return a
    if a in ("null", "any"):
        return b
    if b in ("null", "any"):
        return a
    if a in _NUMERIC and b in _NUMERIC:
        return "float" if "float" in (a, b) else "num"
    return "any"


def _chained(term: Term, op: str) -> list[Term]:
    """The operands of a chain of *op*, left to right, however it nests."""
    if isinstance(term, BinOp) and term.op == op:
        return _chained(term.left, op) + _chained(term.right, op)
    return [term]


def _sql_binop(term: BinOp, binds: Mapping[str, _VarBind]) -> _SqlExpr | None:
    op = term.op
    if op in ("and", "or"):
        # The reference evaluator is *left-biased*, not Kleene: a NULL left
        # operand yields NULL even when the right operand would decide
        # (``NULL and False`` is NULL; SQLite's Kleene AND gives False).  A
        # simple CASE states the left operand once — a chain stays linear —
        # and NULL matches no arm.  Being associative, a chain is stated
        # left-nested: SQLite parses three times the CASE depth there as in
        # an arm, with no parentheses (each operand is atomic or has its own).
        operands = [_sql_expr(part, binds) for part in _chained(term, op)]
        if any(o is None or o.tag not in _BOOLISH for o in operands):
            return None
        decided, undecided = ("1", "0") if op == "or" else ("0", "1")
        sql = operands[0].sql
        for right in operands[1:]:
            sql = (
                f"(CASE {sql} WHEN {decided} THEN {decided} "
                f"WHEN {undecided} THEN {right.sql} END)"
            )
        return _SqlExpr(sql, "bool")
    left = _sql_expr(term.left, binds)
    right = _sql_expr(term.right, binds)
    if left is None or right is None:
        return None
    if op in ("==", "!="):
        sql_op = "=" if op == "==" else "<>"
        if left.tag == "object" or right.tag == "object":
            # Object equality is OID equality (identity semantics).  A
            # mixed object/scalar comparison is rejected by the typechecker;
            # don't guess at it here.
            if {left.tag, right.tag} <= {"object", "null"}:
                return _SqlExpr(f"({left.sql} {sql_op} {right.sql})", "bool")
            return None
        if not _comparable(left.tag, right.tag):
            return None
        return _SqlExpr(f"({left.sql} {sql_op} {right.sql})", "bool")
    if op in ("<", "<=", ">", ">="):
        if "object" in (left.tag, right.tag):
            return None
        if not _comparable(left.tag, right.tag):
            return None
        return _SqlExpr(f"({left.sql} {op} {right.sql})", "bool")
    if op in ("+", "-", "*"):
        if left.tag not in _NUMERIC and left.tag != "null":
            return None
        if right.tag not in _NUMERIC and right.tag != "null":
            return None
        return _SqlExpr(
            f"({left.sql} {op} {right.sql})", _result_tag(left.tag, right.tag)
        )
    return None  # "/" and "%" stay residual by design


def _stored_column(
    term: Term, binds: Mapping[str, _VarBind]
) -> tuple[_VarBind, str, str] | None:
    """The ``(bind, column, tag)`` behind a variable or projection chain
    over a table-bound variable, when it is one stored column."""
    attrs: list[str] = []
    while isinstance(term, Proj):
        attrs.append(term.attr)
        term = term.expr
    bind = binds.get(term.name) if isinstance(term, Var) else None
    if bind is None or bind.table is None:
        return None
    table = bind.table
    path = "$".join(reversed(attrs))
    if bind.kind == "scalar":
        # (projecting a scalar is an engine-side error)
        return None if attrs else (bind, table.value_column(""), table.columns[""])
    if not attrs or path in table.records:
        return bind, table.oid_column(path), "object"
    if path in table.columns:
        return bind, table.value_column(path), table.columns[path]
    return None  # a collection path or an attribute the catalog lacks


def _resolve_path(term: Term, binds: Mapping[str, _VarBind]) -> _SqlExpr | None:
    """A variable or projection chain as a SQL column reference."""
    bind = binds.get(term.name) if isinstance(term, Var) else None
    if bind is not None and bind.kind == "expr":
        return bind.expr
    found = _stored_column(term, binds)
    if found is None:
        return None
    bind, column, tag = found
    return _SqlExpr(_bcol(bind, column), tag)


# ---------------------------------------------------------------------------
# SQL lowering: aggregate monoids
# ---------------------------------------------------------------------------


#: Monoids whose SQL value encoding is exact *mid-query*, so a lowered nest
#: can feed further SQL.  ``min`` is excluded: its zero is ``inf``, which
#: SQL renders as NULL — decodable at a segment root, not chainable.
#: ``prod`` has no SQL aggregate at all and always stays residual.
_CHAINABLE = frozenset(("sum", "max", "avg", "all", "some"))
_ROOT_AGGREGATES = _CHAINABLE | {"min"}

_BOOLISH = frozenset(("bool", "any", "null"))
_NUMERIC_OK = _NUMERIC | {"any", "null"}


def _filter_sql(term: Term, binds: Mapping[str, _VarBind]) -> _SqlExpr | None:
    """*term* as a SQL condition used only for its truth (WHERE/ON/guards).

    A filtering position keeps a row iff the predicate is exactly True, so
    NULL and False are interchangeable there — and the reference
    evaluator's left-biased ``and`` agrees with SQLite's Kleene AND on
    True-ness (both are True iff both operands are).  Conjunctions
    therefore lower to plain AND with no CASE guard, which keeps the
    condition transparent to SQLite's planner: equality conjuncts in a
    JOIN's ON clause can drive index probes.  ``or`` stays value-exact
    (guarded): left-biased ``NULL or True`` is NULL — drops the row —
    where Kleene OR would keep it.
    """
    if isinstance(term, BinOp) and term.op == "and":
        left = _filter_sql(term.left, binds)
        right = _filter_sql(term.right, binds)
        if left is None or right is None:
            return None
        if left.tag not in _BOOLISH or right.tag not in _BOOLISH:
            return None
        return _SqlExpr(f"({left.sql} AND {right.sql})", "bool")
    return _sql_expr(term, binds)


#: monoid -> (SQL aggregate, its zero wrapper, input tags, output tag by
#: input tag, output tag otherwise).  ``max`` is the paper's (max, 0) monoid:
#: it floors at zero (scalar two-arg ``max``).  ``min``'s zero is +inf, which
#: an empty group decodes from NULL at a root nest (the "min" decode kind)
#: and a lowered reduce's ``Reduce`` folds NULL into.  SQL ``AVG`` is NULL on
#: empty input, exactly the monoid's finalize.
_AGGREGATES = {
    "sum": ("SUM", "COALESCE({}, 0)", _NUMERIC_OK,
            {"int": "int", "bool": "int", "float": "float"}, "num"),
    "max": ("MAX", "max(0, COALESCE({}, 0))", _NUMERIC_OK,
            {"int": "int", "bool": "int"}, "num"),
    "min": ("MIN", "{}", _NUMERIC_OK, {}, "num"),
    "avg": ("AVG", "{}", _NUMERIC_OK, {}, "float"),
    "all": ("MIN", "COALESCE({}, 1)", _BOOLISH, {}, "bool"),
    "some": ("MAX", "COALESCE({}, 0)", _BOOLISH, {}, "bool"),
}  # fmt: skip


def _aggregate_sql(
    name: str, value_sql: str, tag: str
) -> tuple[str, str, str, str] | None:
    """The SQL aggregate for monoid *name* over *value_sql* contributions.

    Returns ``(aggregate, zero, out_tag, decode_kind)`` or None when the
    monoid/input combination has no faithful SQL form.  Contributions are
    NULL for skipped rows (NULL padding, failed predicates, NULL heads),
    which SQL aggregates ignore — matching the calculus, where NULL
    contributes nothing to a primitive accumulator.  *zero* is a format
    string over the aggregate's value that restores the monoid's zero
    where that value is NULL: an empty group, or — the reason it is handed
    back apart — a left row that no pre-aggregated group joined.
    """
    if name not in _AGGREGATES or tag not in _AGGREGATES[name][2]:
        return None
    function, zero, _, out_tags, out_tag = _AGGREGATES[name]
    decode_kind = "min" if name == "min" else "scalar"
    out_tag = out_tags.get(tag, out_tag)
    return f"{function}({value_sql})", zero, out_tag, decode_kind


# ---------------------------------------------------------------------------
# SQL lowering: operator chains
# ---------------------------------------------------------------------------


@dataclass
class _Chain:
    """A partially built flat SELECT: FROM tree, filters, and bindings.

    ``order_cols`` are the SQL expressions that reproduce the in-memory
    engine's nested-loop enumeration order (one ``$pos`` per constituent
    source, in enumeration order); a lowered nest replaces its inputs'
    ``$pos`` columns with its groups' first-seen ``MIN("$rn")``.
    """

    from_sql: str
    binds: dict[str, _VarBind]
    order_cols: list[str]
    where: list[str] = field(default_factory=list)
    uses_table: bool = True
    #: True when the chain contains a lowered (GROUP BY) nest.
    grouped: bool = False
    #: ``name AS (SELECT ...)`` definitions ``from_sql`` refers to: the
    #: prefix of whichever SELECT is stated over this chain.
    ctes: list[str] = field(default_factory=list)

    def select(self, items: list[str], *filters: str) -> str:
        """``[WITH ...] SELECT items FROM ... [WHERE ...]`` over the chain."""
        sql = f"SELECT {', '.join(items)} FROM {self.from_sql}"
        if self.where or filters:
            sql += f" WHERE {' AND '.join([*self.where, *filters])}"
        return f"WITH {', '.join(self.ctes)} {sql}" if self.ctes else sql


@dataclass
class _Segment:
    """One compiled flat query covering a subtree of the logical plan: a
    stream of rows, one environment per SQL row."""

    sql: str
    #: Per-output-column decode instructions: (var, kind, tag).
    decoders: tuple[tuple[str, str, str], ...]
    #: EXPLAIN marker: sql | sql:group | sql:agg.
    label: str = "sql"


#: The column of a lowered reduce's values, for the engine's ``Reduce``.
_VALUE = "$v"


class _SegmentBuilder:
    """Compiles maximal operator subtrees into flat SELECT statements.

    ``Nest`` roots with SQL-expressible monoids lower into aggregate
    queries, which also participate *inside* chains as derived tables; a
    ``Reduce`` root becomes the engine's ``Reduce`` over a segment.
    """

    def __init__(self, store: ShreddedStore, occurring: frozenset[str]):
        self._store = store
        self._occurring = occurring
        #: (table, column) equi-join pairs worth indexing, discovered at
        #: lowering time across every *successful* build.
        self.index_requests: set[tuple[str, str]] = set()
        self._pending: set[tuple[str, str]] = set()
        #: id(subtree) -> the chain lowered in its place: while a shared
        #: spine is lowered, its leaf is the binding domain (_shared_domain).
        self._standins: dict[int, _Chain] = {}

    def build(self, plan: Operator) -> Operator | None:
        """What replaces *plan*: a SqlSegment, a Reduce over one, or None."""
        self._pending = set()
        counter = [0]
        if isinstance(plan, Reduce):
            segment = self._build_reduce(plan, counter)
        elif isinstance(plan, Nest):
            segment = self._build_nest(plan, counter)
        else:
            chain = self._chain(plan, counter)
            usable = chain is not None and chain.uses_table
            segment = self._finalize(plan, chain) if usable else None
        if segment is None:
            return None
        self.index_requests |= self._pending
        if isinstance(plan, Reduce):
            leaf = SqlSegment(segment, "Reduce", (_VALUE,))
            return Reduce(leaf, plan.monoid_name, Var(_VALUE))
        return SqlSegment(segment, type(plan).__name__, plan.columns())

    # -- chain construction --------------------------------------------------

    def _alias(self, counter: list[int], prefix: str = "t") -> str:
        alias = f"{prefix}{counter[0]}"
        counter[0] += 1
        return alias

    def _chain(self, plan: Operator, counter: list[int]) -> _Chain | None:
        standin = self._standins.get(id(plan))
        if standin is not None:
            # (a copy: selections and maps extend the chain they are given)
            return replace(
                standin, where=list(standin.where), binds=dict(standin.binds)
            )
        if isinstance(plan, Scan):
            return self._chain_scan(plan, counter)
        if isinstance(plan, Select):
            return self._chain_select(plan, counter)
        if isinstance(plan, Map):
            return self._chain_map(plan, counter)
        if isinstance(plan, (Join, OuterJoin)):
            return self._chain_join(plan, counter)
        if isinstance(plan, (Unnest, OuterUnnest)):
            return self._chain_unnest(plan, counter)
        if isinstance(plan, Seed):
            return self._chain_seed(plan, counter)
        if isinstance(plan, Nest):
            return self._chain_nest(plan, counter)
        return None

    def _chain_scan(self, plan: Scan, counter: list[int]) -> _Chain | None:
        table = self._store.tables.get(plan.extent)
        if table is None:
            return None
        alias = self._alias(counter)
        return _Chain(
            from_sql=f"{_q(table.name)} {alias}",
            binds={plan.var: _table_bind(alias, table, plan.var in self._occurring)},
            order_cols=[f"{alias}.{_q('$pos')}"],
        )

    def _chain_seed(self, plan: Seed, counter: list[int]) -> _Chain | None:
        alias = self._alias(counter)
        return _Chain(
            from_sql=f"(SELECT 0 AS {_q('$pos')}) {alias}",
            binds={},
            order_cols=[f"{alias}.{_q('$pos')}"],
            uses_table=False,
        )

    def _chain_select(self, plan: Select, counter: list[int]) -> _Chain | None:
        chain = self._chain(plan.child, counter)
        if chain is None:
            return None
        pred = _filter_sql(plan.pred, chain.binds)
        if pred is None:
            return None
        chain.where.append(pred.sql)
        return chain

    def _chain_map(self, plan: Map, counter: list[int]) -> _Chain | None:
        chain = self._chain(plan.child, counter)
        if chain is None:
            return None
        for name, expr in plan.bindings:
            compiled = _sql_expr(expr, chain.binds)
            if compiled is None:
                return None
            chain.binds[name] = _VarBind("expr", expr=compiled)
        return chain

    def _chain_join(
        self, plan: Join | OuterJoin, counter: list[int]
    ) -> _Chain | None:
        left = self._chain(plan.left, counter)
        if left is None:
            return None
        right = self._chain(plan.right, counter)
        if right is None:
            return None
        binds = {**left.binds, **right.binds}
        on: list[str] = []
        if plan.pred != Const(True):
            pred = _filter_sql(plan.pred, binds)
            if pred is None:
                return None
            on.append(pred.sql)
            self._equi_columns(plan.pred, binds)
        if isinstance(plan, OuterJoin):
            # The right side's filters must join the ON clause: a LEFT JOIN
            # pads left rows whose partners fail them, exactly as O5 pads
            # when the predicate fails.
            on.extend(right.where)
            where = left.where
            keyword = "LEFT JOIN"
        else:
            where = left.where + right.where
            keyword = "JOIN"
        condition = " AND ".join(on) if on else "1"
        return _Chain(
            from_sql=(
                f"({left.from_sql} {keyword} {right.from_sql} ON {condition})"
            ),
            where=where,
            binds=binds,
            order_cols=left.order_cols + right.order_cols,
            uses_table=left.uses_table or right.uses_table,
            grouped=left.grouped or right.grouped,
            ctes=left.ctes + right.ctes,
        )

    def _equi_columns(
        self, pred: Term, binds: Mapping[str, _VarBind]
    ) -> None:
        """Collect physical (table, column) pairs under equality in an
        AND-chain — the join keys worth indexing."""
        if not isinstance(pred, BinOp):
            return
        if pred.op == "and":
            self._equi_columns(pred.left, binds)
            self._equi_columns(pred.right, binds)
            return
        if pred.op != "==":
            return
        for side in (pred.left, pred.right):
            found = _indexable_column(side, binds)
            if found is not None:
                self._pending.add(found)

    def _chain_unnest(
        self, plan: Unnest | OuterUnnest, counter: list[int]
    ) -> _Chain | None:
        chain = self._chain(plan.child, counter)
        if chain is None:
            return None
        resolved = self._collection(plan.path, chain.binds)
        if resolved is None:
            return None
        parent_bind, child = resolved
        parent_table = parent_bind.table
        assert parent_table is not None
        alias = self._alias(counter)
        binds = dict(chain.binds)
        binds[plan.var] = _table_bind(alias, child, plan.var in self._occurring)
        on = [
            f"{alias}.{_q('$parent')} = "
            f"{_bcol(parent_bind, parent_table.oid_column())}"
        ]
        if not parent_bind.prefix:
            # The probe side of the $parent join: worth an index on the
            # parent's $oid when SQLite drives from the child table.
            self._pending.add((parent_table.name, parent_table.oid_column()))
        if plan.pred != Const(True):
            pred = _filter_sql(plan.pred, binds)
            if pred is None:
                return None
            # O6 pads when no element *satisfies the predicate*, which is
            # precisely LEFT JOIN with the predicate in the ON clause.
            on.append(pred.sql)
        keyword = "LEFT JOIN" if isinstance(plan, OuterUnnest) else "JOIN"
        return _Chain(
            from_sql=(
                f"({chain.from_sql} {keyword} {_q(child.name)} {alias} "
                f"ON {' AND '.join(on)})"
            ),
            where=chain.where,
            binds=binds,
            order_cols=chain.order_cols + [f"{alias}.{_q('$pos')}"],
            uses_table=True,
            grouped=chain.grouped,
            ctes=chain.ctes,
        )

    def _collection(
        self, path: Term, binds: Mapping[str, _VarBind]
    ) -> tuple[_VarBind, _Table] | None:
        """Resolve an unnest path to (parent bind, child table)."""
        attrs: list[str] = []
        while isinstance(path, Proj):
            attrs.append(path.attr)
            path = path.expr
        if not isinstance(path, Var) or not attrs:
            return None
        bind = binds.get(path.name)
        if bind is None or bind.kind != "record":
            return None
        assert bind.table is not None
        child = bind.table.children.get("$".join(reversed(attrs)))
        if child is None:
            return None
        return bind, child

    # -- nest/reduce lowering ------------------------------------------------

    def _nest_condition(
        self, plan: Nest, binds: Mapping[str, _VarBind]
    ) -> list[str] | None:
        """The contribution guard's conjuncts — null-var indicators, then
        the predicate; none means unconditional — or None when one does not
        translate.  The indicators are 0/1 (never NULL), so Kleene AND with
        a possibly-NULL predicate matches the calculus: any NULL/false
        conjunct yields a NULL contribution, which the aggregates skip
        (``_holds`` treats NULL as false; null vars are checked first).
        """
        conds: list[str] = []
        for null_var in plan.null_vars:
            indicator = _sql_expr(Var(null_var), binds)
            if indicator is None:
                return None
            conds.append(f"({indicator.sql} IS NOT NULL)")
        if plan.pred != Const(True):
            pred = _filter_sql(plan.pred, binds)
            if pred is None or pred.tag not in _BOOLISH:
                return None
            conds.append(pred.sql)
        return conds

    def _rank(self, plan: Nest, chain: _Chain) -> str:
        """Each row's enumeration rank under *plan*'s grouping.

        When every group-by variable is a record binding and together they
        pin the chain's *leading* order column, that column is constant
        within each group (the key fixes its source row) and distinct
        across groups (``$oid`` and ``$pos`` are bijective per source), so
        it reproduces first-seen group order directly; otherwise a
        ``ROW_NUMBER()`` window over the chain's order, which forces a
        full sort of the join output.
        """
        pinned: set[str] = set()
        for var in plan.group_by:
            bind = chain.binds.get(var)
            if bind is None or bind.kind != "record":
                break
            pinned.add(f"{bind.alias}.{_q('$pos')}")
        else:
            if chain.order_cols[:1] == list(pinned):
                return chain.order_cols[0]
        return f"ROW_NUMBER() OVER (ORDER BY {', '.join(chain.order_cols)})"

    def _chain_nest(self, plan: Nest, counter: list[int]) -> _Chain | None:
        """A lowered nest feeding further SQL: fused where the shape
        allows (:meth:`_fused_nest`), the grouped product otherwise."""
        if plan.monoid_name not in _CHAINABLE:
            return None
        fused = self._fused_nest(plan, counter)
        return fused or self._grouped_nest(plan, counter)

    def _fused_nest(self, plan: Nest, counter: list[int]) -> _Chain | None:
        """*plan* as one of the two shapes the physical planner fuses, in
        its order — or None with no alias consumed: the caller's own form
        then reads as if this was never tried."""
        for form in (self._preaggregated, self._shared_domain):
            mark = counter[0], set(self._pending)
            chain = form(plan, counter)
            if chain is not None:
                return chain
            counter[0], self._pending = mark
        return None

    def _fold(
        self, plan: Nest, binds: Mapping[str, _VarBind], column: str = ""
    ) -> tuple[str, tuple[str, str, str, str]] | None:
        """*plan*'s guarded contribution — its head, NULL (which every
        aggregate skips) wherever its condition fails — and
        :func:`_aggregate_sql` over it, or over the *column* it is to be
        selected as."""
        conds = self._nest_condition(plan, binds)
        head = _sql_expr(plan.head, binds)
        if conds is None or head is None or head.tag == "object":
            return None
        contrib = head.sql
        if conds:
            guard = " AND ".join(conds)
            contrib = f"(CASE WHEN {guard} THEN {contrib} ELSE NULL END)"
        aggregate = _aggregate_sql(plan.monoid_name, column or contrib, head.tag)
        return None if aggregate is None else (contrib, aggregate)

    def _preaggregated(self, plan: Nest, counter: list[int]) -> _Chain | None:
        """``Γ ∘ =⋈`` as ``L LEFT JOIN (R aggregated per join key)``: the
        right side is filtered, grouped by its halves of the equi-conjuncts
        and folded *before* it meets a left row, and the monoid's zero is
        restored outside the join, where an unmatched left row reads NULL.
        The chain stays L's — its binds, its ``$pos`` order, its filters.
        Refused (a two-sided residual): see the module docstring."""
        join = group_join_shape(plan)
        if join is None:
            return None
        right_columns = join.right.columns()
        keys, residual = split_equi_conjuncts(
            join.pred, join.left.columns(), right_columns
        )
        if not all(free_vars(part) <= set(right_columns) for part in residual):
            return None
        left = self._chain(join.left, counter)
        right = self._chain(join.right, counter)
        if left is None or right is None:
            return None
        folded = self._fold(plan, right.binds)
        filters = [_filter_sql(part, right.binds) for part in residual]
        if folded is None or None in filters:
            return None
        agg_sql, zero, out_tag, _decode = folded[1]
        galias = self._alias(counter)
        probe = dict(left.binds)
        group: list[str] = []
        on: list[str] = []
        for i, (left_key, right_key) in enumerate(keys):
            key = _sql_expr(right_key, right.binds)
            if key is None:
                return None
            group.append(key.sql)
            probe["$j"] = _VarBind(
                "expr", expr=_SqlExpr(f"{galias}.{_q(f'j{i}')}", key.tag)
            )
            match = _sql_expr(BinOp("==", left_key, Var("$j")), probe)
            if match is None:
                return None
            on.append(match.sql)
        self._equi_columns(join.pred, {**left.binds, **right.binds})
        items = [f"{sql} AS {_q(f'j{i}')}" for i, sql in enumerate(group)]
        items.append(f"{agg_sql} AS {_q(_PREAGGREGATE)}")
        grouped_sql = right.select(items, *(f.sql for f in filters))
        if group:
            grouped_sql += f" GROUP BY {', '.join(group)}"
        left.binds[plan.out_var] = _VarBind(
            "expr",
            expr=_SqlExpr(zero.format(f"{galias}.{_q(_PREAGGREGATE)}"), out_tag),
        )
        return replace(
            left,
            from_sql=(
                f"({left.from_sql} LEFT JOIN ({grouped_sql}) {galias} "
                f"ON {' AND '.join(on) or '1'})"
            ),
            uses_table=left.uses_table or right.uses_table,
            grouped=True,
        )

    def _shared_domain(self, plan: Nest, counter: list[int]) -> _Chain | None:
        """A nest over a spine correlated by value, run once per distinct
        binding: ``WITH l AS (L), d AS (one row of l per binding)``, the
        spine — this nest on top — lowered as it stands over ``d``, and
        ``l JOIN spine`` handing each L row its value.  ``d``'s rows are
        whole rows of ``l`` (bare columns under GROUP BY: one row of each
        group), so the spine's terms and keys read what they always read.
        ``IS``, not ``=``: a NULL binding is a binding.  An uncorrelated
        spine (no binding) is lowered as it stands; the other refusals are
        the module docstring's."""
        found = shared_spine(plan)
        if found is None or not found[1]:
            return None
        (*_, leaf), bindings = found
        if id(leaf) in self._standins:
            return None  # a nest on a shared spine: the leaf is a domain already
        base = self._chain(leaf, counter)
        if base is None:
            return None

        def columns(binds: Mapping[str, _VarBind]) -> list[str] | None:
            stored = [_resolve_path(term, binds) for term in bindings]
            if any(c is None or c.tag == "num" for c in stored):
                return None
            return [c.sql for c in stored]

        carried = self._carried(base.binds, leaf.columns())
        if carried is None or columns(base.binds) is None:
            return None
        items, _, rebind = carried
        # One rank column: a row of l is one position, which a group key
        # over l's variables pins (_rank) as it pins a table's.
        rank = base.order_cols[0]
        if len(base.order_cols) > 1:
            rank = f"ROW_NUMBER() OVER (ORDER BY {', '.join(base.order_cols)})"
        items.append((rank, "$pos"))
        lname, dname = self._alias(counter, "l"), self._alias(counter, "d")
        lalias, dalias = self._alias(counter), self._alias(counter)
        stated = base.select([f"{sql} AS {_q(name)}" for sql, name in items])
        per_binding = ", ".join(columns(rebind(lname)))
        ctes = [
            f"{lname} AS ({stated})",
            f"{dname} AS ({_DOMAIN_SELECT}{lname} GROUP BY {per_binding})",
        ]
        self._standins[id(leaf)] = _Chain(
            from_sql=f"{dname} {dalias}",
            binds=rebind(dalias),
            order_cols=[f"{dalias}.{_q('$pos')}"],
            uses_table=base.uses_table,
        )
        try:
            spine = self._grouped_nest(plan, counter)
        finally:
            del self._standins[id(leaf)]
        if spine is None:
            return None
        outer = rebind(lalias)
        pairs = zip(columns(spine.binds), columns(outer))
        on = " AND ".join(f"{theirs} IS {ours}" for theirs, ours in pairs)
        return _Chain(
            from_sql=f"({lname} {lalias} JOIN {spine.from_sql} ON {on})",
            binds={**outer, plan.out_var: spine.binds[plan.out_var]},
            order_cols=[f"{lalias}.{_q('$pos')}"],
            uses_table=spine.uses_table,
            grouped=True,
            ctes=ctes,
        )

    def _carried(
        self, binds: Mapping[str, _VarBind], names: tuple[str, ...]
    ) -> tuple[list[tuple[str, str]], list[str], Any] | None:
        """Variables *names* as columns of a derived table: ``(sql, name)``
        select items, the key columns, and a function rebinding the
        variables over an alias of that table.  A record passes its
        ``$oid`` and payload columns through under a ``k<i>$`` prefix,
        anything else is the one column ``k<i>``, an occurrence ``k<i>#``."""
        items: list[tuple[str, str]] = []
        keys: list[str] = []
        shapes: list[tuple[str, _Table | None, str, bool]] = []
        for i, var in enumerate(names):
            bind = binds.get(var)
            if bind is None:
                return None
            table, tag = bind.table if bind.kind == "record" else None, ""
            if table is not None:
                columns = [table.oid_column()] + table.payload_columns()
                items += [(_bcol(bind, c), f"k{i}${c}") for c in columns]
                keys.append(f"k{i}${columns[0]}")
            else:
                key_sql, kind, tag = _column(bind)
                items.append((key_sql, f"k{i}"))
                keys.append(f"k{i}")
                tag = "object" if kind == "object" else tag
            if bind.occurrence:
                items.append((bind.occurrence, f"k{i}#"))
                keys.append(f"k{i}#")
            shapes.append((var, table, tag, bool(bind.occurrence)))

        def rebind(alias: str) -> dict[str, _VarBind]:
            return {
                var: replace(
                    _VarBind("record", alias, table, prefix=f"k{i}$")
                    if table is not None
                    else _VarBind("expr", expr=_SqlExpr(f"{alias}.{_q(f'k{i}')}", tag)),
                    occurrence=f"{alias}.{_q(f'k{i}#')}" if occurs else "",
                )
                for i, (var, table, tag, occurs) in enumerate(shapes)
            }

        return items, keys, rebind

    def _grouped_nest(self, plan: Nest, counter: list[int]) -> _Chain | None:
        """A nest as a GROUP BY over its child's rows, a *derived table*.

        The inner query stamps each row with its enumeration rank
        (``ROW_NUMBER()`` over the chain's ``$pos`` order) and the guarded
        contribution; the outer query groups, aggregates, and keeps
        ``MIN("$rn")`` as the group's first-seen position.  Record group
        keys pass their payload columns through (:meth:`_carried`) —
        within a group every row carries the same ``$oid``, hence identical
        payload, so the bare columns are sound under GROUP BY.
        """
        chain = self._chain(plan.child, counter)
        if chain is None:
            return None
        folded = self._fold(plan, chain.binds, _q("$c"))
        if folded is None:
            return None
        contrib, (agg_sql, zero, out_tag, _decode) = folded
        galias = self._alias(counter)
        carried = self._carried(chain.binds, plan.group_by)
        if carried is None:
            return None
        items, keys, rebind = carried
        inner_select = [f"{sql} AS {_q(name)}" for sql, name in items]
        inner_select.append(f"{contrib} AS {_q('$c')}")
        inner_select.append(f"{self._rank(plan, chain)} AS {_q('$rn')}")
        # GROUP BY NULL for key-less nests: one group while input rows
        # exist, *zero* groups on empty input — matching the calculus,
        # where a nest over an empty stream emits nothing (unlike a bare
        # SQL aggregate, which would emit one row).
        group_clause = ", ".join(_q(key) for key in keys) or "NULL"
        outer_items = [_q(name) for _, name in items] + [
            f"{zero.format(agg_sql)} AS {_q('$agg')}",
            f"MIN({_q('$rn')}) AS {_q('$pos')}",
        ]
        grouped_sql = (
            f"SELECT {', '.join(outer_items)} "
            f"FROM ({chain.select(inner_select)}) GROUP BY {group_clause}"
        )
        rebinds = rebind(galias)
        rebinds[plan.out_var] = _VarBind(
            "expr", expr=_SqlExpr(f"{galias}.{_q('$agg')}", out_tag)
        )
        return _Chain(
            from_sql=f"({grouped_sql}) {galias}",
            binds=rebinds,
            order_cols=[f"{galias}.{_q('$pos')}"],
            uses_table=chain.uses_table,
            grouped=True,
        )

    def _build_nest(self, plan: Nest, counter: list[int]) -> _Segment | None:
        """A nest at a segment root: the fused chain finalised where the
        shape allows one, else GROUP BY.  A collection-monoid nest is not
        lowered: its input becomes a stream segment, which the engine's
        ``HashNest`` groups."""
        if plan.monoid_name not in _ROOT_AGGREGATES:
            return None
        if plan.monoid_name in _CHAINABLE:
            fused = self._fused_nest(plan, counter)
            if fused is not None:
                return self._finalize(plan, fused) if fused.uses_table else None
        chain = self._chain(plan.child, counter)
        if chain is None or not chain.uses_table:
            return None
        folded = self._fold(plan, chain.binds, _q("$c"))
        if folded is None:
            return None
        contrib, (agg_sql, zero, out_tag, decode_kind) = folded
        keys = _result_columns(chain, plan.group_by)
        if keys is None:
            return None
        names = [_q(f"k{i}") for i in range(len(keys))]
        inner_select = [f"{sql} AS {k}" for (_, sql, _, _), k in zip(keys, names)]
        inner_select.append(f"{contrib} AS {_q('$c')}")
        inner_select.append(f"{self._rank(plan, chain)} AS {_q('$rn')}")
        outer_select = [f"{k} AS c{i}" for i, k in enumerate(names)]
        outer_select.append(f"{zero.format(agg_sql)} AS c{len(keys)}")
        decoders = [(var, kind, tag) for var, _, kind, tag in keys]
        decoders.append((plan.out_var, decode_kind, out_tag))
        sql = (
            f"SELECT {', '.join(outer_select)} "
            f"FROM ({chain.select(inner_select)}) "
            f"GROUP BY {', '.join(names) or 'NULL'} ORDER BY MIN({_q('$rn')})"
        )
        return _Segment(sql, tuple(decoders), label="sql:group")

    def _build_reduce(self, plan: Reduce, counter: list[int]) -> _Segment | None:
        """A reduce root's segment, one value per row for the engine's own
        ``Reduce`` to fold: the head of every row the predicate keeps, in
        enumeration order, for a collection monoid; the one aggregated row
        for a primitive one, NULL where the monoid's zero is meant."""
        chain = self._chain(plan.child, counter)
        if chain is None or not chain.uses_table:
            return None
        filters: list[str] = []
        if plan.pred != Const(True):
            pred = _filter_sql(plan.pred, chain.binds)
            if pred is None or pred.tag not in _BOOLISH:
                return None
            # WHERE drops NULL predicates exactly as _holds treats them.
            filters.append(pred.sql)
        head = _sql_expr(plan.head, chain.binds)
        if head is None:
            return None
        if isinstance(plan.monoid, CollectionMonoid):
            sql = chain.select([f"{head.sql} AS c0"], *filters)
            sql += f" ORDER BY {', '.join(chain.order_cols)}"
            kind = "object" if head.tag == "object" else "scalar"
            return _Segment(sql, ((_VALUE, kind, head.tag),))
        if head.tag == "object":
            return None
        aggregate = _aggregate_sql(plan.monoid_name, head.sql, head.tag)
        if aggregate is None:
            return None
        agg_sql, zero, out_tag, _decode = aggregate
        return _Segment(
            chain.select([f"{zero.format(agg_sql)} AS c0"], *filters),
            ((_VALUE, "scalar", out_tag),),
            label="sql:agg",
        )

    # -- SELECT assembly -----------------------------------------------------

    def _finalize(self, plan: Operator, chain: _Chain) -> _Segment:
        columns = _result_columns(chain, plan.columns())
        assert columns is not None  # a chain binds every column of its plan
        select = [f"{sql} AS c{i}" for i, (_, sql, _, _) in enumerate(columns)]
        decoders = [(var, kind, tag) for var, _, kind, tag in columns]
        # Ordering by every constituent $pos reproduces the in-memory
        # engine's nested-loop enumeration order (padded rows sort first
        # within their left row, which is also the only row it has).
        sql = chain.select(select) + f" ORDER BY {', '.join(chain.order_cols)}"
        label = "sql:group" if chain.grouped else "sql"
        return _Segment(sql, tuple(decoders), label=label)


def _result_columns(
    chain: _Chain, names: tuple[str, ...]
) -> list[tuple[str, str, str, str]] | None:
    """``(variable, sql, decode kind, tag)`` of each of the variables
    *names* (:func:`_column`), then of the occurrences some of them carry,
    or None when the chain lacks one."""
    if not all(var in chain.binds for var in names):
        return None
    binds = [(var, chain.binds[var]) for var in names]
    tags = [(occurrence(var), b.occurrence, "scalar", "int") for var, b in binds]
    return [(var, *_column(b)) for var, b in binds] + [tag for tag in tags if tag[1]]


def _indexable_column(
    term: Term, binds: Mapping[str, _VarBind]
) -> tuple[str, str] | None:
    """The physical (table, column) behind an equality operand, if any.

    Only unprefixed binds qualify: a prefixed bind reads from a derived
    table, which has no index to offer.
    """
    found = _stored_column(term, binds)
    if found is None or found[0].prefix:
        return None
    return found[0].table.name, found[1]


@dataclass(frozen=True, eq=False)
class SqlSegment(Operator):
    """A lowered subtree as a leaf of the logical plan: the flat SELECT that
    replaces it, binding the same columns.  ``root`` names the subtree's
    root operator for EXPLAIN."""

    segment: _Segment
    root: str
    out_columns: tuple[str, ...]

    def columns(self) -> tuple[str, ...]:
        return self.out_columns

    def build_physical(self, context: _Context) -> "PSqlSegment":
        return PSqlSegment(context, self.segment, self.root)


_LOWERABLE = (
    Scan, Select, Map, Join, OuterJoin, Unnest, OuterUnnest, Reduce, Nest
)


def compile_segments(
    plan: Operator, store: ShreddedStore, occurring: frozenset[str]
) -> Operator:
    """*plan* with every maximal SQL-translatable subtree replaced by a
    :class:`SqlSegment` leaf.  *occurring* is the plan's
    :func:`~repro.engine.planner.occurring_vars`, which the physical plan
    of the result is built with too.

    The walk is top-down greedy: the largest subtree that fully translates
    becomes one flat SELECT — ``Nest`` roots lowered to SQL aggregation
    included, a ``Reduce`` root under the engine's ``Reduce``; anything that
    refuses (residual expressions, refused extents, collection nests) stays
    an operator of the plan, and the search recurses into its children — so
    a plan degrades gracefully from "one flat query per nesting level" down
    to per-scan queries, never failing outright.  Equi-join columns
    discovered during lowering get indexes (plus ANALYZE) before execution.
    """
    builder = _SegmentBuilder(store, occurring)

    def visit(node: Operator) -> Operator:
        if isinstance(node, _LOWERABLE):
            lowered = builder.build(node)
            if lowered is not None:
                return lowered
        return rebuild(node, tuple(visit(child) for child in node.children()))

    lowered = visit(plan)
    if builder.index_requests:
        store.prepare_indexes(builder.index_requests)
    return lowered


# ---------------------------------------------------------------------------
# Execution: SQL segments as leaves of the physical plan
# ---------------------------------------------------------------------------


class _ProgressTrap:
    """Captures the GovernorError a progress handler raised.

    Exceptions must never cross the sqlite3 C boundary: the handler stores
    the structured error here and returns 1, SQLite aborts the statement
    with ``OperationalError: interrupted``, and the caller re-raises the
    stored error in its place.
    """

    __slots__ = ("tripped",)

    def __init__(self) -> None:
        self.tripped: BaseException | None = None


def _install_progress(connection: Any, governor: Any) -> _ProgressTrap | None:
    """Wire the shared governor into SQLite's VM so timeouts, budgets, and
    cancellation trip *mid-SELECT*, not just between flat queries."""
    if governor is None:
        return None
    trap = _ProgressTrap()

    def handler() -> int:
        try:
            governor.tick()
        except GovernorError as exc:
            trap.tripped = exc
            return 1
        except Exception:  # pragma: no cover - never cross the C boundary
            return 1
        return 0

    connection.set_progress_handler(handler, _PROGRESS_OPCODES)
    return trap


def _decode_column(values: Any, kind: str, tag: str, objects: Mapping) -> list:
    """One SQL result column as engine values: ``$oid`` → the database's
    object, SQL NULL → ``NULL`` (``+inf``, its zero, for a root nest's ``min``)."""
    if kind == "object":
        return [NULL if v is None else objects[v] for v in values]
    if kind == "min":
        return [float("inf") if v is None else v for v in values]
    if tag == "bool":
        return [NULL if v is None else bool(v) for v in values]
    return [NULL if v is None else v for v in values]


#: What SQLite says when a statement is too deeply nested for its parser
#: (the yacc stack, ``SQLITE_MAX_EXPR_DEPTH``): limits of the build, not
#: faults of the query.
_SQLITE_PARSE_LIMITS = ("parser stack overflow", "Expression tree is too large")


class PSqlSegment(PhysicalOperator):
    """A flat SELECT as a leaf of the physical plan: a chunk source, one
    row per SQL row, whatever folds or groups it above.  The SELECT runs on
    first entry, once per execution: a re-entered segment replays its
    decoded columns.  ``rows_produced`` is the row count of the SELECT
    (what ``flat_query`` reports).
    """

    def __init__(self, context: _Context, segment: _Segment, root: str):
        super().__init__()
        self._context = context
        self.segment = segment
        self.root = root
        #: (sql, rows, sql ms, decode ms) once the SELECT has run.
        self.flat_query: tuple[str, int, float, float] | None = None
        self._decoded: tuple[dict[str, list], int] | None = None

    def describe(self) -> str:
        return f"SqlSegment[{self.segment.label}]({self.root} subtree)"

    def _fetch(self) -> tuple[list[tuple], float]:
        """Run the flat query and drain it: its rows and milliseconds.

        Rows are drained in batches with the governor ticked per batch, and
        a progress handler checkpoints the governor every few thousand VM
        opcodes so budgets trip inside long-running SELECTs too.
        """
        segment = self.segment
        store: ShreddedStore = self._context.database
        governor = self._context.governor
        sql = segment.sql
        if governor is not None:
            # SQLite's progress-handler countdown runs off the *statement's*
            # accumulated VM-step counter, which the module's statement
            # cache preserves across executions — a cache hit would start
            # at a different opcode phase each run, making checkpoint
            # charges nondeterministic.  A nonce comment forces a fresh
            # prepare (phase zero) for governed statements only; the
            # ungoverned hot path keeps the cache.  (next() on the shared
            # counter is atomic; the statement cache itself is
            # per-connection, so concurrent sessions never share phase.)
            sql = f"{segment.sql} /* governed:{next(store._governed_nonce)} */"
        start = time.perf_counter()
        rows: list[tuple] = []
        with store.statement_guard() as connection:
            trap = _install_progress(connection, governor)
            try:
                cursor = connection.execute(sql)
                while True:
                    batch = cursor.fetchmany(_FETCH_BATCH)
                    if governor is not None and batch:
                        governor.tick_many(len(batch))
                    rows.extend(batch)
                    if len(batch) < _FETCH_BATCH:
                        break
            except sqlite3.OperationalError as exc:
                if trap is not None and trap.tripped is not None:
                    raise trap.tripped from None
                if any(limit in str(exc) for limit in _SQLITE_PARSE_LIMITS):
                    # The SELECT is valid SQL that this SQLite build will
                    # not parse: the backend refuses, it has not failed.
                    raise BackendUnsupportedError(
                        f"flat query exceeds a SQLite parser limit: {exc}"
                    ) from exc
                raise ExecutionError(
                    f"sqlite backend error: {exc}"
                ) from exc
            finally:
                if trap is not None:
                    connection.set_progress_handler(None, 0)
        self.rows_produced = len(rows)
        return rows, (time.perf_counter() - start) * 1000.0

    def batches(self) -> Iterator[Chunk]:
        if self._decoded is None:
            rows, sql_ms = self._fetch()
            start = time.perf_counter()
            objects = self._context.database.objects
            # Column by column, by index: ``zip(*rows)`` would unpack every
            # row as an argument.
            columns = {
                var: _decode_column([row[i] for row in rows], kind, tag, objects)
                for i, (var, kind, tag) in enumerate(self.segment.decoders)
            }
            self._decoded = columns, len(rows)
            decode_ms = (time.perf_counter() - start) * 1000.0
            self.flat_query = (self.segment.sql, len(rows), sql_ms, decode_ms)
        # (not _emit_chunk: rows_produced is the SELECT's row count)
        for chunk in _column_chunks(*self._decoded, self._context.batch_size):
            self.batches_produced += 1
            self.batch_rows += chunk.length
            yield chunk


def execute_shredded(
    compiled: Any,
    database: Database,
    params: Mapping[str, Any] | None = None,
    flat_queries: list | None = None,
) -> Any:
    """Run a :class:`~repro.core.pipeline.CompiledQuery` compiled for
    ``backend="sqlite"`` — ``compiled.execute`` — and hand *flat_queries*
    (when given) its (sql, rows, sql ms, decode ms) tuples."""
    stats = compiled.run(database, params)
    if flat_queries is not None:
        flat_queries.extend(stats.flat_queries)
    return stats.result


def explain_shredded(compiled: Any, database: Database) -> str:
    """An EXPLAIN rendering: the physical plan with each SQL segment's
    generated flat SQL (``[sql:group]``/``[sql:agg]`` markers show
    pushed-down aggregation), and ``[py]`` markers on the operators above
    them — the ``Reduce`` folding a lowered reduce's values among them."""
    store = shredded_store(database, db_path=compiled.options.db_path)
    lines = ["backend: sqlite (query shredding over stdlib sqlite3)"]
    if store.db_path is not None:
        lines.append(
            f"store: file-backed at {store.db_path} "
            f"({'reused' if store.reused else 'shredded'})"
        )

    def visit(op: PhysicalOperator, depth: int) -> None:
        indent = "  " * depth
        if isinstance(op, PSqlSegment):
            marker = f"[{op.segment.label}]"
            lines.append(f"{indent}{marker} {op.root} subtree:")
            lines.append(f"{indent}{' ' * len(marker)} {op.segment.sql}")
            return
        lines.append(f"{indent}[py]  {op.describe()}")
        for child in op.children():
            visit(child, depth + 1)

    visit(compiled.physical(database), 0)
    return "\n".join(lines)


def fused_forms(statements: list[str]) -> tuple[bool, bool]:
    """Whether one of the flat *statements* holds a pre-aggregated nest,
    and whether one holds a binding domain."""
    text = " ".join(statements)
    return f" AS {_q(_PREAGGREGATE)} " in text, f"({_DOMAIN_SELECT}" in text


def shredded_sql(database: Database, source: str) -> list[str]:
    """The flat SQL statements the backend generates for *source*, in plan
    pre-order (the golden-SQL test surface)."""
    from repro.core.optimizer import OptimizerOptions
    from repro.core.pipeline import QueryPipeline

    pipeline = QueryPipeline(database, OptimizerOptions(backend="sqlite"))
    lowered, _ = pipeline.compile_oql(source).target(database)
    return [
        node.segment.sql
        for node in operators(lowered)
        if isinstance(node, SqlSegment)
    ]
