"""Tests for the query-shredding SQLite backend (repro.backends.shred).

Four concerns, mirroring the backend's layers:

* the shredded tables encode every demo database losslessly (read back
  from SQLite against a walk of the objects: OIDs, multiplicity, order),
  and every `$oid` a query decodes is the database's own object;
* the generated flat SQL is *stable* (golden tests on representative
  corpus queries — any change to the translation shows up as a diff here);
* execution parity with the in-memory engine on the shapes most likely to
  diverge: 3VL NULL handling, NULL grouping keys, value-equal duplicates
  under identity semantics;
* refusals are typed (BackendUnsupportedError), and the differential
  oracle counts them as skips instead of disagreements.

The corpus-wide parity sweep (every query, both backends, the oracle's
normalizer) lives at the bottom, mirroring test_batch.py's row-vs-batch
pattern.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from corpus import CORPUS
from repro.algebra.operators import (
    Map,
    Nest,
    OuterJoin,
    OuterUnnest,
    Reduce,
    Scan,
    Select,
    Unnest,
    occurrence,
    operators,
)
from repro.algebra.typing import type_plan
from repro.backends.shred import (
    PSqlSegment,
    ShreddedStore,
    SqlSegment,
    _q,
    _Segment,
    compile_segments,
    execute_shredded,
    fused_forms,
    shredded_sql,
    shredded_store,
)
from repro.calculus.terms import BinOp, Const, path, record, var
from repro.cli import DATABASES
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.codec import encode_value
from repro.data.database import Database
from repro.data.schema import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    Schema,
    bag_of,
    record_of,
    set_of,
)
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue
from repro.engine.physical import Execution, _Context
from repro.engine.planner import execute as execute_plan
from repro.errors import BackendUnsupportedError, ExecutionError, PlanningError
from repro.algebra.evaluator import evaluate_plan as evaluate_reference
from repro.testing.oracle import PATHS, check_sample, results_equal
from repro.testing.repro_io import load_repro


def _pipeline(db, **options):
    return QueryPipeline(db, OptimizerOptions(**options))


def run_both(db, source, **params):
    """One query on both backends; returns (memory, sqlite) results."""
    memory = _pipeline(db).run_oql(source, **params)
    shredded = _pipeline(db, backend="sqlite").run_oql(source, **params)
    return memory, shredded


def _records(value):
    """Every OID-carrying record in or under *value*."""
    if isinstance(value, Record):
        if value.oid is not None:
            yield value
        for attr in value:
            yield from _records(value[attr])
    elif isinstance(value, (SetValue, BagValue, ListValue)):
        for element in value.elements():
            yield from _records(element)


def _objects_by_oid(db):
    """oid -> the database's own record, by walking its extents."""
    owned = {}
    for name in db.extent_names():
        for record in _records(db.extent(name)):
            assert owned.setdefault(record.oid, record) is record
    return owned


# ---------------------------------------------------------------------------
# Shredded storage: the tables are the encoding, the objects stay put
# ---------------------------------------------------------------------------


def _hand_built(rows, kind="set"):
    schema = Schema()
    schema.define_class("T", k=INT)
    schema.define_extent("Ts", "T")
    db = Database(schema)
    db.add_extent("Ts", rows, kind=kind)
    return db


#: The demo databases and the shapes the flat encoding must not lose.
ENCODING_CASES = {
    **DATABASES,
    # value-equal duplicates are distinct objects, one row each; a nested
    # bag of scalars keeps one row per occurrence
    "bag-multiplicity": lambda: _hand_built(
        [
            Record(k=1, tags=BagValue([7, 7, 8])),
            Record(k=1, tags=BagValue([7, 7, 8])),
            Record(k=2, tags=BagValue([])),
        ],
        kind="bag",
    ),
    "list-order": lambda: _hand_built(
        [Record(k=3, seq=ListValue(["c", "a", "b"])), Record(k=1, seq=ListValue([]))],
        kind="list",
    ),
    "null-scalars": lambda: _hand_built(
        [Record(k=1, v=NULL, b=True), Record(k=NULL, v=2.0, b=NULL)]
    ),
    # a record inside a record (one of them NULL), and a collection hanging
    # off the *nested* record: the child table keys on the containing row
    "nested-record": lambda: _hand_built(
        [
            Record(k=1, sub=Record(m=10, kids=SetValue([Record(a=1), Record(a=2)]))),
            Record(k=2, sub=Record(m=20, kids=SetValue([]))),
            Record(k=3, sub=NULL),
        ]
    ),
}


def _flat_columns(record, prefix=""):
    """The payload columns one record occupies in its row, and the nested
    collections that go to child tables — read off the object, not the
    catalog."""
    columns, collections = {}, {}
    for attr in record:
        value, path = record[attr], f"{prefix}${attr}" if prefix else attr
        if isinstance(value, Record):
            columns[path + "$oid"] = value.oid
            nested = _flat_columns(value, path)
            columns.update(nested[0])
            collections.update(nested[1])
        elif isinstance(value, (SetValue, BagValue, ListValue)):
            collections[path] = value
        elif value is not NULL:
            columns[path] = int(value) if isinstance(value, bool) else value
    return columns, collections


def _expected_rows(table, collection, parent, rows):
    """Walk *collection* into ``rows[table name]``: one (parent, pos, oid,
    payload) per element, children under the containing row's ``$oid``."""
    kinds = {"set": SetValue, "bag": BagValue, "list": ListValue}
    assert type(collection) is kinds[table.kind], table.name
    for pos, element in enumerate(collection.elements()):
        if isinstance(element, Record):
            columns, collections = _flat_columns(element)
            oid = element.oid
        else:
            columns, collections, oid = {"$value": element}, {}, None
        rows.setdefault(table.name, []).append((parent, pos, oid, columns))
        # (a NULL nested record has no collections to lift)
        assert set(collections) <= set(table.children), table.name
        for path, nested in collections.items():
            _expected_rows(table.children[path], nested, oid, rows)


class TestShreddedStore:
    @pytest.mark.parametrize("case", sorted(ENCODING_CASES))
    def test_tables_encode_the_database(self, case):
        # The encoding, read from SQLite and held against a walk of the
        # database's objects: row count, $pos order, $parent linkage, $oid
        # and every payload column of every table.
        db = ENCODING_CASES[case]()
        store = ShreddedStore(db)
        assert store.refusals == {} and set(store.tables) == set(db.extent_names())
        expected: dict = {}
        for name, table in store.tables.items():
            _expected_rows(table, db.extent(name), None, expected)
        surrogates = []
        for table in store._all_tables():
            names = table.all_columns()
            order = '"$parent", "$pos"' if table.child else '"$pos"'
            stored = [
                dict(zip(names, row))
                for row in store.connection.execute(
                    f"SELECT {', '.join(_q(c) for c in names)} "
                    f"FROM {_q(table.name)} ORDER BY {order}"
                )
            ]
            walked = sorted(
                expected.get(table.name, []), key=lambda row: (row[0] or 0, row[1])
            )
            assert len(stored) == len(walked), table.name
            for row, (parent, pos, oid, columns) in zip(stored, walked):
                assert row["$pos"] == pos and row.get("$parent") == parent
                if oid is None:  # a scalar element: a surrogate, never an OID
                    surrogates.append(row["$oid"])
                else:
                    assert row["$oid"] == oid
                assert set(columns) <= set(table.payload_columns())
                for column in table.payload_columns():
                    value = row[column]
                    assert value == columns.get(column), (table.name, column)
                    assert type(value) is type(columns.get(column))
        assert all(s < 0 for s in surrogates)
        assert len(set(surrogates)) == len(surrogates)

    def test_the_hand_built_cases_lift_what_they_claim(self):
        tables = {
            case: ShreddedStore(ENCODING_CASES[case]()).tables
            for case in ("bag-multiplicity", "list-order", "nested-record", "ab")
        }
        assert tables["bag-multiplicity"]["Ts"].kind == "bag"
        assert tables["bag-multiplicity"]["Ts"].children["tags"].kind == "bag"
        assert tables["list-order"]["Ts"].children["seq"].kind == "list"
        assert tables["nested-record"]["Ts"].records == {"", "sub"}
        assert tables["nested-record"]["Ts"].children["sub$kids"].name == "Ts$sub$kids"
        assert tables["ab"]["A"].element == "scalar"

    def test_every_stored_object_is_indexed_once(self):
        # objects: one entry per OID-carrying record of the database —
        # nested records and elements of nested collections included — and
        # the entry *is* that record.
        for family in sorted(DATABASES):
            db = DATABASES[family]()
            owned = _objects_by_oid(db)
            store = ShreddedStore(db)
            assert len(store.objects) == len(owned), family
            assert all(store.objects[oid] is record for oid, record in owned.items())

    def test_extent_is_the_databases_own(self):
        db = DATABASES["company"]()
        store = ShreddedStore(db)
        for name in db.extent_names():
            assert store.extent(name) is db.extent(name)

    def test_store_is_cached_until_schema_changes(self):
        db = DATABASES["travel"]()
        first = shredded_store(db)
        assert shredded_store(db) is first
        db.add_extent("Extra", [Record(k=1)] if False else [])
        assert shredded_store(db) is not first

    def test_dropped_databases_release_their_stores(self):
        import gc
        import sqlite3
        import weakref

        def connections():
            gc.collect()
            return sum(isinstance(o, sqlite3.Connection) for o in gc.get_objects())

        before = connections()
        databases = [DATABASES["ab"]() for _ in range(5)]
        alive = []
        for db in databases:
            options = OptimizerOptions(backend="sqlite")
            QueryPipeline(db, options).run_oql("select a from a in A")
            alive += [weakref.ref(db), weakref.ref(shredded_store(db))]
        assert connections() == before + 5
        del db, databases
        assert connections() == before
        assert [ref() for ref in alive if ref() is not None] == []

    def test_unknown_extent_raises(self):
        store = ShreddedStore(DATABASES["ab"]())
        with pytest.raises(KeyError):
            store.extent("Nope")

    @pytest.mark.parametrize("file_backed", [False, True])
    def test_closed_store_raises_instead_of_reopening(
        self, file_backed, tmp_path
    ):
        """Statements on a closed store must raise — before the fix, a
        closed in-memory store lazily opened a brand-new empty ':memory:'
        database and answered queries with silently wrong results."""
        import sqlite3

        db = DATABASES["company"]()
        db_path = str(tmp_path / "shred.db") if file_backed else None
        store = ShreddedStore(db, db_path=db_path)
        with store.statement_guard() as connection:
            connection.execute("SELECT 1").fetchone()
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            with store.statement_guard() as connection:
                connection.execute("SELECT 1")
        with pytest.raises(sqlite3.ProgrammingError):
            store.connection


class TestStoreFiles:
    """``db_path`` is somebody's file system: what is not a store of ours
    is refused with the typed error, before anything is written to it."""

    SOURCE = "count( select e from e in Employees )"

    def _run(self, path):
        options = OptimizerOptions(backend="sqlite", db_path=str(path))
        return QueryPipeline(DATABASES["company"](), options).run_oql(self.SOURCE)

    def test_a_foreign_sqlite_file_keeps_its_tables(self, tmp_path):
        import sqlite3

        path = tmp_path / "precious.db"
        with sqlite3.connect(path) as theirs:
            theirs.execute("CREATE TABLE precious (x)")
            theirs.execute("INSERT INTO precious VALUES (42)")
        theirs.close()
        before = path.read_bytes()
        with pytest.raises(ExecutionError, match="sqlite backend error") as refusal:
            self._run(path)
        assert str(path) in str(refusal.value)
        assert path.read_bytes() == before  # not a pragma, not a journal mode
        assert [p.name for p in tmp_path.iterdir()] == ["precious.db"]
        with sqlite3.connect(path) as theirs:
            assert theirs.execute("SELECT x FROM precious").fetchall() == [(42,)]
        theirs.close()

    @pytest.mark.parametrize("kind", ["missing_directory", "directory", "text_file"])
    def test_an_unopenable_path_is_a_typed_refusal(self, kind, tmp_path):
        path = {
            "missing_directory": tmp_path / "nowhere" / "shred.db",
            "directory": tmp_path,
            "text_file": tmp_path / "notes.txt",
        }[kind]
        if kind == "text_file":
            path.write_text("remember the milk, and more than a page header of it\n" * 4)
        with pytest.raises(ExecutionError, match="sqlite backend error") as refusal:
            self._run(path)
        assert not isinstance(refusal.value, BackendUnsupportedError)
        assert str(path) in str(refusal.value)
        assert "unexpected" not in str(refusal.value)
        if kind == "text_file":
            assert path.read_text().startswith("remember the milk")

    def test_an_empty_file_and_a_stale_store_still_shred(self, tmp_path):
        path = tmp_path / "shred.db"
        path.touch()
        assert self._run(path) == 60
        reopened = ShreddedStore(DATABASES["company"](), db_path=str(path))
        assert reopened.reused
        reopened.close()
        # another database's store: a manifest of ours, a stale fingerprint
        stale = ShreddedStore(DATABASES["travel"](), db_path=str(path))
        assert not stale.reused and set(stale.tables) == {"Cities", "States"}
        names = {
            name
            for (name,) in stale.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert "Employees" not in names and "Cities" in names
        stale.close()


# ---------------------------------------------------------------------------
# Golden SQL: the generated flat queries are stable
# ---------------------------------------------------------------------------


GOLDEN_SQL = {
    # Paper QUERY A: unnest of a child collection -> join on $parent.
    "query_a": [
        'SELECT t0."$oid" AS c0, t1."$oid" AS c1 '
        'FROM ("Employees" t0 JOIN "Employees$children" t1 '
        'ON t1."$parent" = t0."$oid") '
        'ORDER BY t0."$pos", t1."$pos"'
    ],
    # Paper QUERY B (type-JA): the O5 outer-join becomes a LEFT JOIN, a
    # stream in enumeration order; the collection-valued Nest above it is
    # not lowered — the engine's HashNest groups the stream.
    "query_b": [
        'SELECT t0."$oid" AS c0, t1."$oid" AS c1 '
        'FROM ("Departments" t0 LEFT JOIN "Employees" t1 '
        'ON (t1."dno" = t0."dno")) '
        'ORDER BY t0."$pos", t1."$pos"'
    ],
    # Paper QUERY D: two outer-unnests over a quantifier (all/sum) pair —
    # both Nests and the root Reduce push into nested GROUP BY subqueries;
    # nothing stitches in Python.  The universal quantifier's body arrives
    # negated in the inner unnest's ON clause (all-head-to-filter), so its
    # nest folds a constant false over the surviving children.  Each nest's
    # keys pin the $pos columns before its last, which pass through bare
    # (k0$$pos, k1$$pos) and order the groups: no window, no MIN("$rn").
    "query_d": [
        'SELECT t4."k0$$oid" AS c0, t4."$agg" AS c1 FROM (SELECT "k0$$oid", '
        '"k0$$pos", COALESCE(SUM("$c"), 0) AS "$agg" FROM (SELECT t3."k0$$oid" '
        'AS "k0$$oid", t3."k0$$pos" AS "k0$$pos", (CASE WHEN (t3."k1$$oid" IS '
        'NOT NULL) AND t3."$agg" THEN 1 ELSE NULL END) AS "$c" FROM (SELECT '
        '"k0$$oid", "k0$age", "k0$dno", "k0$manager$name", "k0$manager$oid", '
        '"k0$name", "k0$oid", "k0$salary", "k0$$pos", "k1$$oid", "k1$age", '
        '"k1$name", "k1$$pos", COALESCE(MIN("$c"), 1) AS "$agg" FROM (SELECT '
        't0."$oid" AS "k0$$oid", t0."age" AS "k0$age", t0."dno" AS "k0$dno", '
        't0."manager$name" AS "k0$manager$name", t0."manager$oid" AS '
        '"k0$manager$oid", t0."name" AS "k0$name", t0."oid" AS "k0$oid", '
        't0."salary" AS "k0$salary", t0."$pos" AS "k0$$pos", t1."$oid" AS '
        '"k1$$oid", t1."age" AS "k1$age", t1."name" AS "k1$name", t1."$pos" AS '
        '"k1$$pos", (CASE WHEN (t2."$oid" IS NOT NULL) THEN 0 ELSE NULL END) '
        'AS "$c" FROM (("Employees" t0 LEFT JOIN "Employees$children" t1 ON '
        't1."$parent" = t0."$oid") LEFT JOIN "Employees$manager$children" t2 '
        'ON t2."$parent" = t0."$oid" AND (t1."age" <= t2."age"))) GROUP BY '
        '"k0$$oid", "k1$$oid") t3) GROUP BY "k0$$oid") t4 ORDER BY '
        't4."k0$$pos"'
    ],
    # Paper QUERY E takes both fused forms.  The universal nest reads of a
    # student only `s.id`, so its spine runs over d2 — one row of l1 (the
    # students, stated once) per distinct id — and `l1 JOIN ... ON ... IS`
    # hands every student its value.  On that spine the existential nest
    # is a nest over an outer-join on equalities: Transcript is folded per
    # (id, cno) *before* the join, and COALESCE restores `some`'s zero
    # where a (student, course) pair met no group.
    "query_e": [
        'WITH l1 AS (SELECT t0."$oid" AS "k0$$oid", t0."age" AS "k0$age", '
        't0."id" AS "k0$id", t0."name" AS "k0$name", t0."$pos" AS "k0$$pos" '
        'FROM "Student" t0), d2 AS (SELECT * FROM l1 GROUP BY l1."k0$id") '
        'SELECT t3."k0$$oid" AS c0 FROM (l1 t3 JOIN (SELECT "k0$$oid", '
        '"k0$age", "k0$id", "k0$name", "k0$$pos", COALESCE(MIN("$c"), 1) AS '
        '"$agg" FROM (SELECT t4."k0$$oid" AS "k0$$oid", t4."k0$age" AS '
        '"k0$age", t4."k0$id" AS "k0$id", t4."k0$name" AS "k0$name", '
        't4."k0$$pos" AS "k0$$pos", (CASE WHEN (t5."$oid" IS NOT NULL) THEN '
        'COALESCE(t7."$a", 0) ELSE NULL END) AS "$c" FROM ((d2 t4 LEFT JOIN '
        '"Courses" t5 ON (t5."title" = \'DB\')) LEFT JOIN (SELECT t6."id" AS '
        '"j0", t6."cno" AS "j1", MAX((CASE WHEN (t6."$oid" IS NOT NULL) THEN 1 '
        'ELSE NULL END)) AS "$a" FROM "Transcript" t6 GROUP BY t6."id", '
        't6."cno") t7 ON (t4."k0$id" = t7."j0") AND (t5."cno" = t7."j1"))) '
        'GROUP BY "k0$$oid") t8 ON t8."k0$id" IS t3."k0$id") WHERE t8."$agg" '
        'ORDER BY t3."k0$$pos"'
    ],
    # HAVING + an aggregate head: two nests over one left side, each an
    # aggregate of Employees per dno joined to the employee row — no pair
    # of employees is formed, and the chain stays the left side's (its
    # $pos order, the HAVING as a plain WHERE over the joined aggregate).
    "group_having": [
        'SELECT t0."$oid" AS c0, COALESCE(t2."$a", 0) AS c1, max(0, '
        'COALESCE(t4."$a", 0)) AS c2 FROM (("Employees" t0 LEFT JOIN (SELECT '
        't1."dno" AS "j0", SUM((CASE WHEN (t1."$oid" IS NOT NULL) THEN 1 ELSE '
        'NULL END)) AS "$a" FROM "Employees" t1 GROUP BY t1."dno") t2 ON '
        '(t0."dno" = t2."j0")) LEFT JOIN (SELECT t3."dno" AS "j0", MAX((CASE '
        'WHEN (t3."$oid" IS NOT NULL) THEN t3."salary" ELSE NULL END)) AS "$a" '
        'FROM "Employees" t3 GROUP BY t3."dno") t4 ON (t0."dno" = t4."j0")) '
        'WHERE (COALESCE(t2."$a", 0) > 2) ORDER BY t0."$pos"'
    ],
    # A count correlated by value (`k.name = c.name`) under a quantifier:
    # neither nest is a nest over an outer-join, so the product form stays
    # — but over d3, one (item, category) row per distinct category name.
    # l2 carries its rows' $pos columns (k0$$pos, k1$$pos), not a rank.
    "auction_category_counts": [
        'WITH l2 AS (SELECT t0."$oid" AS "k0$$oid", t0."ino" AS "k0$ino", '
        't0."reserve" AS "k0$reserve", t0."title" AS "k0$title", t0."$pos" AS '
        '"k0$$pos", t1."$oid" AS "k1$$oid", t1."name" AS "k1$name", t1."$pos" '
        'AS "k1$$pos" FROM ("Items" t0 JOIN "Items$categories" t1 ON '
        't1."$parent" = t0."$oid")), d3 AS (SELECT * FROM l2 GROUP BY '
        'l2."k1$name") SELECT t4."k0$$oid" AS c0, t4."k1$$oid" AS c1, '
        't9."$agg" AS c2 FROM (l2 t4 JOIN (SELECT "k0$$oid", "k0$ino", '
        '"k0$reserve", "k0$title", "k0$$pos", "k1$$oid", "k1$name", "k1$$pos", '
        'COALESCE(SUM("$c"), 0) AS "$agg" FROM (SELECT t8."k0$$oid" AS '
        '"k0$$oid", t8."k0$ino" AS "k0$ino", t8."k0$reserve" AS "k0$reserve", '
        't8."k0$title" AS "k0$title", t8."k0$$pos" AS "k0$$pos", t8."k1$$oid" '
        'AS "k1$$oid", t8."k1$name" AS "k1$name", t8."k1$$pos" AS "k1$$pos", '
        '(CASE WHEN (t8."k2$$oid" IS NOT NULL) AND t8."$agg" THEN 1 ELSE NULL '
        'END) AS "$c" FROM (SELECT "k0$$oid", "k0$ino", "k0$reserve", '
        '"k0$title", "k0$$pos", "k1$$oid", "k1$name", "k1$$pos", "k2$$oid", '
        '"k2$ino", "k2$reserve", "k2$title", "k2$$pos", COALESCE(MAX("$c"), 0) '
        'AS "$agg" FROM (SELECT t5."k0$$oid" AS "k0$$oid", t5."k0$ino" AS '
        '"k0$ino", t5."k0$reserve" AS "k0$reserve", t5."k0$title" AS '
        '"k0$title", t5."k0$$pos" AS "k0$$pos", t5."k1$$oid" AS "k1$$oid", '
        't5."k1$name" AS "k1$name", t5."k1$$pos" AS "k1$$pos", t6."$oid" AS '
        '"k2$$oid", t6."ino" AS "k2$ino", t6."reserve" AS "k2$reserve", '
        't6."title" AS "k2$title", t6."$pos" AS "k2$$pos", (CASE WHEN '
        '(t7."$oid" IS NOT NULL) THEN 1 ELSE NULL END) AS "$c" FROM ((d3 t5 '
        'LEFT JOIN "Items" t6 ON 1) LEFT JOIN "Items$categories" t7 ON '
        't7."$parent" = t6."$oid" AND (t7."name" = t5."k1$name"))) GROUP BY '
        '"k0$$oid", "k1$$oid", "k2$$oid") t8) GROUP BY "k0$$oid", "k1$$oid") '
        't9 ON t9."k1$name" IS t4."k1$name") ORDER BY t4."k0$$pos", '
        't4."k1$$pos"'
    ],
    # A flat selection compiles the predicate into WHERE; the projected
    # head is pushed into the SELECT list (no object rehydration needed).
    "flat_select": [
        'SELECT t0."name" AS c0 FROM "Employees" t0 '
        'WHERE (t0."salary" > 70000) ORDER BY t0."$pos"'
    ],
    # Section 5 group-by: the whole Nest (grouping + avg aggregate) pushes
    # into one GROUP BY query; first-seen group order is each group's least
    # $pos (one order column, no window).
    "group_avg": [
        'SELECT t1."k0" AS c0, t1."$agg" AS c1 FROM (SELECT "k0", AVG("$c") AS '
        '"$agg", MIN("$rn") AS "$pos" FROM (SELECT t0."dno" AS "k0", (CASE '
        'WHEN (t0."dno" IS NOT NULL) THEN t0."salary" ELSE NULL END) AS "$c", '
        't0."$pos" AS "$rn" FROM "Employees" t0 WHERE (t0."age" > 30)) GROUP '
        'BY "k0") t1 ORDER BY t1."$pos"'
    ],
}


class TestGoldenSQL:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SQL))
    def test_generated_sql_is_stable(self, name):
        query = next(q for q in CORPUS if q.name == name)
        db = DATABASES[query.family]()
        assert shredded_sql(db, query.oql) == GOLDEN_SQL[name]

    def test_few_statements_rank_rows_with_a_window(self):
        # A grouped nest orders its groups with the chain's own $pos
        # columns; only keys leaving two or more of them unpinned need a
        # ROW_NUMBER() window, which sorts the whole join output.  In the
        # corpus only a shared spine's nest has such keys (`hotels`), and a
        # spine's groups need no order of their own.
        dbs = {family: DATABASES[family]() for family in DATABASES}
        sites = {
            q.name: n
            for q in CORPUS
            if (n := sum(s.count("ROW_NUMBER()") for s in shredded_sql(dbs[q.family], q.oql)))
        }
        assert sites == {}

    def test_every_corpus_query_produces_some_sql(self):
        # The translation degrades gracefully, but on the demo databases no
        # corpus query should degrade all the way to zero flat queries.
        dbs = {family: DATABASES[family]() for family in DATABASES}
        missing = [
            q.name for q in CORPUS if not shredded_sql(dbs[q.family], q.oql)
        ]
        assert missing == []


# ---------------------------------------------------------------------------
# Execution parity on divergence-prone shapes
# ---------------------------------------------------------------------------


def _null_db():
    schema = Schema()
    schema.define_class("T", k=INT, v=FLOAT, s=STRING)
    schema.define_extent("Ts", "T")
    db = Database(schema)
    db.add_extent(
        "Ts",
        [
            Record(k=1, v=10.0, s="a"),
            Record(k=2, v=NULL, s="b"),
            Record(k=NULL, v=30.0, s=NULL),
            Record(k=2, v=5.0, s="a"),
        ],
    )
    return db


class TestThreeValuedLogicParity:
    @pytest.mark.parametrize(
        "source",
        [
            # NULL comparisons drop rows on both backends.
            "select t.k from t in Ts where t.v > 6.0",
            # 3VL or: NULL or true is true.
            "select t.k from t in Ts where t.v > 6.0 or t.k = 2",
            # 3VL and under negation.
            "select t.k from t in Ts where not (t.v > 6.0 and t.k = 1)",
            # Aggregates skip stored NULLs identically.
            "sum( select t.v from t in Ts )",
            "count( select t from t in Ts where t.s = \"a\" )",
        ],
    )
    def test_parity(self, source):
        db = _null_db()
        memory, shredded = run_both(db, source)
        assert results_equal(memory, shredded)

    def test_null_grouping_key_parity(self):
        # The NULL k groups under the NULL key on both backends (the O5-O7
        # null_vars convention: a NULL key pads to the monoid zero).
        db = _null_db()
        memory, shredded = run_both(
            db,
            "select distinct t.k, count(t.v) as n from Ts t group by t.k",
        )
        assert results_equal(memory, shredded)


# ---------------------------------------------------------------------------
# Fused nests: an aggregate joined to its left side, a binding domain
# ---------------------------------------------------------------------------


def _fusion_db():
    """Ts: the left rows — two share k = 1, one has no key, f holds the int
    1 and the float 1.0 (a ``num`` column), xs is a bag of scalars one of
    which holds 1 twice.  Us: the right rows — an int and a float key 1, a
    NULL key, no row for k = 3, only NULL contributions for k = 4, only
    negative ones for k = 5.  Ps: two rows share their boss, one bag holds
    one object twice."""
    schema = Schema()
    schema.define_class("T", id=INT, k=INT, f=FLOAT, s=STRING, xs=bag_of(INT))
    schema.define_class("U", k=INT, v=INT, b=BOOL, w=INT, s=STRING)
    schema.define_class("W", a=INT)
    schema.define_class(
        "P", id=INT, boss=record_of(n=STRING), cs=bag_of(record_of(m=INT))
    )
    for extent, cls in (("Ts", "T"), ("Us", "U"), ("Ws", "W"), ("Ps", "P")):
        schema.define_extent(extent, cls)
    db = Database(schema)
    db.add_extent(
        "Ts",
        [
            Record(id=1, k=1, f=1, s="a", xs=BagValue([1, 1, 2])),
            Record(id=2, k=1, f=1.0, s="a", xs=BagValue([5])),
            Record(id=3, k=2, f=2.5, s="b", xs=BagValue([])),
            Record(id=4, k=NULL, f=NULL, s=NULL, xs=BagValue([7])),
            Record(id=5, k=3, f=3.5, s="c", xs=BagValue([10, 7])),
            Record(id=6, k=4, f=4.5, s="d", xs=BagValue([])),
            Record(id=7, k=5, f=5.5, s="e", xs=BagValue([-3])),
        ],
    )
    db.add_extent(
        "Us",
        [
            Record(k=1, v=10, b=True, w=1, s="a"),
            Record(k=1.0, v=5, b=False, w=0, s="a"),
            Record(k=2, v=7, b=True, w=1, s="b"),
            Record(k=NULL, v=99, b=True, w=1, s=NULL),
            Record(k=4, v=NULL, b=NULL, w=1, s="d"),
            Record(k=5, v=-3, b=False, w=1, s="e"),
            Record(k=5, v=-8, b=False, w=0, s="e"),
        ],
    )
    db.add_extent("Ws", [Record(a=10), Record(a=5)])
    # (explicit OIDs throughout: one object is stored twice in a bag, one is
    # shared by two rows, and the allocator only steps past what it has seen)
    twice, two, five = (Record(m=m).with_oid(9000 + m) for m in (1, 2, 5))
    ann, bob = Record(n="ann").with_oid(9010), Record(n="bob").with_oid(9011)
    db.add_extent(
        "Ps",
        [
            Record(id=1, boss=ann, cs=BagValue([twice, twice, two])).with_oid(9021),
            Record(id=2, boss=ann, cs=BagValue([])).with_oid(9022),
            Record(id=3, boss=bob, cs=BagValue([five])).with_oid(9023),
            Record(id=4, boss=NULL, cs=BagValue([])).with_oid(9024),
        ],
    )
    return db


_AGGREGATES = {
    "sum": "sum( select u.v from u in Us where {cond} )",
    "max": "max( select u.v from u in Us where {cond} )",
    "avg": "avg( select u.v from u in Us where {cond} )",
    "count": "count( select u from u in Us where {cond} )",
    "all": "for all u in ( select u from u in Us where {cond} ): u.b",
    "some": "exists u in Us: ({cond}) and u.b",
}
#: How the right side is reached: (join condition, optimizer options) —
#: without the algebraic phase `u.w > 0` stays a conjunct of the join.
_CONDITIONS = {
    "int_key": ("u.k = t.k", {}),
    "string_key": ("u.s = t.s", {}),
    "filtered_right": ("u.k = t.k and u.w > 0", {}),
    "right_residual": ("u.k = t.k and u.w > 0", {"algebraic": False}),
}
_PER_T = "select struct( I: t.id, {fields} ) from t in Ts"
_PREAGGREGATED, _DOMAIN, _BOTH, _AS_BEFORE = (
    (True, False), (False, True), (True, True), (False, False)
)
#: name -> (OQL, optimizer options, (pre-aggregated, domain) expected of
#: the statement).  The data carries the other cases: a NULL key on either
#: side, an int key meeting a float one, a key without right rows, a key
#: whose contributions are all NULL, a negative max, an avg over nothing.
FUSED = {
    f"{aggregate}-{shape}": (
        _PER_T.format(fields="A: " + template.format(cond=cond)),
        options,
        _PREAGGREGATED,
    )
    for aggregate, template in _AGGREGATES.items()
    for shape, (cond, options) in _CONDITIONS.items()
}
FUSED.update(
    {
        # group_having's shape: two nests stacked on one left side
        "stacked": (
            _PER_T.format(
                fields="A: max( select u.v from u in Us where u.k = t.k ), "
                "B: count( select u from u in Us where u.s = t.s )"
            ),
            {},
            _PREAGGREGATED,
        ),
        "select_between": (
            _PER_T.format(fields="A: avg( select u.v from u in Us where u.k = t.k )")
            + " where count( select u from u in Us where u.k = t.k ) > 1",
            {},
            _PREAGGREGATED,
        ),
        "keyless": (
            "select t.id from t in Ts "
            "where t.k < max( select u.v from u in Us where u.w > 0 )",
            {},
            _PREAGGREGATED,
        ),
        # -- shapes that must not take the form
        "not-min": (
            _PER_T.format(fields="A: min( select u.v from u in Us where u.k = t.k )"),
            {},
            _AS_BEFORE,
        ),
        "not-bag_head": (
            _PER_T.format(fields="A: ( select u.v from u in Us where u.k = t.k )"),
            {},
            _AS_BEFORE,
        ),
        # (the residual reads both sides: no pre-aggregate — a domain)
        "not-two_sided_residual": (
            _PER_T.format(
                fields="A: sum( select u.v from u in Us "
                "where u.k = t.k and u.v > t.id )"
            ),
            {},
            _DOMAIN,
        ),
        # (L is a bag holding the scalar 1, or one object, twice: each
        # occurrence is its own row of L, so the forms hold)
        "bag_of_scalars": (
            "select struct( X: x, N: count( select u from u in Us where u.k = x ) ) "
            "from t in Ts, x in t.xs",
            {},
            _PREAGGREGATED,
        ),
        "repeated_object": (
            "select struct( M: c.m, N: sum( select u.v from u in Us "
            "where u.k = c.m ) ) from p in Ps, c in p.cs",
            {},
            _PREAGGREGATED,
        ),
        # -- binding domains: rows 1 and 2 share k = 1, row 4 binds NULL
        "domain-shared_and_null": (
            _PER_T.format(fields="N: count( select u from u in Us where u.v > t.k )"),
            {},
            _DOMAIN,
        ),
        "domain-distinct": (
            _PER_T.format(fields="N: count( select u from u in Us where u.v > t.id )"),
            {},
            _DOMAIN,
        ),
        "domain-string": (
            _PER_T.format(fields="N: count( select u from u in Us where u.s < t.s )"),
            {},
            _DOMAIN,
        ),
        # f holds 1 and 1.0: shared, both rows would sum to one type
        "domain-not-num": (
            _PER_T.format(fields="N: sum( select t.f from u in Us where u.v > t.f )"),
            {},
            _AS_BEFORE,
        ),
        "domain-record": (
            "select struct( I: p.id, N: count( select q from q in Ps "
            "where q.boss != p.boss ) ) from p in Ps",
            {},
            _DOMAIN,
        ),
        "domain-not-collection": (
            _PER_T.format(fields="N: count( select u from u in Us where u.v in t.xs )"),
            {},
            _AS_BEFORE,
        ),
        "domain-not-computed": (
            _PER_T.format(
                fields="N: count( select u from u in Us where u.v > t.k + 1 )"
            ),
            {},
            _AS_BEFORE,
        ),
        # nothing binds the spine to t: lowered as it stands
        "domain-not-unbound": (
            _PER_T.format(
                fields="N: count( select u from u in Us "
                "where exists w in Ws: w.a > u.v + 1 )"
            ),
            {},
            _AS_BEFORE,
        ),
        # (the spine reads x itself: a row, not a value rows share)
        "domain-not-bare_column": (
            "select struct( X: x, N: count( select u from u in Us where u.v > x ) ) "
            "from t in Ts, x in t.xs",
            {},
            _AS_BEFORE,
        ),
        "domain-repeated_object": (
            "select struct( M: c.m, N: count( select u from u in Us "
            "where u.v > c.m ) ) from p in Ps, c in p.cs",
            {},
            _DOMAIN,
        ),
        # both nests have t for their leaf: the inner one runs over the
        # outer one's domain, it does not open its own
        "domain-leaf_of_two_nests": (
            "select t.id from t in Ts where exists w in Ws: "
            "(w.a > 5 and exists u in Us: u.v > t.k)",
            {},
            _DOMAIN,
        ),
        "preagg_in_domain": (
            "select t.id from t in Ts where for all w in Ws: "
            "exists u in Us: (u.k = t.k and u.v = w.a)",
            {},
            _BOTH,
        ),
        "domain_in_preagg": (
            _PER_T.format(
                fields="A: count( select u from u in Us where u.v > t.k ), "
                "B: sum( select u.v from u in Us where u.k = t.k )"
            ),
            {},
            _BOTH,
        ),
    }
)
#: What the parent commit's statement returned for each, `fetchall()` on
#: this data (c0 is t's or p's ``$oid``): the rows and their order are the
#: contract, whichever form states them.
PARENT_ROWS = {
    'sum-int_key': [(0, 15), (1, 15), (2, 7), (3, 0), (4, 0), (5, 0), (6, -11)],
    'sum-string_key': [(0, 15), (1, 15), (2, 7), (3, 0), (4, 0), (5, 0), (6, -11)],
    'sum-filtered_right': [(0, 10), (1, 10), (2, 7), (3, 0), (4, 0), (5, 0), (6, -3)],
    'sum-right_residual': [(0, 10), (1, 10), (2, 7), (3, 0), (4, 0), (5, 0), (6, -3)],
    'max-int_key': [(0, 10), (1, 10), (2, 7), (3, 0), (4, 0), (5, 0), (6, 0)],
    'max-string_key': [(0, 10), (1, 10), (2, 7), (3, 0), (4, 0), (5, 0), (6, 0)],
    'max-filtered_right': [(0, 10), (1, 10), (2, 7), (3, 0), (4, 0), (5, 0), (6, 0)],
    'max-right_residual': [(0, 10), (1, 10), (2, 7), (3, 0), (4, 0), (5, 0), (6, 0)],
    'avg-int_key': [
        (0, 7.5), (1, 7.5), (2, 7.0), (3, None), (4, None), (5, None), (6, -5.5),
    ],
    'avg-string_key': [
        (0, 7.5), (1, 7.5), (2, 7.0), (3, None), (4, None), (5, None), (6, -5.5),
    ],
    'avg-filtered_right': [
        (0, 10.0), (1, 10.0), (2, 7.0), (3, None), (4, None), (5, None), (6,
        -3.0),
    ],
    'avg-right_residual': [
        (0, 10.0), (1, 10.0), (2, 7.0), (3, None), (4, None), (5, None), (6,
        -3.0),
    ],
    'count-int_key': [(0, 2), (1, 2), (2, 1), (3, 0), (4, 0), (5, 1), (6, 2)],
    'count-string_key': [(0, 2), (1, 2), (2, 1), (3, 0), (4, 0), (5, 1), (6, 2)],
    'count-filtered_right': [(0, 1), (1, 1), (2, 1), (3, 0), (4, 0), (5, 1), (6, 1)],
    'count-right_residual': [(0, 1), (1, 1), (2, 1), (3, 0), (4, 0), (5, 1), (6, 1)],
    'all-int_key': [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 0)],
    'all-string_key': [(0, 0), (1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 0)],
    'all-filtered_right': [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 0)],
    'all-right_residual': [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 0)],
    'some-int_key': [(0, 1), (1, 1), (2, 1), (3, 0), (4, 0), (5, 0), (6, 0)],
    'some-string_key': [(0, 1), (1, 1), (2, 1), (3, 0), (4, 0), (5, 0), (6, 0)],
    'some-filtered_right': [(0, 1), (1, 1), (2, 1), (3, 0), (4, 0), (5, 0), (6, 0)],
    'some-right_residual': [(0, 1), (1, 1), (2, 1), (3, 0), (4, 0), (5, 0), (6, 0)],
    'stacked': [
        (0, 10, 2), (1, 10, 2), (2, 7, 1), (3, 0, 0), (4, 0, 0), (5, 0, 1), (6,
        0, 2),
    ],
    'select_between': [(0, 2, 7.5), (1, 2, 7.5), (6, 2, -5.5)],
    'keyless': [(1,), (2,), (3,), (5,), (6,), (7,)],
    'not-min': [(0, 5), (1, 5), (2, 7), (3, None), (4, None), (5, None), (6, -8)],
    # (a collection nest is not lowered: its input, the (t, u) pairs, is
    # the statement — the same pairs in the same order as the merge form's)
    'not-bag_head': [
        (0, 7), (0, 8), (1, 7), (1, 8), (2, 9), (3, None), (4, None), (5, 11),
        (6, 12), (6, 13),
    ],
    'not-two_sided_residual': [
        (0, 15), (1, 15), (2, 7), (3, 0), (4, 0), (5, 0), (6, 0),
    ],
    'domain-shared_and_null': [(0, 4), (1, 4), (2, 4), (3, 0), (4, 4), (5, 4), (6, 3)],
    'domain-distinct': [(0, 4), (1, 4), (2, 4), (3, 4), (4, 3), (5, 3), (6, 2)],
    'domain-string': [(0, 0), (1, 0), (2, 2), (3, 0), (4, 3), (5, 3), (6, 4)],
    'domain-not-num': [
        (0, 4), (1, 4.0), (2, 10.0), (3, 0), (4, 14.0), (5, 18.0), (6, 16.5),
    ],
    'domain-record': [(9021, 1), (9022, 1), (9023, 2), (9024, 0)],
    'domain-not-collection': [(0, 0), (1, 1), (2, 0), (3, 1), (4, 2), (5, 0), (6, 1)],
    'domain-not-computed': [(0, 4), (1, 4), (2, 4), (3, 0), (4, 4), (5, 3), (6, 3)],
    'domain-not-unbound': [(0, 4), (1, 4), (2, 4), (3, 4), (4, 4), (5, 4), (6, 4)],
    'domain-leaf_of_two_nests': [(1,), (2,), (3,), (5,), (6,), (7,)],
    'preagg_in_domain': [(1,), (2,)],
    'domain_in_preagg': [
        (0, 4, 15), (1, 4, 15), (2, 4, 7), (3, 0, 0), (4, 4, 0), (5, 4, 0), (6,
        3, -11),
    ],
    # Over a bag L the parent merged two occurrences into one row; each is
    # its own row now, its occurrence (the child row's $pos) one more column.
    'bag_of_scalars': [
        (0, 1, 2, 0), (0, 1, 2, 1), (0, 2, 1, 2), (1, 5, 2, 0), (3, 7, 0, 0),
        (4, 10, 0, 0), (4, 7, 0, 1), (6, -3, 0, 0),
    ],
    'repeated_object': [
        (9021, 9001, 15, 0), (9021, 9001, 15, 1), (9021, 9002, 7, 2),
        (9023, 9005, -11, 0),
    ],
    # The parent's rows, one column moved: its grouped root nest listed the
    # occurrence before the value, its fused forms after.  A root nest is
    # now the chain `_finalize` lists, the occurrence after the value in
    # every form; results decode columns by name, so no answer changed.
    'domain-not-bare_column': [
        (0, 1, 4, 0), (0, 1, 4, 1), (0, 2, 4, 2), (1, 5, 3, 0), (3, 7, 2, 0),
        (4, 10, 1, 0), (4, 7, 2, 1), (6, -3, 4, 0),
    ],
    'domain-repeated_object': [
        (9021, 9001, 4, 0), (9021, 9001, 4, 1), (9021, 9002, 4, 2),
        (9023, 9005, 3, 0),
    ],
}


def _statements(db, source, **options):
    """The flat statements of *source* and the store they run on."""
    pipeline = _pipeline(db, backend="sqlite", **options)
    lowered, store = pipeline.compile_oql(source).target(db)
    return [
        node.segment.sql for node in operators(lowered) if isinstance(node, SqlSegment)
    ], store


class TestFusedNests:
    def test_every_case_has_its_rows(self):
        assert set(FUSED) == set(PARENT_ROWS)

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_same_rows_same_answer(self, name):
        source, options, forms = FUSED[name]
        db = _fusion_db()
        (statement,), store = _statements(db, source, **options)
        assert fused_forms([statement]) == forms
        assert store.connection.execute(statement).fetchall() == PARENT_ROWS[name]
        memory = _pipeline(db, **options).run_oql(source)
        shredded = _pipeline(db, backend="sqlite", **options).run_oql(source)
        assert repr(shredded) == repr(memory)

    def test_occurrences_answer_as_the_calculus_does_on_both_backends(self):
        # A bag holding the scalar 1, or one stored object, twice: each
        # occurrence is a binding of its own, as the calculus iterates it
        # (tests/fuzz_repros/bag_duplicate_scalars.json, and every FUSED
        # case over xs and cs).
        source, _, db = load_repro(
            Path(__file__).parent / "fuzz_repros/bag_duplicate_scalars.json"
        )
        samples = [(source, db)] + [
            (FUSED[name][0], _fusion_db())
            for name in sorted(FUSED)
            if name.endswith(("bag_of_scalars", "repeated_object", "bare_column"))
        ]
        answers = []
        for source, db in samples:
            memory, shredded = run_both(db, source)
            naive = _pipeline(db, unnest=False).run_oql(source)
            assert repr(shredded) == repr(memory) == repr(naive)
            answers.append(repr(naive))
        assert len(answers) == 5
        assert answers[0] == "{{<N=0, X=2>, <N=2, X=1>, <N=2, X=1>}}"

    @pytest.mark.parametrize(
        "source, keyed",
        [
            (FUSED["bag_of_scalars"][0], True),
            # a collection nest over a [sql] stream of t and x, grouped by t
            (
                "select struct( K: t.k, XS: ( select x from x in t.xs ) ) from t in Ts",
                False,
            ),
            (
                "select struct( K: t.k, XS: ( select distinct x from x in t.xs ) ) "
                "from t in Ts",
                False,
            ),
            ("sum( select count( select x from x in t.xs ) from t in Ts )", False),
        ],
    )
    def test_the_sql_carries_only_the_occurrences_a_nest_groups_by(
        self, source, keyed
    ):
        # One decision, the planner's: the SQL decodes an occurrence column
        # for exactly the variables the physical plan keys groups by.
        # Mutation: give every variable over a bag or list table its $pos.
        db = _fusion_db()
        compiled = _pipeline(db, backend="sqlite").compile_oql(source)
        lowered, _ = compiled.target(db)
        occurring = compiled.typing(db).occurring
        decoded = {
            name
            for node in operators(lowered)
            if isinstance(node, SqlSegment)
            for name, _, _ in node.segment.decoders
        }
        assert {name for name in decoded if name.endswith("#")} == {
            occurrence(name) for name in occurring
        }
        assert bool(occurring) == keyed
        memory, shredded = run_both(db, source)
        assert repr(shredded) == repr(memory)

    def test_a_selection_on_the_spine_drops_the_rows_of_its_bindings(self):
        # Per t, the u above t.k that some w lies above; a (t, u) pair no w
        # lies above is dropped by a selection *on the spine*, so a t whose
        # every pair goes (row 4 binds NULL: its one pad) is no group at
        # all — and neither are the rows that share its binding.
        db = _fusion_db()
        pairs = OuterJoin(
            Scan("Ts", "t"), Scan("Us", "u"), BinOp(">", path("u", "v"), path("t", "k"))
        )
        reached = Nest(
            OuterJoin(pairs, Scan("Ws", "w"), BinOp(">", path("w", "a"), path("u", "v"))),
            "sum", Const(1), ("t", "u"), ("w",), "m",
        )  # fmt: skip
        kept = Select(reached, BinOp(">", var("m"), Const(0)))
        top = Nest(kept, "sum", Const(1), ("t",), ("u",), "n")
        plan = Reduce(top, "bag", record(I=path("t", "id"), N=var("n")))
        store = shredded_store(db)
        lowered = compile_segments(plan, store, type_plan(plan, db).occurring)
        (segment,) = [n for n in operators(lowered) if isinstance(n, SqlSegment)]
        assert fused_forms([segment.segment.sql]) == _DOMAIN
        rows = store.connection.execute(segment.segment.sql).fetchall()
        assert rows == [(0, 2), (1, 2), (2, 2), (4, 2), (5, 2), (6, 1)]  # the parent's
        expected = evaluate_reference(plan, db)
        assert repr(execute_plan(lowered, store)) == repr(expected)
        assert repr(execute_plan(plan, db)) == repr(expected)


def _grouped_in_order(db, nest, head, forms=(False, False)):
    """A bag of *head* over *nest*, lowered: its one flat query, after
    checking that both backends answer the reference's rows in its order.
    *forms*: :func:`fused_forms` of the query (the grouped product)."""
    plan = Reduce(nest, "bag", head)
    store = shredded_store(db)
    lowered = compile_segments(plan, store, type_plan(plan, db).occurring)
    (sql,) = [n.segment.sql for n in operators(lowered) if isinstance(n, SqlSegment)]
    assert fused_forms([sql]) == forms
    expected = encode_value(evaluate_reference(plan, db))
    assert encode_value(execute_plan(lowered, store)) == expected
    assert encode_value(execute_plan(plan, db)) == expected
    return sql


class TestFirstSeenOrder:
    """A grouped nest orders its groups by their first rows through the
    chain's own ``$pos`` columns: bare where the keys pin them, one
    ``MIN`` after them, and a ``ROW_NUMBER()`` window only when the keys
    leave two or more unpinned.  Each case is answered order-exactly."""

    def test_a_scalar_key_over_one_table_takes_the_least_pos(self):
        # First seen: a, b, NULL, d, e — not the GROUP BY's NULL first.
        nest = Nest(
            Map(Scan("Us", "u"), (("s", path("u", "s")),)),
            "sum", path("u", "v"), ("s",), (), "n",
        )  # fmt: skip
        sql = _grouped_in_order(_fusion_db(), nest, record(S=var("s"), N=var("n")))
        assert 'MIN("$rn")' in sql and "ROW_NUMBER()" not in sql

    def test_keys_pinning_all_but_the_last_column_take_its_least(self):
        # Per t, (x < 2) before (x >= 2) when that is how its xs run; a t
        # with no xs is one padded group, its $pos NULL.
        nest = Nest(
            Map(
                OuterUnnest(Scan("Ts", "t"), path("t", "xs"), "x"),
                (("small", BinOp("<", var("x"), Const(2))),),
            ),
            "sum", Const(1), ("t", "small"), ("x",), "n",
        )  # fmt: skip
        head = record(I=path("t", "id"), S=var("small"), N=var("n"))
        sql = _grouped_in_order(_fusion_db(), nest, head)
        assert '"k0$$pos"' in sql and 'MIN("$rn")' in sql
        assert "ROW_NUMBER()" not in sql

    def test_a_bag_holding_an_element_twice_keeps_both_groups(self):
        # `twice` is two occurrences of one object: two groups, in order.
        pairs = OuterJoin(
            OuterUnnest(Scan("Ps", "p"), path("p", "cs"), "c"),
            Scan("Ws", "w"),
            BinOp(">", path("w", "a"), BinOp("+", path("c", "m"), Const(0))),
        )
        nest = Nest(pairs, "sum", Const(1), ("p", "c"), ("w",), "n")
        head = record(I=path("p", "id"), M=path("c", "m"), N=var("n"))
        sql = _grouped_in_order(_fusion_db(), nest, head)
        # Every key pins a column: the pinned $pos columns order the groups.
        assert 'ORDER BY t3."k0$$pos", t3."k1$$pos"' in sql
        assert "MIN(" not in sql and "ROW_NUMBER()" not in sql
        # c's occurrence is its row's $pos: selected once, as k1$$pos.
        assert sql.count('t1."$pos" AS') == 1 and '"k1#"' not in sql
        assert 'GROUP BY "k0$$oid", "k1$$oid", "k1$$pos"' in sql
        # So does a scalar's occurrence: t.xs holds 1 twice.
        scalars = OuterJoin(
            OuterUnnest(Scan("Ts", "t"), path("t", "xs"), "x"),
            Scan("Ws", "w"),
            BinOp(">", path("w", "a"), BinOp("+", var("x"), Const(0))),
        )
        nest = Nest(scalars, "sum", Const(1), ("t", "x"), ("w",), "n")
        head = record(I=path("t", "id"), X=var("x"), N=var("n"))
        sql = _grouped_in_order(_fusion_db(), nest, head)
        assert 'ORDER BY t3."k0$$pos", t3."k1#"' in sql
        assert "MIN(" not in sql and "ROW_NUMBER()" not in sql

    def test_two_unpinned_columns_keep_the_window(self):
        # Per t, the groups (w.a > 7) and (w.a <= 7) share their least x: only
        # the (x, w) order tells that the first comes first.
        nest = Nest(
            Map(
                OuterJoin(
                    OuterUnnest(Scan("Ts", "t"), path("t", "xs"), "x"),
                    Scan("Ws", "w"),
                    BinOp(">", path("w", "a"), var("x")),
                ),
                (("big", BinOp(">", path("w", "a"), Const(7))),),
            ),
            "sum", Const(1), ("t", "big"), ("w",), "n",
        )  # fmt: skip
        head = record(I=path("t", "id"), B=var("big"), N=var("n"))
        sql = _grouped_in_order(_fusion_db(), nest, head)
        assert sql.count("ROW_NUMBER()") == 1

    def test_a_domain_carries_its_order_columns(self):
        # l states (t, y) rows, y over a *set* of scalars: no key holds y's
        # $pos, so l carries it as an order column of its own, and the
        # result keeps each t's ys in stored order (5, 3, 9), not sorted.
        schema = Schema()
        schema.define_class("T", id=INT, k=INT, ys=set_of(INT))
        schema.define_class("U", v=INT)
        schema.define_extent("Ts", "T")
        schema.define_extent("Us", "U")
        db = Database(schema)
        db.add_extent(
            "Ts",
            [
                Record(id=1, k=2, ys=SetValue([5, 3, 9])),
                Record(id=2, k=2, ys=SetValue([])),
                Record(id=3, k=7, ys=SetValue([4, 1])),
                Record(id=4, k=NULL, ys=SetValue([8])),
            ],
        )
        db.add_extent("Us", [Record(v=3), Record(v=8), Record(v=1)])
        pairs = OuterJoin(
            Unnest(Scan("Ts", "t"), path("t", "ys"), "y"),
            Scan("Us", "u"),
            BinOp(">", path("u", "v"), path("t", "k")),
        )
        nest = Nest(pairs, "sum", Const(1), ("t", "y"), ("u",), "n")
        head = record(I=path("t", "id"), Y=var("y"), N=var("n"))
        sql = _grouped_in_order(db, nest, head, forms=_DOMAIN)
        assert 't1."$pos" AS "$o1"' in sql
        assert sql.endswith('ORDER BY t4."k0$$pos", t4."$o1"')
        assert "ROW_NUMBER()" not in sql


class TestIdentityParity:
    def test_value_equal_duplicates_parity(self):
        # Two value-equal records are distinct *objects*: bag semantics must
        # keep both on each backend (identity, not value, multiplicity).
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1), Record(k=1), Record(k=2)], kind="bag")
        memory, shredded = run_both(db, "select t.k from t in Ts")
        assert results_equal(memory, shredded)
        assert shredded.count(1) == 2

    def test_object_equality_is_identity_on_both(self):
        db = DATABASES["company"]()
        source = (
            "count( select struct(a: e, b: f) "
            "from e in Employees, f in Employees where e = f )"
        )
        memory, shredded = run_both(db, source)
        assert memory == shredded


class TestStitching:
    def test_nested_result_round_trip(self):
        db = DATABASES["company"]()
        memory, shredded = run_both(
            db,
            "select distinct struct( D: d.name, E: ( select e.name "
            "from e in Employees where e.dno = d.dno ) ) "
            "from d in Departments",
        )
        assert results_equal(memory, shredded)

    def test_a_re_entered_segment_runs_its_select_once(self):
        # The inner of a nested-loop join is entered once per left chunk's
        # build — and again by anyone re-entering the join; the segment
        # replays its decoded columns instead of going back to SQLite.
        from repro.algebra.operators import Join, Reduce, Scan
        from repro.calculus.terms import BinOp, const, path
        from repro.engine.planner import PlannerOptions, plan_physical

        db = DATABASES["company"]()
        plan = Reduce(
            Join(
                Scan("Departments", "d"),
                Scan("Employees", "e"),
                # `/` keeps the predicate, hence the join, out of SQL
                BinOp("<", BinOp("/", path("e", "dno"), const(1)), path("d", "dno")),
            ),
            "sum",
            const(1),
        )
        store = shredded_store(db)
        lowered = compile_segments(plan, store, type_plan(plan, db).occurring)
        statements: list[str] = []
        store.connection.set_trace_callback(statements.append)
        try:
            physical = plan_physical(
                lowered, store, PlannerOptions(batch_size=7, hash_joins=False)
            )
            join = physical.child
            inner = join.right
            assert isinstance(inner, PSqlSegment)
            ex = Execution(physical)
            first = [chunk.length for chunk in inner.batches(ex)]
            again = [chunk.length for chunk in inner.batches(ex)]
            assert first == again and sum(first) == ex.counts[inner].rows_produced
            total = physical.value(ex)
        finally:
            store.connection.set_trace_callback(None)
        assert total == evaluate_reference(plan, db)
        assert statements.count(inner.segment.sql) == 1
        assert statements.count(join.left.segment.sql) == 1

    def test_decoded_objects_are_the_databases_own(self):
        # `$oid` is an index into the one database: whatever object a
        # corpus query hands back *is* the record the database stores — no
        # second copy exists to be equal to it.
        for family in sorted(DATABASES):
            db = DATABASES[family]()
            owned = _objects_by_oid(db)
            pipeline = _pipeline(db, backend="sqlite")
            for query in CORPUS:
                if query.family != family:
                    continue
                for record in _records(pipeline.run_oql(query.oql)):
                    assert record is owned[record.oid], query.name
                    assert record is shredded_store(db).objects[record.oid]


class TestExecuteShredded:
    """``execute_shredded`` is ``CompiledQuery.execute`` plus the flat-query
    log — it used to be a second driver that forgot three things."""

    def _compile(self, source, db=None):
        db = db or DATABASES["company"]()
        return db, _pipeline(db, backend="sqlite").compile_oql(source)

    def test_order_by_applies(self):
        db, compiled = self._compile(
            "select distinct e.age from e in Employees order by value desc"
        )
        result = execute_shredded(compiled, db)
        assert isinstance(result, ListValue)
        assert list(result) == sorted(set(result), reverse=True)
        assert result == compiled.execute(db)

    def test_bound_parameters_are_used(self):
        db, compiled = self._compile(
            "select distinct e.name from e in Employees where e.age > :a"
        )
        bound = compiled.bind(a=40)
        flat: list = []
        assert execute_shredded(bound, db, flat_queries=flat) == bound.execute(db)
        assert execute_shredded(bound, db, {"a": 60}) == compiled.execute(db, a=60)
        assert [sql for sql, _, _, _ in flat] == shredded_sql(db, compiled.source)

    def test_errors_are_annotated(self):
        from repro.errors import ExecutionError

        source = "select e.name from e in Employees where 10 / (e.age - 26) > 1"
        db, compiled = self._compile(source)
        with pytest.raises(ExecutionError, match="division by zero") as caught:
            execute_shredded(compiled, db)
        assert caught.value.stage == "execute" and caught.value.source == source


# ---------------------------------------------------------------------------
# Typed refusals and oracle skip accounting
# ---------------------------------------------------------------------------


def _inheritance_db():
    schema = Schema()
    schema.define_class("Person", name=STRING)
    schema.define_class("Employee", extends="Person", salary=INT)
    schema.define_extent("People", "Person")
    schema.define_extent("Employees", "Employee")
    db = Database(schema)
    db.add_extent("People", [Record(name="p")])
    db.add_extent("Employees", [Record(name="e", salary=1)])
    return db


class TestRefusals:
    def test_inheritance_is_refused(self):
        with pytest.raises(BackendUnsupportedError):
            ShreddedStore(_inheritance_db())

    def test_null_collection_attribute_is_refused_per_extent(self):
        schema = Schema()
        schema.define_class("T", k=INT, kids=set_of(INT))
        schema.define_extent("Ts", "T")
        schema.define_class("U", k=INT)
        schema.define_extent("Us", "U")
        db = Database(schema)
        db.add_extent(
            "Ts", [Record(k=1, kids=SetValue([1])), Record(k=2, kids=NULL)]
        )
        db.add_extent("Us", [Record(k=1)])
        store = ShreddedStore(db)  # other extents still shred
        assert "Ts" in store.refusals
        with pytest.raises(BackendUnsupportedError):
            store.extent("Ts")
        assert store.extent("Us") == db.extent("Us")

    def test_mixed_column_types_are_refused(self):
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1), Record(k="one")])
        store = ShreddedStore(db)
        assert "Ts" in store.refusals

    def test_collection_of_collections_is_refused(self):
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        db.add_extent(
            "Ts", [Record(k=1, kids=SetValue([SetValue([1, 2])]))]
        )
        store = ShreddedStore(db)
        assert "Ts" in store.refusals

    def test_unnest_off_is_refused(self):
        db = DATABASES["ab"]()
        pipeline = _pipeline(db, backend="sqlite", unnest=False)
        with pytest.raises(BackendUnsupportedError):
            pipeline.run_oql("select a from a in A")

    def test_unknown_backend_is_a_planning_error(self):
        db = DATABASES["ab"]()
        with pytest.raises(PlanningError):
            _pipeline(db, backend="duckdb").run_oql("select a from a in A")

    def test_refusal_on_touched_extent_only(self):
        # A query that never touches the refused extent runs fine.
        schema = Schema()
        schema.define_class("T", k=INT)
        schema.define_extent("Ts", "T")
        schema.define_class("U", k=INT)
        schema.define_extent("Us", "U")
        db = Database(schema)
        db.add_extent("Ts", [Record(k=1), Record(k="bad")])
        db.add_extent("Us", [Record(k=7)])
        assert _pipeline(db, backend="sqlite").run_oql(
            "select u.k from u in Us"
        ) == BagValue([7])
        with pytest.raises(BackendUnsupportedError):
            _pipeline(db, backend="sqlite").run_oql("select t.k from t in Ts")

    @pytest.mark.parametrize(
        "expr",
        # Whichever limit this SQLite build hits first — the yacc stack
        # ("parser stack overflow") or SQLITE_MAX_EXPR_DEPTH ("Expression
        # tree is too large") — neither form parses on any build.
        ["(" * 5000 + "1" + ")" * 5000, "+".join(["1"] * 5000)],
        ids=["nested-parens", "deep-expression-tree"],
    )
    def test_select_past_a_sqlite_parser_limit_is_refused(self, expr):
        # fuzz seed 90210 iteration 534: five correlated boxes lowered to a
        # SELECT nested past SQLite's parser stack.  The backend cannot run
        # it, which is a refusal (a counted skip), not an execution fault.
        store = shredded_store(DATABASES["ab"]())
        segment = _Segment(f"SELECT {expr}", (("x", "scalar", "int"),))
        with pytest.raises(BackendUnsupportedError, match="SQLite parser limit"):
            op = PSqlSegment(_Context(store), segment, "Scan")
            op._fetch(Execution(op))


class TestOracleIntegration:
    def test_sqlite_paths_are_registered(self):
        names = [name for name, _ in PATHS]
        assert len(names) == 13
        assert "sqlite-shredded" in names
        assert "sqlite-shredded-cached-plan" in names

    def test_agreement_on_demo_database(self):
        db = DATABASES["company"]()
        verdict = check_sample(
            "select distinct e.name from e in Employees where e.dno = 1",
            {},
            db,
        )
        assert verdict.agreed
        assert verdict.skipped == []

    def test_refusal_counts_as_skip_not_disagreement(self):
        verdict = check_sample(
            "select p.name from p in People", {}, _inheritance_db()
        )
        skipped = {outcome.path for outcome in verdict.skipped}
        assert skipped == {"sqlite-shredded", "sqlite-shredded-cached-plan"}
        assert verdict.agreed  # skips are not disagreements
        for outcome in verdict.skipped:
            assert "SKIPPED" in outcome.describe()


# ---------------------------------------------------------------------------
# Stats / EXPLAIN surfaces
# ---------------------------------------------------------------------------


class TestObservability:
    def test_stats_report_flat_queries(self):
        db = DATABASES["company"]()
        stats = _pipeline(db, backend="sqlite").run_oql_stats(
            "select distinct e.name from e in Employees where e.salary > 0"
        )
        assert stats.backend == "sqlite"
        assert stats.flat_queries
        sql, rows, sql_ms, decode_ms = stats.flat_queries[0]
        assert sql.startswith("SELECT") and rows >= 0
        assert sql_ms >= 0.0 and decode_ms >= 0.0
        report = stats.report()
        assert "backend=sqlite" in report
        assert "flat query:" in report
        assert "ms sql" in report and "ms decode" in report

    def test_explain_shows_generated_sql(self):
        db = DATABASES["company"]()
        compiled = _pipeline(db, backend="sqlite").compile_oql(
            "select distinct e.name from e in Employees where e.salary > 0"
        )
        explain = compiled.explain(db)
        assert "backend: sqlite" in explain
        assert "[sql]" in explain and "SELECT" in explain

    def test_governor_limits_apply_to_sql_rows(self):
        from repro.errors import BudgetExceeded

        db = DATABASES["company"]()
        with pytest.raises(BudgetExceeded):
            _pipeline(db, backend="sqlite", max_rows=3).run_oql(
                "select e.name from e in Employees"
            )


# ---------------------------------------------------------------------------
# The cross-backend corpus parity sweep (mirrors test_batch.py)
# ---------------------------------------------------------------------------


_FAMILY_DBS = {family: DATABASES[family]() for family in DATABASES}


class TestCorpusParity:
    """Every corpus query, both backends, zero silent skips.

    A BackendUnsupportedError here would be *counted* — the refusals list
    below is asserted empty, so any future gap fails loudly instead of
    shrinking coverage."""

    refusals: list = []

    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_backend_parity(self, query):
        db = _FAMILY_DBS[query.family]
        memory = _pipeline(db).run_oql(query.oql)
        try:
            shredded = _pipeline(db, backend="sqlite").run_oql(query.oql)
        except BackendUnsupportedError as exc:  # pragma: no cover - none expected
            TestCorpusParity.refusals.append((query.name, str(exc)))
            pytest.fail(f"backend refused corpus query {query.name}: {exc}")
        assert results_equal(memory, shredded), query.name
        # Order-exact: set and bag elements, groups included, come back in
        # the order the memory engine enumerates them.
        assert encode_value(memory) == encode_value(shredded), query.name

    def test_zero_silent_skips(self):
        assert TestCorpusParity.refusals == []

    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_stats_path_is_the_one_physical_plan(self, query):
        # EXPLAIN ANALYZE on sqlite is the memory backend's: one operator
        # list, SQL segments its leaves, everything above them compiled.
        db = _FAMILY_DBS[query.family]
        stats = _pipeline(db, backend="sqlite").run_oql_stats(query.oql)
        memory = _pipeline(db).run_oql(query.oql)
        assert results_equal(memory, stats.result), query.name
        assert stats.backend == "sqlite" and stats.operators
        segments = [
            op for op in stats.operators if op.operator.startswith("SqlSegment[")
        ]
        assert segments and len(segments) == len(stats.flat_queries)
        assert sum(op.rows_produced for op in segments) == sum(
            rows for _, rows, _, _ in stats.flat_queries
        )
        assert all(op.eval_mode == "" for op in segments)
        residual = [op for op in stats.operators if op not in segments]
        assert all(op.eval_mode in ("compiled", "") for op in residual)
        # only a seed (no expression to evaluate) reports no mode
        assert all(op.eval_mode or op.operator == "Seed" for op in residual)

    def test_residual_operators_survive_where_the_lowering_stops(self):
        # Every lowered reduce is the engine's Reduce over a segment, so all
        # 53 corpus queries show a [py] operator; besides that root, the
        # same 21 keep operators above their segments.
        explains = {
            q.name: _pipeline(_FAMILY_DBS[q.family], backend="sqlite")
            .compile_oql(q.oql)
            .explain(_FAMILY_DBS[q.family])
            .splitlines()
            for q in CORPUS
        }
        residual = [name for name, lines in explains.items() if any(
            line.startswith("[py]") for line in lines
        )]
        assert len(residual) == 53
        beyond_root = [name for name, lines in explains.items() if any(
            "[py]" in line and not line.endswith(" / $v)") for line in lines
        )]
        assert len(beyond_root) == 21
        assert {"triple_nesting", "nested_struct_heads", "setop_union"} <= set(
            beyond_root
        )
