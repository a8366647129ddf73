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

import pytest

from corpus import CORPUS
from repro.backends.shred import (
    PSqlSegment,
    ShreddedStore,
    _q,
    _Segment,
    compile_segments,
    execute_shredded,
    shredded_sql,
    shredded_store,
)
from repro.cli import DATABASES
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.schema import FLOAT, INT, STRING, Schema, set_of
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue
from repro.engine.physical import _Context
from repro.errors import BackendUnsupportedError, PlanningError
from repro.algebra.evaluator import evaluate_plan as evaluate_reference
from repro.testing.oracle import PATHS, check_sample, results_equal


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
    # Paper QUERY B (type-JA): the O5 outer-join becomes a LEFT JOIN, and
    # the collection-valued root Nest lowers to an ordered merge query
    # (keys first, then the contribution flag, head, and first-seen rank).
    "query_b": [
        'SELECT t0."$oid" AS c0, ((t1."$oid" IS NOT NULL)) AS "$c", '
        't1."$oid" AS "$h", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos", t1."$pos") AS "$rn" '
        'FROM ("Departments" t0 LEFT JOIN "Employees" t1 '
        'ON (t1."dno" = t0."dno")) '
        'ORDER BY c0, "$rn"'
    ],
    # Paper QUERY D: two outer-unnests over a quantifier (all/sum) pair —
    # both Nests and the root Reduce push into nested GROUP BY subqueries;
    # nothing stitches in Python.  The universal quantifier's body arrives
    # negated in the inner unnest's ON clause (all-head-to-filter), so its
    # nest folds a constant false over the surviving children.
    "query_d": [
        'SELECT "k0" AS c0, COALESCE(SUM("$c"), 0) AS c1 '
        'FROM (SELECT t3."k0$$oid" AS "k0", '
        '(CASE WHEN (t3."k1$$oid" IS NOT NULL) AND t3."$agg" '
        'THEN 1 ELSE NULL END) AS "$c", '
        't3."$pos" AS "$rn" '
        'FROM (SELECT "k0$$oid", "k0$age", "k0$dno", "k0$manager$name", '
        '"k0$manager$oid", "k0$name", "k0$oid", "k0$salary", "k1$$oid", '
        '"k1$age", "k1$name", COALESCE(MIN("$c"), 1) AS "$agg", '
        'MIN("$rn") AS "$pos" '
        'FROM (SELECT t0."$oid" AS "k0$$oid", t0."age" AS "k0$age", '
        't0."dno" AS "k0$dno", t0."manager$name" AS "k0$manager$name", '
        't0."manager$oid" AS "k0$manager$oid", t0."name" AS "k0$name", '
        't0."oid" AS "k0$oid", t0."salary" AS "k0$salary", '
        't1."$oid" AS "k1$$oid", t1."age" AS "k1$age", '
        't1."name" AS "k1$name", '
        '(CASE WHEN (t2."$oid" IS NOT NULL) THEN 0 ELSE NULL END) AS "$c", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos", t1."$pos", t2."$pos") '
        'AS "$rn" '
        'FROM (("Employees" t0 LEFT JOIN "Employees$children" t1 '
        'ON t1."$parent" = t0."$oid") '
        'LEFT JOIN "Employees$manager$children" t2 '
        'ON t2."$parent" = t0."$oid" AND (t1."age" <= t2."age"))) '
        'GROUP BY "k0$$oid", "k1$$oid") t3) '
        'GROUP BY "k0" ORDER BY MIN("$rn")'
    ],
    # Paper QUERY E: both outer-joins in one flat query, predicates in ON.
    # The ON conjunction lowers to plain AND (an ON clause only tests
    # truth, where the reference's left-biased `and` and Kleene AND agree),
    # keeping the equality conjuncts transparent to SQLite's planner so
    # the Transcript probe runs off the lowering-time index.  Both
    # quantifier Nests (some/all) collapse into chained GROUP BY
    # subqueries under the collection-valued root fold.
    "query_e": [
        'SELECT t4."k0$$oid" AS c0 '
        'FROM (SELECT "k0$$oid", "k0$age", "k0$id", "k0$name", '
        'COALESCE(MIN("$c"), 1) AS "$agg", MIN("$rn") AS "$pos" '
        'FROM (SELECT t3."k0$$oid" AS "k0$$oid", t3."k0$age" AS "k0$age", '
        't3."k0$id" AS "k0$id", t3."k0$name" AS "k0$name", '
        '(CASE WHEN (t3."k1$$oid" IS NOT NULL) THEN t3."$agg" '
        'ELSE NULL END) AS "$c", '
        't3."$pos" AS "$rn" '
        'FROM (SELECT "k0$$oid", "k0$age", "k0$id", "k0$name", "k1$$oid", '
        '"k1$cno", "k1$title", COALESCE(MAX("$c"), 0) AS "$agg", '
        'MIN("$rn") AS "$pos" '
        'FROM (SELECT t0."$oid" AS "k0$$oid", t0."age" AS "k0$age", '
        't0."id" AS "k0$id", t0."name" AS "k0$name", '
        't1."$oid" AS "k1$$oid", t1."cno" AS "k1$cno", '
        't1."title" AS "k1$title", '
        '(CASE WHEN (t2."$oid" IS NOT NULL) THEN 1 ELSE NULL END) AS "$c", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos", t1."$pos", t2."$pos") '
        'AS "$rn" '
        'FROM (("Student" t0 LEFT JOIN "Courses" t1 '
        'ON (t1."title" = \'DB\')) '
        'LEFT JOIN "Transcript" t2 '
        'ON ((t2."id" = t0."id") AND (t2."cno" = t1."cno")))) '
        'GROUP BY "k0$$oid", "k1$$oid") t3) '
        'GROUP BY "k0$$oid") t4 '
        'WHERE t4."$agg" ORDER BY t4."$pos"'
    ],
    # A flat selection compiles the predicate into WHERE; the projected
    # head is pushed into the SELECT list (no object rehydration needed).
    "flat_select": [
        'SELECT t0."name" AS c0 FROM "Employees" t0 '
        'WHERE (t0."salary" > 70000) ORDER BY t0."$pos"'
    ],
    # Section 5 group-by: the whole Nest (grouping + avg aggregate) pushes
    # into one GROUP BY query; first-seen group order via MIN(row number).
    "group_avg": [
        'SELECT "k0" AS c0, AVG("$c") AS c1 '
        'FROM (SELECT t0."dno" AS "k0", '
        '(CASE WHEN (t0."dno" IS NOT NULL) THEN t0."salary" '
        'ELSE NULL END) AS "$c", '
        'ROW_NUMBER() OVER (ORDER BY t0."$pos") AS "$rn" '
        'FROM "Employees" t0 WHERE (t0."age" > 30)) '
        'GROUP BY "k0" ORDER BY MIN("$rn")'
    ],
}


class TestGoldenSQL:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SQL))
    def test_generated_sql_is_stable(self, name):
        query = next(q for q in CORPUS if q.name == name)
        db = DATABASES[query.family]()
        assert shredded_sql(db, query.oql) == GOLDEN_SQL[name]

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
        lowered = compile_segments(plan, store)
        statements: list[str] = []
        store.connection.set_trace_callback(statements.append)
        try:
            physical = plan_physical(
                lowered, store, PlannerOptions(batch_size=7, hash_joins=False)
            )
            join = physical.child
            inner = join.right
            assert isinstance(inner, PSqlSegment)
            first = [chunk.length for chunk in inner.batches()]
            again = [chunk.length for chunk in inner.batches()]
            assert first == again and sum(first) == inner.rows_produced
            total = physical.value()
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
            PSqlSegment(_Context(store), segment, "Scan")._fetch()


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
        # The lowering is untouched: the same 21 corpus queries keep
        # operators above their segments.
        residual = [
            q.name
            for q in CORPUS
            if "[py]" in _pipeline(_FAMILY_DBS[q.family], backend="sqlite")
            .compile_oql(q.oql)
            .explain(_FAMILY_DBS[q.family])
        ]
        assert len(residual) == 21
        assert {"triple_nesting", "nested_struct_heads", "setop_union"} <= set(residual)
