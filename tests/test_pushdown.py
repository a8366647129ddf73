"""Tests for aggregation pushdown and the file-backed (out-of-core) store.

Four concerns, mirroring ISSUE 9's tentpole:

* **parity**: every pushable aggregate monoid (sum/count/avg/min/max,
  some/all) agrees with the calculus reference across the divergence-prone
  axes — 3VL predicates, NULL aggregate inputs, NULL grouping keys, empty
  groups, and empty extents;
* **the pushdown actually fires**: golden checks that grouping/aggregate
  queries lower to a single ``GROUP BY`` statement and EXPLAIN carries the
  ``[sql:group]``/``[sql:agg]`` markers;
* **index-backed probes**: ``EXPLAIN QUERY PLAN`` goldens asserting that
  ``$parent`` unnests and equi-joins discovered at lowering time run off
  indexes (satellite: index coverage + ANALYZE);
* **out of core**: file-backed round-trip (shred → close → reopen → reuse),
  stale-manifest re-shred, plan-cache interaction on backend/db-path
  switches, and the governor tripping *inside* a SELECT via the progress
  handler.
"""

from __future__ import annotations

import io
import sqlite3

import pytest

from corpus import CORPUS
from repro.backends.shred import shredded_sql, shredded_store
from repro.calculus.evaluator import evaluate
from repro.cli import DATABASES
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.schema import FLOAT, INT, STRING, Schema
from repro.data.values import NULL, Record, SetValue
from repro.errors import BudgetExceeded
from repro.oql.translator import parse_and_translate
from repro.testing.oracle import results_equal


def _pipeline(db, **options):
    return QueryPipeline(db, OptimizerOptions(**options))


def _agg_db():
    """Rows exercising every divergence axis: NULL values, NULL keys,
    groups whose every contribution is filtered out, and an empty extent."""
    schema = Schema()
    schema.define_class("T", k=INT, v=INT, f=FLOAT, s=STRING)
    schema.define_extent("Ts", "T")
    schema.define_extent("Empty", "T")
    db = Database(schema)
    db.add_extent(
        "Ts",
        [
            Record(k=1, v=10, f=1.5, s="a"),
            Record(k=1, v=NULL, f=2.5, s="b"),
            Record(k=2, v=3, f=NULL, s="a"),
            Record(k=NULL, v=7, f=0.5, s=NULL),
            Record(k=2, v=5, f=4.0, s="c"),
            Record(k=3, v=NULL, f=NULL, s="d"),
        ],
    )
    db.add_extent("Empty", [])
    return db


# The sweep: every pushable monoid crossed with 3VL/NULL/empty shapes.
PARITY_QUERIES = [
    # --- root Reduce aggregates (whole extent, [sql:agg]) ---
    "sum( select t.v from t in Ts )",
    "sum( select t.f from t in Ts )",
    "count( select t from t in Ts )",
    "avg( select t.v from t in Ts )",
    "min( select t.v from t in Ts )",
    "max( select t.v from t in Ts )",
    # 3VL predicate: NULL comparisons drop rows on both engines.
    "sum( select t.v from t in Ts where t.f > 1.0 )",
    "count( select t from t in Ts where t.s = \"a\" )",
    "avg( select t.f from t in Ts where t.v > 4 )",
    "max( select t.v from t in Ts where t.f > 1.0 )",
    # Quantifiers (some/all via MAX/MIN over CASE).
    "exists t in Ts: t.v > 5",
    "exists t in Ts: t.v > 100",
    "for all t in Ts: t.v > 0",
    "for all t in Ts: t.k = 1",
    "exists t in Empty: t.v > 0",
    "for all t in Empty: t.v > 0",
    # Empty input: sum -> 0, count -> 0, avg -> NULL, min -> inf, max -> 0.
    "sum( select t.v from t in Empty )",
    "count( select t from t in Empty )",
    "avg( select t.v from t in Empty )",
    "min( select t.v from t in Empty )",
    "max( select t.v from t in Empty )",
    # Predicate filters everything out (same zeros, via WHERE).
    "sum( select t.v from t in Ts where t.v > 1000 )",
    "avg( select t.v from t in Ts where t.v > 1000 )",
    # --- Nest groupings ([sql:group]): NULL keys group under NULL ---
    "select distinct t.k, sum(t.v) as S from Ts t group by t.k",
    "select distinct t.k, count(t) as N from Ts t group by t.k",
    "select distinct t.k, avg(t.f) as A from Ts t group by t.k",
    "select distinct t.k, max(t.v) as M from Ts t group by t.k",
    "select distinct t.s, sum(t.v) as S from Ts t group by t.s",
    # Group keys with a 3VL row filter.
    "select distinct t.k, sum(t.v) as S from Ts t where t.f > 1.0 group by t.k",
    "select distinct t.k, avg(t.v) as A from Ts t where t.s = \"a\" group by t.k",
    # Grouped quantifier heads.
    "select distinct e.dno, max(e.salary) as top from Employees e group by e.dno",
    # Collection-valued nests (a HashNest over a stream segment).
    "select distinct struct( D: d, E: ( select distinct e "
    "from e in Employees where e.dno = d.dno ) ) from d in Departments",
]


class TestPushdownParity:
    @pytest.mark.parametrize("source", PARITY_QUERIES)
    def test_parity_with_the_calculus_reference(self, source):
        db = _agg_db() if "Ts" in source or "Empty" in source else DATABASES["company"]()
        reference = evaluate(parse_and_translate(source, db.schema), db)
        pushed = _pipeline(db, backend="sqlite").run_oql(source)
        assert results_equal(reference, pushed)


class TestPushdownFires:
    def test_reduce_lowers_to_single_aggregate(self):
        db = _agg_db()
        statements = shredded_sql(db, "sum( select t.v from t in Ts )")
        assert len(statements) == 1
        assert "COALESCE(SUM(" in statements[0]
        assert "GROUP BY" not in statements[0]

    def test_group_by_lowers_to_single_statement(self):
        db = _agg_db()
        statements = shredded_sql(
            db, "select distinct t.k, sum(t.v) as S from Ts t group by t.k"
        )
        assert len(statements) == 1
        assert "GROUP BY" in statements[0]
        # First-seen group order: each group's least row number, ordered by.
        assert 'MIN("$rn") AS "$pos"' in statements[0]
        assert statements[0].endswith('ORDER BY t1."$pos"')

    def test_explain_markers(self):
        db = DATABASES["company"]()
        compiled = _pipeline(db, backend="sqlite").compile_oql(
            "select distinct e.dno, avg(e.salary) as S from Employees e "
            "where e.age > 30 group by e.dno"
        )
        explain = compiled.explain(db)
        assert "[sql:group]" in explain
        agg = _pipeline(db, backend="sqlite").compile_oql(
            "sum( select e.salary from e in Employees )"
        )
        assert "[sql:agg]" in agg.explain(db)

    def test_explain_analyze_splits_sql_and_decode_time(self):
        db = DATABASES["company"]()
        stats = _pipeline(db, backend="sqlite").run_oql_stats(
            "select distinct e.dno, avg(e.salary) as S from Employees e "
            "group by e.dno"
        )
        assert stats.flat_queries
        for sql, rows, sql_ms, decode_ms in stats.flat_queries:
            assert sql_ms >= 0.0 and decode_ms >= 0.0
        assert "ms sql" in stats.report() and "ms decode" in stats.report()


class TestIndexBackedProbes:
    """EXPLAIN QUERY PLAN goldens: probes run off indexes, not scans."""

    def _plan(self, db, source):
        store = shredded_store(db)
        [sql] = shredded_sql(db, source)
        rows = store.connection.execute(
            f"EXPLAIN QUERY PLAN {sql}"
        ).fetchall()
        return "\n".join(row[-1] for row in rows)

    def test_parent_unnest_uses_child_index(self):
        db = DATABASES["company"]()
        plan = self._plan(
            db,
            "select distinct struct( E: e.name, C: c.name ) "
            "from e in Employees, c in e.children",
        )
        assert "USING INDEX ix$Employees$children" in plan

    def test_equi_join_gets_a_lowering_time_index(self):
        db = DATABASES["company"]()
        source = (
            "select distinct struct( D: d.name, E: e.name ) "
            "from d in Departments, e in Employees where e.dno = d.dno"
        )
        plan = self._plan(db, source)
        store = shredded_store(db)
        indexed = {
            row[0]
            for row in store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index' "
                "AND name LIKE 'ix$join$%'"
            )
        }
        assert "ix$join$Employees$dno" in indexed
        assert "USING INDEX ix$join$" in plan

    def test_analyze_ran(self):
        db = DATABASES["company"]()
        store = shredded_store(db)
        stats = store.connection.execute(
            "SELECT count(*) FROM sqlite_stat1"
        ).fetchone()
        assert stats[0] > 0


class TestFileBackedStore:
    def test_round_trip_reuses_the_shred(self, tmp_path):
        path = str(tmp_path / "store.db")
        source = "select distinct e.name from e in Employees where e.salary > 70000"
        first_db = DATABASES["company"]()
        first = _pipeline(first_db, backend="sqlite", db_path=path).run_oql(source)
        assert shredded_store(first_db, db_path=path).reused is False
        # A fresh process would see a fresh Database object: the same
        # construction, so the same contents under the same OIDs (both
        # count from 0).  The fingerprint covers both, so the shred on disk
        # is reused rather than rebuilt.
        second_db = DATABASES["company"]()
        store = shredded_store(second_db, db_path=path)
        assert store.reused is True
        second = _pipeline(second_db, backend="sqlite", db_path=path).run_oql(source)
        assert results_equal(first, second)
        assert results_equal(second, _pipeline(second_db).run_oql(source))

    def test_object_results_survive_reopen(self, tmp_path):
        path = str(tmp_path / "store.db")
        source = "select distinct e from e in Employees where e.dno = 1"
        first_db = DATABASES["company"]()
        _pipeline(first_db, backend="sqlite", db_path=path).run_oql(source)
        second_db = DATABASES["company"]()
        assert shredded_store(second_db, db_path=path).reused is True
        reopened = _pipeline(second_db, backend="sqlite", db_path=path).run_oql(source)
        assert results_equal(reopened, _pipeline(second_db).run_oql(source))
        # ... as the reopened database's own objects, not copies of them
        own = {e.oid: e for e in second_db.extent("Employees")}
        assert len(reopened) > 0 and all(e is own[e.oid] for e in reopened)

    def test_reopen_derives_the_catalog_a_fresh_shred_derives(self, tmp_path):
        # Nothing of the catalog is stored: a reopen describes the data as
        # a first shred does, refusals included.
        def build():
            db = _agg_db()
            db.add_extent("Kids", [Record(k=1, kids=SetValue([Record(a=1)]))])
            db.add_extent("Mixed", [Record(k=1), Record(k="one")])
            return db

        path = str(tmp_path / "store.db")
        first = shredded_store(build(), db_path=path)
        second = shredded_store(build(), db_path=path)
        assert (first.reused, second.reused) == (False, True)
        assert second.tables == first.tables and set(first.tables) >= {"Ts", "Kids"}
        assert second.refusals == first.refusals and set(first.refusals) == {"Mixed"}
        rows = second.connection.execute(
            'SELECT key FROM "repro$manifest"'
        ).fetchall()
        assert rows == [("fingerprint",)]

    def test_same_values_under_other_oids_re_shred(self, tmp_path):
        # `$oid` columns resolve through the database in hand: a file whose
        # OIDs are another database's must not be reused.
        def build(shift):
            db = Database(_agg_db().schema)
            for _ in range(shift):
                db.allocate_oid()
            db.add_extent("Ts", [Record(k=1, v=10, f=1.5, s="a")])
            db.add_extent("Empty", [])
            return db

        path = str(tmp_path / "store.db")
        source = "select distinct t from t in Ts"
        first_db, second_db = build(0), build(1)
        assert first_db.extent("Ts") == second_db.extent("Ts")
        _pipeline(first_db, backend="sqlite", db_path=path).run_oql(source)
        [answer] = _pipeline(second_db, backend="sqlite", db_path=path).run_oql(source)
        assert shredded_store(second_db, db_path=path).reused is False
        [own] = second_db.extent("Ts")
        assert answer is own and own.oid == 1

    def test_stale_manifest_re_shreds(self, tmp_path):
        path = str(tmp_path / "store.db")
        db = _agg_db()
        source = "sum( select t.v from t in Ts )"
        assert _pipeline(db, backend="sqlite", db_path=path).run_oql(source) == 25
        # Different contents -> different fingerprint -> re-shred, and the
        # query sees the new data, not the stale file.
        schema = Schema()
        schema.define_class("T", k=INT, v=INT, f=FLOAT, s=STRING)
        schema.define_extent("Ts", "T")
        schema.define_extent("Empty", "T")
        changed = Database(schema)
        changed.add_extent("Ts", [Record(k=1, v=100, f=0.0, s="z")])
        changed.add_extent("Empty", [])
        store = shredded_store(changed, db_path=path)
        assert store.reused is False
        assert (
            _pipeline(changed, backend="sqlite", db_path=path).run_oql(source)
            == 100
        )

    def test_file_backed_corpus_sweep(self, tmp_path):
        dbs = {family: DATABASES[family]() for family in DATABASES}
        for query in CORPUS:
            db = dbs[query.family]
            path = str(tmp_path / f"{query.family}.db")
            memory = _pipeline(db).run_oql(query.oql)
            filed = _pipeline(db, backend="sqlite", db_path=path).run_oql(query.oql)
            assert results_equal(memory, filed), query.name


class TestPlanCacheInteraction:
    def test_switching_backend_and_db_path_mid_session(self, tmp_path):
        from dataclasses import replace

        db = DATABASES["company"]()
        source = "select distinct e.name from e in Employees where e.salary > 70000"
        pipeline = QueryPipeline(db)
        memory = pipeline.run_oql(source)
        memory_again = pipeline.run_oql(source)  # cache hit
        pipeline.options = replace(pipeline.options, backend="sqlite")
        pipeline.plan_cache.clear()
        shredded = pipeline.run_oql(source)
        path = str(tmp_path / "switch.db")
        pipeline.options = replace(pipeline.options, db_path=path)
        pipeline.plan_cache.clear()
        filed = pipeline.run_oql(source)
        pipeline.options = replace(
            pipeline.options, backend="memory", db_path=None
        )
        pipeline.plan_cache.clear()
        back = pipeline.run_oql(source)
        for result in (memory_again, shredded, filed, back):
            assert results_equal(memory, result)

    def test_options_key_plan_cache_without_manual_clear(self, tmp_path):
        # Distinct pipelines (distinct options) never share compiled plans:
        # the cache key includes the options snapshot, so a db_path switch
        # cannot serve a stale store binding.
        db = DATABASES["company"]()
        source = "count( select e from e in Employees )"
        a = _pipeline(db, backend="sqlite").run_oql(source)
        b = _pipeline(
            db, backend="sqlite", db_path=str(tmp_path / "k.db")
        ).run_oql(source)
        assert a == b

    @pytest.fixture
    def lowerings(self, monkeypatch):
        """The plans handed to ``compile_segments`` while the test runs."""
        from repro.backends import shred

        seen: list = []
        lower = shred.compile_segments

        def counted(plan, store, occurring):
            seen.append(plan)
            return lower(plan, store, occurring)

        monkeypatch.setattr(shred, "compile_segments", counted)
        return seen

    def test_a_prepared_plan_is_lowered_once_however_many_rotate(self, lowerings):
        # The store used to keep its own cache of 128 lowered plans, cleared
        # wholesale when full: 130 statements in rotation re-lowered on
        # every execution.  The lowering now lives and dies with its plan.
        db = DATABASES["company"]()
        pipeline = _pipeline(db, backend="sqlite")
        source = "select distinct e.name from e in Employees where e.salary > {}"
        prepared = [pipeline.compile_oql(source.format(n)) for n in range(130)]
        for _ in range(4):
            answers = [compiled.execute(db) for compiled in prepared]
        assert len(lowerings) == 130
        assert answers[129] == _pipeline(db).run_oql(source.format(129))

    def test_a_bind_copy_shares_its_originals_lowering(self, lowerings):
        db = DATABASES["company"]()
        compiled = _pipeline(db, backend="sqlite").compile_oql(
            "select distinct e.name from e in Employees where e.age > :a"
        )
        bound = compiled.bind(a=40)  # copied before anything was lowered
        assert bound.execute(db) == compiled.execute(db, a=40)
        assert compiled.bind(a=50).execute(db) == compiled.execute(db, a=50)
        assert len(lowerings) == 1

    def test_a_changed_database_is_lowered_against_its_new_store(self, lowerings):
        db = _agg_db()
        compiled = _pipeline(db, backend="sqlite").compile_oql(
            "sum( select t.v from t in Ts )"
        )
        assert compiled.execute(db) == 25 and compiled.execute(db) == 25
        assert len(lowerings) == 1
        db.add_extent("Ts", [Record(k=1, v=100, f=0.0, s="z")])
        assert compiled.execute(db) == 100
        assert len(lowerings) == 2

    def test_repl_backend_command_accepts_db_path(self, tmp_path, monkeypatch):
        from repro import cli

        path = tmp_path / "repl.db"
        lines = iter(
            [
                "\\set backend=sqlite",
                "count( select e from e in Employees );",
                "\\set backend=memory",
                "count( select e from e in Employees );",
                "\\quit",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
        out = io.StringIO()
        monkeypatch.setattr("sys.stdout", out)
        assert cli.main(["--db-path", str(path)]) == 0
        text = out.getvalue()
        assert "backend='sqlite'" in text and "backend='memory'" in text
        assert text.count("  60\n") == 2
        assert path.exists()  # the sqlite leg shredded into the start-up file

    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--backend", "sqlite", "--db-path", "/tmp/x.db", "count( select e from e in Employees )"]
        )
        assert args.db_path == "/tmp/x.db"


class TestGovernorInsideSqlite:
    def _big_db(self, rows=400):
        schema = Schema()
        schema.define_class("R", k=INT, v=INT)
        schema.define_extent("Rs", "R")
        db = Database(schema)
        db.add_extent(
            "Rs", [Record(k=i % 7, v=i) for i in range(rows)]
        )
        return db

    def test_budget_trips_mid_select(self):
        # The aggregate produces ONE result row, so fetch-time accounting
        # alone could never trip a budget of 1 mid-query; only the progress
        # handler (ticking every few thousand VM opcodes inside the
        # cross-join SELECT) can — and it must surface as the structured
        # governor error, not sqlite3.OperationalError("interrupted").
        db = self._big_db()
        source = "sum( select a.v + b.v from a in Rs, b in Rs where a.k = b.k )"
        with pytest.raises(BudgetExceeded):
            _pipeline(db, backend="sqlite", max_rows=1).run_oql(source)

    def test_store_stays_usable_after_a_trip(self):
        db = self._big_db()
        source = "sum( select a.v + b.v from a in Rs, b in Rs where a.k = b.k )"
        limited = _pipeline(db, backend="sqlite", max_rows=1)
        with pytest.raises(BudgetExceeded):
            limited.run_oql(source)
        unlimited = _pipeline(db, backend="sqlite")
        reference = _pipeline(db).run_oql(source)
        assert unlimited.run_oql(source) == reference
