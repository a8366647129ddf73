"""Chunk-at-a-time execution: chunk plumbing, kernels, interpreter parity.

The chunked engine's contract is that it is *observationally identical* to
the calculus interpreter evaluating the same query row by row: same
results, same structured errors at the same rows, and governor work-unit
totals that do not depend on the chunk size.  These tests pin that
contract directly — engine vs the oracle's ``calculus-raw`` path on the
same database — plus the chunk-boundary mechanics (partial chunks, tiny and
non-divisible batch sizes, empty inputs), the kernel truncation protocol,
and the EXPLAIN ANALYZE chunk accounting.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.algebra.operators import Reduce, Scan
from repro.calculus.evaluator import Evaluator
from repro.calculus.terms import Apply, BinOp, Const, Lambda, Var, path
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.datagen import university_database
from repro.data.values import NULL, CollectionValue, Record
from repro.engine.batch import DEFAULT_BATCH_SIZE, Chunk, chunk_rows
from repro.engine.compile import ExprCompiler
from repro.engine.executor import run_with_stats
from repro.engine.planner import PlannerOptions
from repro.errors import QueryError
from repro.testing.oracle import PATHS, results_equal

#: The reference semantics: direct evaluation of the translated calculus
#: term by the tree-walking interpreter (no unnesting, no physical plan).
calculus_raw = dict(PATHS)["calculus-raw"]


def run_both(db, oql, batch_size=DEFAULT_BATCH_SIZE, options=None, **params):
    """Execute *oql* on the chunked engine and through the calculus
    interpreter; assert agreement."""
    options = OptimizerOptions(batch_size=batch_size, **(options or {}))
    engine = QueryPipeline(db, options).run_oql(oql, **params)
    reference = calculus_raw(oql, params, db)
    assert results_equal(engine, reference), (
        f"engine/interpreter disagreement on {oql!r}"
    )
    return engine


def both_fail(db, oql, batch_size=DEFAULT_BATCH_SIZE):
    """Both the engine and the interpreter must fail with a structured
    QueryError; return the pair."""
    with pytest.raises(QueryError) as eexc:
        QueryPipeline(db, OptimizerOptions(batch_size=batch_size)).run_oql(oql)
    with pytest.raises(QueryError) as rexc:
        calculus_raw(oql, {}, db)
    return eexc.value, rexc.value


# ---------------------------------------------------------------------------
# Chunk plumbing
# ---------------------------------------------------------------------------


class TestChunkRows:
    def test_chunks_are_never_empty_and_sizes_add_up(self):
        rows = [{"x": i} for i in range(10)]
        chunks = list(chunk_rows(iter(rows), 3))
        assert [c.length for c in chunks] == [3, 3, 3, 1]
        assert all(c.length > 0 for c in chunks)
        assert [e for c in chunks for e in c.envs()] == rows

    def test_lazy_error_delivery_flushes_partial_chunk_first(self):
        def rows():
            yield {"x": 1}
            yield {"x": 2}
            raise ValueError("poison")

        stream = chunk_rows(rows(), 5)
        chunk = next(stream)
        assert chunk.length == 2 and chunk.columns["x"] == [1, 2]
        with pytest.raises(ValueError, match="poison"):
            next(stream)

    def test_env_roundtrip(self):
        envs = [{"a": i, "b": -i} for i in range(4)]
        chunk = Chunk.from_envs(envs)
        assert chunk.length == 4
        assert chunk.env_at(2) == envs[2]
        assert list(chunk.envs()) == envs

    def test_from_envs_rejects_empty_input(self):
        # Chunks are never empty: a producer with nothing to emit must skip
        # the yield, not construct a zero-row chunk a kernel would choke on.
        with pytest.raises(ValueError, match="at least one row"):
            Chunk.from_envs([])

    def test_key_set_mismatch_fails_loud_on_missing_column(self):
        rows = iter([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
        stream = chunk_rows(rows, 10)
        with pytest.raises(ValueError, match="binds columns"):
            list(stream)

    def test_key_set_mismatch_fails_loud_on_extra_column(self):
        # Same column count but different names must not silently borrow
        # the first row's schema.
        rows = iter([{"a": 1}, {"a": 2, "b": 3}])
        stream = chunk_rows(rows, 10)
        with pytest.raises(ValueError, match="binds columns"):
            list(stream)


# ---------------------------------------------------------------------------
# Kernels: a full operator/value sweep against the calculus interpreter
# ---------------------------------------------------------------------------


class TestKernelSweep:
    #: Every scalar shape the engine's 3VL arithmetic can meet, NULL
    #: included; the cross product drives every kernel branch (NULL
    #: propagation, scalar comparison, identity comparison, zero division,
    #: type faults) through the comprehension form and its interpreter rerun.
    VALUES = (0, 1, 2, 2.5, -3, NULL, True, False, "s", "t")

    @pytest.mark.parametrize(
        "op", ["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=",
               "and", "or"]
    )
    def test_kernel_matches_interpreter(self, op):
        term = BinOp(op, Var("x"), Var("y"))
        evaluator, compiler = Evaluator(Database()), ExprCompiler()
        # As _Context always does: the error path is the interpreter.
        compiler.activate(evaluator, None)
        kernel = compiler.compile_kernel(term)
        interpret = evaluator.evaluate
        pairs = list(product(self.VALUES, repeat=2))
        cols = {"x": [p[0] for p in pairs], "y": [p[1] for p in pairs]}
        values, t, err = kernel.fn(cols, len(pairs))
        assert len(values) == t
        for i in range(t):
            expect = interpret(term, {"x": pairs[i][0], "y": pairs[i][1]})
            assert values[i] is expect or values[i] == expect or (
                expect is NULL and values[i] is NULL
            ), f"{op}: row {i} {pairs[i]} -> {values[i]!r} != {expect!r}"
        if t < len(pairs):
            # The kernel truncated: the interpreter must fault on the very
            # same operand pair, with the very same error class.
            assert err is not None
            with pytest.raises(type(err)):
                interpret(term, {"x": pairs[t][0], "y": pairs[t][1]})

    def test_predicate_kernel_three_valued_filter(self):
        # x > y under 3VL: NULL operands filter as False, never raise.
        compiler = ExprCompiler()
        term = BinOp(">", Var("x"), Const(1))
        kernel = compiler.compile_predicate_kernel(term)
        col = [0, 1, 2, NULL, 5]
        flags, t, err = kernel.fn({"x": col}, len(col))
        assert err is None and t == len(col)
        assert flags == [False, False, True, False, True]


# ---------------------------------------------------------------------------
# 3VL and NULL handling through full queries
# ---------------------------------------------------------------------------


def _null_db() -> Database:
    db = Database()
    db.add_extent(
        "T",
        [
            Record(a=1, b=10),
            Record(a=NULL, b=20),
            Record(a=3, b=NULL),
            Record(a=NULL, b=NULL),
            Record(a=5, b=50),
            Record(a=0, b=60),
        ],
    )
    return db


NULL_QUERIES = (
    "select t.a + t.b from t in T",
    "select t.a * 2 - t.b from t in T",
    "select t from t in T where t.a > 2",
    "select t from t in T where t.a > 2 and t.b < 55",
    "select t from t in T where t.a > 2 or t.b > 15",
    "select t from t in T where not (t.a = 3)",
    "select struct(s: t.a + t.b, p: t.a) from t in T where t.b >= 10",
    "sum( select t.a from t in T where t.b > 5 )",
    "count( select t from t in T where t.a = t.a )",
    "exists t in T: t.a = 5",
    "for all t in T: t.b > 5",
)


class TestNullQueries:
    @pytest.mark.parametrize("oql", NULL_QUERIES)
    @pytest.mark.parametrize("size", [1, 2, 7, DEFAULT_BATCH_SIZE])
    def test_engine_agrees_with_interpreter_under_nulls(self, oql, size):
        run_both(_null_db(), oql, batch_size=size)


# ---------------------------------------------------------------------------
# Error truncation semantics
# ---------------------------------------------------------------------------


class TestErrorTruncation:
    def _db(self, values) -> Database:
        # A *list* extent: these tests pin down where in the scan order the
        # fault sits relative to the witness.
        db = Database()
        db.add_extent("N", [Record(v=v) for v in values], kind="list")
        return db

    @pytest.mark.parametrize("size", [1, 3, DEFAULT_BATCH_SIZE])
    def test_mid_stream_division_fault_on_both_paths(self, size):
        # The zero sits mid-extent: the kernel truncates its chunk at that
        # row and the rerun raises the same structured error the
        # interpreter raises.
        db = self._db([5, 4, 0, 2, 1])
        b, r = both_fail(db, "select 100 / n.v from n in N", batch_size=size)
        assert "zero" in str(b) and "zero" in str(r)
        assert type(b) is type(r)

    def test_exists_witness_before_fault_succeeds_on_both_paths(self):
        # The witness (v = 5, where 100/5 > 10) precedes the poison row
        # inside the same chunk: `some` merges the kernel's truncated
        # prefix in stream order and short-circuits before the captured
        # error would surface — exactly the interpreter's laziness.
        db = self._db([5, 0, 3])
        assert run_both(db, "exists n in N: 100 / n.v > 10") is True

    def test_exists_witness_after_fault_fails_on_both_paths(self):
        db = self._db([50, 0, 5])
        both_fail(db, "exists n in N: 100 / n.v > 10")

    def test_witness_in_earlier_chunk_skips_poisoned_chunk(self):
        # With two-row chunks the witness chunk completes before the
        # poisoned row's chunk is ever pulled: short-circuit consumption
        # must not force the fault.
        db = self._db([5, 6, 7, 0])
        assert run_both(db, "exists n in N: 100 / n.v > 10",
                        batch_size=2) is True


# ---------------------------------------------------------------------------
# Governor work-unit parity
# ---------------------------------------------------------------------------


DRAINING_QUERIES = (
    "sum( select e.salary from e in Employees )",
    "select e.name from e in Employees where e.salary > 30000",
    "count( select struct(e: e.name, d: d.name) from e in Employees, "
    "d in Departments where e.dno = d.dno )",
    "select struct( D: d.dno, N: count( select e from e in Employees "
    "where e.dno = d.dno ) ) from d in Departments",
)


class TestGovernorParity:
    @pytest.mark.parametrize("oql", DRAINING_QUERIES)
    def test_work_units_do_not_depend_on_chunk_size(self, oql, company_db):
        # A timeout configures a governor without a row budget, so every
        # operator ticks and nothing trips; draining queries (no
        # short-circuit) must account identical totals however the stream
        # is chunked.
        def ticks(size):
            stats = QueryPipeline(
                company_db, OptimizerOptions(timeout=3600.0, batch_size=size)
            ).run_oql_stats(oql)
            assert results_equal(stats.result, calculus_raw(oql, {}, company_db))
            return stats.governor_ticks

        assert ticks(1) == ticks(7) == ticks(DEFAULT_BATCH_SIZE) > 0


# ---------------------------------------------------------------------------
# Batch boundaries
# ---------------------------------------------------------------------------


BOUNDARY_QUERIES = (
    "select e.name from e in Employees where e.salary > 30000",
    "select struct(e: e.name, c: c.name) from e in Employees, "
    "c in e.children where c.age > 5",
    "select distinct d.name from e in Employees, d in Departments "
    "where e.dno = d.dno",
    "avg( select e.salary from e in Employees where e.age < 50 )",
)


class TestBoundaries:
    @pytest.mark.parametrize("oql", BOUNDARY_QUERIES)
    @pytest.mark.parametrize("size", [1, 7])
    def test_tiny_and_non_divisible_chunks(self, oql, size, company_db):
        run_both(company_db, oql, batch_size=size)

    def test_empty_extent(self):
        db = Database()
        db.add_extent("E", [Record(x=1)])
        db.add_extent("F", [])
        result = run_both(db, "select f.x from f in F")
        assert isinstance(result, CollectionValue) and len(result) == 0
        assert run_both(db, "count( select f from f in F )") == 0

    def test_interpreter_fallback_nodes_run_inside_chunks(self):
        # A lambda application is outside the emitter's subset: the head
        # kernel hands that subtree to the AST interpreter per row, and the
        # operators around it still exchange chunks and still agree.
        db = Database()
        db.add_extent("R", [Record(k=i) for i in range(10)])
        head = BinOp("+", Apply(Lambda("v", Var("v")), path("r", "k")), Const(1))
        stats = run_with_stats(
            Reduce(Scan("R", "r"), "sum", head), db, PlannerOptions(batch_size=3)
        )
        assert stats.result == sum(range(10)) + 10
        root, scan = stats.operators
        assert root.eval_mode == "mixed"
        assert scan.batches_produced == 4

    # The operators below had no chunk-native body before the row protocol
    # went away; each is driven across chunk boundaries here.

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("dno", [3, NULL, 999])
    def test_index_scan(self, size, dno):
        db = Database()
        rows = [Record(name=f"e{i}", dno=i % 4) for i in range(30)]
        db.add_extent("Employees", rows + [Record(name="nobody", dno=NULL)])
        db.create_index("Employees", "dno")
        oql = "select e.name from e in Employees where e.dno = :d"
        plan = QueryPipeline(db).compile_oql(oql).explain(db)
        assert "IndexScan" in plan
        result = run_both(db, oql, batch_size=size, d=dno)
        # A NULL key matches nothing — not the NULL-attributed object the
        # index files under the NULL key.
        assert len(result) == (7 if dno == 3 else 0)

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize(
        "oql",
        [
            "1 + 2",
            "select distinct 1 from e in Employees",
            "count( select e from e in Employees ) + 1",
            "struct( a: 1, b: max( select e.age from e in Employees ) )",
        ],
    )
    def test_seed_driven_and_constant_queries(self, oql, size, company_db):
        run_both(company_db, oql, batch_size=size)

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize(
        "oql",
        [
            "select struct(e: e.name, d: d.name) from e in Employees, "
            "d in Departments where e.dno = d.dno",
            "select struct(e: e.name, d: d.name) from e in Employees, "
            "d in Departments where e.dno = d.dno and e.age > d.dno",
            "select struct( D: d.dno, N: count( select e from e in Employees "
            "where e.dno = d.dno ) ) from d in Departments",
        ],
    )
    def test_equi_joins(self, oql, size, company_db):
        plan = QueryPipeline(company_db).compile_oql(oql).explain(company_db)
        assert "HashJoin" in plan or "GroupJoin" in plan
        run_both(company_db, oql, batch_size=size)

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize(
        "oql",
        [
            "( select distinct s.id from s in Student where s.age > 25 ) union "
            "( select distinct t.id from t in Transcript where t.grade >= 3.5 )",
            "sum( select t.grade from t in Transcript ) / "
            "count( select s from s in Student )",
        ],
    )
    def test_eval_roots(self, oql, size):
        db = university_database(num_students=20, num_courses=9, seed=7)
        assert QueryPipeline(db).compile_oql(oql).explain(db).startswith("Eval")
        run_both(db, oql, batch_size=size)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE chunk accounting
# ---------------------------------------------------------------------------


class TestExplainAnalyze:
    def test_report_carries_batch_annotations(self, company_db):
        stats = QueryPipeline(company_db).run_oql_stats(
            "select struct(e: e.name, d: d.name) from e in Employees, "
            "d in Departments where e.dno = d.dno"
        )
        report = stats.report()
        assert "batches=" in report and "batch_rows=" in report

    @pytest.mark.parametrize("size", [1, 7, DEFAULT_BATCH_SIZE])
    def test_root_accounting_balances(self, size, company_db):
        oql = ("select struct(e: e.name, d: d.name) from e in Employees, "
               "d in Departments where e.dno = d.dno")
        stats = QueryPipeline(
            company_db, OptimizerOptions(batch_size=size)
        ).run_oql_stats(oql)
        root = stats.operators[0]
        assert root.rows_produced == len(stats.result)
        # Every chunked operator's chunk row total matches the rows it
        # produced — chunks are an accounting view, not a second stream.
        chunked = [op for op in stats.operators if op.batches_produced]
        assert chunked, "batched execution produced no chunks"
        for op in chunked:
            assert op.batch_rows == op.rows_produced

    def test_chunk_count_respects_batch_size(self, company_db):
        oql = "select e.name from e in Employees"
        stats = QueryPipeline(
            company_db, OptimizerOptions(batch_size=7)
        ).run_oql_stats(oql)
        scan = next(
            op for op in stats.operators if op.operator.startswith("Scan")
        )
        expected = -(-scan.rows_produced // 7)  # ceil division
        assert scan.batches_produced == expected


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_cached_reexecution_stays_batched(self, company_db):
        pipeline = QueryPipeline(company_db)
        oql = "select e.name from e in Employees where e.salary > 30000"
        first = pipeline.run_oql_stats(oql)
        second = pipeline.run_oql_stats(oql)
        assert second.from_cache
        assert results_equal(first.result, second.result)
        assert any(op.batches_produced for op in second.operators)
