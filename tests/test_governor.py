"""Governor tests: timeouts, budgets, cancellation, and thread-safe serving.

The governor is the pipeline's resource-control layer: every limit must trip
*cooperatively* (mid-stream, from inside the iterator model), fail with a
structured GovernorError, and leave the pipeline fully usable — including
for other threads running queries against the same pipeline at that moment.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.datagen import company_database
from repro.engine.governor import CancelToken, Governor, estimate_bytes
from repro.engine.physical import Execution
from repro.errors import (
    BudgetExceeded,
    GovernorError,
    QueryCancelled,
    QueryTimeout,
)


def _governed(compiled, db, governor):
    """*compiled*'s kept plan for *db* and one execution of it under
    *governor*."""
    physical = compiled.physical(db)
    return physical, Execution(physical, governor=governor)


@pytest.fixture(scope="module")
def db():
    return company_database(num_employees=60, num_departments=8, seed=2)


CROSS = "select e.name from e in Employees, d in Departments"
EQUI = CROSS + " where e.dno = d.dno"
UNNEST = "select c.name from e in Employees, c in e.children"
#: Nested bag result: a collection-monoid nest over an outer-unnest, one
#: generated bag fold per employee, the only buffering in its plan.
NESTED = (
    "select struct(E: e.name, K: (select c.name from c in e.children)) "
    "from e in Employees"
)

#: Per shape: (query, row budget, the most work units one input row can
#: generate in one operator).  Each budget lies above what the scans alone
#: tick, so at the default chunk size the trip fires inside the operator
#: the shape is named after.
ROW_BUDGET_SHAPES = {
    "scan": ("select e.name from e in Employees", 50, 1),
    "cross-join": (CROSS, 100, 60),  # one left row against the whole inner
    "unnest": (UNNEST, 100, 3),  # the largest children collection
    "equi-join": (EQUI, 100, 9),  # the largest department
}


class TestRowBudget:
    def test_trips_with_structured_error(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=50))
        with pytest.raises(BudgetExceeded, match=r"max_rows=50"):
            pipeline.run_oql(CROSS)

    @pytest.mark.parametrize("shape", sorted(ROW_BUDGET_SHAPES))
    def test_trip_report_does_not_depend_on_chunking(self, db, shape):
        """The row-budget contract (repro.engine.governor): the trip fires
        at the first per-chunk settle past the budget, the work past it is
        bounded by what one chunk generates, and the error reads the same
        at every chunk size."""
        oql, budget, fanout = ROW_BUDGET_SHAPES[shape]
        reports = set()
        for size in (1, 7, 1024):
            options = OptimizerOptions(batch_size=size, max_rows=budget)
            pipeline = QueryPipeline(db, options)
            with pytest.raises(BudgetExceeded) as info:
                pipeline.run_oql(oql)
            reports.add(str(info.value))
            governor = Governor(max_rows=budget)
            physical, ex = _governed(pipeline.compile_oql(oql), db, governor)
            with pytest.raises(BudgetExceeded):
                physical.value(ex)
            assert budget < governor.ticks <= budget + size * fanout
        assert len(reports) == 1
        assert f"more than {budget} work units" in reports.pop()

    def test_generous_budget_does_not_trip(self, db):
        limited = QueryPipeline(db, OptimizerOptions(max_rows=10_000_000))
        assert limited.run_oql(CROSS) == QueryPipeline(db).run_oql(CROSS)

    def test_counts_join_pairs_not_output_rows(self, db):
        """A selective join still pays for every pair it considers — the
        budget bounds *work*, so a cross-join blowup that emits almost
        nothing cannot hide from it."""
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=100))
        with pytest.raises(BudgetExceeded):
            # Always-false non-equi predicate over both sides: it cannot be
            # pushed below the join or hashed, so the nested loop considers
            # all 480 pairs while emitting zero rows.
            pipeline.run_oql(
                "select e.name from e in Employees, d in Departments "
                "where e.salary < d.budget - 1000000000"
            )

    def test_interpreted_tier_also_governed(self, db):
        pipeline = QueryPipeline(
            db, OptimizerOptions(unnest=False, max_rows=50)
        )
        with pytest.raises(BudgetExceeded):
            pipeline.run_oql(CROSS)

    def test_pipeline_usable_after_trip(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=50))
        with pytest.raises(BudgetExceeded):
            pipeline.run_oql(CROSS)
        # A query within budget runs fine on the same pipeline afterwards.
        assert pipeline.run_oql("count( select d from d in Departments )") == 8


class TestTimeout:
    def test_expired_deadline_trips(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(timeout=0.0))
        with pytest.raises(QueryTimeout, match="timeout"):
            pipeline.run_oql(CROSS)

    def test_generous_deadline_does_not_trip(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(timeout=60.0))
        assert pipeline.run_oql(CROSS) == QueryPipeline(db).run_oql(CROSS)

    def test_error_carries_query_and_stage(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(timeout=0.0))
        with pytest.raises(QueryTimeout) as info:
            pipeline.run_oql(CROSS)
        assert info.value.source == CROSS
        assert info.value.stage == "execute"


#: The builds that buffer values: (query, the operator that buffers).
#: Each plan holds no other.  A nest over an outer-unnest of its own rows
#: is a generated fold in a ``Map``, charging its kept elements as the
#: nest's groups would be.
BLOCKING_SHAPES = {
    "nested-loop-inner": (CROSS, "NLJoin"),
    "hash-join-table": (EQUI, "HashJoin"),
    "hash-nest-groups": (NESTED, "Map("),
}


@pytest.mark.parametrize("size", [7, 1024])
@pytest.mark.parametrize("shape", sorted(BLOCKING_SHAPES))
class TestMemoryBudget:
    def test_blocking_operator_build_trips(self, db, shape, size):
        # ~100 bytes cannot hold one buffered row, whichever operator
        # buffers it and however its input is chunked.
        oql, operator = BLOCKING_SHAPES[shape]
        pipeline = QueryPipeline(
            db, OptimizerOptions(max_bytes=100, batch_size=size)
        )
        assert operator in pipeline.compile_oql(oql).explain(db)
        with pytest.raises(BudgetExceeded, match="memory budget"):
            pipeline.run_oql(oql)

    def test_generous_budget_does_not_trip(self, db, shape, size):
        oql, _ = BLOCKING_SHAPES[shape]
        pipeline = QueryPipeline(
            db, OptimizerOptions(max_bytes=100_000_000, batch_size=size)
        )
        assert pipeline.run_oql(oql) == QueryPipeline(db).run_oql(oql)

    def test_peak_bytes_reported(self, db, shape, size):
        oql, _ = BLOCKING_SHAPES[shape]
        pipeline = QueryPipeline(
            db, OptimizerOptions(max_bytes=100_000_000, batch_size=size)
        )
        stats = pipeline.run_oql_stats(oql)
        assert stats.governor_peak_bytes > 0
        assert "bytes buffered" in stats.report()


class TestMemoryEstimate:
    def test_estimate_bytes_is_shallow_but_positive(self):
        assert estimate_bytes(0) > 0
        assert estimate_bytes("hello") > 0
        assert estimate_bytes((1, 2, 3)) > estimate_bytes(())


class TestCancellation:
    def test_pre_cancelled_token(self, db):
        token = CancelToken()
        token.cancel()
        pipeline = QueryPipeline(db)
        with pytest.raises(QueryCancelled):
            pipeline.run_oql(CROSS, cancel_token=token)

    def test_cancel_mid_stream_from_another_thread(self, db):
        """A long-running query stops cooperatively when another thread
        flips the token while rows are flowing."""
        token = CancelToken()
        started = threading.Event()
        big = company_database(num_employees=400, num_departments=40, seed=3)
        pipeline = QueryPipeline(big)
        # tick_interval is 1024, so the canceller has many checkpoints to
        # land between on this ~16k-pair cross join.
        query = "select e.name from e in Employees, d in Departments"

        def cancel_soon():
            started.wait(timeout=5)
            token.cancel()

        canceller = threading.Thread(target=cancel_soon)
        canceller.start()
        started.set()
        try:
            with pytest.raises(QueryCancelled):
                # Retry until the cancel lands mid-query (it may need one
                # or two runs for the thread to get scheduled).
                for _ in range(1000):
                    pipeline.run_oql(query, cancel_token=token)
        finally:
            canceller.join()

    def test_token_is_reusable_across_queries(self, db):
        token = CancelToken()
        pipeline = QueryPipeline(db)
        assert pipeline.run_oql(
            "count( select e from e in Employees )", cancel_token=token
        ) == 60
        token.cancel()
        with pytest.raises(QueryCancelled):
            pipeline.run_oql(CROSS, cancel_token=token)


#: ``backend="sqlite"`` shapes that keep a ticking or buffering operator
#: *above* their SQL segments (a ``/`` keeps a join predicate out of SQL,
#: a struct head keeps a nest out, triple nesting keeps an outer-unnest):
#: (query, the operator, a row budget the segments' own fetch ticks stay
#: under, the most work units one input row generates there).
TRIPLE = (
    "select distinct e.name from e in Employees where count( select c "
    "from c in e.children where c.age > min( select d.age "
    "from d in e.manager.children ) ) >= 1"
)
RESIDUAL_SHAPES = {
    "unnest": (TRIPLE, "OuterUnnest(", 100, 3),
    "hash-join": (CROSS + " where e.dno = d.dno / 1", "HashJoin(", 90, 9),
    "nl-join": (CROSS + " where e.dno / 1 < d.dno", "NLJoin(", 100, 8),
    # a nest settles no work units of its own: memory budget only
    "hash-nest": (
        "select struct(E: e.name, K: (select struct(A: c.name) "
        "from c in e.children)) from e in Employees",
        "HashNest(bag",
        None,
        None,
    ),
    # a collection nest over a stream segment (its head lowers, the nest
    # does not), and a reduce lowered whole: the engine's Reduce folds it
    "stream-nest": (NESTED, "HashNest(bag", None, None),
    "reduce": ("select e.name from e in Employees", "Reduce(bag / $v)", None, None),
}
TICKING_SHAPES = ["hash-join", "nl-join", "unnest"]
BUFFERING_SHAPES = ["hash-join", "hash-nest", "nl-join", "stream-nest"]
FOLDING_SHAPES = ["stream-nest", "reduce"]


def _segments(op):
    found = [op] if op.describe().startswith("SqlSegment") else []
    for child in op.children():
        found.extend(_segments(child))
    return found


class TestResidualOperatorsAboveSqlSegments:
    """One executor: the operators the SQL lowering leaves above a segment
    are governed exactly as on the memory backend."""

    def _pipeline(self, db, shape, **options):
        oql, operator, _, _ = RESIDUAL_SHAPES[shape]
        pipeline = QueryPipeline(db, OptimizerOptions(backend="sqlite", **options))
        explain = pipeline.compile_oql(oql).explain(db)
        assert f"[py]  {operator}" in explain and "[sql" in explain
        return pipeline, oql

    @pytest.mark.parametrize("shape", TICKING_SHAPES)
    def test_row_budget_trips_in_the_residual_operator(self, db, shape):
        _, _, budget, fanout = RESIDUAL_SHAPES[shape]
        reports = set()
        for size in (1, 7, 1024):
            pipeline, oql = self._pipeline(db, shape, batch_size=size, max_rows=budget)
            for runner in (pipeline, QueryPipeline(db, OptimizerOptions(max_rows=budget))):
                with pytest.raises(BudgetExceeded) as info:
                    runner.run_oql(oql)
                reports.add(str(info.value))
            governor = Governor(max_rows=budget)
            physical, ex = _governed(pipeline.compile_oql(oql), db, governor)
            with pytest.raises(BudgetExceeded):
                physical.value(ex)
            # Every SELECT drained within budget: the settle that crossed
            # it belongs to the operator above.
            segments = _segments(physical)
            assert segments and all(s.flat_query(ex) is not None for s in segments)
            assert sum(ex.counts[s].rows_produced for s in segments) < budget
            assert budget < governor.ticks <= budget + size * fanout
        assert len(reports) == 1
        assert f"more than {budget} work units" in reports.pop()

    @pytest.mark.parametrize("size", [1, 7, 1024])
    @pytest.mark.parametrize("shape", BUFFERING_SHAPES)
    def test_memory_budget_trips_in_the_residual_build(self, db, shape, size):
        pipeline, oql = self._pipeline(db, shape, batch_size=size, max_bytes=100)
        # SQL segments charge nothing, so only a residual build can trip.
        with pytest.raises(BudgetExceeded, match="memory budget") as info:
            pipeline.run_oql(oql)
        with pytest.raises(BudgetExceeded) as memory:
            QueryPipeline(
                db, OptimizerOptions(batch_size=size, max_bytes=100)
            ).run_oql(oql)
        assert str(info.value) == str(memory.value)

    @pytest.mark.parametrize("size", [1, 7, 1024])
    @pytest.mark.parametrize("shape", TICKING_SHAPES)
    def test_cancel_lands_in_the_residual_operator(self, db, shape, size):
        pipeline, oql = self._pipeline(db, shape, batch_size=size)
        token = CancelToken()
        governor = Governor(token=token, tick_interval=1)
        physical, ex = _governed(pipeline.compile_oql(oql), db, governor)
        # The cancel arrives as the last SELECT finishes draining; the next
        # checkpoint anyone reaches is a residual operator's settle.
        last = _segments(physical)[0]
        fetch = last._fetch

        def fetch_then_cancel(ex):
            rows = fetch(ex)
            token.cancel()
            return rows

        last._fetch = fetch_then_cancel
        with pytest.raises(QueryCancelled):
            physical.value(ex)
        assert last.flat_query(ex) is not None

    @pytest.mark.parametrize("size", [1, 7, 1024])
    @pytest.mark.parametrize("shape", FOLDING_SHAPES)
    def test_a_fold_above_a_segment_trips_as_on_memory(self, db, shape, size):
        # The fold settles no work units: the row budget and a cancel trip
        # while the rows it folds arrive — the segment's fetch here, the
        # scan on memory — with the same error either way.
        pipeline, oql = self._pipeline(db, shape, batch_size=size, max_rows=10)
        memory = QueryPipeline(db, OptimizerOptions(batch_size=size, max_rows=10))
        errors = []
        for runner in (pipeline, memory):
            with pytest.raises(BudgetExceeded) as info:
                runner.run_oql(oql)
            errors.append(str(info.value))
            token = CancelToken()
            token.cancel()
            governor = Governor(token=token, tick_interval=1)
            physical, ex = _governed(runner.compile_oql(oql), db, governor)
            with pytest.raises(QueryCancelled):
                physical.value(ex)
        assert errors[0] == errors[1] and "more than 10 work units" in errors[0]


class TestLoweredAggregateUnderARowBudget:
    """The sqlite contract: a lowered segment's work units are the rows it
    returns plus one per 2 000 SQLite VM opcodes (its progress handler).  A
    fully lowered aggregate returns one row, so the budget that trips the
    memory backend's scan lets it answer; rows or opcodes past the budget
    trip it."""

    COUNT = "count( select e from e in Employees )"
    NAMES = "select e.name from e in Employees"
    TRIPLES = "count( select e from e in Employees, d in Departments, f in Employees )"

    def _ticks(self, pipeline, db, oql):
        governor = Governor(max_rows=10**9)
        physical, ex = _governed(pipeline.compile_oql(oql), db, governor)
        physical.value(ex)
        return governor.ticks

    def test_memory_charges_the_scan(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=5))
        for oql in (self.COUNT, self.NAMES):
            with pytest.raises(BudgetExceeded, match="more than 5 work units"):
                pipeline.run_oql(oql)
        assert self._ticks(pipeline, db, self.COUNT) == 60

    def test_sqlite_charges_rows_returned_and_opcodes(self, db):
        from repro.backends import shred

        assert shred._PROGRESS_OPCODES == 2000
        pipeline = QueryPipeline(db, OptimizerOptions(backend="sqlite", max_rows=5))
        assert pipeline.run_oql(self.COUNT) == 60
        assert self._ticks(pipeline, db, self.COUNT) == 1  # one row, few opcodes
        with pytest.raises(BudgetExceeded, match="more than 5 work units"):
            pipeline.run_oql(self.NAMES)  # 60 rows returned
        with pytest.raises(BudgetExceeded, match="more than 5 work units"):
            pipeline.run_oql(self.TRIPLES)  # one row, 28 800 joined in SQL
        assert self._ticks(pipeline, db, self.TRIPLES) > 10


class TestGovernorUnit:
    def test_no_limits_never_trips(self):
        governor = Governor()
        for _ in range(5000):
            governor.tick()
        governor.check()
        assert governor.ticks == 5000

    def test_row_budget_exact(self):
        governor = Governor(max_rows=10)
        with pytest.raises(BudgetExceeded):
            for _ in range(11):
                governor.tick()
        assert governor.ticks == 11

    def test_charge_and_release(self):
        governor = Governor(max_bytes=1000)
        governor.charge(600)
        governor.release(600)
        governor.charge(600)  # fine again: budget tracks live bytes
        assert governor.peak_bytes == 600
        with pytest.raises(BudgetExceeded):
            governor.charge(600)

    def test_all_errors_are_governor_errors(self):
        assert issubclass(QueryTimeout, GovernorError)
        assert issubclass(BudgetExceeded, GovernorError)
        assert issubclass(QueryCancelled, GovernorError)


class TestConcurrentServing:
    """One pipeline object, many threads — the thread-safety contract."""

    QUERIES = [
        "select distinct e.name from e in Employees where e.salary > 30000",
        "select struct(D: d.name, C: count(select e from e in Employees "
        "where e.dno = d.dno)) from d in Departments",
        "sum( select e.salary from e in Employees )",
        "select e.name from e in Employees, d in Departments "
        "where e.dno = d.dno and d.budget > 0",
        "count( select d from d in Departments )",
        "select e.name from e in Employees order by value",
    ]

    def test_concurrent_corpus_matches_sequential(self, db):
        pipeline = QueryPipeline(db)
        expected = [pipeline.run_oql(q) for q in self.QUERIES]
        jobs = self.QUERIES * 8  # hammer the plan cache with repeats

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(pipeline.run_oql, jobs))

        for i, result in enumerate(results):
            assert result == expected[i % len(self.QUERIES)]
        # Repeats must have been served from the (locked) plan cache.
        assert pipeline.plan_cache.hits >= len(jobs) - len(self.QUERIES)

    def test_concurrent_queries_with_params(self, db):
        pipeline = QueryPipeline(db)
        source = "select e.name from e in Employees where e.dno = :d"
        expected = {d: pipeline.run_oql(source, d=d) for d in range(8)}

        def run(d):
            return d, pipeline.run_oql(source, d=d)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for d, result in pool.map(run, list(range(8)) * 5):
                assert result == expected[d]

    def test_one_governed_failure_leaves_others_unaffected(self, db):
        """A tripping query on a shared pipeline must not poison the
        concurrent queries running beside it."""
        pipeline = QueryPipeline(db)
        good = "select distinct e.name from e in Employees"
        expected = pipeline.run_oql(good)
        token = CancelToken()
        token.cancel()

        def doomed():
            try:
                pipeline.run_oql(CROSS, cancel_token=token)
            except QueryCancelled:
                return "cancelled"
            return "completed"

        def fine():
            return pipeline.run_oql(good)

        with ThreadPoolExecutor(max_workers=8) as pool:
            doomed_futures = [pool.submit(doomed) for _ in range(10)]
            fine_futures = [pool.submit(fine) for _ in range(10)]
            assert all(f.result() == "cancelled" for f in doomed_futures)
            assert all(f.result() == expected for f in fine_futures)


class TestGovernorStats:
    def test_stats_report_work_units(self, db):
        pipeline = QueryPipeline(db, OptimizerOptions(max_rows=10_000_000))
        stats = pipeline.run_oql_stats("select e.name from e in Employees")
        assert stats.governor_ticks > 0
        assert "work units" in stats.report()

    def test_ungoverned_stats_stay_zero(self, db):
        stats = QueryPipeline(db).run_oql_stats(
            "select e.name from e in Employees"
        )
        assert stats.governor_ticks == 0
        assert "work units" not in stats.report()

