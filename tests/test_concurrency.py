"""Pinned regression tests for the concurrency bugs the serving layer
exposed (ISSUE 10 satellites).

Three bug classes, each with the test that would have caught it:

1. the file-backed :class:`ShreddedStore` shared one ``sqlite3``
   connection across threads — interleaved cursors and progress handlers
   corrupted each other's fetches and governor accounting.  Now every
   thread gets its own WAL-mode connection (``test_file_backed_store_*``);
2. plan-cache hit/miss accounting read-modify-wrote counters outside the
   cache lock (the delta-probe pattern in ``run_oql_stats``), losing
   updates under a thread pool.  Counters now only move inside
   ``PlanCache``'s lock and callers read them through ``stats()``
   (``test_plan_cache_*``);
3. cancellation had to be strictly per-query: cancelling one token must
   never trip another in-flight query, even on the same database
   (``test_cancellation_*``; the end-to-end variant lives in
   test_serving.py).

A fourth class guards shared state added since: the process-wide kernel
code cache and the interpreter rerun a faulting chunk takes
(``engine/compile.py``) are reached by every thread that plans or runs a
query (``test_cold_code_cache_*``, ``test_first_fault_*``).  A fifth: the
closed builds a database keeps (``Database.builds``) are published by one
execution and read by others (``TestKeptBuilds``).  A sixth: a compiled
query keeps one physical plan per database state, run by every session at
once, so whatever one execution builds lives in its own
:class:`~repro.engine.physical.Execution`, never on the plan
(``TestOneSharedPlan``).  A seventh: a kernel reads parameters and governor
from the execution it is called with, so two executions of that plan
interleaved on one thread never read each other's
(``TestInterleavedExecutions``).
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from corpus import CORPUS
from kernel_runs import execution
from repro.backends.shred import shredded_store
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.calculus.evaluator import DivisionByZeroError
from repro.calculus.terms import BinOp, Const, Var
from repro.core.pipeline import QueryPipeline
from repro.data.database import BuildMemo
from repro.data.datagen import company_database, university_database
from repro.engine.compile import ExprCompiler, _factory
from repro.engine.governor import CancelToken, Governor
from repro.engine.physical import Execution
from repro.errors import GovernorError, QueryCancelled

THREADS = 8


# ---------------------------------------------------------------------------
# 1. file-backed store under concurrent readers
# ---------------------------------------------------------------------------


class TestFileBackedStoreThreading:
    @pytest.mark.parametrize("family", ["company", "university"])
    def test_corpus_from_eight_threads_one_store(
        self, family, databases, tmp_path
    ):
        """The full corpus slice, executed from 8 threads through ONE
        file-backed pipeline, must agree with single-threaded in-memory
        execution on every query."""
        db = databases[family]
        queries = [q for q in CORPUS if q.family == family]
        references = {q.name: Optimizer(db).run_oql(q.oql) for q in queries}
        options = OptimizerOptions(
            backend="sqlite", db_path=str(tmp_path / f"{family}.db")
        )
        pipeline = QueryPipeline(db, options)
        failures: list[str] = []

        def run_slice(thread_index: int) -> None:
            for query in queries:
                try:
                    got = pipeline.run_oql(query.oql)
                except Exception as exc:  # noqa: BLE001 - collected
                    failures.append(
                        f"thread {thread_index} {query.name}: {exc!r}"
                    )
                    continue
                if got != references[query.name]:
                    failures.append(
                        f"thread {thread_index} {query.name}: wrong result"
                    )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(run_slice, range(THREADS)))
        assert failures == []
        # The regression this pins: file-backed stores must NOT funnel all
        # threads through one connection.
        store = shredded_store(db, db_path=options.db_path)
        assert len(store._connections) > 1, (
            "file-backed store served 8 threads through a single connection"
        )

    def test_in_memory_store_keeps_one_shared_connection(self, company_db):
        """The other side of the policy: a ``:memory:`` database IS its
        connection (a second connection would see an empty database), so
        the in-memory store must keep exactly one, serialized by lock."""
        pipeline = QueryPipeline(company_db, OptimizerOptions(backend="sqlite"))
        reference = Optimizer(company_db).run_oql("count(Employees)")

        def run(_: int):
            return pipeline.run_oql("count(Employees)")

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            results = list(pool.map(run, range(THREADS)))
        assert all(r == reference for r in results)
        store = shredded_store(company_db)
        assert store._shared_connection is not None
        assert len(store._connections) == 1

    def test_store_factory_race_returns_one_store(self, travel_db, tmp_path):
        """Concurrent first calls to shredded_store() on the same database
        must converge on one store (the old check-then-create let every
        thread shred its own — and, file-backed, write the same file)."""
        path = str(tmp_path / "race.db")
        barrier = threading.Barrier(THREADS)

        def build(_: int):
            barrier.wait()
            return shredded_store(travel_db, db_path=path)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            stores = list(pool.map(build, range(THREADS)))
        assert len({id(store) for store in stores}) == 1


# ---------------------------------------------------------------------------
# 2. plan-cache counter integrity under a thread pool
# ---------------------------------------------------------------------------


class TestPlanCacheCounters:
    def test_exact_hit_and_miss_totals_under_stress(self, company_db):
        """Pre-warm K plans, then hammer the cache from 8 threads: every
        lookup must be counted exactly once.  Lost counter updates (the
        unlocked read-modify-write this pins) would make hits fall short
        of the known total."""
        sources = [
            f"select distinct e.name from e in Employees "
            f"where e.salary > {floor}"
            for floor in range(12)
        ]
        pipeline = QueryPipeline(company_db)
        for source in sources:  # K misses, zero hits
            compiled, from_cache = pipeline.compile_oql_cached(source)
            assert compiled is not None and from_cache is False
        rounds = 40

        def hammer(_: int) -> int:
            hits = 0
            for _round in range(rounds):
                for source in sources:
                    _, from_cache = pipeline.compile_oql_cached(source)
                    hits += from_cache
            return hits

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            per_thread = list(pool.map(hammer, range(THREADS)))
        hits, misses, entries = pipeline.plan_cache.stats()
        assert per_thread == [rounds * len(sources)] * THREADS
        assert misses == len(sources)
        assert hits == THREADS * rounds * len(sources)
        assert entries == len(sources)

    def test_run_oql_stats_flags_are_consistent(self, company_db):
        """Each execution's from-cache flag comes from its own lookup, not
        a counter delta: under 8 threads the flags must sum to exactly
        total-executions minus distinct-queries."""
        pipeline = QueryPipeline(company_db)
        source = "select e from e in Employees where e.age > 30"
        per_thread = 25

        def run(_: int) -> int:
            hits = 0
            for _i in range(per_thread):
                stats = pipeline.run_oql_stats(source)
                hits += stats.from_cache
            return hits

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            flags = list(pool.map(run, range(THREADS)))
        total = THREADS * per_thread
        # Exactly the first compile (or the rare concurrent first
        # compiles, each reporting a miss) are non-hits.
        misses_reported = total - sum(flags)
        hits, misses, _ = pipeline.plan_cache.stats()
        assert misses_reported == misses
        assert hits + misses == total
        assert 1 <= misses <= THREADS


# ---------------------------------------------------------------------------
# 3. cancellation isolation (in-process)
# ---------------------------------------------------------------------------


class TestCancellationIsolation:
    SLOW = (
        "count( select struct( a: e1.name, b: e2.name, c: e3.name, "
        "d: e4.name ) from e1 in Employees, e2 in Employees, "
        "e3 in Employees, e4 in Employees )"
    )

    def test_cancelling_one_token_spares_the_other(self, company_db):
        pipeline = QueryPipeline(company_db)
        slow = pipeline.compile_oql(self.SLOW)
        fast = pipeline.compile_oql("count(Employees)")
        reference = fast.execute(company_db)
        token_a = CancelToken()
        outcome: dict[str, object] = {}
        started = threading.Event()

        def doomed() -> None:
            started.set()
            try:
                outcome["value"] = slow.execute(
                    company_db, cancel_token=token_a
                )
            except QueryCancelled as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=doomed)
        worker.start()
        started.wait(5)
        token_a.cancel()
        # While A is being torn down, B (its own token) runs unbothered.
        token_b = CancelToken()
        for _ in range(5):
            assert fast.execute(company_db, cancel_token=token_b) == reference
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert "error" in outcome, "cancelled query ran to completion"
        assert not token_b.cancelled


# ---------------------------------------------------------------------------
# 4. the process-wide code cache and the kernels' error path
# ---------------------------------------------------------------------------


@pytest.fixture()
def eager_thread_switches():
    """Switch threads every few bytecodes, so a race has room to show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestSharedKernelCode:
    def test_cold_code_cache_from_eight_threads(
        self, databases, eager_thread_switches
    ):
        """8 threads each compile and run the whole corpus, all starting on
        an empty code cache: every answer equals the serial one."""
        references = {
            q.name: QueryPipeline(databases[q.family]).run_oql(q.oql)
            for q in CORPUS
        }
        _factory.cache_clear()
        barrier = threading.Barrier(THREADS)

        def sweep(thread_index: int) -> list[str]:
            barrier.wait(timeout=30)
            wrong = []
            # Each thread walks the corpus from its own offset, so the same
            # shape is being compiled by one thread and looked up by another.
            for query in CORPUS[thread_index:] + CORPUS[:thread_index]:
                pipeline = QueryPipeline(databases[query.family])
                if pipeline.run_oql(query.oql) != references[query.name]:
                    wrong.append(f"thread {thread_index}: {query.name}")
            return wrong

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            failures = [w for ws in pool.map(sweep, range(THREADS)) for w in ws]
        assert failures == []
        assert _factory.cache_info().currsize <= _factory.cache_info().maxsize

    def test_first_fault_from_eight_threads_at_once(
        self, company_db, eager_thread_switches
    ):
        """One kernel shared by 8 threads whose first chunks all fault: each
        reruns its chunk through an interpreter of its own execution, and
        still gets its own rows up to the fault and the structured error."""
        kernel = ExprCompiler().compile_kernel(BinOp("/", Const(12), Var("x")))
        barrier = threading.Barrier(THREADS)

        def run(thread_index: int):
            ex = execution(company_db)
            column = [1, 2, 3, 4][: thread_index % 4] + [0, 6]
            barrier.wait(timeout=30)
            values, t, err = kernel.fn(ex, {"x": column}, len(column))
            return values, t, type(err), column

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(run, range(THREADS)))
        for values, t, error_type, column in outcomes:
            assert t == len(column) - 2
            assert values == [12 / x for x in column[:t]]
            assert error_type is DivisionByZeroError


# ---------------------------------------------------------------------------
# 5. closed builds kept by the database, from a cold memo
# ---------------------------------------------------------------------------

#: Prepared group-join queries (and one hash join) over two databases.
KEPT_BUILD_QUERIES = [
    q
    for q in CORPUS
    if q.name in ("agg_max_pred", "group_having", "query_b", "query_e",
                  "double_membership", "setop_except")
]


@pytest.fixture()
def fresh_databases():
    """Databases no other test has run on, so every memo starts cold."""
    return {
        "company": company_database(60, 8, seed=11),
        "university": university_database(40, 12, seed=11),
    }


def _serial_then_cold(databases, queries=KEPT_BUILD_QUERIES):
    """Each query's serial answer; then every memo emptied."""
    references = {
        q.name: QueryPipeline(databases[q.family]).run_oql(q.oql) for q in queries
    }
    for db in databases.values():
        db.builds = BuildMemo()
    return references


class TestKeptBuilds:
    ROUNDS = 5

    def test_two_threads_one_database(self, fresh_databases, eager_thread_switches):
        references = _serial_then_cold(fresh_databases)
        compiled = {
            q.name: QueryPipeline(fresh_databases[q.family]).compile_oql(q.oql)
            for q in KEPT_BUILD_QUERIES
        }
        barrier = threading.Barrier(2)

        def run(thread_index: int) -> list[str]:
            barrier.wait(timeout=30)
            wrong = []
            order = KEPT_BUILD_QUERIES[thread_index:] + KEPT_BUILD_QUERIES[:thread_index]
            for _ in range(self.ROUNDS):
                for q in order:
                    got = compiled[q.name].execute(fresh_databases[q.family])
                    if got != references[q.name]:
                        wrong.append(f"thread {thread_index}: {q.name}")
            return wrong

        with ThreadPoolExecutor(max_workers=2) as pool:
            failures = [w for ws in pool.map(run, range(2)) for w in ws]
        assert failures == []
        assert all(len(db.builds) for db in fresh_databases.values())

    def test_two_sessions_of_a_two_worker_server(self, fresh_databases):
        from repro.server import ServeClient, ServerConfig, ServerThread

        db = fresh_databases["company"]
        queries = [q for q in KEPT_BUILD_QUERIES if q.family == "company"]
        references = _serial_then_cold({"company": db}, queries)
        config = ServerConfig(database=db, workers=2)
        with ServerThread(config) as (host, port):
            barrier = threading.Barrier(2)

            def session(index: int) -> list[str]:
                wrong = []
                with ServeClient(host, port) as client:
                    for q in queries:
                        assert client.prepare(q.name, q.oql).ok
                    barrier.wait(timeout=30)
                    for _ in range(self.ROUNDS):
                        for q in queries[index:] + queries[:index]:
                            reply = client.execute(q.name)
                            if not reply.ok or reply.value() != references[q.name]:
                                wrong.append(f"session {index}: {q.name}")
                return wrong

            with ThreadPoolExecutor(max_workers=2) as pool:
                failures = [w for ws in pool.map(session, range(2)) for w in ws]
        assert failures == []
        assert len(db.builds) > 0


# ---------------------------------------------------------------------------
# 6. one kept physical plan, many executions at once
# ---------------------------------------------------------------------------

#: A parameterised (open) hash-join build, a kept group-join build and a
#: shared nest, each of which builds something per execution.
SHARED_PLAN_QUERY = (
    "select distinct struct( D: d.name, Rich: ( select e.name from e in Employees "
    "where e.dno = d.dno and e.age > :a and e.salary > avg( select u.salary "
    "from u in Employees where u.dno = d.dno ) ) ) from d in Departments"
)


class CancelAfter(CancelToken):
    """A token that reads as cancelled from its *n*-th check on."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    @property
    def cancelled(self) -> bool:
        self.n -= 1
        return self.n < 0


class TestOneSharedPlan:
    AGES = (20, 30, 40, 50)
    ROUNDS = 3

    @pytest.fixture()
    def compiled(self, fresh_databases):
        db = fresh_databases["company"]
        options = OptimizerOptions(batch_size=4)  # many chunks, many settles
        compiled = QueryPipeline(db, options).compile_oql(SHARED_PLAN_QUERY)
        explain = compiled.explain(db)
        assert all(
            op in explain
            for op in ("SharedNest", "GroupJoin", "HashOuterJoin", "Select(_e")
        ), explain
        return compiled, db

    @staticmethod
    def _observe(compiled, db, age, governed, profiled):
        """The answer, the per-operator counts (profiled) and the work
        units (governed) of one execution."""
        token = CancelToken() if governed else None
        stats = compiled.run(db, {"a": age}, token, profile=profiled)
        counts = [
            (op.operator, op.depth, op.rows_produced, op.batches_produced,
             op.batch_rows, op.eval_mode)
            for op in stats.operators
        ]  # fmt: skip
        return repr(stats.result), counts, stats.governor_ticks

    def test_eight_threads_one_plan(self, compiled, eager_thread_switches):
        """Different parameters per thread, a governor on half the runs and
        profiling on some: each answer, profile and work-unit count is the
        serial one, and every run used the one kept plan."""
        compiled, db = compiled
        plan = compiled.physical(db)
        serial = {
            age: self._observe(compiled, db, age, True, True) for age in self.AGES
        }
        assert len({answer for answer, _, _ in serial.values()}) == len(self.AGES)
        barrier = threading.Barrier(THREADS)

        def run(thread_index: int) -> list[str]:
            barrier.wait(timeout=30)
            wrong = []
            for round_index in range(self.ROUNDS):
                for offset, age in enumerate(self.AGES):
                    age = self.AGES[(offset + thread_index) % len(self.AGES)]
                    governed = (thread_index + offset + round_index) % 2 == 0
                    profiled = (thread_index + round_index) % 3 == 0
                    got = self._observe(compiled, db, age, governed, profiled)
                    answer, counts, ticks = serial[age]
                    if (
                        got[0] != answer
                        or got[1] != (counts if profiled else [])
                        or got[2] != (ticks if governed else 0)
                    ):
                        wrong.append(f"thread {thread_index}: a={age}")
            return wrong

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            failures = [w for ws in pool.map(run, range(THREADS)) for w in ws]
        assert failures == []
        assert compiled.physical(db) is plan

    @pytest.mark.parametrize("limit", ["max_rows", "cancel"])
    def test_a_cut_short_execution_leaves_nothing_on_the_plan(self, compiled, limit):
        """Executions that trip or are cancelled at every checkpoint of the
        run — mid-build included — each followed by an unlimited execution
        with other parameters: that one answers in full."""
        compiled, db = compiled
        want = {age: compiled.execute(db, a=age) for age in (20, 50)}
        plan = compiled.physical(db)
        probe = Governor(tick_interval=1)
        plan.value(Execution(plan, {"a": 20}, probe))
        points = probe.ticks if limit == "max_rows" else probe.checkpoints
        assert points > 30
        for n in range(points):
            if limit == "max_rows":
                governor = Governor(max_rows=n, tick_interval=1)
            else:
                governor = Governor(token=CancelAfter(n), tick_interval=1)
            with pytest.raises(GovernorError):
                plan.value(Execution(plan, {"a": 20}, governor))
            assert compiled.execute(db, a=50) == want[50], n
        assert compiled.execute(db, a=20) == want[20]
        assert compiled.physical(db) is plan


# ---------------------------------------------------------------------------
# 7. executions of one plan interleaved on one thread
# ---------------------------------------------------------------------------


class TestInterleavedExecutions:
    """A kernel reads its run — parameters, governor — from the execution
    it is called with, so an execution made while another is still being
    drained on the same thread changes nothing the first one reads."""

    def test_parameters_are_the_executions_own(self):
        db = company_database(20, 3, seed=1)
        compiled = QueryPipeline(db).compile_oql(
            "select e.name from e in Employees where e.age > :a"
        )
        plan = compiled.physical(db)
        stream = plan.children()[0].rows(Execution(plan, {"a": 100}))
        Execution(plan, {"a": 0})
        assert list(stream) == []

    def test_governor_is_the_executions_own(self):
        db = company_database(50, 3, seed=1)
        compiled = QueryPipeline(db).compile_oql(
            "select struct(n: e.name, k: sum(select c.age from c in e.children)) "
            "from e in Employees"
        )
        plan = compiled.physical(db)

        def drained(interleave: bool) -> int:
            governor = Governor(max_rows=10**9)
            ex = Execution(plan, governor=governor)
            stream = plan.children()[0].batches(ex)
            if interleave:
                Execution(plan)
            for _ in stream:
                pass
            return governor.ticks

        alone = drained(False)
        assert alone > 0
        assert drained(True) == alone
