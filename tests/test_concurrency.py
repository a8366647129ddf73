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
query (``test_cold_code_cache_*``, ``test_first_fault_*``).
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from corpus import CORPUS
from repro.backends.shred import shredded_store
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.calculus.evaluator import DivisionByZeroError, Evaluator
from repro.calculus.terms import BinOp, Const, Var
from repro.core.pipeline import QueryPipeline
from repro.engine.compile import ExprCompiler, _factory
from repro.engine.governor import CancelToken
from repro.errors import QueryCancelled

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
        reruns its chunk through its own thread's interpreter, and still
        gets its own rows up to the fault and the structured error."""
        compiler = ExprCompiler()
        kernel = compiler.compile_kernel(BinOp("/", Const(12), Var("x")))
        barrier = threading.Barrier(THREADS)

        def run(thread_index: int):
            compiler.activate(Evaluator(company_db), company_db)
            column = [1, 2, 3, 4][: thread_index % 4] + [0, 6]
            barrier.wait(timeout=30)
            values, t, err = kernel.fn({"x": column}, len(column))
            return values, t, type(err), column

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outcomes = list(pool.map(run, range(THREADS)))
        for values, t, error_type, column in outcomes:
            assert t == len(column) - 2
            assert values == [12 / x for x in column[:t]]
            assert error_type is DivisionByZeroError
