"""Parallel partitioned execution (repro.engine.exchange).

Covers the exchange layer end to end: partition coverage and determinism
of the partitioned scans, seed-independent hashing, parallel-vs-serial
agreement across strategies and modes, the shared governor under real
thread contention, cancellation draining the worker pool, and EXPLAIN
surfacing the partition/worker shape.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.datagen import company_database, university_database
from repro.data.schema import INT, Schema, bag_of
from repro.data.values import BagValue, Record, SetValue
from repro.engine.exchange import (
    PGather,
    resolve_workers,
    stable_hash,
    try_parallel_plan,
)
from repro.engine.governor import BudgetExceeded, CancelToken, Governor
from repro.engine.physical import _Context
from repro.errors import QueryCancelled
from repro.testing.oracle import results_equal

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pipelines(db, **kwargs):
    serial = QueryPipeline(db, OptimizerOptions())
    par = QueryPipeline(
        db, OptimizerOptions(parallel=True, num_workers=3, **kwargs)
    )
    return serial, par


def _gather(pipeline: QueryPipeline, db, oql: str) -> PGather:
    physical = pipeline.compile_oql(oql).physical(db)
    assert isinstance(physical, PGather), physical.explain()
    return physical


# ---------------------------------------------------------------------------
# Deterministic set-extent iteration (the PYTHONHASHSEED bugfix)
# ---------------------------------------------------------------------------


class TestSetIterationOrder:
    def test_set_value_iterates_in_insertion_order(self):
        values = ["m", "a", "z", "b", "q"]
        assert list(SetValue(values).elements()) == values

    def test_dedup_keeps_first_occurrence(self):
        assert list(SetValue([3, 1, 3, 2, 1]).elements()) == [3, 1, 2]

    def test_union_preserves_left_then_right_order(self):
        left = SetValue([1, 2])
        right = SetValue([4, 2, 3])
        assert list(left.union(right).elements()) == [1, 2, 4, 3]

    def test_iteration_order_is_hash_seed_independent(self):
        # The same scan printed under two different PYTHONHASHSEED values
        # must produce byte-identical output: extent order is insertion
        # order, never hash-table order.  (Bag results preserve scan
        # order, so any seed-dependence in the set extent would show.)
        script = (
            "from repro.data.database import Database\n"
            "from repro.data.values import Record\n"
            "from repro.core.pipeline import QueryPipeline\n"
            "db = Database()\n"
            "db.add_extent('E', [Record(name=n) for n in "
            "['zeta', 'alpha', 'mu', 'beta', 'kappa', 'omega']], kind='set')\n"
            "result = QueryPipeline(db).run_oql("
            "'select e.name from e in E')\n"
            "print(list(result.elements()))\n"
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = os.path.join(_REPO, "src")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert "zeta" in outputs[0]


# ---------------------------------------------------------------------------
# Seed-independent key hashing
# ---------------------------------------------------------------------------


class TestStableHash:
    def test_equal_numerics_hash_alike(self):
        # 2 == 2.0 == (True + True): equal join keys must co-locate.
        assert stable_hash(2) == stable_hash(2.0)
        assert stable_hash(1) == stable_hash(True)
        assert stable_hash(0) == stable_hash(False)

    def test_distinct_values_spread(self):
        hashes = {stable_hash(i) for i in range(100)}
        assert len(hashes) == 100

    def test_identity_free_records_hash_by_value(self):
        assert stable_hash(Record(a=1, b="x")) == stable_hash(
            Record(b="x", a=1.0)
        )

    def test_strings_and_numbers_do_not_collide(self):
        assert stable_hash("2") != stable_hash(2)


# ---------------------------------------------------------------------------
# Partitioned scans
# ---------------------------------------------------------------------------


class TestPartitioning:
    def test_range_partitions_cover_extent_disjointly(self):
        db = company_database(53, 7, seed=7)
        par = QueryPipeline(
            db, OptimizerOptions(parallel=True, num_workers=4)
        )
        gather = _gather(par, db, "select e.name from e in Employees")
        seen: list = []
        for root in gather._partition_roots:
            scan = root
            while scan.children():
                scan = scan.children()[0]
            # The scan variable is a gensym (its counter is global, so the
            # exact name depends on what compiled earlier) — read it back.
            seen.extend(env[scan.var] for env in scan.rows())
        serial = list(db.extent("Employees").elements())
        assert seen == serial  # partition-order concat == extent order

    def test_auto_worker_count_is_positive_and_capped(self):
        assert 1 <= resolve_workers(0) <= 8
        assert resolve_workers(5) == 5


# ---------------------------------------------------------------------------
# Parallel-vs-serial agreement
# ---------------------------------------------------------------------------

AGREEMENT_QUERIES = (
    # reduce/range: float sum must be bit-identical (element replay).
    "sum( select e.salary / 3.0 from e in Employees )",
    # reduce over a collection.
    "select distinct e.name from e in Employees where e.salary > 1000",
    # nest, hash-aligned: group by the driving scan variable.
    "select struct(d: d.dno, es: (select e.name from e in Employees "
    "where e.dno = d.dno)) from d in Departments",
    # avg: non-reorder-safe monoid forced onto the exact range path.
    "avg( select e.salary from e in Employees )",
)


class TestAgreement:
    @pytest.mark.parametrize("oql", AGREEMENT_QUERIES)
    def test_parallel_matches_serial(self, oql):
        db = company_database(61, 9, seed=1998)
        serial, par = _pipelines(db)
        assert results_equal(serial.run_oql(oql), par.run_oql(oql))

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_worker_count_does_not_change_results(self, workers):
        db = university_database(40, 12, seed=1998)
        oql = (
            "select struct(s: s.name, a: s.age) "
            "from s in Student where s.age > 20"
        )
        serial = QueryPipeline(db).run_oql(oql)
        par = QueryPipeline(
            db, OptimizerOptions(parallel=True, num_workers=workers)
        ).run_oql(oql)
        assert results_equal(serial, par)

    def test_float_sum_is_bit_identical(self):
        # Not just approximately equal: the coordinator replays the exact
        # serial fold, so no reassociation error is tolerated.
        db = company_database(97, 11, seed=23)
        oql = "sum( select e.salary * 1.0000001 from e in Employees )"
        serial, par = _pipelines(db)
        assert serial.run_oql(oql) == par.run_oql(oql)

    def test_quantifiers_fall_back_to_serial(self):
        db = company_database(30, 5, seed=1998)
        _, par = _pipelines(db)
        physical = par.compile_oql(
            "exists e in Employees: e.salary > 0"
        ).physical(db)
        assert not isinstance(physical, PGather)

    def test_explain_surfaces_partitions_and_workers(self):
        db = company_database(30, 5, seed=1998)
        _, par = _pipelines(db)
        gather = _gather(par, db, "select distinct e.name from e in Employees")
        text = gather.explain()
        assert "partitions=3" in text and "workers=3" in text
        assert "PartitionScan" in text

    def test_explain_analyze_reports_gather(self):
        db = company_database(30, 5, seed=1998)
        _, par = _pipelines(db)
        stats = par.run_oql_stats("select distinct e.name from e in Employees")
        assert "Gather(" in stats.report()
        assert "workers=3" in stats.report()


def _bag_database() -> Database:
    """A bag extent holding one object three times, each with a bag of
    ints that repeats a value."""
    schema = Schema()
    schema.define_class("B", k=INT, xs=bag_of(INT))
    schema.define_class("U", k=INT, v=INT)
    schema.define_extent("Bs", "B")
    schema.define_extent("Us", "U")
    db = Database(schema)
    thrice = Record(k=1, xs=BagValue([1, 1, 2])).with_oid(500)
    db.add_extent(
        "Bs",
        [
            thrice,
            Record(k=2, xs=BagValue([3])),
            thrice,
            Record(k=1, xs=BagValue([])),
            thrice,
            Record(k=3, xs=BagValue([1, 1])),
        ],
        kind="bag",
    )
    db.add_extent(
        "Us", [Record(k=1, v=1), Record(k=1, v=2), Record(k=3, v=3), Record(k=2, v=4)]
    )
    return db


class TestOccurrences:
    """Plans over bags keep the exchange: a partitioned scan numbers its
    rows by their position in the whole extent, so the coordinator never
    merges two partitions' groups that only share a local position."""

    @pytest.mark.parametrize(
        "oql, shape",
        [
            (
                "select struct(K: b.k, N: count(select u from u in Us "
                "where u.k = b.k)) from b in Bs",
                "nest/hash, aligned",
            ),
            (
                "select struct(K: b.k, N: count(select x from x in b.xs "
                "where x > 0)) from b in Bs",
                "nest/range",
            ),
            (
                # The tail's nest groups by b: the merge carries b's occurrence.
                "select struct(K: b.k, N: count(select x from x in b.xs where "
                "count(select u from u in Us where u.k = x) > 0)) from b in Bs",
                "nest/range",
            ),
            (
                "select struct(X: x, N: count(select u from u in Us "
                "where u.k = x)) from b in Bs, x in b.xs",
                "nest/range",
            ),
        ],
    )
    def test_bag_plans_partition_and_agree(self, oql, shape):
        db = _bag_database()
        serial, par = _pipelines(db)
        assert f"Gather({shape}," in _gather(par, db, oql).describe()
        reference = QueryPipeline(db, OptimizerOptions(unnest=False)).run_oql(oql)
        assert serial.run_oql(oql) == reference
        assert par.run_oql(oql) == reference


# ---------------------------------------------------------------------------
# The shared governor under contention
# ---------------------------------------------------------------------------


class TestSharedGovernor:
    def test_no_lost_ticks_and_exactly_one_trip(self):
        # 8 workers push exactly the budget through shared local counters:
        # no trip may fire and no unit may be lost.  The next settled unit
        # must trip exactly once across all workers.
        governor = Governor(max_rows=8000, tick_interval=64)
        governor.enable_sharing()
        errors: list = []

        def work():
            try:
                for _ in range(100):  # 100 settles × 10 units
                    governor.tick_many(10)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert governor.ticks == 8000

        trips: list = []

        def over():
            try:
                governor.tick_many(1)
            except BudgetExceeded as exc:
                trips.append(exc)

        over_threads = [threading.Thread(target=over) for _ in range(4)]
        for t in over_threads:
            t.start()
        for t in over_threads:
            t.join()
        # The first settle past the budget trips; later settles re-trip by
        # design (the budget stays exceeded), so *at least* the first
        # raises and none are lost: 8000 + 4 units all accounted.
        assert len(trips) >= 1
        assert governor.ticks == 8004

    def test_sharing_is_idempotent(self):
        governor = Governor(max_rows=10)
        assert not governor.shared
        governor.enable_sharing()
        lock = governor._lock
        governor.enable_sharing()
        assert governor._lock is lock
        assert governor.shared

    def test_budget_trips_identically_serial_and_parallel(self):
        # Work totals are deterministic, so trip-vs-ok must not depend on
        # the execution mode for range-partitioned single-scan plans.
        db = company_database(60, 8, seed=1998)
        oql = "select distinct e.name from e in Employees"
        for budget in (5, 50, 100000):
            outcomes = []
            for options in (
                OptimizerOptions(max_rows=budget),
                OptimizerOptions(max_rows=budget, parallel=True, num_workers=3),
            ):
                try:
                    QueryPipeline(db, options).run_oql(oql)
                    outcomes.append("ok")
                except BudgetExceeded:
                    outcomes.append("tripped")
            assert outcomes[0] == outcomes[1], (budget, outcomes)


# ---------------------------------------------------------------------------
# Cancellation drains the pool
# ---------------------------------------------------------------------------


class TestCancellation:
    def test_cancel_mid_query_raises_and_drains_workers(self):
        db = company_database(400, 16, seed=1998)
        par = QueryPipeline(
            db, OptimizerOptions(parallel=True, num_workers=4)
        )
        oql = (
            "select struct(a: e.name, b: f.name) from e in Employees, "
            "f in Employees where e.salary > f.salary"
        )
        baseline = threading.active_count()
        token = CancelToken()
        timer = threading.Timer(0.005, token.cancel)
        timer.start()
        try:
            with pytest.raises(QueryCancelled):
                compiled = par.compile_oql(oql)
                compiled.execute(db, cancel_token=token)
        finally:
            timer.cancel()
        # PGather's pool context manager joins every worker before the
        # error propagates: no stray exchange threads may survive.
        deadline = time.monotonic() + 5.0
        while threading.active_count() > baseline:
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail(
                    f"worker threads leaked: {threading.active_count()} "
                    f"alive, baseline {baseline}"
                )
            time.sleep(0.01)

    def test_pre_cancelled_token_still_structured(self):
        db = company_database(50, 8, seed=1998)
        par = QueryPipeline(
            db, OptimizerOptions(parallel=True, num_workers=3)
        )
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            par.compile_oql(
                "select distinct e.name from e in Employees"
            ).execute(db, cancel_token=token)


# ---------------------------------------------------------------------------
# Decomposition coverage
# ---------------------------------------------------------------------------


class TestDecomposition:
    def test_seed_rooted_plans_stay_serial(self):
        db = Database()
        db.add_extent("E", [Record(v=1)], kind="set")
        pipeline = QueryPipeline(
            db, OptimizerOptions(parallel=True, num_workers=2)
        )
        # A constant query has no driving extent scan to partition.
        physical = pipeline.compile_oql("1 + 2").physical(db)
        assert not isinstance(physical, PGather)

    def test_join_query_partitions_on_hash_keys(self):
        db = company_database(60, 8, seed=1998)
        _, par = _pipelines(db)
        gather = _gather(
            par,
            db,
            "select struct(d: d.dno, es: (select e.name from e in Employees "
            "where e.dno = d.dno)) from d in Departments",
        )
        assert gather.strategy == "nest"
        assert gather.mode == "hash"
        assert gather.aligned
        text = gather.explain()
        # Both sides of the equi-join are hash-partitioned on the key:
        # the join builds 1/P of its build side per worker.
        assert text.count("[hash") >= 2

    def test_try_parallel_plan_returns_none_for_quantifiers(self):
        db = company_database(20, 4, seed=1998)
        pipeline = QueryPipeline(db)
        compiled = pipeline.compile_oql("for all e in Employees: e.salary > 0")
        assert compiled.optimized is not None
        options = OptimizerOptions(parallel=True, num_workers=2)
        from repro.core.pipeline import _planner_options

        assert (
            try_parallel_plan(
                compiled.optimized, _Context(db), _planner_options(options)
            )
            is None
        )
