"""A closed build side is built once per database state.

A hash join's or group-join's build side that reads one extent and nothing
of the query is kept by the database (``Database.builds``, a
:class:`~repro.data.database.BuildMemo`) and reused by every later
execution against the same state.  A reused build must be invisible: the
answer, the governor's work units and byte peaks, where and how a budget
trips, and EXPLAIN ANALYZE's per-operator counts are those of a cold run.
What must never be kept: a build that holds a fault (its error would carry
another query's source), a build side that reads a parameter or an outer
variable, and a build cut short by a trip or a cancel.
"""

from __future__ import annotations

import pytest

from corpus import CORPUS
from repro.algebra.operators import Scan, Select, Unnest
from repro.calculus.monoids import monoid as lookup_monoid
from repro.calculus.terms import (
    TRUE, BinOp, Comprehension, Const, Filter, Generator, Param, Proj, Var,
)
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import BuildMemo, Database
from repro.data.datagen import (
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)
from repro.data.schema import INT, STRING, Schema
from repro.data.values import NULL, Record
from repro.engine.governor import CancelToken, Governor
from repro.engine.physical import (
    Execution, PGroupJoin, PHashJoin, PReduce, PScan, _Context,
)
from repro.engine.planner import closed_build
from repro.errors import ExecutionError, GovernorError, QueryCancelled, QueryTimeout

#: The benchmark's scale S (``benchmarks/e2e/workloads.py``), seeded.
SCALE_S = {
    "company": company_database(60, 8, seed=1998),
    "university": university_database(40, 12, seed=1998),
    "travel": travel_database(6, 5, seed=1998),
    "ab": ab_database(30, 40, seed=1998),
    "auction": auction_database(40, 25, seed=1998),
}

UNLIMITED = {"max_rows": 10**12, "max_bytes": 10**15}

AGG_MAX = (
    "select distinct e.name from e in Employees where e.salary >= max( "
    "select u.salary from u in Employees where u.dno = e.dno )"
)


def _cold(db):
    """*db* with an empty memo: its next closed builds run afresh."""
    db.builds = BuildMemo()
    return db


def _operators(physical):
    ops = [physical]
    for op in ops:
        ops += op.children()
    return ops


def _observe(compiled, db, **limits):
    """One execution under a governor with *limits*: the answer (or the
    trip's class and text), the governor's counters and every operator's
    EXPLAIN ANALYZE counts."""
    governor = Governor(**limits) if limits else None
    physical = compiled.physical(db)
    ex = Execution(physical, governor=governor, profile=True)
    try:
        outcome = ("ok", repr(physical.value(ex)))
    except GovernorError as exc:
        outcome = (type(exc).__name__, exc.message)
    counters = (
        None
        if governor is None
        else (governor.ticks, governor.bytes_charged, governor.peak_bytes,
              governor.checkpoints)
    )
    counts = []
    for op in _operators(physical):
        own = ex.counts[op]
        counts.append(
            (op.describe(), own.rows_produced, own.batches_produced, own.batch_rows)
        )
    return outcome, counters, counts


def _closed_ops(compiled, db):
    return [
        op
        for op in _operators(compiled.physical(db))
        if isinstance(op, (PHashJoin, PGroupJoin)) and op.reuse_key is not None
    ]


class TestAWarmRunIsACold:
    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_answer_governor_and_counts(self, query):
        db = _cold(SCALE_S[query.family])
        compiled = QueryPipeline(db).compile_oql(query.oql)
        cold = _observe(compiled, db, **UNLIMITED)
        hits = db.builds.hits
        warm = _observe(compiled, db, **UNLIMITED)
        assert warm == cold
        assert db.builds.hits - hits == len(_closed_ops(compiled, db))

    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_a_fresh_compile_reuses_the_builds(self, query):
        """Every compile names its variables afresh; a key names none of
        them, and an entry holds its columns by position, not by name."""
        db = _cold(SCALE_S[query.family])
        cold = _observe(QueryPipeline(db).compile_oql(query.oql), db, **UNLIMITED)
        entries, hits = len(db.builds), db.builds.hits
        again = QueryPipeline(db).compile_oql(query.oql)
        warm = _observe(again, db, **UNLIMITED)
        assert warm[:2] == cold[:2]
        assert [c[1:] for c in warm[2]] == [c[1:] for c in cold[2]]
        assert len(db.builds) == entries
        assert db.builds.hits - hits == len(_closed_ops(again, db))

    @pytest.mark.parametrize("query", CORPUS, ids=lambda q: q.name)
    def test_an_ungoverned_build_replays_for_a_governed_run(self, query):
        """The entry an ungoverned run left charges bytes as a governed cold
        run does: the recorder estimates them whether or not a budget is set."""
        db = _cold(SCALE_S[query.family])
        compiled = QueryPipeline(db).compile_oql(query.oql)
        _observe(compiled, db)
        warm = _observe(compiled, db, **UNLIMITED)
        assert warm == _observe(compiled, _cold(db), **UNLIMITED)

    def test_the_corpus_keeps_its_group_join_and_hash_join_builds(self):
        kinds = set()
        for query in CORPUS:
            db = SCALE_S[query.family]
            compiled = QueryPipeline(db).compile_oql(query.oql)
            kinds.update(type(op).__name__ for op in _closed_ops(compiled, db))
        assert kinds == {"PGroupJoin", "PHashJoin"}


TRIP_QUERIES = [
    q for q in CORPUS
    if q.name in ("agg_max_pred", "query_e", "group_having", "double_membership",
                  "query_b", "setop_except")
]


class TestBudgetsTripWhereTheyTripCold:
    @pytest.mark.parametrize("query", TRIP_QUERIES, ids=lambda q: q.name)
    @pytest.mark.parametrize(
        "limits",
        [{"max_rows": n} for n in (1, 7, 30, 64, 100, 250, 1000, 5000)]
        + [{"max_bytes": n} for n in (64, 500, 2000, 10_000, 50_000, 200_000)],
        ids=lambda d: f"{next(iter(d))}={next(iter(d.values()))}",
    )
    @pytest.mark.parametrize("batch_size", [1024, 16])
    def test_tiny_budgets(self, query, limits, batch_size):
        db = _cold(SCALE_S[query.family])
        options = OptimizerOptions(batch_size=batch_size)
        compiled = QueryPipeline(db, options).compile_oql(query.oql)
        cold = _observe(compiled, db, **limits)
        compiled.physical(db).value()  # keeps the closed builds
        assert len(db.builds) == len(_closed_ops(compiled, db)) > 0
        warm = _observe(compiled, db, **limits)
        # A failed run reports no operator counts; the trip and the
        # governor's counters at it are what must agree.
        assert warm[:2] == cold[:2]
        if cold[0][0] == "ok":
            assert warm == cold


class TestWhatIsNeverKept:
    def test_a_build_holding_a_head_fault(self):
        db = _cold(SCALE_S["company"])
        age = next(iter(db.extent("Employees")))["age"]
        build = (
            f"e.salary >= max( select u.salary / (u.age - {age}) "
            "from u in Employees where u.dno = e.dno )"
        )
        pipeline = QueryPipeline(db)
        for head in ("e.name", "e.age"):
            source = f"select distinct {head} from e in Employees where {build}"
            with pytest.raises(ExecutionError, match="division by zero") as info:
                pipeline.run_oql(source)
            assert info.value.source == source
            assert len(db.builds) == 0

    def test_a_build_side_reading_a_parameter(self):
        db = _cold(SCALE_S["company"])
        source = (
            "select distinct e.name from e in Employees where e.salary >= max( "
            "select u.salary from u in Employees where u.dno = e.dno "
            "and u.age > :a )"
        )
        compiled = QueryPipeline(db).compile_oql(source)
        assert _closed_ops(compiled, db) == []
        naive = QueryPipeline(db, OptimizerOptions(unnest=False))
        for a in (30, 45, 30):
            assert compiled.execute(db, {"a": a}) == naive.run_oql(source, a=a)
        assert len(db.builds) == 0

    def test_closedness(self):
        u_dno = Proj(Var("u"), "dno")
        scan = Scan("Employees", "u")
        assert closed_build(scan, (u_dno,)) is not None
        assert closed_build(Select(scan, BinOp(">", u_dno, Const(3))), ()) is not None
        # A parameter, an outer variable, a subtree that is not one scan.
        assert closed_build(Select(scan, BinOp(">", u_dno, Param("p"))), ()) is None
        assert closed_build(scan, (BinOp("+", u_dno, Proj(Var("e"), "dno")),)) is None
        assert closed_build(Select(scan, BinOp("==", u_dno, Var("d"))), ()) is None
        assert closed_build(Unnest(scan, Proj(Var("u"), "children"), "c"), ()) is None

    def test_one_and_one_point_zero_do_not_share(self):
        u_dno = Proj(Var("u"), "dno")
        scan = Scan("Employees", "u")
        one, one_f = BinOp("+", u_dno, Const(1)), BinOp("+", u_dno, Const(1.0))
        assert one != one_f  # as terms, and so as keys
        assert closed_build(scan, (one,)) != closed_build(scan, (one_f,))


class TestPlansDoNotShareAnEntry:
    def test_head_predicate_key_and_batch_size(self):
        db = _cold(SCALE_S["company"])
        naive = QueryPipeline(db, OptimizerOptions(unnest=False))
        variants = [
            (AGG_MAX, None),
            (AGG_MAX.replace("select u.salary", "select u.age"), None),
            ("select distinct e.name from e in Employees where e.salary >= sum( "
             "select 1 from u in Employees where u.dno = e.dno )", None),
            ("select distinct e.name from e in Employees where e.salary >= sum( "
             "select 1.0 from u in Employees where u.dno = e.dno )", None),
            (AGG_MAX.replace("u.dno = e.dno", "u.dno = e.dno and u.age > 30"), None),
            (AGG_MAX.replace("u.dno = e.dno", "u.age = e.age"), None),
            (AGG_MAX, 16),
        ]
        for count, (source, batch_size) in enumerate(variants, 1):
            options = OptimizerOptions(batch_size=batch_size or 1024)
            got = QueryPipeline(db, options).run_oql(source)
            assert repr(got) == repr(naive.run_oql(source)), source
            assert len(db.builds) == count, source


class TestCutShortLeavesNothing:
    def _compiled(self):
        db = _cold(SCALE_S["company"])
        return QueryPipeline(db).compile_oql(AGG_MAX), db

    @pytest.mark.parametrize("limits", [{"max_rows": 5}, {"max_bytes": 100}])
    def test_a_budget_trip(self, limits):
        compiled, db = self._compiled()
        physical = compiled.physical(db)
        with pytest.raises(GovernorError):
            physical.value(Execution(physical, governor=Governor(**limits)))
        assert len(db.builds) == 0

    def test_a_cancel_and_a_timeout(self):
        compiled, db = self._compiled()
        token = CancelToken()
        token.cancel()
        for governor, error in (
            (Governor(token=token, tick_interval=1), QueryCancelled),
            (Governor(timeout=1e-9, tick_interval=1), QueryTimeout),
        ):
            physical = compiled.physical(db)
            with pytest.raises(error):
                physical.value(Execution(physical, governor=governor))
            assert len(db.builds) == 0
        compiled.physical(db).value()
        assert len(db.builds) == 1


def test_the_lru_bound_holds():
    db = SCALE_S["company"]
    db.builds = BuildMemo(maxsize=2)
    naive = QueryPipeline(db, OptimizerOptions(unnest=False))
    sources = [AGG_MAX.replace("u.salary", f"u.salary + {n}") for n in range(4)]
    pipeline = QueryPipeline(db)
    for source in sources:
        assert pipeline.run_oql(source) == naive.run_oql(source)
        assert len(db.builds) <= 2
    misses = db.builds.misses
    pipeline.run_oql(sources[0])  # evicted: built again
    assert db.builds.misses == misses + 1
    _cold(db)


@pytest.mark.parametrize("name", ["query_e", "nested_in_nested"])
def test_a_shared_nest_spine_derives_its_facts_once(name):
    """A shared nest's spine, with its builds' facts, is planned once per
    database state: every execution runs the one kept plan."""
    query = next(q for q in CORPUS if q.name == name)
    db = SCALE_S[query.family]
    compiled = QueryPipeline(db).compile_oql(query.oql)
    assert "SharedNest" in compiled.explain(db)
    physical = compiled.physical(db)
    for _ in range(3):
        compiled.execute(db)
    assert compiled.physical(db) is physical


def test_a_head_that_folds_settles_as_if_rebuilt():
    """Kernel folds in the build tick and charge from inside; a reused build
    replays those settles, and the collection elements they kept move the
    sampling offset of later folds (a reduce over the group-join's bags)
    exactly as a rebuild would."""
    db = _cold(company_database(60, 8, seed=1998))
    u, d, m = Var("u"), Var("d"), Var("m")
    older = Filter(BinOp(">", Proj(Var("c"), "age"), Const(4)))
    names = Comprehension(
        "bag", Proj(Var("c"), "name"), (Generator("c", Proj(u, "children")), older)
    )
    every = Comprehension(
        "bag", Var("y"), (Generator("x", m), Generator("y", Var("x")))
    )

    def run(governor):
        context = _Context(db, batch_size=16)
        join = PGroupJoin(
            context, PScan(context, "Departments", "d"), PScan(context, "Employees", "u"),
            (Proj(d, "dno"),), (Proj(u, "dno"),), TRUE, ("u",), lookup_monoid("bag"),
            names, ("d",), ("u",), "m", TRUE, ((False,), (False,)), ("head folds",),
        )
        root = PReduce(context, join, lookup_monoid("bag"), every, TRUE)
        value = root.value(Execution(root, governor=governor))
        if governor is None:
            return repr(value)
        return repr(value), governor.ticks, governor.bytes_charged, governor.peak_bytes

    cold = run(Governor(max_bytes=10**15))
    assert cold[1] > 68  # more than the two scans' rows: the folds ticked
    assert run(Governor(max_bytes=10**15)) == cold
    _cold(db)
    assert run(None) == cold[0]
    assert run(Governor(max_bytes=10**15)) == cold


def _joins(compiled, db):
    return [
        op
        for op in _operators(compiled.physical(db))
        if isinstance(op, (PHashJoin, PGroupJoin))
    ]


class TestTypedKeys:
    """A key part the schema types as a scalar is filed and probed as it
    is; an untyped or record key goes through identity_key; a NULL key
    never joins either way."""

    def test_int_keys_are_bare_and_record_keys_are_not(self):
        db = SCALE_S["company"]
        naive = QueryPipeline(db, OptimizerOptions(unnest=False))
        record_key = (
            "select distinct e.name from e in Employees where exists u in "
            "Employees: u.manager = e.manager and u.age > e.age"
        )
        for source, bare in ((AGG_MAX, (True,)), (record_key, (False,))):
            compiled = QueryPipeline(db).compile_oql(source)
            (join,) = _joins(compiled, db)
            assert join._bare == (bare, bare)
            assert compiled.execute(db) == naive.run_oql(source)

    def test_null_keys_never_join(self):
        schema = Schema()
        schema.define_class("T", k=INT, s=STRING)
        schema.define_extent("Ls", "T")
        schema.define_extent("Rs", "T")
        db = Database(schema)
        rows = [(1, "x"), (NULL, "x"), (2, NULL), (1, "y"), (NULL, NULL)]
        for extent in ("Ls", "Rs"):
            db.add_extent(extent, [Record(k=k, s=s) for k, s in rows])
        source = (
            "select struct( K: a.k, S: a.s, N: count( select b from b in Rs "
            "where b.k = a.k and b.s = a.s ) ) from a in Ls"
        )
        compiled = QueryPipeline(db).compile_oql(source)
        (join,) = _joins(compiled, db)
        assert join._bare == ((True, True), (True, True))
        naive = QueryPipeline(db, OptimizerOptions(unnest=False))
        assert compiled.execute(db) == naive.run_oql(source)
        assert compiled.execute(db) == naive.run_oql(source)  # warm


class TestTheIndexIsAKeptBuild:
    """``create_index`` declares a key; an index scan probes the kept build
    of its extent's scan on that attribute — the table a hash join building
    the same scan on the same key reads — and settles it as every kept
    build does."""

    SOURCE = "select distinct e.name from e in Employees where e.dno = 2"

    def _db(self):
        db = _cold(company_database(60, 8, seed=1998))
        db.create_index("Employees", "dno")
        return db

    def test_an_index_scan_and_a_hash_join_read_one_build(self):
        db = self._db()
        pipeline = QueryPipeline(db)
        join = (
            "select distinct struct( D: d.name, E: e.name ) from d in "
            "Departments, e in Employees where d.dno = e.dno"
        )
        assert "IndexScan" in pipeline.compile_oql(self.SOURCE).explain(db)
        (hash_join,) = _joins(pipeline.compile_oql(join), db)
        assert hash_join.right.describe().endswith("<- Employees)")
        pipeline.run_oql(self.SOURCE)
        got = pipeline.run_oql(join)
        assert (len(db.builds), db.builds.hits, db.builds.misses) == (1, 1, 1)
        assert got == QueryPipeline(db, OptimizerOptions(unnest=False)).run_oql(join)

    def test_cold_warm_and_emptied_settle_alike(self):
        """Work units, the trip point under a ``max_rows`` budget (one in
        the build, one in the probe) and EXPLAIN ANALYZE's IndexScan rows:
        the scan's rows and the matches, whether the build runs or is read."""
        db = self._db()
        unlimited, *tripping = (
            QueryPipeline(db, OptimizerOptions(max_rows=rows)).compile_oql(self.SOURCE)
            for rows in (10**9, 30, 61)
        )

        def observe():
            trips = []
            for compiled in tripping:  # first, so that a cold run trips cold
                with pytest.raises(GovernorError) as info:
                    compiled.execute(db)
                trips.append(info.value.message)
            stats = unlimited.run(db, profile=True)
            (rows,) = (
                op.rows_produced
                for op in stats.operators
                if op.operator.startswith("IndexScan")
            )
            return stats.governor_ticks, rows, trips

        cold = observe()
        assert cold[0] == db.cardinality("Employees") + cold[1]
        hits = db.builds.hits
        assert observe() == cold
        assert db.builds.hits == hits + 3
        _cold(db)
        assert observe() == cold
