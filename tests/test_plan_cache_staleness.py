"""Property test: the plan cache never serves a stale result.

A long-lived :class:`~repro.core.pipeline.QueryPipeline` caches compiled
plans keyed on (source, schema version, options, view epoch).  Hypothesis
drives arbitrary interleavings of schema-changing operations — replacing
extent contents, creating indexes, refreshing statistics, redefining a view
— with query executions, and after every step each query's result through
the long-lived (caching) pipeline must equal the result of a freshly built
pipeline that has never cached anything.

Any missing invalidation hook shows up here as a cached physical plan that
scans dropped rows, ignores a new index's NULL semantics, or inlines an old
view body.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.values import NULL, Record

QUERIES = (
    ("select distinct e.k from e in E where e.v > 2", {}),
    ("select e.oid from e in E where e.k = :p", {"p": 1}),
    ("select struct( K: e.k, N: count( select f from f in E where f.k = e.k ) ) "
     "from e in E", {}),
    ("select x from x in V", {}),
)

VIEW_BODIES = tuple(
    f"define V as select e.oid from e in E where e.v >= {threshold}"
    for threshold in range(4)
)


def _row(oid: int) -> Record:
    return Record(
        oid=oid,
        k=oid % 3,
        v=NULL if oid % 5 == 4 else oid % 7,
    )


operations = st.lists(
    st.one_of(
        st.tuples(st.just("rows"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("index"), st.sampled_from(["k", "v"])),
        st.tuples(st.just("analyze"), st.just(0)),
        st.tuples(st.just("view"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("query"), st.integers(min_value=0, max_value=3)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(operations)
def test_interleaved_ddl_never_serves_stale_results(ops):
    db = Database()
    rows = [_row(i) for i in range(4)]
    db.add_extent("E", list(rows))
    pipeline = QueryPipeline(db)
    view_source = VIEW_BODIES[0]
    pipeline.define_view(view_source)

    def check_all_queries() -> None:
        for source, params in QUERIES:
            fresh = QueryPipeline(db)
            fresh.define_view(view_source)
            expected = fresh.run_oql(source, **params)
            actual = pipeline.run_oql(source, **params)
            assert actual == expected, (
                f"stale result for {source!r} after schema changes"
            )

    check_all_queries()  # populate the cache before any DDL
    for op, argument in ops:
        if op == "rows":
            rows.extend(_row(len(rows) + offset) for offset in range(argument))
            db.add_extent("E", list(rows))
        elif op == "index":
            db.create_index("E", argument)
        elif op == "analyze":
            db.analyze()
        elif op == "view":
            view_source = VIEW_BODIES[argument]
            pipeline.define_view(view_source)
        elif op == "query":
            source, params = QUERIES[argument]
            fresh = QueryPipeline(db)
            fresh.define_view(view_source)
            assert pipeline.run_oql(source, **params) == fresh.run_oql(
                source, **params
            )
        check_all_queries()


def test_unchanged_database_hits_the_cache():
    db = Database()
    db.add_extent("E", [_row(i) for i in range(4)])
    pipeline = QueryPipeline(db)
    source, params = QUERIES[0]
    pipeline.run_oql(source, **params)
    misses = pipeline.plan_cache.misses
    hits = pipeline.plan_cache.hits
    pipeline.run_oql(source, **params)
    assert pipeline.plan_cache.hits == hits + 1
    assert pipeline.plan_cache.misses == misses


def test_ddl_invalidates_then_recompiles():
    db = Database()
    rows = [_row(i) for i in range(4)]
    db.add_extent("E", list(rows))
    pipeline = QueryPipeline(db)
    source, params = QUERIES[0]
    pipeline.run_oql(source, **params)
    db.create_index("E", "k")
    misses = pipeline.plan_cache.misses
    pipeline.run_oql(source, **params)  # key changed: must recompile
    assert pipeline.plan_cache.misses == misses + 1


def test_ddl_makes_the_next_run_rebuild_its_closed_build():
    """The group-join's build over ``E`` is kept per database state: a warm
    run reuses it, and after each of ``add_extent``, ``create_index`` and
    ``analyze`` the next run builds it again, over the new data."""
    source = QUERIES[2][0]
    db = Database()
    rows = [_row(i) for i in range(6)]
    db.add_extent("E", list(rows))
    pipeline = QueryPipeline(db)
    before = pipeline.run_oql(source)
    assert len(db.builds) == 1
    hits = db.builds.hits
    assert pipeline.run_oql(source) == before
    assert db.builds.hits == hits + 1
    changes = (
        lambda: db.add_extent("E", rows + [_row(6), _row(7), _row(8)]),
        lambda: db.create_index("E", "k"),
        db.analyze,
    )
    for change in changes:
        change()
        misses = db.builds.misses
        got = pipeline.run_oql(source)
        assert db.builds.misses == misses + 1
        assert got == QueryPipeline(db).run_oql(source)
        assert got == QueryPipeline(db, OptimizerOptions(unnest=False)).run_oql(source)
    assert got != before  # the added rows are counted
