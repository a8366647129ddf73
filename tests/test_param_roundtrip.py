"""Property: preparing a query never changes its meaning.

For every corpus query, replacing each literal with a ``:pN`` placeholder
(:func:`repro.oql.params.parameterize_literals`) and binding the extracted
values at execution time must return exactly what the literal query
returns — the prepared plan is the *same* plan, specialized at bind time
rather than compile time.  Dedicated cases cover NULL-valued and
collection-valued bindings, which literals cannot even express.
"""

from __future__ import annotations

import pytest

from corpus import CORPUS
from repro.core.pipeline import QueryPipeline
from repro.data.database import Database
from repro.data.values import NULL, Record, SetValue
from repro.oql.params import parameterize_literals

CORPUS_IDS = [query.name for query in CORPUS]


@pytest.mark.parametrize("query", CORPUS, ids=CORPUS_IDS)
def test_corpus_round_trip(query, databases):
    db = databases[query.family]
    literal_result = QueryPipeline(db).run_oql(query.oql)

    parameterized, params = parameterize_literals(query.oql)
    bound_result = QueryPipeline(db).run_oql(parameterized, **params)
    assert bound_result == literal_result

    if params:
        # The parameterized source must not contain the literals any more.
        assert parameterized != query.oql


@pytest.mark.parametrize("query", CORPUS, ids=CORPUS_IDS)
def test_round_trip_through_one_cached_plan(query, databases):
    """Binding different... or the same values twice reuses one plan."""
    db = databases[query.family]
    pipeline = QueryPipeline(db)
    parameterized, params = parameterize_literals(query.oql)
    first = pipeline.run_oql(parameterized, **params)
    hits = pipeline.plan_cache.hits
    second = pipeline.run_oql(parameterized, **params)
    assert second == first
    assert pipeline.plan_cache.hits == hits + 1


@pytest.fixture()
def small_db() -> Database:
    db = Database()
    db.add_extent(
        "E",
        [
            Record(oid=0, k=1, v=10),
            Record(oid=1, k=2, v=NULL),
            Record(oid=2, k=NULL, v=30),
        ],
    )
    db.create_index("E", "k")
    return db


@pytest.fixture()
def names_db() -> Database:
    names = ['a"b', "a\\b", "a\nb", 'q"\\\n\tz\r', "plain"]
    db = Database()
    db.add_extent(
        "E",
        [Record(oid=i, name=name, age=4 + i) for i, name in enumerate(names)],
    )
    return db


class TestEscapedStrings:
    """A string literal is cut out of the source by its span, escapes and
    quotes included, so the rest of the query survives parameterization."""

    @pytest.mark.parametrize(
        "literal, value",
        [
            ('"a\\"b"', 'a"b'),
            ('"a\\\\b"', "a\\b"),
            ('"a\\nb"', "a\nb"),
            ('"q\\"\\\\\\n\\tz\\r"', 'q"\\\n\tz\r'),
        ],
        ids=["quote", "backslash", "newline", "mixed"],
    )
    def test_round_trip(self, names_db, literal, value):
        source = f"select e.oid from e in E where e.name = {literal} and e.age > 3"
        parameterized, params = parameterize_literals(source)
        assert parameterized == (
            "select e.oid from e in E where e.name = :p0 and e.age > :p1"
        )
        assert params == {"p0": value, "p1": 3}
        pipeline = QueryPipeline(names_db)
        literal_result = pipeline.run_oql(source)
        assert len(literal_result) == 1
        assert pipeline.run_oql(parameterized, params) == literal_result


class TestNullParams:
    def test_null_equality_binding_matches_nil_literal(self, small_db):
        pipeline = QueryPipeline(small_db)
        literal = pipeline.run_oql("select e.oid from e in E where e.k = nil")
        bound = pipeline.run_oql(
            "select e.oid from e in E where e.k = :k", k=NULL
        )
        assert bound == literal
        assert len(bound) == 0  # NULL = NULL is NULL, which filters out

    def test_null_binding_in_arithmetic_propagates(self, small_db):
        result = QueryPipeline(small_db).run_oql(
            "select e.v + :delta from e in E where e.oid = 0", delta=NULL
        )
        assert list(result.elements()) == [NULL]

    def test_python_none_binds_as_null(self, small_db):
        result = QueryPipeline(small_db).run_oql(
            "select e.oid from e in E where e.k = :k", k=None
        )
        assert len(result) == 0


class TestCollectionParams:
    def test_membership_in_collection_binding(self, small_db):
        result = QueryPipeline(small_db).run_oql(
            "select e.oid from e in E where e.k in :ks", ks=SetValue([1, 2])
        )
        assert sorted(result.elements()) == [0, 1]

    def test_collection_binding_as_generator_domain(self, small_db):
        result = QueryPipeline(small_db).run_oql(
            "select distinct k * 2 from k in :ks", ks=SetValue([1, 2, 3])
        )
        assert sorted(result.elements()) == [2, 4, 6]

    def test_empty_collection_binding(self, small_db):
        result = QueryPipeline(small_db).run_oql(
            "select e.oid from e in E where e.k in :ks", ks=SetValue([])
        )
        assert len(result) == 0

    def test_same_plan_serves_different_collection_bindings(self, small_db):
        pipeline = QueryPipeline(small_db)
        source = "select e.oid from e in E where e.k in :ks"
        first = pipeline.run_oql(source, ks=SetValue([1]))
        hits = pipeline.plan_cache.hits
        second = pipeline.run_oql(source, ks=SetValue([2]))
        assert pipeline.plan_cache.hits == hits + 1
        assert sorted(first.elements()) == [0]
        assert sorted(second.elements()) == [1]
