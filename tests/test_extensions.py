"""Tests for the extensions beyond the paper's core algorithm.

Section 8 leaves bag/list unnesting as future work because "grouping alone
is not capable of reconstructing the input stream ... these collection
types are not idempotent".  Our engine's streams are *multisets* (operators
never deduplicate) and a variable ranging over a bag or list carries its
element's occurrence, which the nest groups by, so bag-monoid queries come
out of the same C1–C9 translation correct — these tests pin that
extension, repeated elements included.  List-valued results
are provided through the ORDER BY engine extension, and the measured
executor (EXPLAIN ANALYZE) is covered here too.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import evaluate_plan
from repro.calculus.evaluator import evaluate
from repro.calculus.terms import (
    BinOp,
    Extent,
    comprehension,
    const,
    path,
    record,
    var,
)
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import QueryPipeline
from repro.core.unnesting import unnest_query
from repro.data.database import Database
from repro.data.datagen import company_database
from repro.data.schema import INT, STRING, Schema, bag_of, list_of
from repro.data.values import BagValue, ListValue, Record, SetValue
from repro.engine import run_with_stats
from repro.engine.planner import PlannerOptions, execute


@pytest.fixture(scope="module")
def db():
    return company_database(num_employees=18, num_departments=4, seed=21)


class TestBagUnnesting:
    """Bag-monoid queries through the full unnesting pipeline."""

    def check(self, term, database):
        reference = evaluate(term, database)
        plan = unnest_query(term)
        assert evaluate_plan(plan, database) == reference
        assert execute(plan, database) == reference
        assert execute(plan, database, PlannerOptions(hash_joins=False)) == reference
        return reference

    def test_flat_bag_projection_keeps_duplicates(self, db):
        term = comprehension("bag", path("e", "dno"), ("e", Extent("Employees")))
        result = self.check(term, db)
        assert isinstance(result, BagValue)
        assert len(result) == db.cardinality("Employees")

    def test_bag_with_nested_aggregate_head(self, db):
        inner = comprehension(
            "sum", const(1), ("c", path("e", "children"))
        )
        term = comprehension(
            "bag", record(D=path("e", "dno"), K=inner), ("e", Extent("Employees"))
        )
        result = self.check(term, db)
        assert len(result) == db.cardinality("Employees")

    def test_bag_with_correlated_aggregate_predicate(self, db):
        depth = comprehension(
            "max", path("u", "salary"), ("u", Extent("Employees")),
            BinOp("==", path("u", "dno"), path("e", "dno")),
        )
        term = comprehension(
            "bag", path("e", "dno"), ("e", Extent("Employees")),
            BinOp("==", path("e", "salary"), depth),
        )
        self.check(term, db)

    def test_bag_join_multiplicity(self):
        """A bag join must multiply multiplicities, unlike the set case."""
        database = Database()
        database.add_extent("L", [1, 1, 2], kind="bag")
        database.add_extent("R", [1, 2, 2], kind="bag")
        term = comprehension(
            "bag",
            var("x"),
            ("x", Extent("L")),
            ("y", Extent("R")),
            BinOp("==", var("x"), var("y")),
        )
        reference = evaluate(term, database)
        assert reference == BagValue([1, 1, 2, 2])
        plan = unnest_query(term)
        assert execute(plan, database) == reference

    def test_nested_bag_in_head(self, db):
        """A bag-valued inner query grouped per outer object."""
        inner = comprehension(
            "bag", path("c", "age"), ("c", path("e", "children"))
        )
        term = comprehension(
            "set",
            record(N=path("e", "name"), Ages=inner),
            ("e", Extent("Employees")),
        )
        result = self.check(term, db)
        assert all(isinstance(r["Ages"], BagValue) for r in result)

    def test_sum_over_bag_extent(self):
        database = Database()
        database.add_extent("B", [5, 5, 7], kind="bag")
        term = comprehension("sum", var("x"), ("x", Extent("B")))
        assert evaluate(term, database) == 17
        assert execute(unnest_query(term), database) == 17

    # Each occurrence of a repeated element is a binding of its own: the
    # nested count runs once per occurrence, where grouping by the element
    # would merge the two and count their matches twice in one row.

    @staticmethod
    def _repeats_database():
        schema = Schema()
        schema.define_class("T", xs=bag_of(INT), names=list_of(STRING))
        schema.define_class("U", k=INT, s=STRING, v=INT)
        schema.define_extent("Ts", "T")
        schema.define_extent("Us", "U")
        database = Database(schema)
        database.add_extent(
            "Ts",
            [
                Record(xs=BagValue([1, 1, 2]), names=ListValue(["a", "b", "a"])),
                Record(xs=BagValue([1]), names=ListValue([])),
            ],
        )
        database.add_extent(
            "Us",
            [Record(k=1, s="a", v=1), Record(k=1, s="a", v=2), Record(k=3, s="c", v=3)],
        )
        return database

    @staticmethod
    def _matches(key, value):
        """``count`` of the Us whose *key* equals *value*."""
        return comprehension(
            "sum", const(1), ("u", Extent("Us")), BinOp("==", path("u", key), value)
        )

    def test_bag_of_scalars_with_a_repeat(self):
        database = self._repeats_database()
        term = comprehension(
            "bag",
            record(X=var("x"), N=self._matches("k", var("x"))),
            ("t", Extent("Ts")),
            ("x", path("t", "xs")),
        )
        result = self.check(term, database)
        assert result == BagValue(
            [Record(X=1, N=2), Record(X=1, N=2), Record(X=2, N=0), Record(X=1, N=2)]
        )

    def test_list_with_a_repeat(self):
        database = self._repeats_database()
        term = comprehension(
            "bag",
            record(S=var("n"), N=self._matches("s", var("n"))),
            ("t", Extent("Ts")),
            ("n", path("t", "names")),
        )
        result = self.check(term, database)
        assert result == BagValue(
            [Record(S="a", N=2), Record(S="b", N=0), Record(S="a", N=2)]
        )

    def test_bag_extent_holding_one_object_twice(self):
        database = self._repeats_database()
        twice = Record(k=1).with_oid(500)
        database.add_extent("B", [twice, twice, Record(k=3)], kind="bag")
        term = comprehension(
            "bag",
            record(K=path("b", "k"), N=self._matches("k", path("b", "k"))),
            ("b", Extent("B")),
        )
        result = self.check(term, database)
        assert result == BagValue(
            [Record(K=1, N=2), Record(K=1, N=2), Record(K=3, N=1)]
        )

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_a_compiled_query_sees_an_extent_become_a_bag(self, backend):
        # What a compiled query keys by its occurrence is found once per
        # state of the database, not once per database.
        schema = Schema()
        schema.define_class("U", k=INT)
        schema.define_extent("Bs", "U")
        schema.define_extent("Us", "U")
        database = Database(schema)
        database.add_extent("Us", [Record(k=1), Record(k=3)])
        twice = Record(k=1).with_oid(500)
        database.add_extent("Bs", [twice, Record(k=3)])
        pipeline = QueryPipeline(database, OptimizerOptions(backend=backend))
        compiled = pipeline.compile_oql(
            "select struct( K: b.k, N: count( select u from u in Us where u.k = b.k ) ) "
            "from b in Bs"
        )
        assert compiled.execute(database) == BagValue(
            [Record(K=1, N=1), Record(K=3, N=1)]
        )
        database.add_extent("Bs", [twice, twice, Record(k=3)], kind="bag")
        assert compiled.execute(database) == BagValue(
            [Record(K=1, N=1), Record(K=1, N=1), Record(K=3, N=1)]
        )


class TestListSupport:
    """Lists work in the calculus; list extents feed other monoids."""

    def test_list_comprehension_preserves_order(self):
        database = Database()
        database.add_extent("L", [3, 1, 2], kind="list")
        term = comprehension(
            "list", BinOp("*", var("x"), const(10)), ("x", Extent("L"))
        )
        assert evaluate(term, database) == ListValue([30, 10, 20])

    def test_list_into_set_is_allowed(self):
        database = Database()
        database.add_extent("L", [2, 1, 2], kind="list")
        term = comprehension("set", var("x"), ("x", Extent("L")))
        assert evaluate(term, database) == SetValue([1, 2])

    def test_set_into_list_rejected_by_typechecker(self):
        from repro.calculus.typing import CalculusTypeError, infer_type
        from repro.data.schema import INT, Schema, set_of

        schema = Schema()
        schema.define_class("Int", value=INT)
        schema.define_extent("S", "Int")
        term = comprehension("list", var("x"), ("x", Extent("S")))
        with pytest.raises(CalculusTypeError, match="non-commutative"):
            infer_type(term, schema)


class TestExecutorStats:
    def test_stats_report(self, db):
        term = comprehension(
            "set",
            path("e", "name"),
            ("e", Extent("Employees")),
            BinOp(">", path("e", "age"), const(30)),
        )
        plan = unnest_query(term)
        stats = run_with_stats(plan, db)
        assert stats.result == evaluate(term, db)
        assert stats.total_rows > 0
        assert stats.elapsed_ms >= 0
        report = stats.report()
        assert "rows=" in report
        assert "Scan" in report

    def test_stats_expose_join_fanout(self, db):
        term = comprehension(
            "sum",
            const(1),
            ("e", Extent("Employees")),
            ("d", Extent("Departments")),
        )
        plan = unnest_query(term)
        stats = run_with_stats(plan, db, PlannerOptions(hash_joins=False))
        cross = db.cardinality("Employees") * db.cardinality("Departments")
        join_rows = [
            op.rows_produced for op in stats.operators if "Join" in op.operator
        ]
        assert join_rows == [cross]

    def test_stats_root_must_be_complete(self, db):
        from repro.algebra.operators import Scan

        with pytest.raises(TypeError, match="rooted at"):
            run_with_stats(Scan("Employees", "e"), db)
