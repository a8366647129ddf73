"""Tests for the extensions beyond the paper's core algorithm.

Section 8 leaves bag/list unnesting as future work because "grouping alone
is not capable of reconstructing the input stream ... these collection
types are not idempotent".  Our engine's streams are *multisets* (operators
never deduplicate) and a variable ranging over a bag or list carries its
element's occurrence, which the nest groups by, so bag-monoid queries come
out of the same C1–C9 translation correct — these tests pin that
extension, repeated elements included.  List-valued results come from
ORDER BY, a fold of the ``sorted`` list monoid at the query's root (NULL
keys, ties, a key that is not a primitive value), and the measured
executor (EXPLAIN ANALYZE) is covered here too.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import evaluate_plan
from repro.calculus.evaluator import evaluate
from repro.calculus.monoids import monoid
from repro.calculus.terms import (
    BinOp,
    Extent,
    If,
    Merge,
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
from repro.data.values import NULL, BagValue, ListValue, Record, SetValue
from repro.engine.planner import PlannerOptions, execute, plan_physical
from repro.errors import TypeCheckError
from repro.testing.oracle import PATHS, run_all_paths


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


#: The ways an ordered query runs: the unnested plan in memory and over
#: SQLite, and the calculus term itself.
ORDER_PATHS = {
    "memory": OptimizerOptions(),
    "sqlite": OptimizerOptions(backend="sqlite"),
    "calculus": OptimizerOptions(unnest=False),
}


class TestOrderByFold:
    """ORDER BY folds the query's result into a list (``sorted[…]``): NULL
    keys sort first ascending and last descending, tied elements keep the
    fold's enumeration order, and a key that is not a primitive value is a
    type error before anything runs."""

    @pytest.fixture(scope="class")
    def tdb(self):
        schema = Schema()
        schema.define_class("T", n=STRING, k=INT)
        schema.define_extent("Ts", "T")
        database = Database(schema)
        keys = {"a": 3, "b": NULL, "c": 1, "d": NULL, "e": 2, "f": 1}
        database.add_extent("Ts", [Record(n=n, k=k) for n, k in keys.items()])
        return database

    def names(self, tdb, path, source):
        result = QueryPipeline(tdb, ORDER_PATHS[path]).run_oql(source)
        assert isinstance(result, ListValue)
        return [row["n"] for row in result]

    @pytest.mark.parametrize("path", ORDER_PATHS)
    @pytest.mark.parametrize(
        "direction, expected",
        [("asc", "bdcfea"), ("desc", "aecfbd")],
    )
    def test_mixed_null_and_int_keys(self, tdb, path, direction, expected):
        source = f"select t.n as n, t.k as k from t in Ts order by k {direction}"
        assert self.names(tdb, path, source) == list(expected)

    @pytest.mark.parametrize("path", ORDER_PATHS)
    @pytest.mark.parametrize("direction", ["asc", "desc"])
    def test_all_null_keys_keep_the_enumeration_order(self, tdb, path, direction):
        source = f"select t.n as n, nil as k from t in Ts order by k {direction}"
        assert self.names(tdb, path, source) == list("abcdef")

    @pytest.mark.parametrize("path", ORDER_PATHS)
    def test_a_secondary_key_breaks_ties(self, tdb, path):
        source = "select t.n as n, t.k as k from t in Ts order by k desc, n desc"
        assert self.names(tdb, path, source) == list("aefcdb")

    @pytest.mark.parametrize("path", ORDER_PATHS)
    @pytest.mark.parametrize(
        "keys, expected",
        [("n, 0, 0, 0, 0, 0, 0, 0, k", "abcdef"), ("k, 0, 0, 0, 0, 0, 0, 0, n desc", "dbfcea")],
    )
    def test_eleven_keys_sort_in_key_order(self, tdb, path, keys, expected):
        """The keys are ``k0…k10``: ``k10`` is the last key, not the third
        (as it is by name)."""
        source = f"select t.n as n, t.k as k from t in Ts order by 0, 0, {keys}"
        assert self.names(tdb, path, source) == list(expected)

    def test_a_sort_reads_its_keys_by_name(self):
        """However a head record orders its fields, ``k2`` is the third key."""
        names = [f"k{i}" for i in range(11)] + ["v"]
        heads = [
            Record(**dict(reversed([*zip(names, [0, 0, rank, *[0] * 7, -rank]), ("v", v)])))
            for v, rank in (("x", 2), ("y", 1), ("z", 3))
        ]
        assert monoid("sorted[" + "+" * 11 + "]").from_elements(heads) == ListValue("yxz")

    @pytest.mark.parametrize("path", ORDER_PATHS)
    @pytest.mark.parametrize(
        "source",
        [
            "select struct(a: t.k, b: t.n) from t in Ts order by value",
            "select t from t in Ts order by value",
        ],
    )
    def test_a_record_key_is_refused_before_execution(self, tdb, path, source):
        pipeline = QueryPipeline(tdb, ORDER_PATHS[path])
        with pytest.raises(TypeCheckError, match="a key must be a primitive") as err:
            pipeline.compile_oql(source)
        assert err.value.stage == "typecheck"

    @pytest.mark.parametrize("path", ORDER_PATHS)
    def test_distinct_sorts_each_element_once(self, tdb, path):
        result = QueryPipeline(tdb, ORDER_PATHS[path]).run_oql(
            "select distinct t.k from t in Ts order by value desc"
        )
        assert result == ListValue([3, 2, 1, NULL])

    @pytest.mark.parametrize("path", ORDER_PATHS)
    def test_a_grouped_select_sorts_each_group_once(self, tdb, path):
        result = QueryPipeline(tdb, ORDER_PATHS[path]).run_oql(
            "select t.k, count(t) as c from t in Ts where t.k > 0 group by t.k "
            "order by k desc"
        )
        assert [(row["k"], row["c"]) for row in result] == [(3, 1), (2, 1), (1, 2)]

    @pytest.mark.parametrize(
        "source, key",
        [
            ("select e.dno from e in Employees order by dno desc", lambda dno: dno),
            (
                "select e.manager from e in Employees order by manager.name",
                lambda manager: manager["name"],
            ),
        ],
    )
    def test_a_scalar_head_sorts_by_its_own_name(self, company_db, source, key):
        """One unaliased item is the element itself, so its name (``dno``,
        ``manager``) is the element, as ``value`` is, on every path."""
        outcomes = run_all_paths(source, {}, company_db)
        assert len(outcomes) == len(PATHS)
        for outcome in outcomes:
            assert outcome.ok, (outcome.path, outcome.describe())
            assert repr(outcome.value) == repr(outcomes[0].value), outcome.path
        values = list(outcomes[0].value)
        reverse = source.endswith("desc")
        assert values == sorted(values, key=key, reverse=reverse)
        assert len(values) == company_db.cardinality("Employees")

    def test_a_distinct_sort_plans_its_set_as_the_select(self, db):
        """The set stays nested, but as a root generator's domain it joins
        as the unordered select does (no outer join pads it), its filters
        are selections, and SQLite computes its elements."""
        source = (
            "select distinct d.name from d in Departments where exists( "
            "select e from e in Employees where e.dno = d.dno and e.age > 30 ) "
            "and count( select e from e in Employees where e.dno = d.dno ) > 2"
        )
        plan = QueryPipeline(db).compile_oql(f"{source} order by value").explain(db)
        assert "Outer" not in plan
        assert "Select(_m" in plan  # the count filter, not the set nest's pred
        sqlite = QueryPipeline(db, ORDER_PATHS["sqlite"]).compile_oql(f"{source} order by value")
        assert "[sql] Nest subtree" in sqlite.explain(db)
        unordered = QueryPipeline(db).run_oql(source)
        assert sqlite.execute(db) == ListValue(sorted(unordered))

    def test_the_sort_is_the_plan_root(self, tdb):
        compiled = QueryPipeline(tdb).compile_oql(
            "select t.n as n, t.k as k from t in Ts order by k desc"
        )
        assert compiled.explain(tdb).startswith("Reduce(sorted[-] / ")
        stats = compiled.run(tdb, profile=True)
        root = stats.operators[0]
        assert root.operator.startswith("Reduce(sorted[-] / ")
        assert stats.result == compiled.execute(tdb)


class TestAvgOverASplitDomain:
    """N3 and N6 leave an ``avg`` whole when its domain is a conditional or a
    bag merge: avg's halves are (sum, count) carriers whose finalized
    values do not merge, so every path answers the mean of the whole."""

    @staticmethod
    def salaries(dno: int):
        return comprehension(
            "bag", var("e"), ("e", Extent("Employees")),
            BinOp("==", path("e", "dno"), const(dno)),
        )

    @pytest.mark.parametrize("path_name", ORDER_PATHS)
    @pytest.mark.parametrize("domain", ["merge", "if"])
    def test_avg_is_the_mean_of_the_whole_domain(self, db, path_name, domain):
        if domain == "merge":
            term_domain = Merge("bag", self.salaries(4), self.salaries(3))
            wanted = (4, 3)
        else:
            many = BinOp(">", comprehension("sum", const(1), ("u", Extent("Employees"))), const(3))
            term_domain = If(many, self.salaries(6), self.salaries(3))
            wanted = (6,)
        term = comprehension("avg", path("x", "salary"), ("x", term_domain))
        salaries = [e["salary"] for e in db.extent("Employees") if e["dno"] in wanted]
        assert len(salaries) > 1
        result = QueryPipeline(db, ORDER_PATHS[path_name]).compile_term(term).execute(db)
        assert result == pytest.approx(sum(salaries) / len(salaries))


class TestExecutorStats:
    def test_stats_report(self, db):
        term = comprehension(
            "set",
            path("e", "name"),
            ("e", Extent("Employees")),
            BinOp(">", path("e", "age"), const(30)),
        )
        stats = QueryPipeline(db).compile_term(term).run(db, profile=True)
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
        options = OptimizerOptions(hash_joins=False)
        stats = QueryPipeline(db, options).compile_term(term).run(db, profile=True)
        cross = db.cardinality("Employees") * db.cardinality("Departments")
        join_rows = [
            op.rows_produced for op in stats.operators if "Join" in op.operator
        ]
        assert join_rows == [cross]

    def test_stats_root_must_be_complete(self, db):
        from repro.algebra.operators import Scan

        with pytest.raises(TypeError, match="rooted at"):
            plan_physical(Scan("Employees", "e"), db).value()
