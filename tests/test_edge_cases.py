"""Edge cases across the pipeline: empty databases, degenerate queries,
deeply composed features, and pathological-but-legal inputs."""

from __future__ import annotations

import pytest

from repro.calculus.evaluator import evaluate
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.data.database import Database
from repro.data.datagen import company_database, university_database
from repro.data.schema import FLOAT, INT, STRING, Schema
from repro.data.values import Record, SetValue, is_null
from repro.oql.lexer import OQLSyntaxError
from repro.oql.parser import MAX_NESTING, parse


def _empty_company() -> Database:
    from repro.data.datagen import company_schema

    db = Database(company_schema())
    db.add_extent("Employees", [])
    db.add_extent("Departments", [])
    db.add_extent("Managers", [])
    return db


class TestEmptyDatabase:
    """Every strategy must agree on zero data (the zero-element laws)."""

    QUERIES = [
        "select distinct e.name from e in Employees",
        "count( select e from e in Employees )",
        "max( select e.salary from e in Employees )",
        "select distinct struct( D: d.dno, K: count( select e from e in "
        "Employees where e.dno = d.dno ) ) from d in Departments",
        "for all e in Employees: e.age > 1000",
        "select distinct e.name from e in Employees "
        "where e.salary >= max( select u.salary from u in Employees )",
    ]

    @pytest.mark.parametrize("source", QUERIES)
    def test_strategies_agree_on_empty(self, source):
        db = _empty_company()
        fast = Optimizer(db).run_oql(source)
        naive = Optimizer(db, OptimizerOptions(unnest=False)).run_oql(source)
        assert fast == naive

    def test_forall_over_empty_is_true(self):
        db = _empty_company()
        assert Optimizer(db).run_oql("for all e in Employees: false") is True

    def test_exists_over_empty_is_false(self):
        db = _empty_company()
        result = Optimizer(db).run_oql(
            "select distinct d from d in Departments "
            "where exists e in Employees: true"
        )
        assert len(result) == 0

    def test_avg_over_empty_is_null(self):
        db = _empty_company()
        assert is_null(Optimizer(db).run_oql("avg( select e.age from e in Employees )"))


class TestDegenerateQueries:
    @pytest.fixture(scope="class")
    def db(self):
        return company_database(10, 3, seed=31)

    def test_tautological_predicate(self, db):
        result = Optimizer(db).run_oql(
            "select distinct e.oid from e in Employees where 1 = 1"
        )
        assert len(result) == 10

    def test_contradictory_predicate_folds_to_empty(self, db):
        compiled = Optimizer(db).compile_oql(
            "select distinct e.oid from e in Employees where 1 = 2"
        )
        assert len(compiled.execute(db)) == 0

    def test_self_join_same_extent(self, db):
        result = Optimizer(db).run_oql(
            "select distinct struct( A: a.oid, B: b.oid ) "
            "from a in Employees, b in Employees where a.oid < b.oid"
        )
        assert len(result) == 10 * 9 // 2

    def test_quantifier_over_singleton_domain(self, db):
        assert Optimizer(db).run_oql(
            "for all e in ( select e from e in Employees where e.oid = 0 ): "
            "e.oid = 0"
        ) is True

    def test_deeply_parenthesized(self, db):
        result = Optimizer(db).run_oql(
            "select distinct ((((e.oid)))) from e in Employees where (((e.age))) > 0"
        )
        assert len(result) == 10

    def test_set_op_with_empty_side(self, db):
        result = Optimizer(db).run_oql(
            "( select distinct e.oid from e in Employees ) except "
            "( select distinct e.oid from e in Employees where 1 = 2 )"
        )
        assert len(result) == 10

    def test_union_is_idempotent(self, db):
        once = Optimizer(db).run_oql("select distinct e.oid from e in Employees")
        doubled = Optimizer(db).run_oql(
            "( select distinct e.oid from e in Employees ) union "
            "( select distinct e.oid from e in Employees )"
        )
        assert once == doubled

    def test_intersect_with_itself(self, db):
        once = Optimizer(db).run_oql("select distinct e.oid from e in Employees")
        selfed = Optimizer(db).run_oql(
            "( select distinct e.oid from e in Employees ) intersect "
            "( select distinct e.oid from e in Employees )"
        )
        assert once == selfed


class TestNullData:
    """NULLs stored *in* the data flow correctly through the pipeline."""

    def _db(self):
        schema = Schema()
        schema.define_class("T", k=INT, v=FLOAT)
        schema.define_extent("Ts", "T")
        db = Database(schema)
        from repro.data.values import NULL

        db.add_extent(
            "Ts",
            [Record(k=1, v=10.0), Record(k=2, v=NULL), Record(k=3, v=30.0)],
        )
        return db

    def test_aggregate_skips_stored_nulls(self):
        db = self._db()
        assert Optimizer(db).run_oql("sum( select t.v from t in Ts )") == 40.0

    def test_comparison_with_null_is_not_a_match(self):
        db = self._db()
        result = Optimizer(db).run_oql(
            "select distinct t.k from t in Ts where t.v > 0"
        )
        assert result == SetValue([1, 3])

    def test_strategies_agree_on_null_data(self):
        db = self._db()
        for source in (
            "select distinct t.k from t in Ts where t.v >= 10",
            "count( select t from t in Ts where t.v > 0 )",
            "avg( select t.v from t in Ts )",
        ):
            fast = Optimizer(db).run_oql(source)
            naive = Optimizer(db, OptimizerOptions(unnest=False)).run_oql(source)
            assert fast == naive, source


class TestCompositions:
    """Several features at once: views + set ops + order by + group by."""

    def test_kitchen_sink(self):
        db = university_database(25, 10, seed=31)
        optimizer = Optimizer(db)
        optimizer.define_view(
            "define Graded as select distinct t from t in Transcript "
            "where t.grade >= 2"
        )
        result = optimizer.run_oql(
            "select g.cno as course, count(g) as takers from Graded g "
            "group by g.cno having count(g) > 1 order by takers desc, course"
        )
        rows = list(result)
        takers = [r["takers"] for r in rows]
        assert takers == sorted(takers, reverse=True)
        assert all(r["takers"] > 1 for r in rows)

    def test_set_op_of_views(self):
        db = university_database(25, 10, seed=31)
        optimizer = Optimizer(db)
        optimizer.define_view(
            "define Young as select distinct s.id from s in Student "
            "where s.age < 24"
        )
        optimizer.define_view(
            "define Enrolled as select distinct t.id from t in Transcript"
        )
        both = optimizer.run_oql(
            "( select distinct y from y in Young ) intersect "
            "( select distinct e from e in Enrolled )"
        )
        young = optimizer.run_oql("select distinct y from y in Young")
        enrolled = optimizer.run_oql("select distinct e from e in Enrolled")
        expected = SetValue(set(young.elements()) & set(enrolled.elements()))
        assert both == expected


# ---------------------------------------------------------------------------
# the nesting limit
# ---------------------------------------------------------------------------

#: shape -> (query at nesting n, the same query without the nesting).  Each
#: reads the data, so both backends do real work at the deepest level.
NESTING_SHAPES = {
    "parentheses": (
        lambda n: "select distinct " + "(" * n + "e.age" + ")" * n
        + " from e in Employees",
        lambda n: "select distinct e.age from e in Employees",
    ),
    "plus": (
        lambda n: "select distinct e.age" + " + 1" * n + " from e in Employees",
        lambda n: f"select distinct e.age + {n} from e in Employees",
    ),
    "and": (
        lambda n: "select distinct e.name from e in Employees where e.age > 40"
        + " and e.age > 40" * n,
        lambda n: "select distinct e.name from e in Employees where e.age > 40",
    ),
    "not": (
        lambda n: "select distinct e.name from e in Employees where "
        + "not " * n + "e.age > 40",
        lambda n: "select distinct e.name from e in Employees where "
        + "not " * (n % 2) + "e.age > 40",
    ),
    "minus": (
        lambda n: "select distinct " + "- " * n + "e.age from e in Employees",
        lambda n: "select distinct " + "- " * (n % 2) + "e.age from e in Employees",
    ),
}

#: Inputs that used to fail with a RecursionError somewhere in the
#: pipeline, caught and reported as "unexpected RecursionError in <stage>".
TOO_DEEP = {
    "100 parentheses": "(" * 100 + "1" + ")" * 100,
    "500 chained +": "+".join(["1"] * 501),
    "500 chained and": " and ".join(["true"] * 501),
    "500 not": "not " * 500 + "true",
    "500 unary -": "- " * 500 + "1",
}


#: A parenthesised chain of ``_INNER_OPS`` '+', and the most '+' a chain
#: over it may add.
_INNER_OPS = MAX_NESTING // 2
_INNER = "(1" + " + 1" * _INNER_OPS + ")"
_OUTER_OPS = MAX_NESTING - _INNER_OPS


def deepest_accepted(shape: str) -> int:
    """The largest nesting of *shape* the parser accepts."""
    deep = NESTING_SHAPES[shape][0]
    for n in range(MAX_NESTING, 0, -1):
        try:
            parse(deep(n))
        except OQLSyntaxError:
            continue
        return n
    raise AssertionError(f"no {shape} query parses")


class TestNestingLimit:
    @pytest.fixture(scope="class")
    def db(self):
        return company_database(40, 5, seed=31)

    @pytest.mark.parametrize("source", TOO_DEEP.values(), ids=TOO_DEEP.keys())
    def test_too_deep_is_a_syntax_error(self, source):
        message = f"nested deeper than {MAX_NESTING} levels"
        with pytest.raises(OQLSyntaxError, match=message):
            Optimizer(company_database(5, 2, seed=1)).run_oql(source)

    def test_the_limit_is_the_constant_for_every_bare_shape(self):
        bare = {
            "parentheses": lambda n: "(" * n + "1" + ")" * n,
            "plus": lambda n: "1" + " + 1" * n,
            "and": lambda n: "true" + " and true" * n,
            "or": lambda n: "true" + " or true" * n,
            "times": lambda n: "1" + " * 1" * n,
            "not": lambda n: "not " * n + "true",
            "minus": lambda n: "- " * n + "1",
            "union": lambda n: " union ".join(["Employees"] * (n + 1)),
            "count": lambda n: "count(" * n + "Employees" + ")" * n,
        }
        for shape, query in bare.items():
            parse(query(MAX_NESTING))
            with pytest.raises(OQLSyntaxError, match="nested deeper than"):
                parse(query(MAX_NESTING + 1))

    @pytest.mark.parametrize(
        "source, position",
        [
            # the first token inside the parenthesis past the limit
            ("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1), MAX_NESTING + 1),
            # the operator past the limit
            ("1" + " + 1" * (MAX_NESTING + 1), 2 + 4 * MAX_NESTING),
            ("not " * (MAX_NESTING + 1) + "true", 4 * MAX_NESTING),
            (_INNER + " + 1" * (_OUTER_OPS + 1), len(_INNER) + 1 + 4 * _OUTER_OPS),
        ],
        ids=["parentheses", "plus", "not", "plus over parentheses"],
    )
    def test_the_error_points_at_the_offending_token(self, source, position):
        with pytest.raises(OQLSyntaxError) as caught:
            parse(source)
        assert caught.value.position == position

    def test_a_chain_counts_the_tree_it_builds(self):
        """A parenthesised chain inside a chain is as deep as both; a
        sibling's depth does not add to it."""
        parse(_INNER + " + 1" * _OUTER_OPS)
        with pytest.raises(OQLSyntaxError, match="nested deeper than"):
            parse(_INNER + " + 1" * (_OUTER_OPS + 1))
        parse("1" + " + 1" * _INNER_OPS + " + " + _INNER)  # one over the operand
        # a struct's fields are measured apart: the first's depth does not
        # add to the second's
        parse("struct(a: " + _INNER + ", b: 1" + " + 1" * (MAX_NESTING - 1) + ")")

    @pytest.mark.parametrize("shape", NESTING_SHAPES)
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_the_deepest_accepted_query_runs(self, db, shape, backend):
        n = deepest_accepted(shape)
        assert n >= MAX_NESTING - 1, n
        deep, shallow = NESTING_SHAPES[shape]
        with pytest.raises(OQLSyntaxError, match="nested deeper than"):
            Optimizer(db, OptimizerOptions(backend=backend)).run_oql(deep(n + 1))
        got = Optimizer(db, OptimizerOptions(backend=backend)).run_oql(deep(n))
        assert got == Optimizer(db).run_oql(shallow(n))
        assert len(got) > 0
