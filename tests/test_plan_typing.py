"""One Figure 6 typing per compiled query and database state.

The compile's plan walk (``algebra.typing.PlanTypeChecker``) is the only
typing of a plan: it raises the first violation under ``typecheck``, and
its column types and occurring variables are what the physical planner,
every hash table and the SQL lowering read.  Below it, a hash join, index
scan or group-join whose build is empty evaluates no left key, so a key
that would fault cannot.
"""

from __future__ import annotations

import pytest

from repro import QueryPipeline, company_database
from repro.algebra.operators import Map, Reduce, Scan, Select
from repro.algebra.typing import (
    AlgebraTypeError,
    PlanTypeChecker,
    infer_plan_type,
    type_plan,
)
from repro.calculus.terms import BinOp, Const, path, var
from repro.core.optimizer import OptimizerOptions
from repro.data.schema import ANY, INT
from repro.errors import TypeCheckError

QUERY = (
    "select distinct struct( D: d.name, E: count( select e from e in Employees "
    "where e.dno = d.dno ) ) from d in Departments"
)


@pytest.fixture
def walks(monkeypatch):
    """How many plan walks run."""
    counted = []
    walk = PlanTypeChecker.type_plan

    def counting(self, plan, database=None):
        counted.append(plan)
        return walk(self, plan, database)

    monkeypatch.setattr(PlanTypeChecker, "type_plan", counting)
    return counted


class TestOneTyping:
    def test_a_cold_compile_walks_once_and_a_cache_hit_never(self, walks):
        db = company_database()
        pipeline = QueryPipeline(db)
        compiled, hit = pipeline.compile_oql_cached(QUERY)
        assert not hit
        first, second = compiled.execute(db), compiled.execute(db)
        assert repr(first) == repr(second)
        assert len(walks) == 1
        cached, hit = pipeline.compile_oql_cached(QUERY)
        assert hit and repr(cached.execute(db)) == repr(first)
        assert len(walks) == 1
        db.analyze()  # a new state of the database: typed afresh
        assert repr(compiled.execute(db)) == repr(first)
        assert len(walks) == 2

    def test_sqlite_lowers_and_plans_by_the_same_typing(self, walks):
        db = company_database()
        compiled = QueryPipeline(db, OptimizerOptions(backend="sqlite")).compile_oql(
            QUERY
        )
        memory = QueryPipeline(db).run_oql(QUERY)
        assert repr(compiled.execute(db)) == repr(memory)
        assert len(walks) == 2  # one compile on each backend

    def test_strict_raises_what_infer_plan_type_raises(self):
        db = company_database()
        plan = Reduce(
            Select(Scan("Employees", "e"), BinOp("==", path("e", "name"), Const(1))),
            "bag",
            var("e"),
        )
        with pytest.raises(AlgebraTypeError) as reference:
            infer_plan_type(plan, db.schema)
        with pytest.raises(AlgebraTypeError) as raised:
            type_plan(plan, db, strict=True)
        assert str(raised.value) == str(reference.value)

    def test_columns_after_the_first_violation_are_any(self):
        db = company_database()
        wrong = Select(Scan("Employees", "e"), BinOp("==", path("e", "name"), Const(1)))
        plan = Reduce(Map(wrong, (("a", path("e", "age")),)), "bag", var("a"))
        typing = type_plan(plan, db)
        assert typing.columns["e"] != ANY  # typed before the violation
        assert typing.columns["a"] == ANY
        right = Reduce(Map(wrong.child, (("a", path("e", "age")),)), "bag", var("a"))
        assert type_plan(right, db).columns["a"] == INT

    def test_an_ill_typed_query_runs_without_typecheck(self):
        # The violation (a string compared with an int) comes before the
        # join, whose keys are then typed ANY and filed through identity_key.
        source = (
            "select distinct struct( N: e.name, D: d.name ) from e in Employees, "
            "d in Departments where e.dno = d.dno and (e.name = 1 or e.age > 40)"
        )
        db = company_database()
        with pytest.raises(TypeCheckError):
            QueryPipeline(db).run_oql(source)
        loose = OptimizerOptions(typecheck=False)
        naive = OptimizerOptions(typecheck=False, unnest=False)
        answer = QueryPipeline(db, loose).run_oql(source)
        assert len(answer) > 0
        assert repr(answer) == repr(QueryPipeline(db, naive).run_oql(source))


#: A key that faults wherever it is evaluated, against an empty extent:
#: an index scan, a hash join and a group-join.
EMPTY_BUILDS = (
    "select e from e in Employees where e.dno = 1 / 0",
    "select d from d in Departments, e in Employees where e.dno = d.dno / 0",
    "select struct(D: d, E: (select e from e in Employees where e.dno = d.dno / 0)) "
    "from d in Departments",
)
PATHS = {
    "memory": OptimizerOptions(),
    "no-index-scans": OptimizerOptions(index_scans=False),
    "no-hash-joins": OptimizerOptions(hash_joins=False),
    "sqlite": OptimizerOptions(backend="sqlite"),
}


def _empty_employees():
    db = company_database(num_employees=0)
    db.create_index("Employees", "dno")
    return db


class TestAnEmptyBuildEvaluatesNoLeftKey:
    @pytest.mark.parametrize("path_name", PATHS)
    @pytest.mark.parametrize("source", EMPTY_BUILDS, ids=["index", "join", "group"])
    def test_every_path_answers_as_the_calculus(self, source, path_name):
        db = _empty_employees()
        reference = QueryPipeline(db, OptimizerOptions(unnest=False)).run_oql(source)
        assert repr(QueryPipeline(db, PATHS[path_name]).run_oql(source)) == repr(
            reference
        )

    @pytest.mark.parametrize("source", EMPTY_BUILDS[1:], ids=["join", "group"])
    def test_the_left_side_is_drained(self, source):
        db = _empty_employees()
        stats = QueryPipeline(db).run_oql_stats(source)
        scans = [op for op in stats.operators if op.operator.startswith("Scan(_d")]
        assert [op.rows_produced for op in scans] == [len(db.extent("Departments"))]
