"""Unit tests for the data substrate: object store, indexes, and the
synthetic data generators."""

from __future__ import annotations

import pytest

from repro.data.database import Database
from repro.data.datagen import (
    ab_database,
    company_database,
    travel_database,
    university_database,
)
from repro.data.schema import INT, Schema
from repro.data.values import BagValue, ListValue, Record, SetValue


class TestDatabase:
    def test_extent_kinds(self):
        db = Database()
        db.add_extent("S", [1, 1, 2], kind="set")
        db.add_extent("B", [1, 1, 2], kind="bag")
        db.add_extent("L", [2, 1], kind="list")
        assert isinstance(db.extent("S"), SetValue) and len(db.extent("S")) == 2
        assert isinstance(db.extent("B"), BagValue) and len(db.extent("B")) == 3
        assert isinstance(db.extent("L"), ListValue)
        assert db.extent("L")[0] == 2

    def test_unknown_kind(self):
        db = Database()
        with pytest.raises(ValueError, match="unknown extent kind"):
            db.add_extent("X", [], kind="queue")

    def test_unknown_extent_lists_known(self):
        db = Database()
        db.add_extent("Known", [])
        with pytest.raises(KeyError, match="Known"):
            db.extent("Unknown")

    def test_cardinality_and_names(self):
        db = Database()
        db.add_extent("A", [1, 2, 3])
        db.add_extent("B", [])
        assert db.cardinality("A") == 3
        assert db.extent_names() == ("A", "B")
        assert db.has_extent("A") and not db.has_extent("C")

    def test_repr(self):
        db = Database()
        db.add_extent("A", [1])
        assert "A: 1" in repr(db)


class TestIndexes:
    def _db(self):
        db = Database()
        db.add_extent("E", [Record(k=i % 3, v=i) for i in range(9)])
        return db

    def test_create_index_declares_a_key(self):
        db = self._db()
        db.create_index("E", "k")
        assert db.has_index("E", "k") and not db.has_index("E", "v")
        assert len(db.builds) == 0  # built by the first scan that probes it

    def test_indexed_attributes(self):
        db = self._db()
        db.create_index("E", "k")
        db.create_index("E", "v")
        assert db.indexed_attributes("E") == ("k", "v")

    def test_index_on_missing_attribute(self):
        db = self._db()
        with pytest.raises(ValueError, match="lack"):
            db.create_index("E", "ghost")

    def test_planner_uses_index(self):
        from repro.calculus.terms import BinOp, Proj, Var, const
        from repro.algebra.operators import Reduce, Scan, Select
        from repro.engine.physical import PIndexScan
        from repro.engine.planner import PlannerOptions, plan_physical

        db = self._db()
        db.create_index("E", "k")
        plan = Reduce(
            Select(Scan("E", "e"), BinOp("==", Proj(Var("e"), "k"), const(1))),
            "sum",
            const(1),
        )
        physical = plan_physical(plan, db)
        assert isinstance(physical.children()[0], PIndexScan)
        assert physical.value() == 3
        # and it can be switched off
        without = plan_physical(plan, db, PlannerOptions(index_scans=False))
        assert not isinstance(without.children()[0], PIndexScan)
        assert without.value() == 3

    def test_index_scan_with_residual(self):
        from repro.core.optimizer import Optimizer

        db = self._db()
        db.create_index("E", "k")
        result = Optimizer(db).run_oql(
            "select distinct e.v from e in E where e.k = 1 and e.v > 3"
        )
        assert result == SetValue([4, 7])

    def test_index_never_changes_results(self):
        from repro.core.optimizer import Optimizer

        db = company_database(40, 6, seed=9)
        source = (
            "select distinct e.name from e in Employees "
            "where e.dno = 2 and e.age > 25"
        )
        before = Optimizer(db).run_oql(source)
        db.create_index("Employees", "dno")
        assert Optimizer(db).run_oql(source) == before

    @staticmethod
    def _both(db, source, **params):
        """*source*'s answer through an index scan, the scan plan and the
        calculus evaluator — which must agree."""
        from repro.core.optimizer import OptimizerOptions
        from repro.core.pipeline import QueryPipeline

        compiled = QueryPipeline(db).compile_oql(source)
        assert "IndexScan" in compiled.explain(db)
        references = (
            QueryPipeline(db, OptimizerOptions(index_scans=False)),
            QueryPipeline(db, OptimizerOptions(unnest=False)),
        )
        answers = {pipeline.run_oql(source, **params) for pipeline in references}
        assert len(answers) == 1
        return compiled.execute(db, params), answers.pop()

    def test_an_equal_state_twin_is_another_object(self):
        db = Database()
        db.add_extent("B", [Record(s=1), Record(s=1)], kind="bag")
        b0, b1 = db.extent("B").elements()
        db.add_extent("A", [Record(n="a1", r=b0), Record(n="a2", r=b1)])
        db.create_index("A", "r")
        source = "select distinct a.n from a in A where a.r = :p"
        got, expected = self._both(db, source, p=b0)
        assert got == expected == SetValue(["a1"])

    def test_the_index_follows_add_extent(self):
        db = Database()
        db.add_extent("E", [Record(n="x", dno=1)])
        db.create_index("E", "dno")
        db.add_extent("E", [Record(n="y", dno=1)])
        got, expected = self._both(db, "select e.n from e in E where e.dno = 1")
        assert got == expected == BagValue(["y"])

    def test_objects_added_without_the_attribute_fail_as_a_scan(self):
        from repro.core.optimizer import OptimizerOptions
        from repro.core.pipeline import QueryPipeline
        from repro.errors import ExecutionError

        db = Database()
        db.add_extent("E", [Record(n="x", dno=1)])
        db.create_index("E", "dno")
        db.add_extent("E", [Record(n="y")])
        source = "select e.n from e in E where e.dno = 1"
        compiled = QueryPipeline(db).compile_oql(source)
        assert "IndexScan" in compiled.explain(db)
        scan = QueryPipeline(db, OptimizerOptions(index_scans=False))
        errors = []
        for plan in (compiled, scan.compile_oql(source)):
            with pytest.raises(ExecutionError) as info:
                plan.execute(db)
            errors.append(info.value.message)
        assert errors[0] == errors[1]


class TestDatagen:
    def test_determinism(self):
        a = company_database(seed=5)
        b = company_database(seed=5)
        assert a.extent("Employees") == b.extent("Employees")
        assert a.extent("Departments") == b.extent("Departments")

    def test_seed_changes_data(self):
        a = company_database(seed=5)
        b = company_database(seed=6)
        assert a.extent("Employees") != b.extent("Employees")

    def test_company_shapes(self):
        db = company_database(num_employees=30, num_departments=5)
        assert db.cardinality("Employees") == 30
        assert db.cardinality("Departments") == 5
        employee = next(iter(db.extent("Employees")))
        assert {"oid", "name", "age", "salary", "dno", "children", "manager"} <= set(
            employee
        )
        assert isinstance(employee["children"], SetValue)
        assert "children" in employee["manager"]

    def test_company_has_null_padding_cases(self):
        """Some employees must be childless and some departments empty so
        the outer operators' padding paths are exercised."""
        db = company_database(num_employees=40, num_departments=8, seed=1)
        employees = list(db.extent("Employees"))
        assert any(len(e["children"]) == 0 for e in employees)
        dnos = {e["dno"] for e in employees}
        departments = {d["dno"] for d in db.extent("Departments")}
        assert departments - dnos or dnos - departments

    def test_university_guarantees_full_enrollment(self):
        db = university_database(num_students=10, num_courses=8, seed=4)
        courses = {c["cno"] for c in db.extent("Courses") if c["title"] == "DB"}
        assert courses, "there must be at least one DB course"
        transcript = db.extent("Transcript")
        takers = {
            sid
            for sid in {t["id"] for t in transcript}
            if courses <= {t["cno"] for t in transcript if t["id"] == sid}
        }
        assert takers, "at least one student took all DB courses"

    def test_travel_has_arlington(self):
        db = travel_database(seed=2)
        names = {c["name"] for c in db.extent("Cities")}
        assert "Arlington" in names
        states = {s["name"] for s in db.extent("States")}
        assert "Texas" in states

    def test_ab_subset_flag(self):
        db = ab_database(size_a=10, size_b=20, subset=True, seed=2)
        a = set(db.extent("A"))
        b = set(db.extent("B"))
        assert a <= b
        db2 = ab_database(size_a=15, size_b=15, subset=False, seed=2)
        assert len(db2.extent("A")) == 15

    def test_schemas_cover_extents(self):
        for db in (
            company_database(5, 2),
            university_database(5, 3),
            travel_database(2, 2),
            ab_database(3, 3),
        ):
            for extent in db.extent_names():
                assert db.schema.has_extent(extent)


class TestSchemaHelpers:
    def test_schema_from_mapping(self):
        from repro.data.schema import record_of, schema_from_mapping

        schema = schema_from_mapping({"T": record_of(x=INT)})
        assert schema.has_extent("T")
        assert schema.extent_type("T").element == record_of(x=INT)
