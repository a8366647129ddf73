"""Tests for class inheritance (extent inclusion) and named views
(``define name as query``) — OODB features layered on the paper's core."""

from __future__ import annotations

import pytest

from repro.core.optimizer import Optimizer
from repro.data.database import Database
from repro.data.schema import FLOAT, INT, STRING, Schema
from repro.data.values import Record, SetValue
from repro.errors import QueryError
from repro.oql.ast import Define
from repro.oql.parser import parse_statement
from repro.oql.translator import parse_and_translate


@pytest.fixture()
def hierarchy_db() -> Database:
    schema = Schema()
    schema.define_class("Person", name=STRING, age=INT)
    schema.define_class("Employee", extends="Person", salary=FLOAT, dno=INT)
    schema.define_class("Manager", extends="Employee", bonus=FLOAT)
    schema.define_extent("Persons", "Person")
    schema.define_extent("Employees", "Employee")
    schema.define_extent("Managers", "Manager")
    db = Database(schema)
    db.add_extent("Persons", [Record(name="civ1", age=30)])
    db.add_extent(
        "Employees",
        [Record(name="emp1", age=40, salary=50000.0, dno=1)],
    )
    db.add_extent(
        "Managers",
        [Record(name="mgr1", age=50, salary=90000.0, dno=1, bonus=10000.0)],
    )
    return db


class TestInheritance:
    def test_attribute_inheritance(self):
        schema = Schema()
        schema.define_class("Person", name=STRING, age=INT)
        employee = schema.define_class("Employee", extends="Person", salary=FLOAT)
        assert employee.has_attribute("name")
        assert employee.has_attribute("salary")

    def test_subclass_relation(self, hierarchy_db):
        schema = hierarchy_db.schema
        assert schema.is_subclass("Manager", "Person")
        assert schema.is_subclass("Employee", "Employee")
        assert not schema.is_subclass("Person", "Employee")
        assert schema.subclasses("Person") == ("Employee", "Manager", "Person")

    def test_extent_inclusion(self, hierarchy_db):
        assert len(hierarchy_db.extent("Persons")) == 3
        assert len(hierarchy_db.extent("Employees")) == 2
        assert len(hierarchy_db.extent("Managers")) == 1

    def test_query_over_superclass_extent(self, hierarchy_db):
        result = Optimizer(hierarchy_db).run_oql(
            "select distinct p.name from p in Persons where p.age >= 40"
        )
        assert result == SetValue(["emp1", "mgr1"])

    def test_cardinality_reflects_inclusion(self, hierarchy_db):
        assert hierarchy_db.cardinality("Persons") == 3

    def test_cache_invalidated_on_update(self, hierarchy_db):
        assert len(hierarchy_db.extent("Persons")) == 3
        hierarchy_db.add_extent(
            "Managers",
            [
                Record(name=f"mgr{i}", age=50, salary=1.0, dno=1, bonus=0.0)
                for i in range(3)
            ],
        )
        assert len(hierarchy_db.extent("Persons")) == 5

    def test_flat_schema_unaffected(self):
        db = Database()
        db.add_extent("A", [1, 2])
        assert len(db.extent("A")) == 2

    def test_nested_query_through_hierarchy(self, hierarchy_db):
        """Aggregates range over the inclusive extent."""
        result = Optimizer(hierarchy_db).run_oql(
            "max( select e.salary from e in Employees )"
        )
        assert result == 90000.0


class TestViews:
    @pytest.fixture()
    def optimizer(self, hierarchy_db) -> Optimizer:
        return Optimizer(hierarchy_db)

    def test_parse_statement_define(self):
        statement = parse_statement("define V as select distinct p from p in Persons")
        assert isinstance(statement, Define)
        assert statement.name == "V"

    def test_parse_statement_plain_query(self):
        statement = parse_statement("select distinct p from p in Persons")
        assert not isinstance(statement, Define)

    def test_view_inlined(self, optimizer, hierarchy_db):
        optimizer.define_view(
            "define Adults as select distinct p from p in Persons where p.age >= 40"
        )
        result = optimizer.run_oql("select distinct a.name from a in Adults")
        assert result == SetValue(["emp1", "mgr1"])

    def test_view_over_view(self, optimizer):
        optimizer.define_view(
            "define Adults as select distinct p from p in Persons where p.age >= 40"
        )
        optimizer.define_view(
            "define OldAdults as select distinct a from a in Adults where a.age >= 50"
        )
        result = optimizer.run_oql("count( select o from o in OldAdults )")
        assert result == 1

    def test_view_participates_in_unnesting(self, optimizer):
        """A nested query over a view goes through the same pipeline."""
        optimizer.define_view(
            "define Staff as select distinct e from e in Employees"
        )
        result = optimizer.run_oql(
            "select distinct s.name from s in Staff "
            "where s.salary >= max( select u.salary from u in Staff )"
        )
        assert result == SetValue(["mgr1"])

    def test_range_variable_shadows_view(self, optimizer, hierarchy_db):
        optimizer.define_view(
            "define Adults as select distinct p from p in Persons"
        )
        # 'Adults' as a range variable must win over the view
        result = optimizer.run_oql(
            "select distinct Adults.name from Adults in Managers"
        )
        assert result == SetValue(["mgr1"])

    def test_define_via_run_statement(self, optimizer):
        name = optimizer.run_statement(
            "define V as select distinct p from p in Persons"
        )
        assert name == "V"
        assert optimizer.run_statement("count( select v from v in V )") == 3

    def test_the_first_token_decides_what_a_statement_is(self, optimizer):
        # ``defineds`` only begins with the keyword: it is a name, and the
        # statement a query — here, of the view of that name.
        optimizer.run_statement("define defineds as select distinct p from p in Persons")
        assert optimizer.run_statement("defineds") == optimizer.run_oql(
            "select distinct p from p in Persons"
        )
        with pytest.raises(QueryError) as info:  # not a raw ValueError
            optimizer.run_statement("defineX")
        assert info.value.stage == "translate"
        assert "unknown name 'defineX'" in str(info.value)
        # A leading comment is skipped and the keyword is case-blind.
        source = "-- a view\n  DEFINE W as select distinct p from p in Persons"
        assert optimizer.run_statement(source) == "W"

    def test_bad_define_rejected(self, optimizer):
        with pytest.raises(Exception):
            optimizer.define_view("define as select p from p in Persons")

    def test_translate_accepts_views_mapping(self, hierarchy_db):
        from repro.oql.parser import parse

        views = {"V": parse("select distinct p from p in Persons")}
        term = parse_and_translate(
            "count( select v from v in V )", hierarchy_db.schema, views
        )
        from repro.calculus.evaluator import evaluate

        assert evaluate(term, hierarchy_db) == 3
