"""Error-path tests: every layer must fail loudly and helpfully, never
silently produce wrong answers."""

from __future__ import annotations

import doctest

import pytest

from repro.calculus.evaluator import EvaluationError, evaluate
from repro.calculus.terms import (
    Comprehension,
    Extent,
    Generator,
    Lambda,
    Singleton,
    Var,
    comprehension,
    const,
    var,
)
from repro.core.unnesting import UnnestingError, unnest, unnest_query
from repro.data.database import Database
from repro.data.values import Record


class TestUnnestingErrors:
    def test_comprehension_under_lambda_is_rejected(self):
        """A nested query trapped under a lambda cannot be spliced — the
        translator must refuse rather than silently drop it."""
        inner = comprehension("sum", var("y"), ("y", Var("x")))
        term = Comprehension(
            "set",
            Lambda("x", inner),
            (Generator("e", Extent("X")),),
        )
        with pytest.raises(UnnestingError, match="comprehension survived"):
            unnest(term)

    def test_inner_compile_requires_stream(self):
        from repro.core.unnesting import _Box, _Translator, UnnestingTrace

        translator = _Translator(UnnestingTrace())
        comp = comprehension("sum", const(1), ("x", Extent("X")))
        with pytest.raises(UnnestingError, match="without a stream"):
            translator._compile(comp, plan=None, box=_Box((), "m"))

    def test_unnest_query_accepts_unprepared_input(self):
        """unnest_query must prepare internally — raw nested terms work."""
        from repro.data.datagen import company_database

        db = company_database(8, 3, seed=2)
        inner = comprehension("set", var("x"), ("x", Extent("Employees")))
        term = comprehension("set", var("v"), ("v", inner))
        plan = unnest_query(term)
        from repro.algebra.evaluator import evaluate_plan

        assert evaluate_plan(plan, db) == evaluate(term, db)


class TestEvaluatorErrorMessages:
    def test_unbound_variable_lists_scope(self):
        db = Database()
        with pytest.raises(EvaluationError, match="in scope"):
            evaluate(var("ghost"), db, {"x": 1})

    def test_record_missing_attribute_lists_attributes(self):
        record = Record(name="x")
        with pytest.raises(KeyError, match="attributes are"):
            record["age"]

    def test_extent_error_lists_known_extents(self):
        db = Database()
        db.add_extent("Known", [])
        with pytest.raises(KeyError, match="Known"):
            evaluate(Extent("Other"), db)


class TestOptimizerErrors:
    def test_physical_plan_without_unnesting(self):
        from repro.core.optimizer import CompiledQuery, Optimizer, OptimizerOptions
        from repro.errors import PlanningError
        from repro.data.datagen import company_database

        db = company_database(5, 2, seed=2)
        compiled = Optimizer(db, OptimizerOptions(unnest=False)).compile_oql(
            "select distinct e from e in Employees"
        )
        with pytest.raises(PlanningError, match="unnest=False"):
            compiled.explain(db)

    def test_order_by_on_scalar_result(self):
        from repro.core.optimizer import Optimizer
        from repro.data.datagen import company_database

        db = company_database(5, 2, seed=2)
        compiled = Optimizer(db).compile_oql("count( select e from e in Employees )")
        compiled.order_by = ((var("value"), True),)
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="collection"):
            compiled.execute(db)

    @pytest.mark.parametrize(
        "source, monoid",
        [
            ("select x from x in sum(select e.salary from e in Employees)", "sum"),
            ("select x from x in (exists e in Employees: e.salary > 3)", "some"),
        ],
    )
    def test_a_primitive_generator_domain_is_a_type_error(self, source, monoid):
        # Without the typecheck stage, normalization is the first to see a
        # generator over a sum or a quantifier: a typed refusal naming it.
        from repro.calculus.typing import CalculusTypeError
        from repro.core.optimizer import OptimizerOptions
        from repro.core.pipeline import QueryPipeline
        from repro.data.datagen import company_database
        from repro.errors import TypeCheckError

        pipeline = QueryPipeline(
            company_database(5, 2, seed=2), options=OptimizerOptions(typecheck=False)
        )
        with pytest.raises(CalculusTypeError) as info:
            pipeline.run_oql(source)
        assert isinstance(info.value, TypeCheckError)
        assert info.value.stage == "normalize"
        assert f"generator domain of 'x' is a {monoid} comprehension" in str(info.value)


class TestErrorTaxonomyContract:
    """run_oql's error contract: whatever is wrong with a query — syntax,
    names, types, runtime values, resource limits — the failure is always a
    QueryError subclass carrying the query source, never a bare builtin."""

    @pytest.fixture(scope="class")
    def db(self):
        from repro.data.datagen import company_database

        return company_database(num_employees=20, num_departments=4, seed=2)

    # Corpus queries each broken a different way: unknown extent, unknown
    # field, ill-typed arithmetic, string/number mixing, division and modulo
    # by zero, syntax garbage, unbound parameter, cross-type quantifier.
    BROKEN = [
        "select e.name from e in Employes",
        "select e from e in Employees where e.nonexistent = 1",
        "select e.name + e.salary from e in Employees",
        "select e from e in Employees where e.name > e.salary",
        "sum( select e.salary / (e.salary - e.salary) from e in Employees )",
        "select e.salary % (e.dno - e.dno) from e in Employees",
        "select e.name from e in Employees where",
        "select from where in",
        "select e from e in Employees where e.dno = :missing",
        "select d from d in Departments where exists e in d.name: e = 1",
    ]

    @pytest.mark.parametrize("source", BROKEN)
    def test_broken_query_raises_query_error(self, db, source):
        from repro.core.pipeline import QueryPipeline
        from repro.errors import QueryError

        with pytest.raises(QueryError) as info:
            QueryPipeline(db).run_oql(source)
        # The taxonomy promise: the error identifies the query...
        assert info.value.source == source
        # ...and str() renders without raising and carries the context tag.
        assert "query=" in str(info.value)

    @pytest.mark.parametrize("source", BROKEN)
    def test_broken_query_raises_query_error_interpreted(self, db, source):
        """Naive evaluation by the calculus interpreter makes the same
        promise."""
        from repro.core.optimizer import OptimizerOptions
        from repro.core.pipeline import QueryPipeline
        from repro.errors import QueryError

        pipeline = QueryPipeline(db, OptimizerOptions(unnest=False))
        with pytest.raises(QueryError):
            pipeline.run_oql(source)

    def test_plan_time_failures_have_planning_stage(self, db):
        from repro.core.pipeline import QueryPipeline
        from repro.errors import PlanningError, TypeCheckError, UnknownExtentError

        pipeline = QueryPipeline(db)
        with pytest.raises(UnknownExtentError) as info:
            pipeline.run_oql("select e from e in Nowhere")
        assert isinstance(info.value, PlanningError)
        with pytest.raises(TypeCheckError, match="string"):
            pipeline.run_oql("select e.name + 1 from e in Employees")

    def test_division_by_zero_is_execution_error(self, db):
        from repro.calculus.evaluator import DivisionByZeroError
        from repro.core.pipeline import QueryPipeline
        from repro.errors import ExecutionError

        with pytest.raises(DivisionByZeroError) as info:
            QueryPipeline(db).run_oql(
                "sum( select e.salary / (e.dno - e.dno) "
                "from e in Employees where e.dno = 1 )"
            )
        assert isinstance(info.value, ExecutionError)
        assert info.value.stage == "execute"

    def test_legacy_except_clauses_still_catch(self, db):
        """Multiple inheritance keeps pre-taxonomy handlers working."""
        from repro.core.pipeline import QueryPipeline

        with pytest.raises(KeyError):  # UnknownExtentError is-a KeyError
            QueryPipeline(db).run_oql("select x from x in Missing")
        with pytest.raises(TypeError):  # TypeCheckError subtypes TypeError
            QueryPipeline(db).run_oql("select e.name - 1 from e in Employees")
        with pytest.raises(SyntaxError):  # OQLSyntaxError subtypes SyntaxError
            QueryPipeline(db).run_oql("select ( from")


class TestDoctests:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.data.values",
            "repro.data.database",
        ],
    )
    def test_module_doctests(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0
        assert results.attempted > 0


class TestStorageErrorPaths:
    def test_save_unencodable_extent(self, tmp_path):
        from repro.data.storage import StorageError, save_database

        db = Database()
        db.add_extent("Weird", [object()])
        with pytest.raises(StorageError):
            save_database(db, tmp_path / "x.json")
