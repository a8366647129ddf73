"""Unit tests for the optimizer pipeline, the rewrite engine, and the
algebraic/join-order phases (paper Section 6)."""

from __future__ import annotations

import functools

import pytest

from repro.algebra.operators import (
    Join,
    OuterJoin,
    Reduce,
    Scan,
    Seed,
    Select,
    operators,
)
from repro.calculus.terms import BinOp, Const, conj, const, path, var
from repro.core.optimizer import (
    ALGEBRAIC_RULES,
    CompiledQuery,
    Optimizer,
    OptimizerOptions,
    reorder_joins,
)
from repro.core.rewrite import RewriteEngine, Rule, RuleSet
from repro.data.datagen import company_database, university_database
from repro.engine.cost import CostModel
from repro.errors import PlanningError


@pytest.fixture(scope="module")
def company():
    return company_database(num_employees=24, num_departments=5, seed=5)


@pytest.fixture(scope="module")
def university():
    return university_database(num_students=15, num_courses=8, seed=5)


class TestRewriteEngine:
    def test_rules_register_via_decorator(self):
        phase = RuleSet("demo")

        @phase.rule("nop")
        def nop(plan):
            return None

        assert len(phase) == 1
        assert phase.rules[0].name == "nop"

    def test_fixpoint_and_firing_log(self):
        phase = RuleSet("demo")

        @phase.rule("fuse-selects")
        def fuse(plan):
            if isinstance(plan, Select) and isinstance(plan.child, Select):
                return Select(plan.child.child, conj(plan.child.pred, plan.pred))
            return None

        plan = Select(
            Select(Select(Scan("X", "x"), var("a")), var("b")), var("c")
        )
        engine = RewriteEngine()
        result = engine.run_phase(phase, plan)
        selects = [op for op in operators(result) if isinstance(op, Select)]
        assert len(selects) == 1
        assert all(f.rule == "fuse-selects" for f in engine.firings)
        assert len(engine.firings) == 2

    @staticmethod
    def _ping_pong() -> RuleSet:
        """Two rules undoing each other: a set reduce becomes a bag one and
        back, one firing a pass, forever."""
        phase = RuleSet("ping-pong")
        for name, before, after in (("to-bag", "set", "bag"), ("to-set", "bag", "set")):

            @phase.rule(name, roots=(Reduce,))
            def flip(plan, before=before, after=after):
                if plan.monoid_name == before:
                    return Reduce(plan.child, after, plan.head, plan.pred)
                return None

        return phase

    def test_diverging_phase_is_a_typed_planning_error(self):
        engine = RewriteEngine(max_passes=3)
        plan = Reduce(Scan("X", "x"), "set", var("x"))
        with pytest.raises(PlanningError) as raised:
            engine.run_phase(self._ping_pong(), plan)
        assert str(raised.value) == (
            "optimizer phase 'ping-pong' did not reach a fixpoint in 3 passes "
            "(last rule fired: to-bag)"
        )
        assert [f.rule for f in engine.firings] == ["to-bag", "to-set", "to-bag"]

    def test_run_oql_surfaces_a_diverging_phase_with_its_stage(
        self, company, monkeypatch
    ):
        import repro.core.optimizer as optimizer
        import repro.core.pipeline as pipeline

        monkeypatch.setattr(optimizer, "ALGEBRAIC_RULES", self._ping_pong())
        monkeypatch.setattr(
            pipeline, "RewriteEngine", functools.partial(RewriteEngine, max_passes=3)
        )
        source = "select distinct e.name from e in Employees"
        with pytest.raises(PlanningError, match="ping-pong") as raised:
            pipeline.QueryPipeline(company).run_oql(source)
        assert raised.value.stage == "optimize"
        assert raised.value.source == source


class TestAlgebraicRules:
    def test_rule_inventory(self):
        names = {rule.name for rule in ALGEBRAIC_RULES.rules}
        assert names == {
            "select-true-elim",
            "select-merge",
            "join-pred-push-right",
            "join-pred-push-left",
            "select-pushdown",
            "reduce-pred-to-select",
            "select-through-nest",
            "seed-join-elim",
        }

    def test_right_only_pred_pushed_into_outer_join(self, university):
        """QUERY E's course-title selection ends up under the outer-join."""
        optimizer = Optimizer(university)
        compiled = optimizer.compile_oql(
            "select distinct s from s in Student "
            'where for all c in ( select c from c in Courses where c.title = "DB" ): '
            "exists t in Transcript: (t.id = s.id and t.cno = c.cno)"
        )
        joins = [
            op for op in operators(compiled.optimized) if isinstance(op, OuterJoin)
        ]
        course_join = joins[-1]
        assert isinstance(course_join.right, Select), "selection was not pushed"

    def test_seed_join_eliminated(self):
        plan = Reduce(
            Join(Seed(), Scan("X", "x"), Const(True)), "sum", const(1)
        )
        engine = RewriteEngine()
        result = engine.run_phase(ALGEBRAIC_RULES, plan)
        assert not any(isinstance(op, Seed) for op in operators(result))

    def test_phase_preserves_results_on_corpus(self, company):
        """Covered more broadly in test_integration; spot-check here with
        the algebraic phase isolated."""
        source = (
            "select distinct e.name from e in Employees "
            "where e.salary > avg( select u.salary from u in Employees )"
        )
        plain = Optimizer(
            company, OptimizerOptions(algebraic=False, reorder_joins=False)
        ).run_oql(source)
        rewritten = Optimizer(
            company, OptimizerOptions(algebraic=True, reorder_joins=False)
        ).run_oql(source)
        assert plain == rewritten


class TestJoinReordering:
    def _chain(self, sizes: dict[str, int]):
        db_model = CostModel()
        # build a fake cost model via a stub database
        from repro.data.database import Database
        from repro.data.values import Record

        db = Database()
        for name, size in sizes.items():
            db.add_extent(name, [Record(k=i) for i in range(size)])
        return CostModel(db), db

    def test_smallest_relation_first(self):
        model, _ = self._chain({"Big": 100, "Small": 2, "Mid": 10})
        plan = Join(
            Join(Scan("Big", "b"), Scan("Mid", "m"),
                 BinOp("==", path("b", "k"), path("m", "k"))),
            Scan("Small", "s"),
            BinOp("==", path("m", "k"), path("s", "k")),
        )
        reordered = reorder_joins(Reduce(plan, "sum", const(1)), model)
        scans = [op for op in operators(reordered) if isinstance(op, Scan)]
        # pre-order of a left-deep tree lists the first-joined leaf first
        assert scans[0].extent == "Small"

    def test_no_cross_product_when_avoidable(self):
        model, db = self._chain({"A": 10, "B": 10, "C": 10})
        plan = Join(
            Join(Scan("A", "a"), Scan("B", "b"),
                 BinOp("==", path("a", "k"), path("b", "k"))),
            Scan("C", "c"),
            BinOp("==", path("b", "k"), path("c", "k")),
        )
        reordered = reorder_joins(Reduce(plan, "sum", const(1)), model)
        for op in operators(reordered):
            if isinstance(op, Join):
                assert op.pred != Const(True), "cross product introduced"

    def test_all_predicates_retained(self):
        model, _ = self._chain({"A": 5, "B": 5, "C": 5})
        preds = [
            BinOp("==", path("a", "k"), path("b", "k")),
            BinOp("==", path("b", "k"), path("c", "k")),
            BinOp("<", path("a", "k"), path("c", "k")),
        ]
        plan = Join(
            Join(Scan("A", "a"), Scan("B", "b"), preds[0]),
            Scan("C", "c"),
            conj(preds[1], preds[2]),
        )
        reordered = reorder_joins(Reduce(plan, "sum", const(1)), model)
        from repro.calculus.terms import conjuncts, subterms

        found = []
        for op in operators(reordered):
            for attr in ("pred",):
                value = getattr(op, attr, None)
                if value is not None:
                    found.extend(conjuncts(value))
        assert set(found) >= set(preds)

    def test_outer_joins_never_reordered(self, university):
        source = (
            "select distinct s from s in Student "
            'where for all c in ( select c from c in Courses where c.title = "DB" ): '
            "exists t in Transcript: (t.id = s.id and t.cno = c.cno)"
        )
        with_reorder = Optimizer(university).run_oql(source)
        without = Optimizer(
            university, OptimizerOptions(reorder_joins=False)
        ).run_oql(source)
        assert with_reorder == without


class TestPipeline:
    def test_compiled_query_fields(self, company):
        compiled = Optimizer(company).compile_oql(
            "select distinct e.name from e in Employees"
        )
        assert isinstance(compiled, CompiledQuery)
        assert compiled.source is not None
        assert compiled.logical is not None
        assert compiled.optimized is not None
        assert compiled.trace is not None

    def test_unnest_disabled_has_no_plan(self, company):
        compiled = Optimizer(
            company, OptimizerOptions(unnest=False)
        ).compile_oql("select distinct e.name from e in Employees")
        assert compiled.logical is None
        with pytest.raises(ValueError, match="unnest=False"):
            compiled.physical(company)

    def test_explain(self, company):
        compiled = Optimizer(company).compile_oql(
            "select distinct e.name from e in Employees where e.age > 30"
        )
        text = compiled.explain(company)
        assert "Scan" in text and "Reduce" in text

    def test_run_oql_requires_database(self):
        with pytest.raises(ValueError, match="no database"):
            Optimizer().run_oql("select distinct e from e in Employees")

    def test_compile_term_directly(self, company):
        from repro.calculus.terms import Extent, comprehension

        term = comprehension("sum", const(1), ("e", Extent("Employees")))
        compiled = Optimizer(company).compile_term(term)
        assert compiled.execute(company) == company.cardinality("Employees")
