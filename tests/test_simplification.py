"""Unit tests for the Section 5 simplification rule (Figure 8)."""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import evaluate_plan
from repro.algebra.operators import Map, Nest, OuterJoin, Reduce, operators
from repro.algebra.pretty import plan_signature
from repro.calculus.evaluator import evaluate
from repro.calculus.terms import BinOp, Extent, comprehension, const, path, record, var
from repro.core.simplification import simplification_applies, simplify
from repro.core.unnesting import unnest_query
from repro.data.datagen import company_database


@pytest.fixture(scope="module")
def db():
    return company_database(num_employees=25, num_departments=6, seed=11)


def section5_query(agg: str = "avg"):
    """The paper's Section 5 query in calculus form."""
    inner = comprehension(
        agg,
        path("u", "salary"),
        ("u", Extent("Employees")),
        BinOp(">", path("u", "age"), const(30)),
        BinOp("==", path("e", "dno"), path("u", "dno")),
    )
    return comprehension(
        "set",
        record(E=path("e", "dno"), S=inner),
        ("e", Extent("Employees")),
        BinOp(">", path("e", "age"), const(30)),
    )


class TestFigure8:
    def test_plan_a_shape(self, db):
        plan = unnest_query(section5_query())
        assert plan_signature(plan) == "reduce(nest(outer-join(select(scan), scan)))"

    def test_plan_b_shape(self, db):
        simplified = simplify(unnest_query(section5_query()))
        assert plan_signature(simplified) == "reduce(nest(map(select(scan))))"

    def test_self_outer_join_eliminated(self, db):
        simplified = simplify(unnest_query(section5_query()))
        assert not any(isinstance(op, OuterJoin) for op in operators(simplified))
        assert any(isinstance(op, Map) for op in operators(simplified))

    def test_semantics_preserved(self, db):
        query = section5_query()
        reference = evaluate(query, db)
        plan = unnest_query(query)
        assert evaluate_plan(plan, db) == reference
        assert evaluate_plan(simplify(plan), db) == reference

    @pytest.mark.parametrize("agg", ["sum", "max", "min", "avg"])
    def test_all_aggregates(self, db, agg):
        query = section5_query(agg)
        reference = evaluate(query, db)
        simplified = simplify(unnest_query(query))
        assert simplification_applies(unnest_query(query))
        assert evaluate_plan(simplified, db) == reference

    def test_group_collapses_duplicates(self, db):
        """After simplification one group per key remains; the set reduce
        sees identical output, even though employees share departments."""
        simplified = simplify(unnest_query(section5_query()))
        nest = next(op for op in operators(simplified) if isinstance(op, Nest))
        # A NULL grouping key must still pad to the monoid zero, exactly as
        # in the outer-join form, so the rewrite keeps the key columns as
        # null-test variables.
        assert nest.null_vars == nest.group_by
        assert len(nest.group_by) == 1


class TestNonApplicability:
    def test_different_extents_not_rewritten(self, db):
        """Grouping Employees against Managers is not a self-join."""
        inner = comprehension(
            "sum",
            path("m", "salary"),
            ("m", Extent("Managers")),
            BinOp("==", path("e", "name"), path("m", "name")),
        )
        query = comprehension(
            "set", record(E=path("e", "dno"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)

    def test_different_predicates_not_rewritten(self, db):
        """Outer and inner selections disagree → towers are not copies."""
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp(">", path("u", "age"), const(40)),  # inner filters on 40
            BinOp("==", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "set",
            record(E=path("e", "dno"), S=inner),
            ("e", Extent("Employees")),
            BinOp(">", path("e", "age"), const(30)),  # outer filters on 30
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)

    def test_nonidempotent_parent_not_rewritten(self, db):
        """A bag-valued parent would lose duplicates — must not rewrite."""
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("==", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "bag", record(E=path("e", "dno"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)

    def test_parent_using_raw_variable_not_rewritten(self, db):
        """If the reduce head needs the whole tuple (not just the grouping
        expression) the rewrite cannot re-express it and must refuse."""
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("==", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "set", record(E=var("e"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)

    def test_non_equality_correlation_not_rewritten(self, db):
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("<", path("e", "dno"), path("u", "dno")),
        )
        query = comprehension(
            "set", record(E=path("e", "dno"), S=inner), ("e", Extent("Employees"))
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)


    def test_parent_reading_another_constant_type_not_rewritten(self, db):
        """The head's ``e.dno + 1.0`` is not the grouping expression
        ``e.dno + 1``: replacing it by the key column would answer ints."""
        e_key = BinOp("+", path("e", "dno"), const(1))
        u_key = BinOp("+", path("u", "dno"), const(1))
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("==", e_key, u_key),
        )
        query = comprehension(
            "set",
            record(E=BinOp("+", path("e", "dno"), const(1.0)), S=inner),
            ("e", Extent("Employees")),
        )
        plan = unnest_query(query)
        assert not simplification_applies(plan)
        assert repr(evaluate_plan(simplify(plan), db)) == repr(evaluate(query, db))


class TestSimplificationProperty:
    """Hypothesis: across random group-by instances (aggregate × filters ×
    grouping attribute), the rewrite fires and preserves the result."""

    from hypothesis import HealthCheck, given, settings, strategies as st

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        agg=st.sampled_from(["sum", "max", "min", "avg"]),
        group_attr=st.sampled_from(["dno", "age"]),
        agg_attr=st.sampled_from(["salary", "age"]),
        threshold=st.integers(min_value=20, max_value=60),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_random_group_by_instances(
        self, agg, group_attr, agg_attr, threshold, seed
    ):
        from repro.calculus.terms import comprehension

        db = company_database(num_employees=15, num_departments=4, seed=seed)
        inner = comprehension(
            agg,
            path("u", agg_attr),
            ("u", Extent("Employees")),
            BinOp(">", path("u", "age"), const(threshold)),
            BinOp("==", path("e", group_attr), path("u", group_attr)),
        )
        query = comprehension(
            "set",
            record(G=path("e", group_attr), V=inner),
            ("e", Extent("Employees")),
            BinOp(">", path("e", "age"), const(threshold)),
        )
        plan = unnest_query(query)
        assert simplification_applies(plan)
        reference = evaluate(query, db)
        assert evaluate_plan(simplify(plan), db) == reference


class TestMultipleGroupingKeys:
    def test_two_grouping_expressions(self, db):
        inner = comprehension(
            "sum",
            path("u", "salary"),
            ("u", Extent("Employees")),
            BinOp("==", path("e", "dno"), path("u", "dno")),
            BinOp("==", path("e", "age"), path("u", "age")),
        )
        query = comprehension(
            "set",
            record(D=path("e", "dno"), A=path("e", "age"), S=inner),
            ("e", Extent("Employees")),
        )
        plan = unnest_query(query)
        assert simplification_applies(plan)
        assert evaluate_plan(simplify(plan), db) == evaluate(query, db)
