"""Unit tests for the unnesting algorithm (paper Section 4, Figure 7).

These tests pin the *plan shapes* of the paper's Figure 1 (queries A–E),
check which rules fire (the Figure 2 walkthrough), and exercise the
completeness corner cases: unnormalizable generator domains, uncorrelated
boxes, shared subqueries, and non-comprehension roots.
"""

from __future__ import annotations

import pytest

from repro.algebra.evaluator import evaluate_plan
from repro.algebra.operators import Eval, Nest, OuterJoin, Reduce, operators
from repro.algebra.pretty import plan_signature
from repro.calculus.evaluator import evaluate
from repro.calculus.terms import (
    BinOp,
    Comprehension,
    Extent,
    Merge,
    comprehension,
    const,
    path,
    record,
    var,
)
from repro.core.unnesting import UnnestingTrace, unnest_query
from repro.data.datagen import ab_database, company_database, university_database


@pytest.fixture(scope="module")
def company():
    return company_database(num_employees=20, num_departments=5, seed=3)


@pytest.fixture(scope="module")
def university():
    return university_database(num_students=12, num_courses=7, seed=3)


def check(term, db, expected_signature=None, trace=None):
    plan = unnest_query(term, trace)
    assert evaluate_plan(plan, db) == evaluate(term, db)
    if expected_signature is not None:
        assert plan_signature(plan) == expected_signature
    return plan


# ---------------------------------------------------------------------------
# Figure 1: the paper's five plans
# ---------------------------------------------------------------------------


def query_a():
    return comprehension(
        "set",
        record(E=path("e", "name"), C=path("c", "name")),
        ("e", Extent("Employees")),
        ("c", path("e", "children")),
    )


def query_b():
    inner = comprehension(
        "set", var("e"), ("e", Extent("Employees")),
        BinOp("==", path("e", "dno"), path("d", "dno")),
    )
    return comprehension(
        "set", record(D=var("d"), E=inner), ("d", Extent("Departments"))
    )


def query_c():
    inner = comprehension(
        "some", const(True), ("b", Extent("B")), BinOp("==", var("a"), var("b"))
    )
    return comprehension("all", inner, ("a", Extent("A")))


def query_d():
    forall = comprehension(
        "all", BinOp(">", path("c", "age"), path("d", "age")),
        ("d", path("e", "manager", "children")),
    )
    count = comprehension("sum", const(1), ("c", path("e", "children")), forall)
    return comprehension(
        "set", record(E=var("e"), M=count), ("e", Extent("Employees"))
    )


def query_e():
    exists = comprehension(
        "some", const(True), ("t", Extent("Transcript")),
        BinOp("==", path("t", "id"), path("s", "id")),
        BinOp("==", path("t", "cno"), path("c", "cno")),
    )
    forall = comprehension(
        "all", exists, ("c", Extent("Courses")),
        BinOp("==", path("c", "title"), const("DB")),
    )
    return comprehension("set", var("s"), ("s", Extent("Student")), forall)


class TestFigure1:
    def test_query_a_shape(self, company):
        check(query_a(), company, "reduce(unnest(scan))")

    def test_query_b_shape(self, company):
        check(query_b(), company, "reduce(nest(outer-join(scan, scan)))")

    def test_query_c_shape(self):
        db = ab_database(6, 9, seed=3)
        plan = check(query_c(), db, "reduce(nest(outer-join(scan, scan)))")
        # and the subset case must come out true
        db_subset = ab_database(6, 9, subset=True, seed=3)
        assert evaluate_plan(plan, db_subset) is True

    def test_query_d_shape(self, company):
        check(
            query_d(),
            company,
            "reduce(nest(nest(outer-unnest(outer-unnest(scan)))))",
        )

    def test_query_e_shape(self, university):
        check(
            query_e(),
            university,
            "reduce(nest(nest(outer-join(outer-join(scan, scan), scan))))",
        )

    def test_query_d_null_conversion_order(self, company):
        """The paper's crucial detail: the inner (all) nest converts null d's
        and the outer (sum) nest converts null c's — not the other way."""
        plan = unnest_query(query_d())
        nests = [op for op in operators(plan) if isinstance(op, Nest)]
        assert len(nests) == 2
        outer_nest, inner_nest = nests  # pre-order: sum first, then all
        assert outer_nest.monoid_name == "sum"
        assert inner_nest.monoid_name == "all"
        # group-by of the sum nest is the employee variable only
        assert len(outer_nest.group_by) == 1
        assert len(inner_nest.group_by) == 2
        # each converts exactly the variable introduced inside its own box
        assert len(outer_nest.null_vars) == 1
        assert len(inner_nest.null_vars) == 1
        assert outer_nest.null_vars != inner_nest.null_vars


class TestTrace:
    def test_query_e_rules(self, university):
        trace = UnnestingTrace()
        check(query_e(), university, trace=trace)
        fired = trace.rules_fired()
        # outer scan, then the universal box (outer-join + nest), inside it
        # the existential box (outer-join + nest), finally the root reduce.
        assert fired.count("C1") == 1
        assert fired.count("C6") == 2
        assert fired.count("C5") == 2
        assert fired.count("C8") >= 1
        assert fired[-1] == "C2"

    def test_query_a_rules(self, company):
        trace = UnnestingTrace()
        check(query_a(), company, trace=trace)
        assert trace.rules_fired() == ["C1", "C4", "C2"]

    def test_query_d_rules(self, company):
        trace = UnnestingTrace()
        check(query_d(), company, trace=trace)
        fired = trace.rules_fired()
        assert fired.count("C7") == 2  # two outer-unnests
        assert fired.count("C5") == 2  # two nests
        assert "C9" in fired  # head splice
        assert str(trace)  # the walkthrough renders

    def test_trace_entries_carry_plans(self, company):
        trace = UnnestingTrace()
        check(query_b(), company, trace=trace)
        assert all(entry.plan is not None for entry in trace.entries)


class TestCompleteness:
    def test_uncorrelated_aggregate_spliced_once(self, company):
        """An inner comprehension with no free variables is computed once
        (spliced before any generator is consumed)."""
        avg_salary = comprehension(
            "avg", path("u", "salary"), ("u", Extent("Employees"))
        )
        term = comprehension(
            "set", path("e", "name"), ("e", Extent("Employees")),
            BinOp(">", path("e", "salary"), avg_salary),
        )
        plan = check(term, company)
        # the box is below the scan-join, evaluated on the seed stream
        nests = [op for op in operators(plan) if isinstance(op, Nest)]
        assert len(nests) == 1
        assert nests[0].group_by == ()

    def test_unflattenable_generator_domain(self, company):
        """A set comprehension feeding a sum: normalization must keep it
        nested and the unnester must still compile it (via a domain box)."""
        distinct_dnos = comprehension(
            "set", path("e", "dno"), ("e", Extent("Employees"))
        )
        term = comprehension("sum", var("d"), ("d", distinct_dnos))
        plan = check(term, company)
        assert isinstance(plan, Reduce)

    def test_merge_at_top_level(self, company):
        """N3 splits a conditional domain into a top-level Merge; the
        translator must produce an Eval root over two boxes."""
        from repro.calculus.terms import If

        # the condition must not be constant-foldable, so it is an
        # (uncorrelated) aggregate comparison
        any_employees = comprehension("sum", const(1), ("z", Extent("Employees")))
        term = comprehension(
            "set",
            path("x", "dno"),
            ("x", If(BinOp(">", any_employees, const(0)),
                     Extent("Employees"), Extent("Employees"))),
        )
        plan = unnest_query(term)
        assert isinstance(plan, Eval)
        assert evaluate_plan(plan, company) == evaluate(term, company)

    def test_deeply_nested_quantifiers(self, company):
        """Three levels of quantifier nesting."""
        innermost = comprehension(
            "some", BinOp(">", path("k2", "age"), path("k1", "age")),
            ("k2", path("m", "manager", "children")),
        )
        middle = comprehension(
            "all", innermost, ("k1", path("e", "children"))
        )
        term = comprehension(
            "set", path("e", "name"), ("e", Extent("Employees")),
            ("m", Extent("Employees")), middle,
        )
        check(term, company)

    def test_shared_subquery_computed_once(self, company):
        """The same inner comprehension used twice is spliced as one box."""
        total = comprehension("sum", path("u", "salary"), ("u", Extent("Employees")))
        term = comprehension(
            "set",
            BinOp("/", path("e", "salary"), total),
            ("e", Extent("Employees")),
            BinOp(">", BinOp("*", path("e", "salary"), const(2)), total),
        )
        plan = check(term, company)
        nests = [op for op in operators(plan) if isinstance(op, Nest)]
        assert len(nests) == 1

    @pytest.mark.parametrize(
        "a, b, shared",
        [(1, 1.0, False), (1.0, 1, False), (1, 1, True)],
    )
    @pytest.mark.parametrize("where", ["head", "filter"])
    def test_boxes_share_only_under_equal_constant_types(
        self, company, a, b, shared, where
    ):
        """``Const(1) == Const(1.0)``, but a box summing 1s is not one
        summing 1.0s: two boxes share only when the types of their
        constants match too, in the head or in a filter."""

        def box(value):
            if where == "head":
                return comprehension("sum", const(value), ("e", Extent("Employees")))
            return comprehension(
                "sum",
                path("e", "salary"),
                ("e", Extent("Employees")),
                BinOp(">", path("e", "salary"), const(value)),
            )

        term = record(a=box(a), b=box(b))
        plan = unnest_query(term)
        nests = [op for op in operators(plan) if isinstance(op, Nest)]
        assert len(nests) == (1 if shared else 2)
        assert repr(evaluate_plan(plan, company)) == repr(evaluate(term, company))


class TestFigure2Boxes:
    def test_boxes_compose(self, university):
        """The Figure 2 walkthrough: box C (existential) is embedded in box
        B (universal), which is embedded in box A (the outer reduce)."""
        plan = unnest_query(query_e())
        assert isinstance(plan, Reduce)
        outer_nest = plan.child
        assert isinstance(outer_nest, Nest) and outer_nest.monoid_name == "all"
        inner_nest = outer_nest.child
        assert isinstance(inner_nest, Nest) and inner_nest.monoid_name == "some"
        join_b = inner_nest.child
        assert isinstance(join_b, OuterJoin)
        join_a = join_b.left
        assert isinstance(join_a, OuterJoin)

    def test_outer_join_carries_equalities(self, university):
        """The unnested QUERY E gives both outer-joins equality predicates —
        the optimization the paper highlights."""
        from repro.engine.planner import split_equi_conjuncts

        plan = unnest_query(query_e())
        joins = [op for op in operators(plan) if isinstance(op, OuterJoin)]
        transcript_join = joins[0]
        keys, _ = split_equi_conjuncts(
            transcript_join.pred,
            transcript_join.left.columns(),
            transcript_join.right.columns(),
        )
        assert len(keys) == 2  # t.id = s.id and t.cno = c.cno
