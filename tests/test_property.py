"""Property-based tests (hypothesis): the soundness theorems under fire.

A strategy generates random *well-formed* monoid comprehensions — nested
aggregates, quantifiers, and subqueries over a small schema — plus random
databases, and checks the paper's two theorems empirically:

* normalization is meaning-preserving (Figure 4);
* the unnesting translation is meaning-preserving (Theorem 2) and complete
  (Theorem 1), all the way down to the physical engine.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.evaluator import evaluate_plan
from repro.calculus.evaluator import evaluate
from repro.calculus.terms import (
    BinOp,
    Comprehension,
    Extent,
    Term,
    comprehension,
    const,
    path,
    record,
    var,
)
from repro.core.normalization import normalize, prepare
from repro.core.unnesting import unnest_query
from repro.data.database import Database
from repro.data.values import Record, SetValue
from repro.engine.planner import PlannerOptions, execute

# ---------------------------------------------------------------------------
# Random databases over a fixed two-extent schema
# ---------------------------------------------------------------------------


@st.composite
def databases(draw):
    """A random database with extents R (with nested kids) and S."""

    def r_record(i):
        num_kids = draw(st.integers(min_value=0, max_value=3))
        kids = SetValue(
            Record(age=draw(st.integers(min_value=0, max_value=9)))
            for _ in range(num_kids)
        )
        return Record(
            a=draw(st.integers(min_value=0, max_value=5)),
            b=draw(st.integers(min_value=0, max_value=5)),
            kids=kids,
        )

    r_size = draw(st.integers(min_value=0, max_value=5))
    s_size = draw(st.integers(min_value=0, max_value=5))
    db = Database()
    db.add_extent("R", [r_record(i).with_field("i", i) for i in range(r_size)])
    db.add_extent(
        "S",
        [
            Record(c=draw(st.integers(min_value=0, max_value=5)), j=j)
            for j in range(s_size)
        ],
    )
    return db


# ---------------------------------------------------------------------------
# Random comprehension terms
# ---------------------------------------------------------------------------

_COMPARE_OPS = ["==", "!=", "<", "<=", ">", ">="]


@st.composite
def comprehensions(draw, depth: int = 2):
    """A random closed, well-typed comprehension over the R/S schema."""
    counter = draw(st.integers(min_value=0, max_value=10_000))
    fresh = iter(f"v{counter}_{i}" for i in range(50))
    return _comprehension(draw, depth, (), fresh)


def _numeric_expr(draw, scope, fresh, depth):
    """A numeric scalar expression over the variables in *scope*."""
    choices = [lambda: const(draw(st.integers(min_value=0, max_value=5)))]
    for name, kind in scope:
        if kind == "R":
            choices.append(lambda n=name: path(n, draw(st.sampled_from(["a", "b"]))))
        elif kind == "S":
            choices.append(lambda n=name: path(n, "c"))
        elif kind == "kid":
            choices.append(lambda n=name: path(n, "age"))
        elif kind == "num":
            choices.append(lambda n=name: var(n))
    if depth > 0 and draw(st.booleans()):
        # nested aggregate as a numeric expression
        return _comprehension(
            draw, depth - 1, scope, fresh, monoids=["sum", "max"]
        )
    return draw(st.sampled_from([c() for c in choices]))


def _predicate(draw, scope, fresh, depth):
    left = _numeric_expr(draw, scope, fresh, 0)
    right = _numeric_expr(draw, scope, fresh, depth)
    op = draw(st.sampled_from(_COMPARE_OPS))
    pred = BinOp(op, left, right)
    if depth > 0 and draw(st.integers(min_value=0, max_value=3)) == 0:
        quantifier = _comprehension(
            draw, depth - 1, scope, fresh, monoids=["all", "some"]
        )
        pred = BinOp(draw(st.sampled_from(["and", "or"])), pred, quantifier)
    return pred


def _generator_domain(draw, scope, fresh, depth):
    kid_sources = [name for name, kind in scope if kind == "R"]
    options = ["R", "S"]
    if kid_sources:
        options.append("kids")
    if depth > 0:
        options.append("subquery")
    choice = draw(st.sampled_from(options))
    if choice == "R":
        return Extent("R"), "R"
    if choice == "S":
        return Extent("S"), "S"
    if choice == "kids":
        return path(draw(st.sampled_from(kid_sources)), "kids"), "kid"
    sub = _comprehension(draw, depth - 1, scope, fresh, monoids=["set"], scalar_head=True)
    # the subquery projects scalars, so its elements are numbers
    return sub, "num"


def _comprehension(draw, depth, scope, fresh, monoids=None, scalar_head=False):
    monoid_name = draw(
        st.sampled_from(monoids or ["set", "sum", "max", "all", "some", "bag"])
    )
    inner_scope = list(scope)
    qualifiers = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        domain, kind = _generator_domain(draw, inner_scope, fresh, depth)
        name = next(fresh)
        qualifiers.append((name, domain))
        inner_scope.append((name, kind))
    if draw(st.booleans()):
        qualifiers.append(_predicate(draw, inner_scope, fresh, depth))
    if monoid_name in ("all", "some"):
        head: Term = _predicate(draw, inner_scope, fresh, 0)
    elif (
        monoid_name in ("set", "bag")
        and not scalar_head
        and draw(st.integers(0, 2)) == 0
    ):
        # collection heads may be records (possibly carrying nested
        # aggregates), like the paper's QUERY B/D shapes
        head = record(
            a=_numeric_expr(draw, inner_scope, fresh, depth),
            b=_numeric_expr(draw, inner_scope, fresh, 0),
        )
    else:
        head = _numeric_expr(draw, inner_scope, fresh, depth)
    return comprehension(monoid_name, head, *qualifiers)


# ---------------------------------------------------------------------------
# The theorems
# ---------------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@_SETTINGS
@given(db=databases(), term=comprehensions())
def test_normalization_preserves_semantics(db, term):
    assert evaluate(normalize(term), db) == evaluate(term, db)


@_SETTINGS
@given(db=databases(), term=comprehensions())
def test_prepare_preserves_semantics(db, term):
    assert evaluate(prepare(term), db) == evaluate(term, db)


@_SETTINGS
@given(db=databases(), term=comprehensions())
def test_unnesting_is_sound(db, term):
    """Theorem 2: the unnested plan computes the comprehension's value."""
    reference = evaluate(term, db)
    plan = unnest_query(term)
    assert evaluate_plan(plan, db) == reference


@_SETTINGS
@given(db=databases(), term=comprehensions())
def test_physical_engines_are_sound(db, term):
    reference = evaluate(term, db)
    plan = unnest_query(term)
    assert execute(plan, db) == reference
    assert execute(plan, db, PlannerOptions(hash_joins=False)) == reference


@_SETTINGS
@given(term=comprehensions())
def test_unnesting_is_complete(term):
    """Theorem 1: translation never fails and leaves no comprehension in
    any operator parameter."""
    from repro.algebra.operators import operators
    from repro.calculus.terms import subterms

    plan = unnest_query(term)
    for op in operators(plan):
        for attr in ("pred", "head", "path", "expr"):
            value = getattr(op, attr, None)
            if value is not None:
                assert not any(
                    isinstance(t, Comprehension) for t in subterms(value)
                )


@_SETTINGS
@given(db=databases(), term=comprehensions())
def test_normalization_idempotent(db, term):
    once = normalize(term)
    assert normalize(once) == once


@_SETTINGS
@given(db=databases(), term=comprehensions())
def test_full_optimizer_pipeline_sound(db, term):
    from repro.core.optimizer import Optimizer

    reference = evaluate(term, db)
    compiled = Optimizer(db).compile_term(term)
    assert compiled.execute(db) == reference
