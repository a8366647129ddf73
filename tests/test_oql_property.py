"""Grammar-directed OQL fuzzing: random *valid* OQL over the company schema
must (a) parse, (b) round-trip through the unparser, (c) agree between the
naive and optimized strategies, and (d) classify without error."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.classify import classify_oql
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.data.datagen import company_database
from repro.oql.parser import MAX_NESTING, parse
from repro.oql.pretty import unparse

_DB = company_database(num_employees=12, num_departments=4, seed=3)

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# -- strategy: random OQL text over Employees/Departments -------------------

_num_attrs = st.sampled_from(["e.age", "e.salary", "e.dno", "e.oid"])
_dep_attrs = st.sampled_from(["d.dno", "d.budget"])
_compare = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def scalar_exprs(draw, var="e"):
    base = draw(
        st.sampled_from(["e.age", "e.salary", "e.dno"]).map(
            lambda a: a.replace("e.", f"{var}.")
        )
    )
    if draw(st.booleans()):
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({base} {op} {draw(st.integers(0, 9))})"
    return base


@st.composite
def aggregates(draw):
    fn = draw(st.sampled_from(["count", "sum", "max", "min", "avg"]))
    inner_pred = draw(predicates(var="u", depth=0))
    arg = f"select u.salary from u in Employees where {inner_pred}"
    if draw(st.booleans()):
        # correlated
        arg += " and u.dno = e.dno"
    return f"{fn}( {arg} )"


@st.composite
def predicates(draw, var="e", depth=1, budget=MAX_NESTING // 2 - 2):
    # ``budget`` keeps the query within the parser's nesting limit: each
    # ``(p op q)`` or ``not (p)`` nests two levels deeper.
    kind = draw(st.integers(0, 5 if depth > 0 else 2 if budget > 0 else 0))
    if kind == 0:
        return f"{draw(scalar_exprs(var))} {draw(_compare)} {draw(st.integers(0, 100))}"
    if kind == 1:
        left = draw(predicates(var=var, depth=0, budget=budget - 1))
        right = draw(predicates(var=var, depth=0, budget=budget - 1))
        op = draw(st.sampled_from(["and", "or"]))
        return f"({left} {op} {right})"
    if kind == 2:
        return f"not ({draw(predicates(var=var, depth=0, budget=budget - 1))})"
    if kind == 3:
        return f"{draw(scalar_exprs(var))} > {draw(aggregates())}"
    if kind == 4:
        quantifier = draw(st.sampled_from(["exists", "for all"]))
        body = draw(st.sampled_from(["c.age > 3", "c.age < 9"]))
        return f"{quantifier} c in {var}.children: {body}"
    return (
        f"{var}.dno in ( select d.dno from d in Departments "
        f"where d.budget > {draw(st.integers(0, 500)) * 1000} )"
    )


@st.composite
def queries(draw):
    distinct = "distinct " if draw(st.booleans()) else ""
    projection = draw(
        st.sampled_from(
            [
                "e.name",
                "struct( N: e.name, A: e.age )",
                "struct( D: e.dno, K: count( select c from c in e.children ) )",
            ]
        )
    )
    pred = draw(predicates())
    return f"select {distinct}{projection} from e in Employees where {pred}"


# -- the properties -----------------------------------------------------------


@_SETTINGS
@given(source=queries())
def test_generated_oql_parses_and_round_trips(source):
    ast = parse(source)
    assert parse(unparse(ast)) == ast


@_SETTINGS
@given(source=queries())
def test_generated_oql_strategies_agree(source):
    optimized = Optimizer(_DB).run_oql(source)
    naive = Optimizer(_DB, OptimizerOptions(unnest=False)).run_oql(source)
    assert optimized == naive


@_SETTINGS
@given(source=queries())
def test_generated_oql_classifies(source):
    report = classify_oql(source, _DB.schema)
    assert report.dominant in ("flat", "N", "J", "A", "JA")


@_SETTINGS
@given(source=queries())
def test_generated_oql_typechecks(source):
    compiled = Optimizer(
        _DB, OptimizerOptions(typecheck=True)
    ).compile_oql(source)
    assert compiled.optimized is not None
