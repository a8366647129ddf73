"""EXPLAIN ANALYZE accounting: per-operator row counts must be an honest
record of the execution.

Two properties, checked across query shapes and both demo and random
databases:

* the **root** operator's row count equals the result's cardinality — one
  row per element of a collection result, exactly one row for a scalar
  (aggregates, quantifiers);
* the accounting is **deterministic** — re-running the same query yields
  the same per-operator counts (fresh pipeline) and the same counts again
  through a cached plan (long-lived pipeline), so EXPLAIN ANALYZE output
  can be compared across runs.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import QueryPipeline
from repro.data.values import CollectionValue
from repro.testing.fuzz import FuzzConfig, generate_sample

QUERIES = (
    "select distinct e.name from e in Employees",
    "select e from e in Employees where e.salary > 30000",
    "select struct( D: d.dno, N: count( select e from e in Employees "
    "where e.dno = d.dno ) ) from d in Departments",
    "sum( select e.salary from e in Employees )",
    "count( select e from e in Employees where e.age < 40 )",
    "exists e in Employees: e.salary > 10",
    "select e.dno, avg(e.salary) as pay from Employees e group by e.dno",
)


def _expected_root_rows(result) -> int:
    return len(result) if isinstance(result, CollectionValue) else 1


@pytest.mark.parametrize("source", QUERIES)
def test_root_rows_match_result_cardinality(source, company_db):
    stats = QueryPipeline(company_db).run_oql_stats(source)
    root = stats.operators[0]
    assert root.depth == 0
    assert root.rows_produced == _expected_root_rows(stats.result), (
        f"root accounting for {source!r}: reported {root.rows_produced}, "
        f"result has {_expected_root_rows(stats.result)}"
    )


@pytest.mark.parametrize("source", QUERIES)
def test_totals_stable_across_reruns(source, company_db):
    first = QueryPipeline(company_db).run_oql_stats(source)
    second = QueryPipeline(company_db).run_oql_stats(source)
    assert first.result == second.result
    assert first.total_rows == second.total_rows
    # Operator labels embed compilation-unique variable names, so compare
    # the shape of the accounting (counts and tree depths), not the labels.
    assert [(op.rows_produced, op.depth) for op in first.operators] == [
        (op.rows_produced, op.depth) for op in second.operators
    ]


def test_cached_plan_reports_identical_counts(company_db):
    source = QUERIES[1]
    pipeline = QueryPipeline(company_db)
    fresh = pipeline.run_oql_stats(source)
    assert not fresh.from_cache
    cached = pipeline.run_oql_stats(source)
    assert cached.from_cache
    assert cached.total_rows == fresh.total_rows
    assert cached.operators[0].rows_produced == fresh.operators[0].rows_produced


def test_root_accounting_on_random_samples():
    config = FuzzConfig(seed=9)
    checked = 0
    for iteration in range(30):
        source, params, db = generate_sample(config, iteration)
        pipeline = QueryPipeline(db)
        try:
            stats = pipeline.run_oql_stats(source, **params)
        except Exception:
            continue  # oracle coverage elsewhere; here only accounting
        if not stats.operators:
            continue  # unnesting disabled paths have no physical operators
        assert stats.operators[0].rows_produced == _expected_root_rows(
            stats.result
        ), f"root accounting broken for fuzzed query {source!r}"
        checked += 1
    assert checked >= 20  # the sample set must actually exercise the check


def test_report_mentions_rows_and_cache(company_db):
    pipeline = QueryPipeline(company_db)
    pipeline.run_oql_stats(QUERIES[0])
    stats = pipeline.run_oql_stats(QUERIES[0])
    text = stats.report()
    assert "rows" in text
    assert "cached plan" in text


def test_group_join_reports_as_one_operator(company_db):
    # The nest over the outer-join is one line of the report — no join
    # beneath it — with its own rows, chunking and expression mode; its
    # two inputs are its children.
    stats = QueryPipeline(company_db).run_oql_stats(
        "select distinct e.name from e in Employees "
        "where e.salary >= max( select u.salary from u in Employees "
        "where u.dno = e.dno )"
    )
    labels = [op.operator for op in stats.operators]
    assert not any("Join(" in label and "GroupJoin" not in label for label in labels)
    (index,) = [i for i, label in enumerate(labels) if label.startswith("GroupJoin(")]
    fused = stats.operators[index]
    employees = len(company_db.extent("Employees"))
    assert fused.operator.startswith("GroupJoin(max -> ")
    assert ".dno = " in fused.operator and " by " in fused.operator
    assert fused.rows_produced == fused.batch_rows == employees  # one group per e
    assert fused.batches_produced == 1
    assert fused.eval_mode == "compiled" and fused.eval_ms > 0
    inputs = stats.operators[index + 1 : index + 3]
    assert [op.depth for op in inputs] == [fused.depth + 1] * 2
    assert all(op.operator.startswith("Scan(") for op in inputs)
    assert f"rows={employees}, batches=1" in stats.report()


def test_sqlite_reports_the_same_operator_tree_over_sql_leaves(company_db):
    # backend="sqlite" is a planning decision: EXPLAIN ANALYZE shows the
    # residual operators exactly as the memory backend would (rows,
    # chunking, expression mode, eval time) and each flat SELECT as a leaf
    # whose row count is the SELECT's.
    from repro.core.optimizer import OptimizerOptions

    source = (
        "select struct(E: e.name, K: (select struct(A: c.name) "
        "from c in e.children)) from e in Employees"
    )
    pipeline = QueryPipeline(company_db, OptimizerOptions(backend="sqlite"))
    stats = pipeline.run_oql_stats(source)
    assert stats.result == QueryPipeline(company_db).run_oql(source)
    root, nest, leaf = stats.operators
    assert [op.depth for op in stats.operators] == [0, 1, 2]
    assert root.operator.startswith("Reduce(bag / ")
    assert root.rows_produced == _expected_root_rows(stats.result)
    employees = len(company_db.extent("Employees"))
    assert nest.operator.startswith("HashNest(bag -> ")
    assert nest.rows_produced == nest.batch_rows == employees
    assert nest.eval_mode == root.eval_mode == "compiled" and nest.eval_ms > 0
    assert leaf.operator == "SqlSegment[sql](OuterUnnest subtree)"
    ((sql, rows, sql_ms, decode_ms),) = stats.flat_queries
    assert leaf.rows_produced == leaf.batch_rows == rows >= employees
    assert leaf.batches_produced == 1 and leaf.eval_mode == ""
    report = stats.report()
    assert f"flat query: {rows} rows" in report and sql in report
    assert f"SqlSegment[sql](OuterUnnest subtree)  [rows={rows}, batches=1" in report
    assert "exprs=compiled" in report and "backend=sqlite" in report
    again = pipeline.run_oql_stats(source)
    assert again.from_cache
    assert [(op.rows_produced, op.depth) for op in again.operators] == [
        (op.rows_produced, op.depth) for op in stats.operators
    ]


def test_shared_nest_reports_rows_out_over_representatives_in(auction_db):
    # One line for the operator (a group per left row), its spine beneath
    # it down to the stand-in leaf (a row per distinct binding), then the
    # left input it drained.
    stats = QueryPipeline(auction_db).run_oql_stats(
        "select distinct struct( C: c.name, N: count( select i from i in Items "
        "where exists k in i.categories: k.name = c.name ) ) "
        "from i0 in Items, c in i0.categories"
    )
    labels = [op.operator for op in stats.operators]
    (index,) = [i for i, label in enumerate(labels) if label.startswith("SharedNest(")]
    shared, spine = stats.operators[index], stats.operators[index + 1]
    assert shared.operator.startswith("SharedNest(sum -> ") and " per " in shared.operator
    assert shared.operator.endswith(".name)")
    assert spine.operator.startswith("HashNest(sum -> ") and spine.depth == shared.depth + 1
    (leaf,) = [op for op in stats.operators if op.operator.startswith("Materialized(")]
    left = next(
        op
        for op in stats.operators[index + 2 :]
        if op.depth == shared.depth + 1
    )
    assert left.operator.startswith("Unnest(")
    categories = len(stats.result)
    assert leaf.rows_produced == spine.rows_produced == categories
    assert shared.rows_produced == left.rows_produced > categories
    assert shared.eval_mode == "compiled" and shared.eval_ms > 0
    assert f"rows={shared.rows_produced}" in stats.report()
