"""Figure 8 — the Section 5 simplification (group-by self-join elimination).

Plan A (the raw unnested form: selection ⟕ selection, then nest) is
benchmarked against Plan B (the simplified single-pass grouping).  The paper
draws the two plans and calls B "more efficient"; the expected shape is that
B beats A by a growing factor, because A materializes an O(n·k) outer-join
(k = average group size) while B is a single O(n) pass.
"""

from __future__ import annotations

import pytest

from repro.algebra.pretty import plan_signature, pretty_plan
from repro.core.simplification import simplify
from repro.core.unnesting import unnest_query
from repro.data.datagen import company_database
from repro.engine.physical import Execution
from repro.engine.planner import PlannerOptions, plan_physical
from repro.oql.translator import parse_and_translate

from conftest import timed

SOURCE = (
    "select distinct e.dno, avg(e.salary) as S from Employees e "
    "where e.age > 30 group by e.dno"
)


def _plans(db):
    term = parse_and_translate(SOURCE, db.schema)
    plan_a = unnest_query(term)
    plan_b = simplify(plan_a)
    return plan_a, plan_b


def test_figure8_report(report_writer, benchmark):
    db = company_database(num_employees=120, num_departments=10, seed=1998)
    plan_a, plan_b = _plans(db)
    assert plan_signature(plan_a) == "reduce(nest(outer-join(select(scan), scan)))"
    assert plan_signature(plan_b) == "reduce(nest(map(select(scan))))"

    lines = ["=== Figure 8.A: unnested group-by (self outer-join) ===",
             pretty_plan(plan_a), "",
             "=== Figure 8.B: after the Section 5 simplification ===",
             pretty_plan(plan_b), ""]

    lines.append(f"{'employees':>10} {'planA_ms':>9} {'planB_ms':>9} "
                 f"{'speedup':>8} {'rowsA':>8} {'rowsB':>8}")
    for n in (50, 100, 200, 400):
        scaled = company_database(num_employees=n, num_departments=10, seed=1998)
        pa, pb = _plans(scaled)
        phys_a = plan_physical(pa, scaled)
        result_a, ms_a = timed(phys_a.value)
        phys_b = plan_physical(pb, scaled)
        result_b, ms_b = timed(phys_b.value)
        assert result_a == result_b
        # The rows one execution of each plan produces.
        run_a, run_b = Execution(phys_a), Execution(phys_b)
        phys_a.value(run_a), phys_b.value(run_b)
        lines.append(
            f"{n:>10} {ms_a:>9.2f} {ms_b:>9.2f} {ms_a / ms_b:>7.1f}x "
            f"{phys_a.total_rows(run_a):>8} {phys_b.total_rows(run_b):>8}"
        )
    report_writer("fig8_simplification", "\n".join(lines))
    benchmark(lambda: simplify(_plans(db)[0]))


@pytest.mark.benchmark(group="figure8")
def test_plan_a_execution(benchmark):
    db = company_database(num_employees=200, num_departments=10, seed=1998)
    plan_a, _ = _plans(db)
    physical = plan_physical(plan_a, db)
    benchmark(physical.value)


@pytest.mark.benchmark(group="figure8")
def test_plan_b_execution(benchmark):
    db = company_database(num_employees=200, num_departments=10, seed=1998)
    _, plan_b = _plans(db)
    physical = plan_physical(plan_b, db)
    benchmark(physical.value)


@pytest.mark.benchmark(group="figure8-nl")
def test_plan_a_without_hash_joins(benchmark):
    """Plan A under nested loops only — what 1998-era engines without hash
    outer-joins would pay."""
    db = company_database(num_employees=200, num_departments=10, seed=1998)
    plan_a, _ = _plans(db)
    physical = plan_physical(plan_a, db, PlannerOptions(hash_joins=False))
    benchmark(physical.value)
