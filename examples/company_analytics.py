"""Analytics over the company schema: aggregates, group-by, and the
Section 5 simplification.

Run with:  python examples/company_analytics.py

Shows the paper's Section 5 observation in action: a SQL-style GROUP BY
query is *implicitly nested* in the calculus, unnests into a self
outer-join (Figure 8.A), and the simplification rule collapses it into a
single hash-grouping pass (Figure 8.B).
"""

from __future__ import annotations

import time

from repro import (
    Optimizer,
    OptimizerOptions,
    company_database,
    pretty,
    pretty_plan,
    simplify,
    unnest_query,
)
from repro.oql.translator import parse_and_translate

GROUP_QUERY = """
select distinct e.dno, avg(e.salary) as avg_salary
from Employees e
where e.age > 30
group by e.dno
"""


def figure8() -> None:
    db = company_database(num_employees=60, num_departments=9, seed=42)
    print(f"Database: {db}")
    print("\nOQL:", " ".join(GROUP_QUERY.split()))

    term = parse_and_translate(GROUP_QUERY, db.schema)
    print("\nCalculus translation — note the hidden nesting (Section 5):")
    print(" ", pretty(term))

    plan_a = unnest_query(term)
    print("\nPlan A — the unnested self outer-join (Figure 8.A):")
    print(pretty_plan(plan_a))

    plan_b = simplify(plan_a)
    print("\nPlan B — after the Section 5 simplification (Figure 8.B):")
    print(pretty_plan(plan_b))

    from repro.engine import Execution, plan_physical

    for label, plan in [("A", plan_a), ("B", plan_b)]:
        physical = plan_physical(plan, db)
        execution = Execution(physical)
        start = time.perf_counter()
        result = physical.value(execution)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"\nPlan {label}: {elapsed:.2f} ms, "
              f"{physical.total_rows(execution)} rows processed")
    assert plan_physical(plan_a, db).value() == plan_physical(plan_b, db).value()


def more_analytics() -> None:
    db = company_database(num_employees=60, num_departments=9, seed=42)
    optimizer = Optimizer(db)
    print("\n" + "=" * 72)

    reports = [
        ("Departments with headcount above 5",
         "select e.dno, count(e) as n from Employees e group by e.dno "
         "having count(e) > 5"),
        ("Employees earning above the company average",
         "select distinct e.name from e in Employees "
         "where e.salary > avg( select u.salary from u in Employees )"),
        ("Per-department payroll",
         "select distinct struct( D: d.name, Payroll: sum( select e.salary "
         "from e in Employees where e.dno = d.dno ) ) from d in Departments"),
        ("Employees all of whose children outrank the manager's children",
         "select distinct struct( E: e.name, M: count( select distinct c "
         "from c in e.children where for all d in e.manager.children: "
         "c.age > d.age ) ) from e in Employees where e.oid < 5"),
    ]
    for title, source in reports:
        compiled = optimizer.compile_oql(source)
        result = compiled.execute(db)
        print(f"\n{title}:")
        rows = sorted(map(str, result)) if hasattr(result, "__iter__") else [result]
        for row in rows[:5]:
            print("  ", row)
        if hasattr(result, "__len__") and len(result) > 5:
            print(f"   ... ({len(result)} rows total)")


if __name__ == "__main__":
    figure8()
    more_analytics()
