"""Database administration: persistence, indexes, statistics, EXPLAIN ANALYZE.

Run with:  python examples/dba_tools.py

Shows the substrate around the optimizer: save/load a database image (the
SHORE stand-in), build indexes and watch the planner pick index scans,
ANALYZE statistics refining cost estimates, and per-operator execution
statistics.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import Optimizer, company_database
from repro.data.storage import load_database, save_database
from repro.engine import run_with_stats
from repro.engine.planner import PlannerOptions


def main() -> None:
    db = company_database(num_employees=500, num_departments=12, seed=7)
    print(f"Built {db!r}")

    # ---- persistence ---------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        image = Path(tmp) / "company.repro.json"
        save_database(db, image)
        print(f"\nSaved database image: {image.name} "
              f"({image.stat().st_size // 1024} KiB)")
        db = load_database(image)
        print(f"Reloaded: {db!r}")

    # ---- indexes -------------------------------------------------------------
    source = "select distinct e.name from e in Employees where e.dno = 4"
    optimizer = Optimizer(db)
    compiled = optimizer.compile_oql(source)

    print("\nWithout an index:")
    stats = run_with_stats(compiled.optimized, db, PlannerOptions(index_scans=False))
    print(stats.report())

    db.create_index("Employees", "dno")
    print("\nAfter CREATE INDEX on Employees.dno:")
    stats = run_with_stats(compiled.optimized, db)
    print(stats.report())

    # ---- statistics ------------------------------------------------------------
    from repro.engine.cost import CostModel
    from repro.algebra.operators import Scan, Select
    from repro.calculus.terms import BinOp, Proj, Var, const

    select = Select(
        Scan("Employees", "e"), BinOp("==", Proj(Var("e"), "dno"), const(4))
    )
    model = CostModel(db)
    print(f"\nCost model estimate before ANALYZE: "
          f"{model.cardinality(select):.0f} rows")
    db.analyze()
    print(f"Cost model estimate after  ANALYZE: "
          f"{model.cardinality(select):.0f} rows "
          f"(dno has {db.distinct_count('Employees', 'dno')} distinct values)")
    actual = optimizer.run_oql("count( select e from e in Employees where e.dno = 4 )")
    print(f"Actual matching employees:          {actual} rows")

    # ---- EXPLAIN ANALYZE on a nested query ---------------------------------------
    nested = (
        "select distinct struct( D: d.dno, Payroll: sum( select e.salary "
        "from e in Employees where e.dno = d.dno ) ) from d in Departments"
    )
    print("\nEXPLAIN ANALYZE of a nested aggregate query:")
    compiled = optimizer.compile_oql(nested)
    stats = run_with_stats(compiled.optimized, db)
    print(stats.report())


if __name__ == "__main__":
    main()
