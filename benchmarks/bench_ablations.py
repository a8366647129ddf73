"""Ablations for the optimizer's design choices (DESIGN.md §6).

Each experiment toggles exactly one phase and measures the effect on a
query chosen to exercise it:

* join permutation — a three-way equi-join whose selective input appears
  last in the source order;
* index access paths — an equality selection over a large extent;
* the algebraic phase (selection pushdown) — QUERY E, whose course-title
  selection otherwise runs inside an outer-join predicate;
* hash joins vs. nested loops — covered per size in bench_scaling, pinned
  here at one size for the benchmark table.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.data.datagen import company_database, university_database

from conftest import timed

THREE_WAY = (
    "select distinct struct(S: s.name, C: c.title) "
    "from s in Student, t in Transcript, c in Courses "
    'where s.id = t.id and t.cno = c.cno and c.title = "DB"'
)

QUERY_E = (
    "select distinct s from s in Student "
    'where for all c in ( select c from c in Courses where c.title = "DB" ): '
    "exists t in Transcript: (t.id = s.id and t.cno = c.cno)"
)

INDEXED = (
    "select distinct e.name from e in Employees where e.dno = 3 and e.age > 30"
)


def test_ablation_report(report_writer, benchmark):
    lines = []

    # --- join permutation -------------------------------------------------
    db = university_database(num_students=150, num_courses=20, seed=1998)
    with_reorder = Optimizer(db).compile_oql(THREE_WAY)
    without = Optimizer(db, OptimizerOptions(reorder_joins=False)).compile_oql(
        THREE_WAY
    )
    reference = with_reorder.execute(db)
    assert without.execute(db) == reference
    stats_with = with_reorder.run(db, profile=True)
    stats_without = without.run(db, profile=True)
    lines.append("join permutation (3-way equi-join, selective input last):")
    lines.append(
        f"  reorder on : {stats_with.elapsed_ms:8.2f} ms, "
        f"{stats_with.total_rows:7d} rows"
    )
    lines.append(
        f"  reorder off: {stats_without.elapsed_ms:8.2f} ms, "
        f"{stats_without.total_rows:7d} rows"
    )
    assert stats_with.total_rows <= stats_without.total_rows

    # --- index access paths -------------------------------------------------
    db = company_database(num_employees=3000, num_departments=12, seed=1998)
    db.create_index("Employees", "dno")
    compiled = Optimizer(db).compile_oql(INDEXED)
    _, ms_indexed = timed(lambda: compiled.execute(db))
    stats_idx = compiled.run(db, profile=True)
    stats_seq = Optimizer(db, OptimizerOptions(index_scans=False)).compile_oql(
        INDEXED
    ).run(db, profile=True)
    assert stats_idx.result == stats_seq.result
    lines.append("")
    lines.append("index access path (equality selection over 3000 employees):")
    lines.append(
        f"  index scan : {stats_idx.elapsed_ms:8.2f} ms, "
        f"{stats_idx.total_rows:7d} rows"
    )
    lines.append(
        f"  seq scan   : {stats_seq.elapsed_ms:8.2f} ms, "
        f"{stats_seq.total_rows:7d} rows"
    )
    assert stats_idx.total_rows < stats_seq.total_rows

    # --- algebraic phase (selection pushdown) -------------------------------
    db = university_database(num_students=120, num_courses=25, seed=1998)
    with_alg = Optimizer(db).compile_oql(QUERY_E)
    without_alg = Optimizer(
        db, OptimizerOptions(algebraic=False, reorder_joins=False)
    ).compile_oql(QUERY_E)
    assert with_alg.execute(db) == without_alg.execute(db)
    stats_alg = with_alg.run(db, profile=True)
    stats_noalg = without_alg.run(db, profile=True)
    lines.append("")
    lines.append("algebraic rewrites (QUERY E, selection pushdown into scans):")
    lines.append(
        f"  rewrites on : {stats_alg.elapsed_ms:8.2f} ms, "
        f"{stats_alg.total_rows:7d} rows"
    )
    lines.append(
        f"  rewrites off: {stats_noalg.elapsed_ms:8.2f} ms, "
        f"{stats_noalg.total_rows:7d} rows"
    )
    # Row totals are not comparable across plans with different operator
    # counts (the pushed selection is itself a counted stage); the win here
    # is evaluating the title predicate once per course row instead of once
    # per join pair, which shows up in wall time.

    report_writer("ablations", "\n".join(lines))
    benchmark(with_alg.execute, db)


@pytest.mark.benchmark(group="ablation-joinorder")
def test_three_way_with_reordering(benchmark):
    db = university_database(num_students=150, num_courses=20, seed=1998)
    compiled = Optimizer(db).compile_oql(THREE_WAY)
    benchmark(compiled.execute, db)


@pytest.mark.benchmark(group="ablation-joinorder")
def test_three_way_without_reordering(benchmark):
    db = university_database(num_students=150, num_courses=20, seed=1998)
    compiled = Optimizer(db, OptimizerOptions(reorder_joins=False)).compile_oql(
        THREE_WAY
    )
    benchmark(compiled.execute, db)


@pytest.mark.benchmark(group="ablation-index")
def test_selection_with_index(benchmark):
    db = company_database(num_employees=3000, num_departments=12, seed=1998)
    db.create_index("Employees", "dno")
    compiled = Optimizer(db).compile_oql(INDEXED)
    physical = compiled.physical(db)
    benchmark(physical.value)


@pytest.mark.benchmark(group="ablation-index")
def test_selection_without_index(benchmark):
    db = company_database(num_employees=3000, num_departments=12, seed=1998)
    compiled = Optimizer(db).compile_oql(INDEXED)
    physical = compiled.physical(db)
    benchmark(physical.value)
