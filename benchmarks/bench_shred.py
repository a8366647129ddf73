"""SQLite shredding backend benchmark report: ``BENCH_shred.json``.

Runs every corpus query twice through the full pipeline — once on the
default in-memory engine and once on the query-shredding SQLite backend
(``OptimizerOptions.backend="sqlite"``: extents shredded into flat tables,
the lowerable subtrees of the plan run as flat SELECT leaves of the one
physical plan) — and writes a machine-readable report to ``BENCH_shred.json`` at
the repository root: per-query wall-clock for both backends, rows
returned, the ratio, the flat-query count per shredded plan, and the
geometric-mean ratio across the corpus.

With aggregation pushdown (GROUP BY + aggregates evaluated inside SQLite)
the backend is a real engine, not just a correctness oracle, and the run
asserts a **speedup floor** in ``--quick`` mode: the geometric-mean
sqlite/memory ratio must stay ≥ 0.55×.  The aggregation-heavy corpus
subset (queries with aggregate or quantifier operators — the ones whose
``Reduce``/``Nest`` roots lower to ``GROUP BY``) is reported separately;
on full-size data it is expected at ≥ 1.0×.  The run also asserts, in
both modes:

* both backends agree on every corpus query (the oracle's normalizer);
* every shredded plan actually executed at least one flat SQL query — no
  silent degradation to an all-residual (pure Python) plan;
* zero queries skipped: a ``BackendUnsupportedError`` on corpus queries is
  a coverage regression and fails the run loudly.

Timing is best-of-N (the minimum over N alternating repeats), which is the
standard way to strip scheduler noise from sub-second microbenchmarks.

Usage::

    PYTHONPATH=src python benchmarks/bench_shred.py          # full report
    PYTHONPATH=src python benchmarks/bench_shred.py --quick  # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "tests"))
sys.path.insert(0, str(_REPO / "src"))

from corpus import CORPUS  # noqa: E402

from repro.core.optimizer import OptimizerOptions  # noqa: E402
from repro.core.pipeline import QueryPipeline  # noqa: E402
from repro.data.datagen import (  # noqa: E402
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)
from repro.data.values import CollectionValue  # noqa: E402
from repro.errors import BackendUnsupportedError  # noqa: E402
from repro.testing.oracle import results_equal  # noqa: E402

_FULL_DATABASES: dict[str, Callable[[], Any]] = {
    "company": lambda: company_database(700, 20, seed=1998),
    "university": lambda: university_database(300, 40, seed=1998),
    "travel": lambda: travel_database(60, 16, seed=1998),
    "ab": lambda: ab_database(300, 300, seed=1998),
    "auction": lambda: auction_database(500, 150, seed=1998),
}
_QUICK_DATABASES: dict[str, Callable[[], Any]] = {
    "company": lambda: company_database(60, 8, seed=1998),
    "university": lambda: university_database(40, 12, seed=1998),
    "travel": lambda: travel_database(6, 5, seed=1998),
    "ab": lambda: ab_database(30, 40, seed=1998),
    "auction": lambda: auction_database(40, 25, seed=1998),
}


#: Geomean floor asserted in --quick (CI) mode.
_QUICK_FLOOR = 0.55

#: OQL markers for the aggregation-heavy subset: queries with aggregate
#: or quantifier operators are the ones whose Reduce/Nest roots lower to
#: SQL GROUP BY + aggregates under pushdown.
_AGG_TOKENS = (
    "count(",
    "sum(",
    "avg(",
    "min(",
    "max(",
    "group by",
    "for all",
    "exists",
)


def _is_aggregation_heavy(oql: str) -> bool:
    lowered = oql.lower()
    return any(token in lowered for token in _AGG_TOKENS)


def _best_of(fn: Callable[[], Any], repeats: int) -> tuple[Any, float]:
    """(result, best wall-clock ms) over *repeats* calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return result, best


def _row_count(result: Any) -> int:
    if isinstance(result, CollectionValue):
        return len(result)
    return 1


def build_report(quick: bool) -> dict[str, Any]:
    makers = _QUICK_DATABASES if quick else _FULL_DATABASES
    repeats = 3 if quick else 7
    databases = {name: maker() for name, maker in makers.items()}

    queries = []
    ratios = []
    for query in CORPUS:
        db = databases[query.family]
        memory_pipeline = QueryPipeline(db)
        sqlite_pipeline = QueryPipeline(
            db, OptimizerOptions(backend="sqlite")
        )
        # Compile once up front so the timed region measures execution, not
        # parsing/unnesting (plan-cache hits on every repeat).  The first
        # sqlite execution also pays the one-time shredding cost; run it
        # before timing so the report shows steady-state serving.
        memory_pipeline.compile_oql(query.oql)
        sqlite_pipeline.compile_oql(query.oql)
        try:
            flat_count = len(
                sqlite_pipeline.run_oql_stats(query.oql).flat_queries
            )
        except BackendUnsupportedError as exc:
            raise AssertionError(
                f"{query.name}: the SQLite backend refused a corpus query "
                f"— coverage regressed: {exc}"
            ) from exc
        if flat_count == 0:
            raise AssertionError(
                f"{query.name}: shredded plan executed no flat SQL — the "
                "translation silently degraded to an all-residual plan"
            )

        memory_result, memory_ms = None, float("inf")
        sqlite_result, sqlite_ms = None, float("inf")
        # Alternate backends within each repeat so cache/frequency drift
        # hits both sides equally.
        for _ in range(repeats):
            r, ms = _best_of(lambda: memory_pipeline.run_oql(query.oql), 1)
            memory_result, memory_ms = r, min(memory_ms, ms)
            r, ms = _best_of(lambda: sqlite_pipeline.run_oql(query.oql), 1)
            sqlite_result, sqlite_ms = r, min(sqlite_ms, ms)

        if not results_equal(memory_result, sqlite_result):
            raise AssertionError(
                f"{query.name}: in-memory and SQLite backends disagree"
            )
        ratio = memory_ms / max(sqlite_ms, 1e-6)
        ratios.append(ratio)
        queries.append(
            {
                "name": query.name,
                "family": query.family,
                "rows": _row_count(memory_result),
                "flat_queries": flat_count,
                "aggregation": _is_aggregation_heavy(query.oql),
                "memory_ms": round(memory_ms, 4),
                "sqlite_ms": round(sqlite_ms, 4),
                "sqlite_speedup": round(ratio, 3),
            }
        )

    geomean = statistics.geometric_mean(ratios)
    agg_ratios = [
        q["sqlite_speedup"] for q in queries if q["aggregation"]
    ]
    agg_geomean = statistics.geometric_mean(agg_ratios)
    return {
        "benchmark": "in-memory engine vs query-shredding SQLite backend",
        "mode": "quick" if quick else "full",
        "timing": f"best of {repeats} alternating repeats, wall-clock ms",
        "note": (
            "sqlite_speedup > 1 means SQLite was faster; aggregation "
            "pushdown (GROUP BY inside SQLite) carries the "
            "aggregation-heavy subset, reported separately"
        ),
        "queries": queries,
        "geometric_mean_sqlite_speedup": round(geomean, 3),
        "aggregation_subset_queries": len(agg_ratios),
        "aggregation_subset_speedup": round(agg_geomean, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small databases, fewer repeats (CI smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=_REPO / "BENCH_shred.json",
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    report = build_report(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(q["name"]) for q in report["queries"])
    print(f"{'query':{width}} {'memory':>10} {'sqlite':>10} {'ratio':>7} {'flat':>5}")
    for q in report["queries"]:
        print(
            f"{q['name']:{width}} {q['memory_ms']:>9.2f}ms "
            f"{q['sqlite_ms']:>9.2f}ms {q['sqlite_speedup']:>6.2f}x "
            f"{q['flat_queries']:>5}"
        )
    geomean = report["geometric_mean_sqlite_speedup"]
    agg_geomean = report["aggregation_subset_speedup"]
    print(
        f"\ngeometric-mean sqlite/memory ratio over "
        f"{len(report['queries'])} queries: {geomean:.2f}x "
        f"(aggregation-heavy subset of "
        f"{report['aggregation_subset_queries']}: {agg_geomean:.2f}x) "
        f"-> {args.output}"
    )
    if args.quick and geomean < _QUICK_FLOOR:
        print(
            f"FAIL: quick-mode geomean {geomean:.2f}x is below the "
            f"{_QUICK_FLOOR:.2f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
