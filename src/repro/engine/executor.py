"""Execution driver with per-operator statistics (EXPLAIN ANALYZE style).

Wraps the physical planner: runs a logical plan and reports, per physical
operator, the rows it produced and the plan-wide totals, plus wall time.
The benchmarks use the row counts as a machine-independent work metric (the
same role the paper's stream lengths play in its operator discussion).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.algebra.operators import Operator
from repro.calculus.evaluator import ExtentProvider
from repro.engine.compile import ExprCompiler
from repro.engine.planner import PlannerOptions, plan_physical
from repro.engine.physical import PhysicalOperator, root_value


@dataclass
class OperatorStats:
    """Row production of one physical operator.

    ``eval_mode`` records how the operator's expressions executed
    ("compiled", "mixed", "interpreted", or "" for expression-free
    operators); ``eval_ms`` is the wall time spent inside those expression
    evaluators when profiling was enabled.  ``batches_produced`` /
    ``batch_rows`` record the operator's chunked output (both stay 0 on
    the root, which folds chunks into the result value).
    """

    operator: str
    rows_produced: int
    depth: int
    eval_mode: str = ""
    eval_ms: float = 0.0
    batches_produced: int = 0
    batch_rows: int = 0


@dataclass
class ExecutionStats:
    """The outcome of one measured execution.

    ``cache_hits``/``cache_misses`` are the plan-cache counters at the time
    the statistics were collected; ``from_cache`` records whether this
    particular execution reused a cached plan (both are filled in by
    :class:`repro.core.pipeline.QueryPipeline` — direct ``run_with_stats``
    calls leave them at their defaults).
    """

    result: Any
    elapsed_ms: float
    operators: list[OperatorStats] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    from_cache: bool = False
    #: Governor accounting: work units ticked (rows emitted + join pairs
    #: considered) and the peak estimated bytes buffered by blocking
    #: operators.  Both stay 0 when the execution ran ungoverned.
    governor_ticks: int = 0
    governor_peak_bytes: int = 0
    #: Which backend ran the query ("memory" or "sqlite").
    backend: str = "memory"
    #: On the SQLite backend: one (sql, rows, sql ms, decode ms) entry per
    #: SQL segment of the plan that ran — SQL execution time split from
    #: Python decode time (see :func:`flat_queries`).
    flat_queries: list = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        return sum(op.rows_produced for op in self.operators)

    def report(self) -> str:
        """An EXPLAIN ANALYZE style rendering."""
        lines = [f"execution: {self.elapsed_ms:.3f} ms, {self.total_rows} rows"]
        if self.backend != "memory":
            lines[0] += f" (backend={self.backend})"
        for sql, rows, sql_ms, decode_ms in self.flat_queries:
            lines.append(
                f"flat query: {rows} rows, {sql_ms:.3f} ms sql + "
                f"{decode_ms:.3f} ms decode :: {sql}"
            )
        if self.cache_hits or self.cache_misses:
            source = "cached plan" if self.from_cache else "fresh compile"
            lines[0] += (
                f" ({source}; plan cache {self.cache_hits} hits /"
                f" {self.cache_misses} misses)"
            )
        if self.governor_ticks:
            line = f"governor: {self.governor_ticks} work units"
            if self.governor_peak_bytes:
                line += f", peak ~{self.governor_peak_bytes} bytes buffered"
            lines.append(line)
        for op in self.operators:
            line = f"{'  ' * op.depth}{op.operator}  [rows={op.rows_produced}"
            if op.batches_produced:
                line += (
                    f", batches={op.batches_produced}"
                    f", batch_rows={op.batch_rows}"
                )
            if op.eval_mode:
                line += f", exprs={op.eval_mode}, eval={op.eval_ms:.3f} ms"
            lines.append(line + "]")
        return "\n".join(lines)


def run_with_stats(
    plan: Operator,
    database: ExtentProvider,
    options: PlannerOptions | None = None,
    params: Mapping[str, Any] | None = None,
    profile: bool = True,
    compiler: "ExprCompiler | None" = None,
    governor: Any | None = None,
) -> ExecutionStats:
    """Plan, execute, and collect per-operator statistics.

    *profile* (default on — this is the EXPLAIN ANALYZE entry point) makes
    every operator time its expression evaluation, at the cost of a timer
    call per evaluated expression.  *compiler* reuses a caller-owned
    expression compiler (see :func:`repro.engine.planner.plan_physical`).
    *governor* attaches per-query limits; its accounting lands in
    ``governor_ticks``/``governor_peak_bytes``.
    """
    physical = plan_physical(
        plan,
        database,
        options,
        params,
        profile=profile,
        compiler=compiler,
        governor=governor,
    )
    start = time.perf_counter()
    result = root_value(physical)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    stats = ExecutionStats(
        result=result, elapsed_ms=elapsed_ms, flat_queries=flat_queries(physical)
    )
    if governor is not None:
        stats.governor_ticks = governor.ticks
        stats.governor_peak_bytes = governor.peak_bytes
    collect_operators(physical, 0, stats)
    return stats


def collect_operators(
    op: PhysicalOperator, depth: int, stats: ExecutionStats
) -> None:
    """Append *op*'s subtree to ``stats.operators``, in plan pre-order."""
    stats.operators.append(
        OperatorStats(
            op.describe(),
            op.rows_produced,
            depth,
            op.eval_mode(),
            op.eval_ms,
            op.batches_produced,
            op.batch_rows,
        )
    )
    for child in op.children():
        collect_operators(child, depth + 1, stats)


def flat_queries(op: PhysicalOperator) -> list[tuple[str, int, float, float]]:
    """The (sql, rows, sql ms, decode ms) record of every SQL segment under
    *op* that ran its SELECT, in plan pre-order."""
    ran = getattr(op, "flat_query", None)
    found = [] if ran is None else [ran]
    for child in op.children():
        found.extend(flat_queries(child))
    return found
