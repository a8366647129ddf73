"""Per-operator statistics of one execution (EXPLAIN ANALYZE style).

:meth:`repro.core.pipeline.CompiledQuery.run` runs a kept physical plan and
reports, from the execution's counters, the rows each physical operator
produced and the plan-wide totals, plus wall time.  The benchmarks use the
row counts as a machine-independent work metric (the same role the paper's
stream lengths play in its operator discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.engine.physical import Execution, PhysicalOperator


@dataclass
class OperatorStats:
    """Row production of one physical operator.

    ``eval_mode`` is "compiled" for an operator that evaluates expressions
    (every kernel is generated code) and "" for one that evaluates none;
    ``eval_ms`` is the wall time spent inside those expression
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
    :class:`repro.core.pipeline.QueryPipeline` — a direct
    ``CompiledQuery.run`` leaves them at their defaults).
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


def collect_operators(
    op: PhysicalOperator, ex: Execution, depth: int, stats: ExecutionStats
) -> None:
    """Append *op*'s subtree, with its counters in execution *ex*, to
    ``stats.operators``, in plan pre-order."""
    counts = ex.counts[op]
    stats.operators.append(
        OperatorStats(
            op.describe(),
            counts.rows_produced,
            depth,
            op.eval_mode(),
            counts.eval_ms,
            counts.batches_produced,
            counts.batch_rows,
        )
    )
    for child in op.children():
        collect_operators(child, ex, depth + 1, stats)


def flat_queries(
    op: PhysicalOperator, ex: Execution
) -> list[tuple[str, int, float, float]]:
    """The (sql, rows, sql ms, decode ms) record of every SQL segment under
    *op* that ran its SELECT in execution *ex*, in plan pre-order."""
    ran = getattr(op, "flat_query", None)
    record = None if ran is None else ran(ex)
    found = [] if record is None else [record]
    for child in op.children():
        found.extend(flat_queries(child, ex))
    return found
