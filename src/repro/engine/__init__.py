"""The physical execution engine: iterator-model operators, the physical
planner (the hash join's equi-keys — with none, the nested-loop join —
and index access paths), the cost model, the per-query governor
(timeouts, budgets, cancellation), and the per-operator statistics of an
execution."""

from repro.engine.cost import CostModel
from repro.engine.executor import ExecutionStats
from repro.engine.governor import CancelToken, Governor, estimate_bytes
from repro.engine.physical import Execution
from repro.engine.planner import PlannerOptions, execute, plan_physical

__all__ = [
    "CancelToken",
    "CostModel",
    "Execution",
    "ExecutionStats",
    "Governor",
    "PlannerOptions",
    "estimate_bytes",
    "execute",
    "plan_physical",
]
