"""repro — a reproduction of Fegaras, *Query Unnesting in Object-Oriented
Databases* (SIGMOD 1998).

The package implements the paper's complete system:

* the **monoid comprehension calculus** (:mod:`repro.calculus`) — terms,
  monoids, typing rules, and the reference (naive nested-loop) evaluator;
* the **normalization algorithm** (:mod:`repro.core.normalization`, rules
  N1–N9) and predicate normalization;
* the **nested relational algebra** (:mod:`repro.algebra`) with aggregation,
  quantification, outer-joins, outer-unnests, and nest (rules O1–O7);
* the **query unnesting algorithm** (:mod:`repro.core.unnesting`, rules
  C1–C9) — the paper's primary contribution;
* the **Section 5 simplification rule** (:mod:`repro.core.simplification`);
* an **OQL front-end** (:mod:`repro.oql`);
* a **rule-based optimizer** and cost-based join permutation
  (:mod:`repro.core.optimizer`, :mod:`repro.core.rewrite`);
* an **in-memory OODB** and **physical execution engine**
  (:mod:`repro.data`, :mod:`repro.engine`).

Quickstart::

    from repro import Optimizer, company_database

    db = company_database(num_employees=100, num_departments=10)
    optimizer = Optimizer(db)
    result = optimizer.run_oql(
        "select distinct struct(E: e.name, C: c.name) "
        "from e in Employees, c in e.children"
    )
"""

from repro.algebra.evaluator import evaluate_plan
from repro.algebra.pretty import plan_signature, pretty_plan
from repro.calculus.evaluator import Evaluator, evaluate
from repro.calculus.pretty import pretty
from repro.calculus.typing import infer_type
from repro.core.classify import classify, classify_oql
from repro.core.normalization import prepare
from repro.core.optimizer import CompiledQuery, Optimizer, OptimizerOptions
from repro.core.pipeline import PIPELINE_STAGES, PlanCache, QueryPipeline, StageResult
from repro.core.simplification import simplify
from repro.core.unnesting import UnnestingTrace, unnest, unnest_query
from repro.data.database import Database
from repro.data.datagen import (
    ab_database,
    company_database,
    travel_database,
    university_database,
)
from repro.engine.executor import ExecutionStats
from repro.engine.governor import CancelToken, Governor
from repro.engine.planner import PlannerOptions, execute, plan_physical
from repro.errors import (
    BudgetExceeded,
    ExecutionError,
    GovernorError,
    PlanningError,
    QueryCancelled,
    QueryError,
    QueryTimeout,
    TypeCheckError,
    UnknownExtentError,
)
from repro.oql.params import parameterize_literals
from repro.oql.parser import parse
from repro.oql.translator import parse_and_translate, translate

__version__ = "1.0.0"

__all__ = [
    "BudgetExceeded",
    "CancelToken",
    "CompiledQuery",
    "Database",
    "Evaluator",
    "ExecutionError",
    "ExecutionStats",
    "Governor",
    "GovernorError",
    "Optimizer",
    "OptimizerOptions",
    "PIPELINE_STAGES",
    "PlanCache",
    "PlannerOptions",
    "PlanningError",
    "QueryCancelled",
    "QueryError",
    "QueryPipeline",
    "QueryTimeout",
    "StageResult",
    "TypeCheckError",
    "UnknownExtentError",
    "UnnestingTrace",
    "ab_database",
    "classify",
    "classify_oql",
    "company_database",
    "evaluate",
    "evaluate_plan",
    "execute",
    "infer_type",
    "parameterize_literals",
    "parse",
    "parse_and_translate",
    "plan_physical",
    "plan_signature",
    "prepare",
    "pretty",
    "pretty_plan",
    "simplify",
    "translate",
    "travel_database",
    "university_database",
    "unnest",
    "unnest_query",
]
