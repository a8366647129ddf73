"""The paper's primary contribution: normalization (N1-N9), the unnesting
algorithm (C1-C9), the Section 5 simplification, and the staged
optimizer pipeline."""

from repro.core.classify import NestingReport, classify, classify_oql
from repro.core.normalization import prepare
from repro.core.optimizer import CompiledQuery, Optimizer, OptimizerOptions
from repro.core.pipeline import (
    PIPELINE_STAGES,
    PlanCache,
    QueryPipeline,
    StageResult,
)
from repro.core.simplification import simplify
from repro.core.unnesting import UnnestingError, UnnestingTrace, unnest, unnest_query

__all__ = [
    "CompiledQuery",
    "NestingReport",
    "Optimizer",
    "OptimizerOptions",
    "PIPELINE_STAGES",
    "PlanCache",
    "QueryPipeline",
    "StageResult",
    "UnnestingError",
    "UnnestingTrace",
    "classify",
    "classify_oql",
    "prepare",
    "simplify",
    "unnest",
    "unnest_query",
]
