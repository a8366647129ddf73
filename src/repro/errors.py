"""The structured error taxonomy for the query engine.

Every failure that crosses the public pipeline boundary —
:meth:`repro.core.pipeline.QueryPipeline.run_oql` and friends — is an
instance of :class:`QueryError`.  Raw Python exceptions (``KeyError`` from a
missing extent, ``TypeError`` from ill-typed arithmetic, ``ZeroDivisionError``
from an unlucky predicate) never escape; they are either prevented statically
(the T1–T9 typechecker and schema-aware translation reject them at plan
time) or wrapped at the stage boundary that observed them.

The hierarchy::

    QueryError
    ├── PlanningError            parse / translate / typecheck / rewrite
    │   ├── TypeCheckError       T1–T9 violation, names the subterm
    │   ├── UnknownExtentError   name does not resolve against the schema
    │   ├── OptionError          an option value outside its domain
    │   └── BackendUnsupportedError
    │                            the selected execution backend refuses the
    │                            query or database (e.g. the SQLite shredding
    │                            backend on a schema it cannot flatten)
    ├── ExecutionError           runtime failure in a well-typed plan
    │   └── GovernorError        a resource limit tripped
    │       ├── QueryTimeout     wall-clock deadline exceeded
    │       ├── BudgetExceeded   row or memory budget exceeded
    │       └── QueryCancelled   cooperative cancel() token observed

Each error carries structured context — the query source, the pipeline
stage that raised, and (for execution errors) the operator that was
running — filled in by :meth:`QueryError.annotate` as the exception
propagates outward through layers that know more than the raise site did.

This module imports nothing from the rest of the package so that any
layer (data, calculus, algebra, engine, core) can depend on it without
creating an import cycle.
"""

from __future__ import annotations

__all__ = [
    "QueryError",
    "PlanningError",
    "TypeCheckError",
    "UnknownExtentError",
    "OptionError",
    "BackendUnsupportedError",
    "ExecutionError",
    "GovernorError",
    "QueryTimeout",
    "BudgetExceeded",
    "QueryCancelled",
]


class QueryError(Exception):
    """Base class for every error the query engine reports.

    Attributes:
        message: the human-readable description, without context suffix.
        source: the OQL source text of the failing query, when known.
        stage: the pipeline stage that failed (``parse``, ``translate``,
            ``typecheck``, ``normalize``, ``unnest``, ``simplify``,
            ``optimize``, ``plan``, ``execute``).
        operator: the physical operator running when an execution error
            surfaced, when known (e.g. ``PHashJoin``).
    """

    def __init__(
        self,
        message: str,
        *,
        source: str | None = None,
        stage: str | None = None,
        operator: str | None = None,
    ):
        super().__init__(message)
        self.message = message
        self.source = source
        self.stage = stage
        self.operator = operator

    def annotate(
        self,
        *,
        source: str | None = None,
        stage: str | None = None,
        operator: str | None = None,
    ) -> "QueryError":
        """Fill in context fields that are still unset and return ``self``.

        Outer layers (the pipeline boundary, the executor) call this as the
        error propagates; the innermost annotation wins because set fields
        are never overwritten.
        """
        if source is not None and self.source is None:
            self.source = source
        if stage is not None and self.stage is None:
            self.stage = stage
        if operator is not None and self.operator is None:
            self.operator = operator
        return self

    def __str__(self) -> str:
        parts = []
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.operator is not None:
            parts.append(f"operator={self.operator}")
        if self.source is not None:
            parts.append(f"query={self.source!r}")
        if not parts:
            return self.message
        return f"{self.message} [{', '.join(parts)}]"


class PlanningError(QueryError):
    """The query was rejected before execution: parse, name resolution,
    typecheck, or a rewrite-stage failure."""


class TypeCheckError(PlanningError):
    """A T1–T9 typing rule was violated; the message names the subterm."""


class UnknownExtentError(PlanningError, KeyError):
    """A name did not resolve to an extent (or binding) in the schema.

    Also a ``KeyError`` for backward compatibility with callers that
    caught the raw lookup failure.
    """

    # KeyError.__str__ repr-quotes its argument; QueryError's wins via MRO,
    # but be explicit so the contract is pinned rather than incidental.
    __str__ = QueryError.__str__


class OptionError(PlanningError, ValueError):
    """An ``OptimizerOptions`` field was given a value outside its domain
    (``max_rows=-5``, ``backend="duckdb"``), refused where the options are
    made; the message names the field.  Also a ``ValueError``, which is
    what a bad argument is to code that constructs options."""

    __str__ = QueryError.__str__


class BackendUnsupportedError(PlanningError):
    """The selected execution backend cannot run this query or database.

    Raised by alternative backends (``OptimizerOptions.backend``) on
    constructs they refuse rather than risk silently diverging from the
    reference semantics — e.g. the SQLite shredding backend on a schema
    with inheritance, or a database whose extents it cannot flatten.  The
    query itself is fine: re-running with ``backend="memory"`` succeeds.
    The differential oracle treats this error as a *skip* (counted, never
    silent), not a disagreement.
    """


class ExecutionError(QueryError):
    """A well-typed plan failed at run time (e.g. division by zero,
    an unbound parameter, or a wrapped evaluator fault)."""


class GovernorError(ExecutionError):
    """A per-query resource limit stopped execution cooperatively."""


class QueryTimeout(GovernorError):
    """The query exceeded its wall-clock deadline."""


class BudgetExceeded(GovernorError):
    """The query exceeded its row budget or estimated-memory budget."""


class QueryCancelled(GovernorError):
    """The query observed its cancellation token and stopped."""
