"""The staged query pipeline: compilation as explicit, instrumented stages.

The paper's Section 6 prototype is a fixed cascade — parse, translate to the
monoid calculus, normalize, unnest (C1–C9), simplify (§5), algebraic
rewrites + join permutation, physical planning.  Historically this repo ran
that cascade inside one monolithic ``compile`` function; this module makes
each step a named **stage** that records what it produced, how long it took,
and a pretty-printed snapshot of the intermediate form, so ``explain`` can
show every representation a query passes through:

    parse → translate → typecheck → normalize → unnest → simplify
          → optimize → plan

On top of the staged compiler sit the two serving-layer features:

* **prepared statements** — OQL ``:name`` placeholders compile into
  :class:`~repro.calculus.terms.Param` terms; the same
  :class:`CompiledQuery` is then :meth:`~CompiledQuery.bind`-able to any
  parameter values, so one plan serves every binding;
* a **plan cache** — :class:`PlanCache` is an LRU keyed by the source
  (whitespace-normalized unless it holds a string or a comment), the
  database's schema version, the option set, and the view-definition
  epoch, with hit/miss counters surfaced
  through :class:`~repro.engine.executor.ExecutionStats`.

:class:`repro.core.optimizer.Optimizer` is the backward-compatible facade:
a :class:`QueryPipeline` subclass that keeps the historical entry-point
names.  (This module deliberately imports the rewrite-rule definitions
lazily so that ``repro.core.optimizer`` can import it without a cycle.)
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.algebra.operators import Operator
from repro.algebra.pretty import pretty_plan
from repro.algebra.typing import PlanTypeChecker, type_plan
from repro.calculus.evaluator import Evaluator, UnboundParameterError
from repro.calculus.pretty import pretty
from repro.calculus.terms import Term, param_names
from repro.core.normalization import prepare
from repro.core.rewrite import RewriteEngine
from repro.core.simplification import simplify
from repro.core.unnesting import UnnestingTrace, unnest
from repro.data.database import Database
from repro.engine.compile import ExprCompiler
from repro.engine.cost import CostModel
from repro.engine.executor import (
    ExecutionStats,
    collect_operators,
    flat_queries,
)
from repro.engine.governor import CancelToken, Governor
from repro.engine.planner import PlannerOptions, plan_physical
from repro.engine.physical import Execution, PhysicalOperator
from repro.errors import (
    BackendUnsupportedError,
    ExecutionError,
    PlanningError,
    QueryError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.optimizer import OptimizerOptions

__all__ = [
    "PIPELINE_STAGES",
    "CompiledQuery",
    "PlanCache",
    "QueryPipeline",
    "StageResult",
]

def _planner_options(options: "OptimizerOptions") -> PlannerOptions:
    """The physical-planning knobs carried by a set of optimizer options."""
    return PlannerOptions(
        hash_joins=options.hash_joins,
        index_scans=options.index_scans,
        batch_size=options.batch_size,
        parallel=options.parallel,
        num_workers=options.num_workers,
    )


#: The stage names, in pipeline order.  A given compilation records a subset:
#: ``parse``/``translate`` only appear when compiling from OQL text,
#: ``typecheck`` only with ``OptimizerOptions.typecheck``, the algebraic
#: stages only with their phase switches on, and ``plan`` only when the
#: pipeline has a database to bind the physical plan to.
PIPELINE_STAGES = (
    "parse",
    "translate",
    "typecheck",
    "normalize",
    "unnest",
    "simplify",
    "optimize",
    "plan",
)


@dataclass(frozen=True)
class StageResult:
    """One pipeline stage's outcome: what it made, how long it took.

    ``snapshot`` is a pretty-printed rendering of the intermediate form the
    stage produced (OQL text, calculus term, algebraic plan, or physical
    plan) — the raw object is in ``value``.  It is rendered when first
    read: only ``explain_stages`` readers want the text, and printing eight
    forms cost every compile more than its parse stage.
    """

    name: str
    elapsed_ms: float
    render: Callable[[Any], str] = field(repr=False)
    value: Any = field(repr=False, default=None)

    @cached_property
    def snapshot(self) -> str:
        return self.render(self.value)


class PlanCache:
    """A tiny LRU cache of :class:`CompiledQuery` objects.

    Keys combine the whitespace-normalized query text with everything else
    that determines the plan: the database's
    :attr:`~repro.data.database.Database.schema_version`, the
    ``OptimizerOptions``, and the pipeline's view-definition epoch — so a
    schema change or view redefinition can never serve a stale plan.

    >>> cache = PlanCache(maxsize=2)
    >>> cache.lookup("k") is None
    True
    >>> cache.hits, cache.misses
    (0, 1)
    """

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Any, CompiledQuery] = OrderedDict()
        # Guards entries *and* counters: the LRU move_to_end/popitem pair
        # is not atomic under concurrent lookups, and a thread pool serving
        # one pipeline hits exactly that race.
        self._lock = threading.Lock()

    def lookup(self, key: Any) -> CompiledQuery | None:
        """The cached plan for *key*, or None; updates the hit/miss counters."""
        with self._lock:
            try:
                compiled = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return compiled

    def store(self, key: Any, compiled: CompiledQuery) -> None:
        """Insert a plan, evicting the least recently used beyond maxsize."""
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> tuple[int, int, int]:
        """A consistent ``(hits, misses, entries)`` snapshot.

        Reading the counters as separate attribute accesses can interleave
        with a concurrent lookup and observe a torn pair; serving-layer
        metrics read through here instead.
        """
        with self._lock:
            return self.hits, self.misses, len(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self._entries)}/{self.maxsize} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )


@dataclass
class CompiledQuery:
    """Everything the pipeline produced for one query.

    A compiled query is a *template*: any :class:`~repro.calculus.terms.Param`
    placeholders (OQL ``:name``) stay symbolic in the plan, and values are
    supplied per execution via :meth:`bind` or ``execute(db, name=value)``.
    Cached instances are shared, so :meth:`bind` returns a copy instead of
    mutating.
    """

    source: str | None
    term: Term  # calculus translation (before normalization)
    prepared: Term  # normalized, canonicalized, alpha-unique
    logical: Operator | None  # unnested plan (None when unnesting is off)
    optimized: Operator | None  # after simplification + algebraic phases
    trace: UnnestingTrace | None
    options: "OptimizerOptions"
    rule_firings: list = field(default_factory=list)
    #: Per-stage instrumentation, in execution order.
    stages: tuple[StageResult, ...] = ()
    #: Parameter values fixed by :meth:`bind` (merged with execute kwargs).
    params: Mapping[str, Any] = field(default_factory=dict)
    #: The expression→kernel compiler whose kernels this query's physical
    #: plans hold; shared with every :meth:`bind` copy.
    _compiler: ExprCompiler = field(
        default_factory=ExprCompiler, repr=False, compare=False
    )
    #: ``backend="sqlite"``: shredded store -> ``(lowered, physical)``,
    #: :attr:`optimized` with its lowered subtrees as SQL-segment leaves and
    #: its physical plan (None until first run).  One mapping shared with
    #: every :meth:`bind` copy, so a plan is lowered and planned once per
    #: store and dropped with this query by whatever cache holds it; weak,
    #: and a physical plan holds its store weakly, so a cached plan never
    #: keeps a replaced store's SQLite image alive.
    _lowered: "weakref.WeakKeyDictionary[Any, tuple]" = field(
        default_factory=weakref.WeakKeyDictionary, repr=False, compare=False
    )
    #: Database -> ``(schema_version, typing, physical)``: :meth:`typing`
    #: and the memory backend's physical plan (None until first planned) at
    #: that state; shared with every :meth:`bind` copy like :attr:`_lowered`.
    _typing: "weakref.WeakKeyDictionary[Any, tuple]" = field(
        default_factory=weakref.WeakKeyDictionary, repr=False, compare=False
    )
    #: Lazily computed cache for :attr:`param_names` — the term walk is
    #: per-query, not per-execution (``bind`` copies carry it along).
    _param_names: frozenset[str] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def param_names(self) -> frozenset[str]:
        """The ``:name`` placeholders this query expects values for."""
        names = self._param_names
        if names is None:
            names = param_names(self.term)
            self._param_names = names
        return names

    def bind(self, /, **params: Any) -> "CompiledQuery":
        """A copy of this query with the given parameter values fixed.

        Later :meth:`bind` calls and ``execute`` keyword arguments override
        earlier bindings.  Binding a name the query has no placeholder for
        is an error (it would be silently ignored at run time otherwise).
        """
        unknown = set(params) - self.param_names
        if unknown:
            raise UnboundParameterError(
                f"query has no parameter(s) {sorted(unknown)}; "
                f"declared: {sorted(self.param_names)}"
            )
        return replace(self, params={**self.params, **params})

    def _merged_params(
        self, params: Mapping[str, Any] | None
    ) -> dict[str, Any]:
        """Bound values merged with per-call overrides, checked for
        coverage."""
        params = params or {}
        if set(params) - self.param_names:
            raise UnboundParameterError(
                f"query has no parameter(s) "
                f"{sorted(set(params) - self.param_names)}; "
                f"declared: {sorted(self.param_names)}"
            )
        merged = {**self.params, **params}
        missing = self.param_names - merged.keys()
        if missing:
            raise UnboundParameterError(
                f"missing value(s) for parameter(s) {sorted(missing)}"
            )
        return merged

    def make_governor(
        self, cancel_token: "CancelToken | None" = None
    ) -> Governor | None:
        """A fresh per-execution governor when any limit or token applies
        (options carry the limits; the token arrives per call), else None —
        the ungoverned hot path stays entirely hook-free."""
        options = self.options
        if (
            cancel_token is None
            and options.timeout is None
            and options.max_rows is None
            and options.max_bytes is None
        ):
            return None
        governor = Governor(
            timeout=options.timeout,
            max_rows=options.max_rows,
            max_bytes=options.max_bytes,
            token=cancel_token,
            source=self.source,
        )
        # Check once up front: an already-cancelled token or an already
        # expired deadline must trip even on queries too small to ever
        # reach the first amortized checkpoint.
        governor.check()
        return governor

    def execute(
        self,
        database: Database,
        params: Mapping[str, Any] | None = None,
        /,
        *,
        cancel_token: "CancelToken | None" = None,
        **named: Any,
    ) -> Any:
        """Run the query against *database* using the compiled strategy.

        The *params* mapping, and keyword arguments over it, supply (or
        override) parameter values for this call only; every declared
        placeholder must end up with a value.  Names that come from outside
        the program (a request, a command line) travel in the mapping: a
        placeholder may be called ``database`` or ``cancel_token``, and as
        a keyword the latter would be taken for the argument below.
        *cancel_token* attaches a cooperative cancellation handle to this
        execution (see :class:`repro.engine.governor.CancelToken`).

        Any failure is a :class:`~repro.errors.QueryError`: structured
        errors pass through annotated with the query source, and anything
        else is wrapped in :class:`~repro.errors.ExecutionError`.
        """
        return self.run(
            database, {**(params or {}), **named}, cancel_token
        ).result

    def run(
        self,
        database: Database,
        params: Mapping[str, Any] | None = None,
        cancel_token: "CancelToken | None" = None,
        profile: bool = False,
    ) -> ExecutionStats:
        """One execution and what it measured — the body of
        :meth:`execute`, ``run_oql_stats`` and ``execute_shredded``.

        The query's kept physical plan (:meth:`physical`) runs in a fresh
        :class:`~repro.engine.physical.Execution`.  *profile* times every
        operator's expressions and records the per-operator counts (EXPLAIN
        ANALYZE); without it no operator tree is walked, except for a SQLite
        plan's ``flat_queries``.
        """
        backend = self.options.backend
        try:
            values = self._merged_params(params)
            governor = self.make_governor(cancel_token)
            physical, provider = self._kept(database)
            start = time.perf_counter()
            if physical is None:
                # Naive nested-loop evaluation of the calculus form.
                result = Evaluator(
                    provider, values, governor=governor
                ).evaluate(self.prepared)
            else:
                ex = Execution(physical, values, governor, profile)
                result = physical.value(ex)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
        except QueryError as exc:
            raise exc.annotate(source=self.source, stage="execute")
        except Exception as exc:
            raise ExecutionError(
                f"unexpected {type(exc).__name__}: {exc}",
                source=self.source,
                stage="execute",
            ) from exc
        stats = ExecutionStats(result, elapsed_ms, backend=backend)
        if governor is not None:
            stats.governor_ticks = governor.ticks
            stats.governor_peak_bytes = governor.peak_bytes
        if physical is not None:
            if backend == "sqlite":
                stats.flat_queries = flat_queries(physical, ex)
            if profile:
                collect_operators(physical, ex, 0, stats)
        return stats

    def expr_compiler(self) -> ExprCompiler:
        """The kernel compiler shared by this query's plans.  Its kernels
        hold nothing of a run — each reads the execution it is called with —
        so executions on any number of threads share it."""
        return self._compiler

    def target(self, database: Database) -> tuple[Operator | None, Any]:
        """What this query runs as against *database*: the logical plan
        handed to the physical planner and the extent provider it reads —
        the one place the backend is chosen.  ``"memory"``: the optimized
        plan (None when unnesting is off: naive calculus evaluation) over
        the database itself.  ``"sqlite"``: the plan with its lowered
        subtrees replaced by SQL-segment leaves, over the shredded store."""
        backend = self.options.backend
        if backend == "sqlite":
            from repro.backends.shred import compile_segments, shredded_store

            if self.optimized is None:
                raise BackendUnsupportedError(
                    "backend='sqlite' requires an unnested algebraic plan "
                    "(compile with unnest=True)"
                )
            store = shredded_store(database, db_path=self.options.db_path)
            kept = self._lowered.get(store)
            if kept is None:
                # Two first executions may both lower; one assignment wins.
                lowered = compile_segments(
                    self.optimized, store, self.typing(database).occurring
                )
                kept = self._lowered[store] = (lowered, None)
            return kept[0], store
        return self.optimized, database

    def typing(self, database: Database) -> PlanTypeChecker:
        """The Figure 6 typing of :attr:`optimized` in *database*, once per
        state of the database: the column types the physical planner files
        keys by, and the variables both it and the SQL lowering key groups
        by their occurrence.  The compile leaves the first one here."""
        found = self._typing.get(database)
        if found is None or found[0] != database.schema_version:
            typing = type_plan(self.optimized, database)
            found = self._typing[database] = (database.schema_version, typing, None)
        return found[1]

    def _kept(self, database: Database) -> tuple[PhysicalOperator | None, Any]:
        """The physical plan of :meth:`target` and the provider it reads;
        None for no algebraic plan."""
        plan, provider = self.target(database)
        if plan is None:
            return None, provider
        return self._planned(plan, provider, database), provider

    def _planned(
        self, plan: Operator, provider: Any, database: Database
    ) -> PhysicalOperator:
        """*plan*'s physical plan over *provider*, planned once per state of
        *database* (per store on SQLite) and kept beside the typing or the
        lowered plan.  Two first executions may both plan; one assignment
        wins."""
        keep = self._typing if provider is database else self._lowered
        typing = self.typing(database)
        kept = keep[provider]
        if kept[-1] is None:
            physical = plan_physical(
                plan, provider, _planner_options(self.options), self._compiler, typing
            )
            kept = keep[provider] = (*kept[:-1], physical)
        return kept[-1]

    def physical(self, database: Database) -> PhysicalOperator:
        """The physical plan this query runs against *database*'s current
        state: the one every execution shares, planned on first use."""
        physical, _ = self._kept(database)
        if physical is None:
            raise PlanningError(
                "no algebraic plan: query compiled with unnest=False"
            )
        return physical

    def explain(self, database: Database) -> str:
        """An EXPLAIN-style report of the physical plan (on the SQLite
        backend, with the generated flat SQL under each segment)."""
        if self.options.backend == "sqlite":
            from repro.backends.shred import explain_shredded

            return explain_shredded(self, database)
        return self.physical(database).explain()

    def explain_stages(self) -> str:
        """Every intermediate representation, one block per recorded stage.

        The staged equivalent of EXPLAIN VERBOSE: shows the query as OQL,
        as a calculus term before and after normalization, as an algebraic
        plan through unnesting/simplification/optimization, and as a
        physical plan — each with the stage's wall time.
        """
        if not self.stages:
            return "(no stage records: query compiled without instrumentation)"
        blocks = []
        for stage in self.stages:
            blocks.append(
                f"== {stage.name} ({stage.elapsed_ms:.3f} ms) ==\n{stage.snapshot}"
            )
        return "\n\n".join(blocks)


class QueryPipeline:
    """The end-to-end OQL compiler/executor as an explicit stage sequence.

    Each compilation runs the stages of :data:`PIPELINE_STAGES` that apply,
    timing each one and recording a snapshot in the resulting
    :class:`CompiledQuery`'s ``stages``; ``stage_counts`` accumulates how
    often each stage ran across the pipeline's lifetime, which is how the
    tests (and users) verify that a plan-cache hit skips recompilation.

    Compiled plans are cached in :attr:`plan_cache`; anything that could
    change the plan — new extents, new indexes, fresh statistics
    (``Database.schema_version``), redefined views, different options —
    changes the cache key, so stale plans are never served.
    """

    def __init__(
        self,
        database: Database | None = None,
        options: "OptimizerOptions | None" = None,
        cache_size: int = 128,
    ):
        from repro.core.optimizer import OptimizerOptions

        self.database = database
        self.options = options or OptimizerOptions()
        self.cost_model = CostModel(database)
        #: Named views (``define name as query``), inlined at translation.
        self.views: dict = {}
        self.plan_cache = PlanCache(cache_size)
        #: How many times each stage has actually run (cache hits add none).
        self.stage_counts: Counter[str] = Counter()
        self._counts_lock = threading.Lock()
        self._views_epoch = 0

    # -- statements ---------------------------------------------------------

    def define_view(self, source: str) -> str:
        """Register a view from a ``define name as query`` statement.

        Returns the view's name.  The body may reference previously
        defined views.  Redefinition bumps the view epoch, invalidating
        every cached plan that might have inlined the old body.  Any other
        statement is a :class:`~repro.errors.PlanningError` at
        ``stage=parse`` that names it.
        """
        from repro.oql import ast as oql_ast
        from repro.oql.parser import parse_statement

        statement = parse_statement(source)
        if not isinstance(statement, oql_ast.Define):
            raise PlanningError(
                "expected a 'define <name> as <query>' statement",
                source=source,
                stage="parse",
            )
        self.views[statement.name] = statement.query
        self._views_epoch += 1
        return statement.name

    def run_statement(self, source: str):
        """Execute a statement: a DEFINE registers a view (returns its
        name); anything else compiles and runs as a query."""
        from repro.oql.parser import is_definition

        if is_definition(source):
            return self.define_view(source)
        return self.run_oql(source)

    # -- compilation --------------------------------------------------------

    def cache_key(self, source: str) -> tuple:
        """The plan-cache key for *source* under the current state."""
        schema_version = (
            self.database.schema_version if self.database is not None else None
        )
        # Whitespace folds only where no string or comment can hold it.
        verbatim = '"' in source or "--" in source
        return (
            source if verbatim else " ".join(source.split()),
            schema_version,
            self.options,
            self._views_epoch,
        )

    def compile_oql(self, source: str) -> CompiledQuery:
        """Compile an OQL query string, consulting the plan cache first.

        Compilation failures are always :class:`~repro.errors.QueryError`
        subclasses: structured errors from the stages pass through
        annotated with the source text; anything else (an internal bug)
        is wrapped in :class:`~repro.errors.PlanningError`.
        """
        return self.compile_oql_cached(source)[0]

    def compile_oql_cached(self, source: str) -> tuple[CompiledQuery, bool]:
        """:meth:`compile_oql` plus whether *this* call hit the plan cache.

        The flag comes from the lookup itself, not from reading the shared
        hit counter before and after — that read-modify-write is racy under
        concurrent sessions (another session's hit in the window makes this
        execution claim a cached plan it recompiled, and vice versa).
        """
        key = self.cache_key(source)
        cached = self.plan_cache.lookup(key)
        if cached is not None:
            return cached, True
        try:
            compiled = self._compile_source(source)
        except QueryError as exc:
            raise exc.annotate(source=source)
        except Exception as exc:
            raise PlanningError(
                f"unexpected {type(exc).__name__}: {exc}", source=source
            ) from exc
        self.plan_cache.store(key, compiled)
        return compiled, False

    def compile_term(self, term: Term, source: str | None = None) -> CompiledQuery:
        """Compile a calculus term (entering the pipeline after translate)."""
        stages: list[StageResult] = []
        return self._compile_from_term(term, source, stages)

    def _compile_source(self, source: str) -> CompiledQuery:
        """Run the full stage cascade on OQL text (no cache involvement)."""
        from repro.oql.parser import parse
        from repro.oql.pretty import unparse
        from repro.oql.translator import translate

        schema = self.database.schema if self.database is not None else None
        stages: list[StageResult] = []

        parsed = self._stage(stages, "parse", lambda: parse(source), unparse)
        term = self._stage(
            stages,
            "translate",
            lambda: translate(parsed, schema, self.views),
            pretty,
        )
        return self._compile_from_term(term, source, stages)

    def _compile_from_term(
        self, term: Term, source: str | None, stages: list[StageResult]
    ) -> CompiledQuery:
        """The stage cascade from the calculus term onward."""
        from repro.core.optimizer import ALGEBRAIC_RULES, reorder_joins

        options = self.options
        schema = self.database.schema if self.database is not None else None
        if options.typecheck:
            from repro.calculus.typing import infer_type

            self._stage(
                stages, "typecheck", lambda: infer_type(term, schema), str
            )
        prepared = self._stage(
            stages, "normalize", lambda: prepare(term), pretty
        )
        if not options.unnest:
            return CompiledQuery(
                source, term, prepared, None, None, None, options,
                stages=tuple(stages),
            )
        trace = UnnestingTrace()
        logical = self._stage(
            stages, "unnest", lambda: unnest(prepared, trace), pretty_plan
        )
        optimized = logical
        engine = RewriteEngine()
        if options.simplify:
            optimized = self._stage(
                stages, "simplify", lambda: simplify(logical), pretty_plan
            )
        if options.algebraic or options.reorder_joins:

            def optimize() -> Operator:
                plan = optimized
                if options.algebraic:
                    plan = engine.run_phase(ALGEBRAIC_RULES, plan)
                if options.reorder_joins:
                    plan = reorder_joins(plan, self.cost_model)
                    if options.algebraic:
                        # Reordering can expose new pushdown opportunities.
                        plan = engine.run_phase(ALGEBRAIC_RULES, plan)
                return plan

            optimized = self._stage(stages, "optimize", optimize, pretty_plan)
        database = self.database
        if options.typecheck or database is not None:
            typing = type_plan(optimized, database, strict=options.typecheck)
        compiled = CompiledQuery(
            source, term, prepared, logical, optimized, trace, options,
            rule_firings=engine.firings,
        )
        if database is not None:
            compiled._typing[database] = (database.schema_version, typing, None)
            self._stage(
                stages,
                "plan",
                lambda: compiled._planned(optimized, database, database),
                lambda physical: physical.explain(),
            )
        compiled.stages = tuple(stages)
        return compiled

    def _stage(self, stages: list, name: str, fn, render) -> Any:
        """Run one stage: time *fn*, record it with its *render*, count.

        The stage boundary is also the error boundary: a structured error
        is annotated with the stage that raised it, and a raw exception —
        which would otherwise leak a ``KeyError``/``TypeError`` out of
        ``run_oql`` — is wrapped in :class:`~repro.errors.PlanningError`.
        """
        start = time.perf_counter()
        try:
            value = fn()
        except QueryError as exc:
            raise exc.annotate(stage=name)
        except Exception as exc:
            raise PlanningError(
                f"unexpected {type(exc).__name__} in {name}: {exc}", stage=name
            ) from exc
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        with self._counts_lock:
            self.stage_counts[name] += 1
        stages.append(StageResult(name, elapsed_ms, render, value))
        return value

    # -- execution ----------------------------------------------------------

    def run_oql(
        self,
        source: str,
        params: Mapping[str, Any] | None = None,
        /,
        *,
        cancel_token: CancelToken | None = None,
        **named: Any,
    ) -> Any:
        """Compile (through the cache) and execute an OQL query; parameter
        values as for :meth:`CompiledQuery.execute`.

        Never propagates a raw Python exception: every failure — parse,
        name resolution, typecheck, execution fault, or a tripped governor
        limit — is a :class:`~repro.errors.QueryError` subclass carrying
        the query source and the pipeline stage that failed.
        """
        if self.database is None:
            raise ValueError("pipeline has no database to run against")
        return self.compile_oql(source).execute(
            self.database, params, cancel_token=cancel_token, **named
        )

    def run_oql_stats(
        self,
        source: str,
        params: Mapping[str, Any] | None = None,
        /,
        *,
        cancel_token: CancelToken | None = None,
        **named: Any,
    ) -> ExecutionStats:
        """Compile (through the cache), execute, and collect statistics;
        parameter values as for :meth:`CompiledQuery.execute`.

        The returned :class:`~repro.engine.executor.ExecutionStats` carries
        the plan-cache counters and whether *this* execution reused a
        cached plan, alongside the usual per-operator row counts — plus
        governor accounting (work units ticked, peak buffered bytes) when
        limits are configured.
        """
        if self.database is None:
            raise ValueError("pipeline has no database to run against")
        compiled, from_cache = self.compile_oql_cached(source)
        stats = compiled.run(
            self.database, {**(params or {}), **named}, cancel_token, profile=True
        )
        stats.cache_hits, stats.cache_misses, _ = self.plan_cache.stats()
        stats.from_cache = from_cache
        return stats
