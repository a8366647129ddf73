"""The differential oracle: one query, every execution path.

Theorem 2 of the paper says the unnested algebraic plan computes the same
value as the nested calculus term it came from.  The oracle operationalizes
that: it runs a query through *every* path the repo can execute —

* ``calculus-raw`` — direct evaluation of the translated calculus term
  (the semantics; no normalization, no unnesting);
* ``calculus-normalized`` — evaluation after the N1–N9 normalization;
* ``algebra-logical`` — the unnested operator tree evaluated by the naive
  logical interpreter (no physical planning);
* ``pipeline-default`` — the full pipeline with default options;
* ``pipeline-batched-exec`` — the same with a deliberately tiny,
  non-divisible chunk size (7 rows), stressing chunk-boundary handling that
  the default 1024-row chunks rarely reach;
* ``pipeline-nl-joins`` — equi-key extraction disabled: every join is a
  keyless hash join (the nested-loop join), every group-join one bucket;
* ``pipeline-no-index`` — index scans disabled;
* ``pipeline-no-opt`` — simplification/algebraic rewriting/join reordering
  all off (the raw unnested plan, physically executed);
* ``pipeline-cached`` — a second execution of the default pipeline, which
  must be served from the plan cache and still agree;
* ``param-roundtrip`` — the source with every literal replaced by a
  placeholder (:func:`repro.oql.params.parameterize_literals`), executed
  with the literals re-supplied as bind values;
* ``sqlite-shredded`` — the query-shredding SQLite backend
  (:mod:`repro.backends.shred`): extents flattened into SQLite tables,
  join/unnest chains and Reduce/Nest aggregation lowered to flat SELECTs
  that run as leaves of the physical plan, nested results grouped by the
  engine's operators above them — SQLite as an *independently implemented*
  executor for the lowered part of the same semantics;
* ``sqlite-shredded-cached-plan`` — the SQLite backend again, from a
  plan-cache hit (the shredded store is also cached; both caches must
  stay coherent) —

and compares the outcomes.  A query that *fails* identically everywhere
(e.g. a type error) counts as agreement; a query that succeeds on some
paths and fails on others, or succeeds with different values, is a
disagreement — exactly the bug class differential testing exists to catch.

One exception: a backend may *refuse* a query or database it cannot run
faithfully by raising :class:`~repro.errors.BackendUnsupportedError`.  The
oracle records that as a **skip** — counted and reported, never silent —
rather than a disagreement, because a refusal is the designed alternative
to diverging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.algebra.evaluator import evaluate_plan
from repro.calculus.evaluator import evaluate
from repro.calculus.terms import Const, Null, Param, Term, transform
from repro.calculus.typing import infer_type
from repro.errors import BackendUnsupportedError, QueryError
from repro.core.normalization import prepare
from repro.core.pipeline import QueryPipeline
from repro.core.unnesting import unnest
from repro.data.database import Database
from repro.data.values import (
    BagValue,
    CollectionValue,
    ListValue,
    Record,
    SetValue,
    is_null,
)
from repro.oql.params import parameterize_literals
from repro.oql.translator import parse_and_translate


@dataclass
class PathOutcome:
    """What one execution path produced: a value or an error.

    ``structured`` records whether a failure was a proper
    :class:`~repro.errors.QueryError`.  The paths that run through
    ``QueryPipeline.run_oql`` promise to *never* leak a raw Python
    exception, so an unstructured failure there is itself a bug the
    oracle flags — even when every path failed "identically".
    """

    path: str
    ok: bool
    value: Any = None
    error: str = ""
    structured: bool = True
    #: The path refused the query with BackendUnsupportedError: counted as
    #: a skip (neither agreement evidence nor a disagreement), never silent.
    skipped: bool = False

    def describe(self) -> str:
        if self.ok:
            return f"{self.path}: {self.value!r}"
        if self.skipped:
            return f"{self.path}: SKIPPED {self.error}"
        leak = "" if self.structured else " (RAW LEAK)"
        return f"{self.path}: ERROR{leak} {self.error}"


@dataclass
class OracleVerdict:
    """The oracle's judgement over all paths for one query."""

    agreed: bool
    outcomes: list[PathOutcome] = field(default_factory=list)

    @property
    def reference(self) -> PathOutcome:
        return self.outcomes[0]

    @property
    def skipped(self) -> list[PathOutcome]:
        """Paths that refused this query (BackendUnsupportedError)."""
        return [outcome for outcome in self.outcomes if outcome.skipped]

    def disagreements(self) -> list[PathOutcome]:
        """The outcomes that differ from the reference path, plus any
        pipeline path that leaked a raw (unstructured) exception.
        Skipped paths (typed backend refusals) are not disagreements."""
        reference = self.reference
        differing = [
            outcome
            for outcome in self.outcomes[1:]
            if not outcome.skipped and not _outcomes_match(reference, outcome)
        ]
        leaks = [
            outcome
            for outcome in self.outcomes
            if not outcome.structured and outcome not in differing
        ]
        return differing + leaks

    def describe(self) -> str:
        lines = ["agreed" if self.agreed else "DISAGREED"]
        lines.extend("  " + outcome.describe() for outcome in self.outcomes)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """A hashable, float-rounded, order-insensitive image of a result.

    Sets and bags compare as multisets of canonical elements; lists keep
    their order.  Floats are rounded to 9 places so the (rare) paths that
    associate float additions differently still compare equal.
    """
    if is_null(value):
        return "<null>"
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return ("f", round(value, 9))
    if isinstance(value, int):
        # 2 and 2.0 are the same value to the query language.
        return ("f", round(float(value), 9))
    if isinstance(value, Record):
        return ("rec", tuple(sorted((k, _canonical(v)) for k, v in value.items())))
    if isinstance(value, ListValue):
        return ("list", tuple(_canonical(v) for v in value))
    if isinstance(value, (SetValue, BagValue)):
        tag = "set" if isinstance(value, SetValue) else "bag"
        return (tag, tuple(sorted(map(repr, map(_canonical, value)))))
    if isinstance(value, CollectionValue):  # pragma: no cover - future kinds
        return ("coll", tuple(sorted(map(repr, map(_canonical, value)))))
    return value


def results_equal(left: Any, right: Any) -> bool:
    """Equality across execution paths: exact when possible, canonical
    (float-rounded, order-insensitive) otherwise."""
    try:
        if left == right:
            return True
    except TypeError:
        pass
    return _canonical(left) == _canonical(right)


def _outcomes_match(left: PathOutcome, right: PathOutcome) -> bool:
    if left.ok != right.ok:
        return False
    if not left.ok:
        return True  # both failed: agreement (error classes may differ)
    return results_equal(left.value, right.value)


# ---------------------------------------------------------------------------
# Path execution
# ---------------------------------------------------------------------------


def substitute_params(term: Term, params: Mapping[str, Any]) -> Term:
    """Inline parameter values as literals (for the paths — direct calculus
    over a prepared term, logical algebra — that have no bind step)."""

    def inline(node: Term) -> Term:
        if isinstance(node, Param):
            if node.name not in params:
                raise KeyError(f"unbound parameter :{node.name}")
            value = params[node.name]
            return Null() if is_null(value) else Const(value)
        return node

    return transform(term, inline)


def _path_calculus_raw(source: str, params: Mapping[str, Any], db: Database) -> Any:
    term = parse_and_translate(source, db.schema)
    # The pipeline paths typecheck by default; the raw reference paths must
    # reject the same queries or an ill-typed query would "disagree" by
    # succeeding here while every pipeline path throws TypeCheckError.
    infer_type(term, db.schema)
    return evaluate(term, db, params=params)


def _path_calculus_normalized(
    source: str, params: Mapping[str, Any], db: Database
) -> Any:
    term = parse_and_translate(source, db.schema)
    infer_type(term, db.schema)
    return evaluate(prepare(term), db, params=params)


def _path_algebra_logical(
    source: str, params: Mapping[str, Any], db: Database
) -> Any:
    term = substitute_params(parse_and_translate(source, db.schema), params)
    infer_type(term, db.schema)
    plan = unnest(prepare(term))
    return evaluate_plan(plan, db)


def _pipeline_path(**options: Any) -> Callable[[str, Mapping[str, Any], Database], Any]:
    def run(source: str, params: Mapping[str, Any], db: Database) -> Any:
        from repro.core.optimizer import OptimizerOptions

        pipeline = QueryPipeline(db, OptimizerOptions(**options))
        return pipeline.run_oql(source, **dict(params))

    return run


def _path_pipeline_cached(
    source: str, params: Mapping[str, Any], db: Database
) -> Any:
    pipeline = QueryPipeline(db)
    pipeline.run_oql(source, **dict(params))  # populate the cache
    hits_before = pipeline.plan_cache.hits
    result = pipeline.run_oql(source, **dict(params))
    if pipeline.plan_cache.hits != hits_before + 1:  # pragma: no cover
        raise AssertionError("second execution was not served from the plan cache")
    return result


def _path_param_roundtrip(
    source: str, params: Mapping[str, Any], db: Database
) -> Any:
    parameterized, literal_params = parameterize_literals(source)
    merged = dict(params)
    merged.update(literal_params)
    return QueryPipeline(db).run_oql(parameterized, **merged)


def _path_sqlite_cached(
    source: str, params: Mapping[str, Any], db: Database
) -> Any:
    from repro.core.optimizer import OptimizerOptions

    pipeline = QueryPipeline(db, OptimizerOptions(backend="sqlite"))
    pipeline.run_oql(source, **dict(params))  # populate plan + store caches
    hits_before = pipeline.plan_cache.hits
    result = pipeline.run_oql(source, **dict(params))
    if pipeline.plan_cache.hits != hits_before + 1:  # pragma: no cover
        raise AssertionError("second execution was not served from the plan cache")
    return result


#: Paths that execute outside ``QueryPipeline.run_oql`` and therefore make
#: no promise about structured errors (the pipeline paths do).
RAW_PATHS = frozenset(
    ("calculus-raw", "calculus-normalized", "algebra-logical")
)

#: Ordered (name, runner) pairs; the first entry is the reference semantics.
PATHS: tuple[tuple[str, Callable[[str, Mapping[str, Any], Database], Any]], ...] = (
    ("calculus-raw", _path_calculus_raw),
    ("calculus-normalized", _path_calculus_normalized),
    ("algebra-logical", _path_algebra_logical),
    ("pipeline-default", _pipeline_path()),
    ("pipeline-batched-exec", _pipeline_path(batch_size=7)),
    ("pipeline-nl-joins", _pipeline_path(hash_joins=False)),
    ("pipeline-no-index", _pipeline_path(index_scans=False)),
    (
        "pipeline-no-opt",
        _pipeline_path(simplify=False, algebraic=False, reorder_joins=False),
    ),
    # Exchange-style partitioned execution (repro.engine.exchange): the
    # driving scan splits across 3 workers and the root merges in
    # partition order.  Differential against serial, this pins the whole
    # decomposition/merge layer — plans that do not partition silently run
    # serial, which is itself part of the contract under test.
    ("pipeline-parallel-exec", _pipeline_path(parallel=True, num_workers=3)),
    ("pipeline-cached", _path_pipeline_cached),
    ("param-roundtrip", _path_param_roundtrip),
    # An independently implemented executor: query shredding over stdlib
    # sqlite3.  May *skip* (typed BackendUnsupportedError) on databases it
    # cannot flatten.
    ("sqlite-shredded", _pipeline_path(backend="sqlite")),
    ("sqlite-shredded-cached-plan", _path_sqlite_cached),
)


def run_all_paths(
    source: str, params: Mapping[str, Any], db: Database
) -> list[PathOutcome]:
    """Execute *source* with *params* through every path in :data:`PATHS`."""
    outcomes = []
    for name, runner in PATHS:
        try:
            outcomes.append(PathOutcome(name, True, runner(source, params, db)))
        except Exception as exc:  # noqa: BLE001 - errors are data here
            # Pipeline paths promise structured errors; a raw builtin
            # exception leaking out of run_oql is a finding in itself.
            structured = name in RAW_PATHS or isinstance(exc, QueryError)
            outcomes.append(
                PathOutcome(
                    name,
                    False,
                    error=f"{type(exc).__name__}: {exc}",
                    structured=structured,
                    skipped=isinstance(exc, BackendUnsupportedError),
                )
            )
    return outcomes


def check_sample(
    source: str, params: Mapping[str, Any], db: Database
) -> OracleVerdict:
    """Run every path and judge agreement.

    All paths succeeding with equal results, or all paths failing, is
    agreement; anything else is a disagreement.  A pipeline path that
    fails with a *raw* (non-:class:`~repro.errors.QueryError`) exception
    is always a disagreement, even when every path failed: the pipeline's
    error contract is part of what the oracle checks.
    """
    outcomes = run_all_paths(source, params, db)
    reference = outcomes[0]
    agreed = all(
        outcome.skipped or _outcomes_match(reference, outcome)
        for outcome in outcomes[1:]
    ) and all(outcome.structured for outcome in outcomes)
    return OracleVerdict(agreed, outcomes)
