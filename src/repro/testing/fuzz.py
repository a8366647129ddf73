"""The fuzzing loop behind ``repro fuzz``.

Each iteration derives its own RNG from the master seed, generates a fresh
random database and one random query over it, runs the differential oracle
(every execution path) and the pipeline invariant checkers, and — when
something disagrees — shrinks the sample with delta debugging and optionally
saves a JSON repro artifact.

The loop is fully deterministic: ``run_fuzz(FuzzConfig(seed=2,
iterations=500))`` finds exactly the same samples on every machine, which is
what lets CI run a fixed-seed smoke job and lets a developer replay a
finding from nothing but ``(seed, iteration)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.backends.shred import fused_forms, shredded_sql
from repro.testing.invariants import check_invariants
from repro.testing.oracle import check_sample
from repro.testing.qgen import QueryGenConfig, QueryGenerator
from repro.testing.repro_io import save_repro
from repro.testing.schemagen import SchemaGenConfig, random_database
from repro.testing.shrink import default_interesting, shrink


@dataclass
class FuzzConfig:
    """Knobs for one fuzzing run."""

    seed: int = 0
    iterations: int = 100
    #: Directory to write JSON repro artifacts into (None: don't save).
    save_repros: str | None = None
    #: Minimize disagreements before reporting/saving them.
    shrink: bool = True
    #: Also run the structural pipeline invariants on every sample.
    invariants: bool = True
    #: Fault injection: additionally run every sample under a deliberately
    #: tiny, deterministic governor budget so limits trip mid-query, and
    #: assert (a) the failure is a structured GovernorError, never a raw
    #: exception, and (b) the engine state stays clean — the same pipeline
    #: immediately re-runs the query unlimited and must still agree with
    #: the reference result.
    fault_injection: bool = False
    schema_config: SchemaGenConfig = field(default_factory=SchemaGenConfig)
    query_config: QueryGenConfig = field(default_factory=QueryGenConfig)


@dataclass
class Finding:
    """One fuzzer-found problem, already shrunk."""

    kind: str  # "disagreement" | "invariant" | "fault-injection"
    iteration: int
    source: str
    params: dict[str, Any]
    detail: str
    repro_path: str | None = None

    def describe(self) -> str:
        header = f"[{self.kind}] iteration {self.iteration}: {self.source}"
        if self.params:
            header += f"  params={self.params}"
        if self.repro_path:
            header += f"  (saved: {self.repro_path})"
        return header + "\n" + self.detail


@dataclass
class FuzzReport:
    """What a fuzzing run observed."""

    config: FuzzConfig
    iterations: int = 0
    #: Samples where every path succeeded with equal results.
    agreed_ok: int = 0
    #: Samples where every path failed (also agreement — e.g. type errors).
    agreed_error: int = 0
    #: Path-level skips: a backend refused a sample with a typed
    #: BackendUnsupportedError.  Counted (never silent) but not findings.
    path_skips: int = 0
    #: Samples whose sqlite plan lowers a nest as an aggregate joined to
    #: its left side / over a binding domain (``shred.fused_forms``): that
    #: the run reached the two forms at all.
    preaggregated: int = 0
    domains: int = 0
    #: Samples that sort their result (``order by``).
    ordered: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        lines = [
            f"{self.iterations} iterations: "
            f"{self.agreed_ok} agreed, "
            f"{self.agreed_error} agreed-on-error, "
            f"{self.path_skips} path skip(s), "
            f"{self.preaggregated} pre-aggregated, "
            f"{self.domains} domain(s), "
            f"{self.ordered} ordered, "
            f"{len(self.findings)} finding(s)"
        ]
        lines.extend(finding.describe() for finding in self.findings)
        return "\n".join(lines)


Progress = Callable[[int, "FuzzReport"], None]


def _iteration_rng(seed: int, iteration: int) -> random.Random:
    return random.Random(f"{seed}:{iteration}")


def check_fault_injection(
    source: str, params: dict[str, Any], db, rng: random.Random
) -> list[str]:
    """Trip a tiny governor budget mid-query; verify clean failure + state.

    Returns human-readable violations (empty = pass).  Three properties:

    1. under a small ``max_rows`` budget the query either completes (it was
       cheap) or fails with a :class:`~repro.errors.GovernorError` — never
       any other exception class;
    2. a *second* execution on the same pipeline object with the budget
       still in place behaves identically (no corrupted operator state,
       no poisoned plan cache);
    3. the same query re-run on an unlimited pipeline still matches the
       reference semantics — a tripped budget must not leave partial
       results anywhere.

    The same budget also runs through the parallel exchange layer (3
    workers sharing the governor), where the properties extend to: the
    outcome category is interleaving-independent, and the worker pool
    drains fully even when a budget trips mid-query; and through the
    SQLite shredding backend, where the governor is enforced *inside*
    SQLite via a progress handler — a trip mid-SELECT must still surface
    as a structured GovernorError (never a raw sqlite3 exception) and the
    store must stay reusable for the re-run.
    """
    from repro.core.optimizer import OptimizerOptions
    from repro.core.pipeline import QueryPipeline
    from repro.errors import GovernorError, QueryError
    from repro.testing.oracle import results_equal

    violations: list[str] = []
    budget = rng.choice((1, 5, 25))
    limited = QueryPipeline(db, OptimizerOptions(max_rows=budget))

    def run_limited() -> tuple[str, Any]:
        try:
            return "ok", limited.run_oql(source, **dict(params))
        except GovernorError:
            return "tripped", None
        except QueryError:
            return "error", None  # the query itself is bad; fine
        except Exception as exc:  # noqa: BLE001 - the property under test
            violations.append(
                f"fault injection (max_rows={budget}) leaked a raw "
                f"{type(exc).__name__}: {exc}"
            )
            return "leak", None

    first, _ = run_limited()
    second, _ = run_limited()
    if "leak" not in (first, second) and first != second:
        violations.append(
            f"fault injection not deterministic: first run {first!r}, "
            f"second run {second!r} (max_rows={budget})"
        )
    # The same budget through the parallel exchange layer: a trip must
    # surface as the same structured error with every worker drained, and
    # the outcome category must not depend on thread interleaving.  (The
    # category may legitimately differ from the serial run's — broadcast
    # join sides re-tick per worker, a documented over-accounting — so the
    # two runs compared here are both parallel.)
    import threading

    baseline_threads = threading.active_count()
    par_limited = QueryPipeline(
        db, OptimizerOptions(max_rows=budget, parallel=True, num_workers=3)
    )

    def run_par_limited() -> str:
        try:
            par_limited.run_oql(source, **dict(params))
            return "ok"
        except GovernorError:
            return "tripped"
        except QueryError:
            return "error"
        except Exception as exc:  # noqa: BLE001 - the property under test
            violations.append(
                f"parallel fault injection (max_rows={budget}) leaked a raw "
                f"{type(exc).__name__}: {exc}"
            )
            return "leak"

    par_first = run_par_limited()
    par_second = run_par_limited()
    if "leak" not in (par_first, par_second) and par_first != par_second:
        violations.append(
            f"parallel fault injection not deterministic: first run "
            f"{par_first!r}, second run {par_second!r} (max_rows={budget})"
        )
    if threading.active_count() > baseline_threads:
        violations.append(
            f"parallel fault injection leaked worker threads: "
            f"{threading.active_count()} alive, baseline {baseline_threads}"
        )
    # The same budget through the SQLite shredding backend: the governor
    # runs inside SQLite (progress handler) and between flat queries
    # (fetch batches), so a trip mid-SELECT must still be a structured
    # GovernorError.  BackendUnsupportedError is a QueryError subclass, so
    # refused samples land in the "error" category — fine, and still
    # required to be deterministic.
    sql_limited = QueryPipeline(
        db, OptimizerOptions(max_rows=budget, backend="sqlite")
    )

    def run_sql_limited() -> str:
        try:
            sql_limited.run_oql(source, **dict(params))
            return "ok"
        except GovernorError:
            return "tripped"
        except QueryError:
            return "error"
        except Exception as exc:  # noqa: BLE001 - the property under test
            violations.append(
                f"sqlite fault injection (max_rows={budget}) leaked a raw "
                f"{type(exc).__name__}: {exc}"
            )
            return "leak"

    sql_first = run_sql_limited()
    sql_second = run_sql_limited()
    if "leak" not in (sql_first, sql_second) and sql_first != sql_second:
        violations.append(
            f"sqlite fault injection not deterministic: first run "
            f"{sql_first!r}, second run {sql_second!r} (max_rows={budget})"
        )
    # Clean-state probe: unlimited re-execution must match the reference.
    try:
        reference = QueryPipeline(db).run_oql(source, **dict(params))
    except QueryError:
        return violations  # query fails regardless of budgets; nothing to compare
    except Exception as exc:  # noqa: BLE001
        violations.append(
            f"unlimited run leaked a raw {type(exc).__name__}: {exc}"
        )
        return violations
    try:
        again = QueryPipeline(db).run_oql(source, **dict(params))
    except Exception as exc:  # noqa: BLE001
        violations.append(
            f"re-run after fault injection failed: {type(exc).__name__}: {exc}"
        )
        return violations
    if not results_equal(reference, again):
        violations.append(
            "state not clean after fault injection: re-run result "
            f"{again!r} != reference {reference!r}"
        )
    return violations


def generate_sample(config: FuzzConfig, iteration: int):
    """The (source, params, database) triple for one iteration."""
    rng = _iteration_rng(config.seed, iteration)
    db, generated = random_database(rng, config.schema_config)
    generator = QueryGenerator(generated, rng, config.query_config)
    query = generator.query()
    return query.source, query.params, db


def run_fuzz(config: FuzzConfig, progress: Progress | None = None) -> FuzzReport:
    """Run the full fuzzing loop and return the report."""
    report = FuzzReport(config)
    save_dir = Path(config.save_repros) if config.save_repros else None
    for iteration in range(config.iterations):
        source, params, db = generate_sample(config, iteration)
        verdict = check_sample(source, params, db)
        report.path_skips += len(verdict.skipped)
        report.ordered += " order by " in source
        try:
            preaggregated, domain = fused_forms(shredded_sql(db, source))
        except Exception:  # noqa: BLE001 - a counter must not end the run
            # Nothing was lowered: a refused query or store — or a fault in
            # the lowering, which the oracle above has reported as one.
            pass
        else:
            report.preaggregated += preaggregated
            report.domains += domain
        if verdict.agreed:
            if verdict.reference.ok:
                report.agreed_ok += 1
            else:
                report.agreed_error += 1
        else:
            source_, params_, db_ = source, dict(params), db
            if config.shrink:
                source_, params_, db_ = shrink(
                    source_, params_, db_, default_interesting
                )
                verdict = check_sample(source_, params_, db_)
            finding = Finding(
                "disagreement", iteration, source_, params_, verdict.describe()
            )
            if save_dir is not None:
                path = save_repro(
                    save_dir / f"disagreement_s{config.seed}_i{iteration}.json",
                    source_,
                    params_,
                    db_,
                    description=(
                        f"fuzzer disagreement (seed={config.seed}, "
                        f"iteration={iteration})"
                    ),
                    seed=config.seed,
                )
                finding.repro_path = str(path)
            report.findings.append(finding)
        if config.invariants:
            violations = check_invariants(source, params, db)
            if violations:
                report.findings.append(
                    Finding(
                        "invariant", iteration, source, dict(params),
                        "\n".join(violations),
                    )
                )
        if config.fault_injection:
            rng = _iteration_rng(config.seed, iteration)
            violations = check_fault_injection(source, dict(params), db, rng)
            if violations:
                report.findings.append(
                    Finding(
                        "fault-injection", iteration, source, dict(params),
                        "\n".join(violations),
                    )
                )
        report.iterations += 1
        if progress is not None:
            progress(iteration + 1, report)
    return report
