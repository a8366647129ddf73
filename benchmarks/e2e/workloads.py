"""The four workloads, their correctness gate, and their traced passes.

Every layer is measured from outside, through public functions and the
data they already return (``StageResult.elapsed_ms``,
``ExecutionStats.operators``, flat-query sql/decode times, a reply's
``elapsed_ms``, the ``stats`` op).  ``run.py`` is the entry point; it
imports this module (as does ``selftest.py``) once ``src/`` is on
``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from measure import (
    SpeedProbe,
    Tracer,
    geomean,
    relative_spread,
    self_times,
    summarise_latencies,
)

from repro.backends.shred import execute_shredded, shredded_store
from repro.core.classify import classify_oql
from repro.core.optimizer import OptimizerOptions
from repro.core.pipeline import CompiledQuery, QueryPipeline
from repro.data.database import Database
from repro.data.datagen import (
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)
from repro.engine.exchange import PGather
from repro.errors import QueryError
from repro.testing.oracle import results_equal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

GENERATORS: dict[str, Callable[..., Database]] = {
    "company": company_database,
    "university": university_database,
    "travel": travel_database,
    "ab": ab_database,
    "auction": auction_database,
}

#: Positional size arguments of each family's generator.  S keeps the
#: naive calculus evaluator fast enough to be the oracle; at L the company
#: scans span several 1024-row chunks.  ``serve`` is the company database
#: behind the query server.
SCALES: dict[str, dict[str, tuple[int, int]]] = {
    "S": {
        "company": (60, 8),
        "university": (40, 12),
        "travel": (6, 5),
        "ab": (30, 40),
        "auction": (40, 25),
    },
    "L": {
        "company": (2500, 40),
        "university": (300, 40),
        "travel": (60, 16),
        "ab": (300, 300),
        "auction": (500, 150),
    },
    "serve": {"company": (200, 12)},
}

#: The measured databases are a fixture drawn from this seed.  One query's
#: cost moves by 30–90% from one data draw to the next (``agg_max_pred``:
#: 84–166 ms over five draws), which would make every tail metric a
#: statement about the draw; ``--seed`` therefore drives the order of the
#: requests and the data of the correctness gate, not the measured data.
DATA_SEED = 1998


@dataclass(frozen=True)
class Workload:
    """What distinguishes the four workloads (``BENCHMARK.json`` and the
    README say why each exists)."""

    name: str
    scale: str
    backend: str = "memory"
    prepared: bool = True
    served: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("adhoc_cold", scale="S", prepared=False),
        Workload("prepared_memory", scale="L"),
        Workload("prepared_sqlite", scale="L", backend="sqlite"),
        Workload("serve_closed", scale="serve", served=True),
    )
}


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    name: str
    family: str
    oql: str
    nesting: str


def load_queries(path: Path = HERE / "queries.json") -> list[Query]:
    """The frozen corpus (a copy of ``tests/corpus.py`` under our path)."""
    with path.open() as handle:
        return [Query(**entry) for entry in json.load(handle)["queries"]]


def corpus_entries(corpus_py: Path) -> list[dict[str, str]]:
    """``tests/corpus.py`` in the shape of ``queries.json`` — what
    ``run.py freeze`` writes and the drift check compares against."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("_e2e_corpus", corpus_py)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    schemas = {family: db.schema for family, db in generate("S", 0).items()}
    return [
        {
            "name": q.name,
            "family": q.family,
            "oql": q.oql,
            "nesting": str(classify_oql(q.oql, schemas[q.family])),
        }
        for q in module.CORPUS
    ]


def generate(scale: str, seed: int) -> dict[str, Database]:
    return {
        family: GENERATORS[family](*sizes, seed=seed)
        for family, sizes in SCALES[scale].items()
    }


def count_objects(databases: dict[str, Database]) -> int:
    return sum(
        len(db.extent(name))
        for db in databases.values()
        for name in db.extent_names()
    )


# -- one configured path through the program ----------------------------------


@dataclass
class Engine:
    """Databases, a pipeline per family and (when prepared) compiled plans
    for one backend — everything a request needs."""

    databases: dict[str, Database]
    backend: str
    pipelines: dict[str, QueryPipeline] = field(default_factory=dict)
    compiled: dict[str, CompiledQuery] = field(default_factory=dict)
    tmpdir: Path | None = None
    load_s: float = 0.0
    db_bytes: int = 0

    def db_path(self, family: str) -> str | None:
        return str(self.tmpdir / f"{family}.db") if self.tmpdir else None

    def close(self) -> None:
        if self.backend == "sqlite":
            for family, db in self.databases.items():
                shredded_store(db, db_path=self.db_path(family)).close()
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)


def build_engine(
    databases: dict[str, Database],
    queries: list[Query],
    backend: str = "memory",
    prepared: bool = True,
    on_disk: bool = False,
    **options: Any,
) -> Engine:
    """Load the store (sqlite: shred every extent, timed as ``load_s``),
    make the pipelines and, when *prepared*, compile every query."""
    engine = Engine(databases, backend)
    if on_disk:
        OUT.mkdir(parents=True, exist_ok=True)
        engine.tmpdir = Path(tempfile.mkdtemp(prefix="store-", dir=OUT))
    try:
        if backend == "sqlite":
            start = time.perf_counter()
            for family, db in databases.items():
                shredded_store(db, db_path=engine.db_path(family))
            engine.load_s = time.perf_counter() - start
            if engine.tmpdir is not None:
                engine.db_bytes = sum(p.stat().st_size for p in engine.tmpdir.iterdir())
        for family, db in databases.items():
            engine.pipelines[family] = QueryPipeline(
                db,
                OptimizerOptions(backend=backend, db_path=engine.db_path(family), **options),
            )
        if prepared:
            for q in queries:
                engine.compiled[q.name] = engine.pipelines[q.family].compile_oql(q.oql)
    except BaseException:
        engine.close()
        raise
    return engine


def execute(engine: Engine, q: Query) -> Any:
    """One request, as the workload's user issues it."""
    if engine.compiled:
        return engine.compiled[q.name].execute(engine.databases[q.family])
    return engine.pipelines[q.family].run_oql(q.oql)


def first_answers(
    engine: Engine, queries: list[Query], probe: SpeedProbe | None = None
) -> dict[str, Any]:
    """The warm-up pass: every query once, answers kept.  Timed samples
    are compared with these, and :func:`verify` holds these to an
    independent reference once measuring is over.  As part of a timed
    set-up it ticks *probe* between queries."""
    answers = {}
    for q in queries:
        if probe is not None:
            probe.tick_if_due()
        answers[q.name] = execute(engine, q)
    return answers


def cardinality(result: Any) -> int:
    try:
        return len(result)
    except TypeError:
        return 1


# -- timed passes -------------------------------------------------------------


@dataclass
class Pass:
    """What one timed pass (a repeat) observed — every time already
    divided by the machine slowdown sampled around it (see
    :class:`measure.SpeedProbe`)."""

    samples: dict[str, list[float]]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def metrics(self) -> dict[str, float]:
        return {
            "throughput_qps": (self.attempted - len(self.failures)) / self.wall_s,
            **summarise_latencies(self.samples),
            "cpu_ms_per_query": self.cpu_s * 1000.0 / self.attempted,
        }


def combine(passes: list[Pass]) -> tuple[dict[str, float], dict[str, float]]:
    """Headline values and spreads from the repeats.  Latencies pool every
    sample of every repeat; throughput and CPU are medians across repeats.
    A metric's spread is ``(max − min) / median`` of its per-repeat values."""
    per_repeat = [p.metrics() for p in passes]
    pooled: dict[str, list[float]] = {}
    for p in passes:
        for name, values in p.samples.items():
            pooled.setdefault(name, []).extend(values)
    values = summarise_latencies(pooled)
    for name in ("throughput_qps", "cpu_ms_per_query"):
        values[name] = statistics.median(m[name] for m in per_repeat)
    spreads = {
        name: relative_spread([m[name] for m in per_repeat]) for name in per_repeat[0]
    }
    return values, spreads


def sweep_pass(
    engine: Engine,
    queries: list[Query],
    rng: random.Random,
    budget_s: float,
    expected: dict[str, Any],
    probe: SpeedProbe,
    request: Callable[[Engine, Query], Any] = execute,
) -> Pass:
    """Whole shuffled sweeps of *queries* until *budget_s* of wall has
    passed.  An unprepared engine has its plan cache cleared before every
    query, so each one is first-seen.  The probe ticks between queries
    and its time is taken off the sweep; answers are checked between
    sweeps with the clocks stopped, so neither costs the program under
    test anything."""
    done = Pass({q.name: [] for q in queries})
    order = list(queries)
    elapsed = 0.0
    while elapsed < budget_s:
        rng.shuffle(order)
        timed, results = [], []
        wall0, cpu0, spent0 = time.perf_counter(), time.process_time(), probe.spent
        for q in order:
            probe.tick_if_due()
            if not engine.compiled:
                engine.pipelines[q.family].plan_cache.clear()
            done.attempted += 1
            start = time.perf_counter()
            try:
                result = request(engine, q)
            except QueryError as exc:
                done.failures.append(f"{q.name}: {exc}")
                continue
            timed.append((q.name, start, time.perf_counter()))
            results.append((q.name, result))
        probe.tick()
        if not timed:
            raise RuntimeError(f"every query of the sweep failed: {done.failures[:3]}")
        wall = time.perf_counter() - wall0
        spent = probe.spent - spent0
        cpu = time.process_time() - cpu0
        elapsed += wall
        raw = reference = 0.0
        for name, start, end in timed:
            sample = (end - start) * 1000.0
            raw += sample
            sample /= probe.slowdown(start, end)
            reference += sample
            done.samples[name].append(sample)
        # The sweep's wall and CPU, scaled as its own samples were.
        done.wall_s += (wall - spent) * reference / raw
        done.cpu_s += (cpu - spent) * reference / raw
        for name, result in results:
            if not results_equal(result, expected[name]):
                done.failures.append(f"{name}: answer differs from the warm-up pass")
    return done


# -- the correctness gate -----------------------------------------------------


def naive_answers(databases: dict[str, Database], queries: list[Query]) -> dict[str, Any]:
    """The oracle: the calculus evaluator on the un-unnested query."""
    return first_answers(build_engine(databases, queries, unnest=False), queries)


def disagreements(got: dict[str, Any], reference: dict[str, Any], label: str) -> dict[str, str]:
    return {
        name: label
        for name, value in got.items()
        if not results_equal(value, reference[name])
    }


def verify(
    workload: Workload,
    scale: str,
    seed: int,
    queries: list[Query],
    databases: dict[str, Database],
    answers: dict[str, Any],
) -> dict[str, str]:
    """Hold the measured path's answers to references it shares no executor
    with; returns ``{query: what is wrong}``.

    On the measured data the reference is the naive calculus evaluator —
    except at scale L, where it is too slow and memory and sqlite check
    each other instead.  In-process configurations are then run once more
    on scale-S data drawn from *seed* against the naive evaluator, so
    every run also checks a data draw the fixture does not contain.
    """
    if scale == "L":
        other = "sqlite" if workload.backend == "memory" else "memory"
        engine = build_engine(databases, queries, backend=other)
        try:
            wrong = disagreements(
                answers,
                first_answers(engine, queries),
                f"{workload.backend} and {other} disagree at scale L",
            )
        finally:
            engine.close()
    else:
        wrong = disagreements(
            answers, naive_answers(databases, queries), "differs from the naive evaluator"
        )
    if not workload.served:
        drawn = generate("S", seed)
        engine = build_engine(
            drawn, queries, workload.backend, workload.prepared,
            on_disk=workload.backend == "sqlite",
        )
        try:
            wrong.update(
                disagreements(
                    first_answers(engine, queries),
                    naive_answers(drawn, queries),
                    f"differs from the naive evaluator on scale-S data of seed {seed}",
                )
            )
        finally:
            engine.close()
    return wrong


# -- traced requests ----------------------------------------------------------


def _bind_and_run(engine: Engine, q: Query, compiled: CompiledQuery, tracer: Tracer) -> Any:
    db = engine.databases[q.family]
    if engine.backend == "sqlite":
        flat: list = []
        with tracer.span("run") as run:
            result = execute_shredded(compiled, db, flat_queries=flat)
        tracer.add_sequence(
            run, [("sql", sum(f[2] for f in flat)), ("decode", sum(f[3] for f in flat))]
        )
        tracer.spans[run].update(flat_queries=len(flat), rows_fetched=sum(f[1] for f in flat))
        return result
    with tracer.span("bind"):
        physical = compiled.physical(db)
    with tracer.span("run"):
        return physical.value()


def traced_request(engine: Engine, q: Query, tracer: Tracer, request_id: str) -> Any:
    """:func:`execute` with a span around each call into a layer:
    ``request`` -> ``compile`` (one child per ``StageResult``) . ``bind`` .
    ``run`` (-> ``sql`` . ``decode``; what is left of ``run`` is stitch).

    A first-seen request is followed by a ``warm_execute`` of the same
    plan, outside the request span: cold minus warm is first-run codegen.
    """
    with tracer.span("request", request=request_id, query=q.name):
        if engine.compiled:
            compiled = engine.compiled[q.name]
        else:
            with tracer.span("compile") as span:
                compiled, hit = engine.pipelines[q.family].compile_oql_cached(q.oql)
            tracer.spans[span]["cache_hit"] = hit
            tracer.add_sequence(span, [(s.name, s.elapsed_ms) for s in compiled.stages])
        result = _bind_and_run(engine, q, compiled, tracer)
    if not engine.compiled:
        with tracer.span("warm_execute", request=request_id + "/warm", query=q.name):
            _bind_and_run(engine, q, compiled, tracer)
    return result


def traced_pass(
    engine: Engine,
    queries: list[Query],
    rng: random.Random,
    budget_s: float,
    expected: dict[str, Any],
    probe: SpeedProbe,
    tracer: Tracer,
) -> Pass:
    serial = itertools.count()

    def request(engine: Engine, q: Query) -> Any:
        return traced_request(engine, q, tracer, f"{q.name}#{next(serial)}")

    done = sweep_pass(engine, queries, rng, budget_s, expected, probe, request)
    tracer.mark_slowdown(probe)
    return done


STAGE_METRICS = {
    "parse": "oql.parse_ms",
    "translate": "oql.translate_ms",
    "typecheck": "calculus.typecheck_ms",
    "normalize": "core.normalize_ms",
    "unnest": "core.unnest_ms",
    "simplify": "core.simplify_ms",
    "optimize": "core.optimize_ms",
    "plan": "engine.plan_ms",
}


class SpanTable:
    """Spans grouped by (root span name, span name) and query, so a layer
    can be stated as the sum over distinct queries of each query's median:
    the cost of one sweep with every query weighing once, on the same
    footing as ``latency_geomean_ms``.  Times are divided by the slowdown
    marked on the span's root."""

    def __init__(self, spans: list[dict[str, Any]]):
        own = self_times(spans)
        self.self_ms: dict[tuple[str, str], dict[str, list[float]]] = {}
        self.total_ms: dict[tuple[str, str], dict[str, list[float]]] = {}
        for span in spans:
            top = span
            while top["parent"] is not None:
                top = spans[top["parent"]]
            key = (top["name"], span["name"])
            query, slowdown = top["query"], top["slowdown"]
            self.self_ms.setdefault(key, {}).setdefault(query, []).append(
                own[span["id"]] / slowdown
            )
            self.total_ms.setdefault(key, {}).setdefault(query, []).append(
                (span["end"] - span["start"]) / slowdown
            )

    def medians(self, top: str, name: str, total: bool = False) -> list[float]:
        source = self.total_ms if total else self.self_ms
        return [statistics.median(v) for v in source.get((top, name), {}).values()]

    def layer(self, top: str, name: str, total: bool = False) -> float:
        return math.fsum(self.medians(top, name, total))


def layer_budget(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer self time (ms per sweep) of an in-process traced pass."""
    table = SpanTable(spans)
    cold = ("warm_execute", "run") in table.self_ms
    sqlite = ("request", "sql") in table.self_ms
    # Steady-state execution is the warm re-run when requests are cold;
    # what a cold request spends beyond it is first-run codegen.
    steady = "warm_execute" if cold else "request"
    budget = {
        metric: table.layer("request", stage) for stage, metric in STAGE_METRICS.items()
    }
    budget["core.compile_ms"] = table.layer("request", "compile", total=True)
    budget["core.compile_other_ms"] = table.layer("request", "compile")
    budget["engine.bind_ms"] = table.layer(steady, "bind")
    budget["engine.run_ms"] = 0.0 if sqlite else table.layer(steady, "run")
    budget["shred.sql_ms"] = table.layer(steady, "sql")
    budget["shred.decode_ms"] = table.layer(steady, "decode")
    budget["shred.stitch_ms"] = table.layer(steady, "run") if sqlite else 0.0
    budget["engine.codegen_ms"] = (
        sum(
            table.layer("request", name) - table.layer("warm_execute", name)
            for name in ("bind", "run", "sql", "decode")
        )
        if cold
        else 0.0
    )
    budget["trace.unattributed_pct"] = (
        100.0
        * table.layer("request", "request")
        / table.layer("request", "request", total=True)
    )
    return budget


# -- probes: counts and ratios a traced run adds ------------------------------


def _plan_size(plan: Any) -> int:
    return 1 + sum(_plan_size(child) for child in plan.children())


def plan_counts(compiled: dict[str, CompiledQuery]) -> dict[str, float]:
    return {
        "core.rule_firings": sum(len(c.rule_firings) for c in compiled.values()),
        "core.plan_operators": sum(_plan_size(c.optimized) for c in compiled.values()),
    }


def operator_counts(engine: Engine, queries: list[Query]) -> dict[str, float]:
    """One profiled sweep on the memory engine (``run_oql_stats``): time
    inside expression evaluators, rows and chunks produced, and the share
    of expression-bearing operators that ran compiled."""
    eval_ms = 0.0
    rows = batches = with_exprs = compiled = 0
    for q in queries:
        for op in engine.pipelines[q.family].run_oql_stats(q.oql).operators:
            eval_ms += op.eval_ms
            rows += op.rows_produced
            batches += op.batches_produced
            if op.eval_mode:
                with_exprs += 1
                compiled += op.eval_mode == "compiled"
    return {
        "engine.eval_ms": eval_ms,
        "engine.rows_produced": rows,
        "engine.batches_produced": batches,
        "engine.compiled_share": compiled / with_exprs if with_exprs else 0.0,
    }


def median_ms(fn: Callable[[], Any], repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def unnest_speedup(databases: dict[str, Database], queries: list[Query]) -> float:
    """The paper's claim as a number: naive evaluation ÷ unnested plan,
    geomean over the paper's own queries and every type-A/JA query."""
    paper = {"query_b", "query_d", "query_e", "group_avg"}
    chosen = [q for q in queries if q.name in paper or "A" in q.nesting]
    naive = build_engine(databases, chosen, unnest=False)
    fast = build_engine(databases, chosen)
    first_answers(fast, chosen)  # first-run codegen out of the way
    return geomean(
        median_ms(lambda: execute(naive, q)) / median_ms(lambda: execute(fast, q))
        for q in chosen
    )


def exchange_speedup(engine: Engine, queries: list[Query], workers: int = 2) -> float:
    """Serial ÷ thread-exchange wall, geomean over the queries whose plan
    partitions (root ``PGather``); below 1 the exchange costs time.  One
    warm execution of each, back to back, so machine drift hits both."""
    parallel = build_engine(engine.databases, queries, parallel=True, num_workers=workers)
    ratios = []
    for q in queries:
        plan = parallel.compiled[q.name].physical(engine.databases[q.family])
        if isinstance(plan, PGather):
            execute(parallel, q)  # first-run codegen out of the way
            ratios.append(
                median_ms(lambda: execute(engine, q), repeats=1)
                / median_ms(lambda: execute(parallel, q), repeats=1)
            )
    return geomean(ratios) if ratios else 0.0


def cache_lookup_us(engine: Engine, queries: list[Query], rounds: int = 100) -> float:
    """The hit path of ``compile_oql_cached``, per lookup."""
    for q in queries:
        engine.pipelines[q.family].compile_oql(q.oql)
    start = time.perf_counter()
    for _ in range(rounds):
        for q in queries:
            engine.pipelines[q.family].compile_oql_cached(q.oql)
    return (time.perf_counter() - start) * 1e6 / (rounds * len(queries))


def cli_import_s(repeats: int = 3) -> float:
    """``import repro.cli`` in a fresh interpreter (median)."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
