"""Command-line interface: run OQL against the built-in demo databases.

Usage::

    python -m repro "select distinct e.name from e in Employees"
    python -m repro --db university --explain "select distinct s from s in Student"
    python -m repro --trace --plan "for all a in A: exists b in B: a = b" --db ab
    python -m repro            # interactive shell

The interactive shell accepts OQL queries terminated by a semicolon and the
meta-commands ``\\plan``, ``\\explain``, ``\\trace``, ``\\calculus``,
``\\stages`` (toggle per-query output), ``\\cache`` (plan-cache statistics),
``\\batch N`` (set the rows per chunk), ``\\parallel`` (toggle
partitioned parallel execution; ``\\parallel N`` sets the worker count),
``\\backend``
(switch between the in-memory engine and the SQLite shredding backend;
``\\backend sqlite`` or, file-backed/out-of-core,
``\\backend sqlite /tmp/store.db``), ``\\limits``
(show/set per-query governor limits, e.g.
``\\limits timeout=1.0 max_rows=100000``),
``\\db <name>`` (switch database), and ``\\quit``.

Prepared-statement placeholders (``:name``) take their values from repeated
``--param name=value`` flags::

    python -m repro --param d=4 "select e.name from e in Employees where e.dno = :d"
"""

from __future__ import annotations

import argparse
import ast as python_ast
import sys
import time
from typing import Any, Callable

from repro.algebra.pretty import pretty_plan
from repro.calculus.pretty import pretty
from repro.core.optimizer import Optimizer, OptimizerOptions
from repro.data.database import Database
from repro.data.datagen import (
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)

DATABASES: dict[str, Callable[[], Database]] = {
    "company": lambda: company_database(num_employees=60, num_departments=8),
    "university": lambda: university_database(num_students=40, num_courses=12),
    "travel": lambda: travel_database(),
    "ab": lambda: ab_database(size_a=20, size_b=30),
    "auction": lambda: auction_database(num_users=30, num_items=20),
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Run OQL queries through the Fegaras SIGMOD'98 unnesting "
            "optimizer against an in-memory demo database."
        ),
    )
    parser.add_argument("query", nargs="?", help="OQL query (omit for a REPL)")
    parser.add_argument(
        "--db",
        choices=sorted(DATABASES),
        default="company",
        help="demo database (default: company)",
    )
    parser.add_argument(
        "--plan", action="store_true", help="print the unnested algebraic plan"
    )
    parser.add_argument(
        "--explain", action="store_true", help="print the physical plan"
    )
    parser.add_argument(
        "--trace", action="store_true", help="print the unnesting rule trace"
    )
    parser.add_argument(
        "--calculus", action="store_true", help="print the calculus translation"
    )
    parser.add_argument(
        "--stages",
        action="store_true",
        help="print every pipeline stage's intermediate form and wall time",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=(
            "bind a :name prepared-statement parameter (repeatable); the "
            "value is parsed as a Python literal, falling back to a string"
        ),
    )
    parser.add_argument(
        "--naive",
        action="store_true",
        help="also run the naive nested-loop strategy and compare times",
    )
    parser.add_argument(
        "--no-unnest",
        action="store_true",
        help="evaluate by direct calculus interpretation only",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="rows per chunk passed between operators (default 1024)",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help=(
            "partition the driving extent scan and execute partition-local "
            "pipelines in a worker pool, merging deterministically at the "
            "root (plans that do not partition run serially)"
        ),
    )
    parser.add_argument(
        "-j",
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help=(
            "worker/partition count for --parallel (default 0: one per "
            "visible core, capped at 8); implies --parallel when > 0"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
        help=(
            "execution backend: the in-memory reference engine, or query "
            "shredding over stdlib sqlite3 (flat SELECTs + stitching)"
        ),
    )
    parser.add_argument(
        "--db-path",
        default=None,
        metavar="FILE",
        help=(
            "with --backend sqlite: shred into (and reuse) a file-backed "
            "store at FILE instead of :memory:, so SQL's working set pages "
            "through a bounded cache; a fingerprint decides reuse vs. re-shred"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per query; exceeding it raises QueryTimeout",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help=(
            "work-unit budget per query (rows emitted + join pairs "
            "considered); exceeding it raises BudgetExceeded"
        ),
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help=(
            "estimated-memory budget for blocking operators (join "
            "builds, grouping); exceeding it raises BudgetExceeded"
        ),
    )
    return parser


def format_result(result: Any, limit: int = 20) -> str:
    """Render a query result: record collections become aligned tables."""
    from repro.data.values import ListValue

    if not hasattr(result, "elements"):
        return f"  {result!r}"
    elements = list(result.elements())
    if not isinstance(result, ListValue):
        elements.sort(key=repr)
    count = len(elements)
    if count == 0:
        return "  (empty)\n(0 rows)"
    table = _format_table(elements[:limit])
    if table is None:
        table = "\n".join(f"  {element!r}" for element in elements[:limit])
    suffix = "" if count <= limit else f"\n  ... ({count} rows total)"
    return f"{table}{suffix}\n({count} rows)"


def _format_table(elements: list) -> str | None:
    """Aligned columns for homogeneous record rows; None when not tabular."""
    from repro.data.values import Record

    if not elements or not all(isinstance(e, Record) for e in elements):
        return None
    attributes = elements[0].attributes()
    if any(e.attributes() != attributes for e in elements):
        return None
    rows = [[_cell(element[attr]) for attr in attributes] for element in elements]
    widths = [
        max(len(attr), *(len(row[i]) for row in rows))
        for i, attr in enumerate(attributes)
    ]
    header = "  " + " | ".join(a.ljust(w) for a, w in zip(attributes, widths))
    rule = "  " + "-+-".join("-" * w for w in widths)
    body = [
        "  " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
        for row in rows
    ]
    return "\n".join([header, rule, *body])


def _cell(value: Any, max_width: int = 36) -> str:
    text = str(value) if isinstance(value, str) else repr(value)
    if len(text) > max_width:
        return text[: max_width - 1] + "…"
    return text


def parse_param(text: str) -> tuple[str, Any]:
    """Parse a ``name=value`` CLI binding; the value is a Python literal
    when it parses as one (``4``, ``1.5``, ``None``, ``[1, 2]``) and a plain
    string otherwise."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise ValueError(f"--param expects NAME=VALUE, got {text!r}")
    try:
        value = python_ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return name, value


def run_query(
    source: str,
    db: Database,
    *,
    show_plan: bool = False,
    show_explain: bool = False,
    show_trace: bool = False,
    show_calculus: bool = False,
    show_stages: bool = False,
    compare_naive: bool = False,
    unnest: bool = True,
    batch_size: int | None = None,
    parallel: bool = False,
    num_workers: int = 0,
    timeout: float | None = None,
    max_rows: int | None = None,
    max_bytes: int | None = None,
    backend: str = "memory",
    db_path: str | None = None,
    optimizer: Optimizer | None = None,
    params: dict[str, Any] | None = None,
    out=None,
) -> None:
    """Compile and run one OQL query, printing the requested artifacts."""
    out = out if out is not None else sys.stdout
    params = params or {}
    if optimizer is None:
        options = OptimizerOptions(
            unnest=unnest,
            parallel=parallel or num_workers > 0,
            num_workers=num_workers,
            timeout=timeout,
            max_rows=max_rows,
            max_bytes=max_bytes,
            backend=backend,
            db_path=db_path,
        )
        if batch_size is not None:
            from dataclasses import replace as _replace

            options = _replace(options, batch_size=batch_size)
        optimizer = Optimizer(db, options)
    compiled = optimizer.compile_oql(source)
    # The REPL keeps one \set binding table across queries; only forward the
    # names this query actually declares.
    params = {k: v for k, v in params.items() if k in compiled.param_names}
    if show_calculus:
        print("calculus:", pretty(compiled.term), file=out)
    if show_stages:
        print(compiled.explain_stages(), file=out)
    if show_trace and compiled.trace is not None:
        print("unnesting trace:", file=out)
        for entry in compiled.trace.entries:
            print(f"  ({entry.rule}) {entry.detail}", file=out)
    if show_plan and compiled.optimized is not None:
        print("plan:", file=out)
        print(pretty_plan(compiled.optimized), file=out)
    if show_explain and compiled.optimized is not None:
        label = (
            "shredded plan:"
            if compiled.options.backend == "sqlite"
            else "physical plan:"
        )
        print(label, file=out)
        print(compiled.explain(db), file=out)

    start = time.perf_counter()
    result = compiled.execute(db, params)
    elapsed = (time.perf_counter() - start) * 1000
    print(format_result(result), file=out)
    print(f"({elapsed:.2f} ms)", file=out)

    if compare_naive and unnest:
        naive = Optimizer(db, OptimizerOptions(unnest=False)).compile_oql(source)
        start = time.perf_counter()
        naive_result = naive.execute(db, params)
        naive_ms = (time.perf_counter() - start) * 1000
        agree = "results agree" if naive_result == result else "RESULTS DIFFER!"
        print(
            f"naive nested-loop: {naive_ms:.2f} ms "
            f"({naive_ms / max(elapsed, 1e-9):.1f}x slower; {agree})",
            file=out,
        )


def _repl_limits(optimizer: Optimizer, argument: str, out) -> None:
    """The REPL ``\\limits`` command: show, set, or clear governor limits.

    ``\\limits`` shows the current limits, ``\\limits off`` clears them, and
    ``\\limits timeout=0.5 max_rows=10000 max_bytes=1000000`` sets any subset
    (each key optional).  Changing limits clears the plan cache: cached
    CompiledQuery objects carry their options snapshot.
    """
    from dataclasses import replace as _replace

    options = optimizer.options
    if not argument.strip():
        print(
            f"  timeout={options.timeout!r} max_rows={options.max_rows!r} "
            f"max_bytes={options.max_bytes!r}",
            file=out,
        )
        return
    if argument.strip().lower() == "off":
        optimizer.options = _replace(
            options, timeout=None, max_rows=None, max_bytes=None
        )
        optimizer.plan_cache.clear()
        print("  limits cleared", file=out)
        return
    updates: dict[str, Any] = {}
    for piece in argument.split():
        try:
            name, value = parse_param(piece)
        except ValueError as exc:
            print(f"error: {exc}", file=out)
            return
        if name not in ("timeout", "max_rows", "max_bytes"):
            print(
                f"error: unknown limit {name!r} "
                "(expected timeout, max_rows, or max_bytes)",
                file=out,
            )
            return
        updates[name] = value
    try:
        optimizer.options = _replace(options, **updates)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return
    optimizer.plan_cache.clear()
    set_to = " ".join(f"{k}={v!r}" for k, v in updates.items())
    print(f"  limits set: {set_to}", file=out)


def repl(db_name: str, out=None) -> None:
    """The interactive OQL shell (see the module docstring for commands)."""
    out = out if out is not None else sys.stdout
    db = DATABASES[db_name]()
    optimizer = Optimizer(db)
    flags = {
        "plan": False,
        "explain": False,
        "trace": False,
        "calculus": False,
        "stages": False,
    }
    params: dict[str, Any] = {}
    print(
        f"repro OQL shell — database '{db_name}' ({db!r}).\n"
        "End queries with ';' (views: 'define <name> as <query>;').\n"
        "Meta: \\plan \\explain \\trace \\calculus \\stages \\cache "
        "\\batch N \\parallel \\backend \\limits \\set name=value "
        "\\params \\views \\db <name> \\quit",
        file=out,
    )
    buffer: list[str] = []
    while True:
        try:
            prompt = "oql> " if not buffer else "...> "
            line = input(prompt)
        except EOFError:
            print(file=out)
            return
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            command, _, argument = stripped[1:].partition(" ")
            if command in ("quit", "q", "exit"):
                return
            if command == "db":
                if argument in DATABASES:
                    db = DATABASES[argument]()
                    optimizer = Optimizer(db)
                    print(f"switched to '{argument}' ({db!r})", file=out)
                else:
                    print(f"unknown database; choose from {sorted(DATABASES)}", file=out)
                continue
            if command in flags:
                flags[command] = not flags[command]
                print(f"\\{command} {'on' if flags[command] else 'off'}", file=out)
                continue
            if command == "batch":
                from dataclasses import replace as _replace

                try:
                    optimizer.options = _replace(
                        optimizer.options, batch_size=int(argument)
                    )
                except ValueError:
                    print(
                        "usage: \\batch N (rows per chunk, N >= 1)", file=out
                    )
                    continue
                size = optimizer.options.batch_size
                print(f"\\batch {size} rows per chunk", file=out)
                continue
            if command == "parallel":
                from dataclasses import replace as _replace

                if argument:
                    # ``\parallel N`` sets the worker count (and turns
                    # parallel execution on); a bare ``\parallel`` toggles.
                    try:
                        optimizer.options = _replace(
                            optimizer.options,
                            parallel=True,
                            num_workers=int(argument),
                        )
                    except ValueError:
                        print(
                            "usage: \\parallel (toggle) or \\parallel N "
                            "(workers, N >= 0; 0 = one per core)",
                            file=out,
                        )
                        continue
                    label = str(optimizer.options.num_workers or "auto")
                    print(f"\\parallel on ({label} workers)", file=out)
                    continue
                optimizer.options = _replace(
                    optimizer.options, parallel=not optimizer.options.parallel
                )
                state = "on" if optimizer.options.parallel else "off"
                print(f"\\parallel {state} (partitioned execution)", file=out)
                continue
            if command == "backend":
                from dataclasses import replace as _replace

                db_path = None
                if argument:
                    # ``\backend NAME [PATH]`` selects it (PATH: a
                    # file-backed sqlite store); a bare ``\backend``
                    # toggles between memory and sqlite.
                    pieces = argument.split(None, 1)
                    name = pieces[0].strip().lower()
                    if len(pieces) > 1:
                        db_path = pieces[1].strip() or None
                    if name not in ("memory", "sqlite") or (
                        db_path and name != "sqlite"
                    ):
                        print(
                            "usage: \\backend (toggle) or "
                            "\\backend memory|sqlite [db-path]",
                            file=out,
                        )
                        continue
                else:
                    name = (
                        "sqlite"
                        if optimizer.options.backend == "memory"
                        else "memory"
                    )
                optimizer.options = _replace(
                    optimizer.options, backend=name, db_path=db_path
                )
                # Options are part of the plan-cache key, but clear anyway
                # so stale CompiledQuery snapshots (and their store
                # bindings) do not linger after a backend/store switch.
                optimizer.plan_cache.clear()
                suffix = f" (file: {db_path})" if db_path else ""
                print(f"\\backend {name}{suffix}", file=out)
                continue
            if command == "limits":
                _repl_limits(optimizer, argument, out)
                continue
            if command == "views":
                if optimizer.views:
                    for view_name in sorted(optimizer.views):
                        print(f"  {view_name}", file=out)
                else:
                    print("  (no views defined)", file=out)
                continue
            if command == "cache":
                print(f"  {optimizer.plan_cache!r}", file=out)
                counts = optimizer.stage_counts
                if counts:
                    ran = ", ".join(
                        f"{name}: {counts[name]}"
                        for name in sorted(counts, key=counts.get, reverse=True)
                    )
                    print(f"  stage runs — {ran}", file=out)
                continue
            if command == "set":
                try:
                    name, value = parse_param(argument)
                except ValueError as exc:
                    print(f"error: {exc}", file=out)
                    continue
                params[name] = value
                print(f"  :{name} = {value!r}", file=out)
                continue
            if command == "params":
                if params:
                    for name in sorted(params):
                        print(f"  :{name} = {params[name]!r}", file=out)
                else:
                    print("  (no parameters set)", file=out)
                continue
            print(f"unknown meta-command \\{command}", file=out)
            continue
        buffer.append(line)
        if not stripped.endswith(";"):
            continue
        source = "\n".join(buffer).rstrip().rstrip(";")
        buffer = []
        if not source.strip():
            continue
        try:
            if source.lstrip().lower().startswith("define"):
                name = optimizer.define_view(source)
                print(f"view {name!r} defined", file=out)
            else:
                run_query(
                    source,
                    db,
                    show_plan=flags["plan"],
                    show_explain=flags["explain"],
                    show_trace=flags["trace"],
                    show_calculus=flags["calculus"],
                    show_stages=flags["stages"],
                    optimizer=optimizer,
                    params=params,
                    out=out,
                )
        except Exception as exc:  # noqa: BLE001 - REPL survives bad queries
            print(f"error: {exc}", file=out)


def build_fuzz_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro fuzz``."""
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description=(
            "Differential fuzzing: random OQL over random schemas, every "
            "execution path cross-checked (see repro.testing)."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed (default: 0)"
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="number of (database, query) samples to check (default: 100)",
    )
    parser.add_argument(
        "--save-repros",
        metavar="DIR",
        default=None,
        help="write a JSON repro artifact for every finding into DIR",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report findings unminimized (skip delta debugging)",
    )
    parser.add_argument(
        "--no-invariants",
        action="store_true",
        help="skip the structural pipeline invariant checks",
    )
    parser.add_argument(
        "--duplicate-probability",
        type=float,
        default=None,
        metavar="P",
        help=(
            "chance of generating value-equal duplicate objects "
            "(default: schemagen default; exercises the object-identity "
            "layer)"
        ),
    )
    parser.add_argument(
        "--synthetic-oids",
        action="store_true",
        help=(
            "back-compat: stamp a unique 'oid' attribute on every generated "
            "object (the pre-identity-layer scheme; disables duplicates)"
        ),
    )
    parser.add_argument(
        "--fault-injection",
        action="store_true",
        help=(
            "also run every sample under a tiny deterministic governor "
            "budget: failures must be structured GovernorErrors and the "
            "engine must stay clean afterwards"
        ),
    )
    return parser


def run_fuzz_command(argv: list[str], out=None) -> int:
    """Run the ``repro fuzz`` subcommand; returns a process exit code."""
    from repro.testing.fuzz import FuzzConfig, FuzzReport, run_fuzz

    out = out if out is not None else sys.stdout
    args = build_fuzz_parser().parse_args(argv)
    from repro.testing.schemagen import SchemaGenConfig

    schema_config = SchemaGenConfig(synthetic_oids=args.synthetic_oids)
    if args.duplicate_probability is not None:
        schema_config.duplicate_probability = args.duplicate_probability
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        save_repros=args.save_repros,
        shrink=not args.no_shrink,
        invariants=not args.no_invariants,
        fault_injection=args.fault_injection,
        schema_config=schema_config,
    )
    start = time.perf_counter()

    def progress(iteration: int, report: FuzzReport) -> None:
        if iteration % 100 == 0 or iteration == config.iterations:
            elapsed = time.perf_counter() - start
            print(
                f"  {iteration}/{config.iterations} samples, "
                f"{len(report.findings)} finding(s), {elapsed:.1f}s",
                file=out,
            )

    print(
        f"fuzzing: seed={config.seed}, {config.iterations} iterations",
        file=out,
    )
    report = run_fuzz(config, progress)
    print(report.summary(), file=out)
    return 0 if report.ok else 1


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser for ``repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve OQL queries over TCP: newline-delimited JSON requests "
            "(plus a thin HTTP/1.1 POST endpoint on the same port), "
            "sessions with prepared statements, admission control, and "
            "per-tenant budgets (see repro.server)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=7683, help="TCP port (default: 7683)"
    )
    parser.add_argument(
        "--db",
        choices=sorted(DATABASES),
        default="company",
        help="demo database to serve (default: company)",
    )
    parser.add_argument(
        "--backend",
        choices=("memory", "sqlite"),
        default="memory",
        help="default execution backend for sessions (default: memory)",
    )
    parser.add_argument(
        "--db-path",
        default=None,
        metavar="FILE",
        help="with --backend sqlite: file-backed shredded store at FILE",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=8,
        metavar="N",
        help="query worker threads (default: 8)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: concurrent queries (default: --workers)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission control: queued queries beyond the in-flight limit "
            "before typed rejection (default: 2x --max-inflight)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-query wall-clock budget for every session",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="default per-query work-unit budget for every session",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="default per-query memory budget for every session",
    )
    parser.add_argument(
        "--tenant-max-queries",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant serving budget: total queries",
    )
    parser.add_argument(
        "--tenant-max-wall-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-tenant serving budget: total execution wall-clock ms",
    )
    parser.add_argument(
        "--tenant-max-rows",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant serving budget: total rows returned",
    )
    parser.add_argument(
        "--tenant-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant serving budget: total encoded result bytes",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics summary line every --metrics-interval seconds",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds between --metrics summary lines (default: 10)",
    )
    return parser


def run_serve_command(argv: list[str], out=None) -> int:
    """Run the ``repro serve`` subcommand; returns a process exit code."""
    import asyncio

    from repro.server import ReproServer, ServerConfig, TenantBudget

    out = out if out is not None else sys.stdout
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    db = DATABASES[args.db]()
    try:
        options = OptimizerOptions(
            timeout=args.timeout,
            max_rows=args.max_rows,
            max_bytes=args.max_bytes,
            backend=args.backend,
            db_path=args.db_path,
        )
    except ValueError as exc:
        parser.error(str(exc))
    config = ServerConfig(
        database=db,
        options=options,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        tenant_budget=TenantBudget(
            max_queries=args.tenant_max_queries,
            max_wall_ms=args.tenant_max_wall_ms,
            max_rows=args.tenant_max_rows,
            max_bytes=args.tenant_max_bytes,
        ),
    )

    async def serve() -> None:
        server = ReproServer(config)
        host, port = await server.start()
        print(
            f"repro serve: database '{args.db}' on {host}:{port} "
            f"(workers={config.workers}, max_inflight={server.max_inflight}, "
            f"queue_depth={server.queue_depth}, backend={args.backend})",
            file=out,
            flush=True,
        )

        async def print_metrics() -> None:
            while True:
                await asyncio.sleep(args.metrics_interval)
                print(server.metrics.summary_line(), file=out, flush=True)

        metrics_task = (
            asyncio.ensure_future(print_metrics()) if args.metrics else None
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if metrics_task is not None:
                metrics_task.cancel()
            await server.close()
            if args.metrics:
                print(server.metrics.summary_line(), file=out, flush=True)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("repro serve: shut down", file=out, flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "fuzz":
        return run_fuzz_command(argv[1:])
    if argv and argv[0] == "serve":
        return run_serve_command(argv[1:])
    args = build_parser().parse_args(argv)
    if args.query is None:
        repl(args.db)
        return 0
    db = DATABASES[args.db]()
    try:
        params = dict(parse_param(binding) for binding in args.param)
        run_query(
            args.query,
            db,
            show_plan=args.plan,
            show_explain=args.explain,
            show_trace=args.trace,
            show_calculus=args.calculus,
            show_stages=args.stages,
            compare_naive=args.naive,
            unnest=not args.no_unnest,
            batch_size=args.batch_size,
            parallel=args.parallel,
            num_workers=args.workers,
            timeout=args.timeout,
            max_rows=args.max_rows,
            max_bytes=args.max_bytes,
            backend=args.backend,
            db_path=args.db_path,
            params=params,
        )
    except Exception as exc:  # noqa: BLE001 - CLI reports, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
