"""Command-line interface: run OQL against the built-in demo databases.

Usage::

    python -m repro "select distinct e.name from e in Employees"
    python -m repro --db university --explain "select distinct s from s in Student"
    python -m repro --trace --plan "for all a in A: exists b in B: a = b" --db ab
    python -m repro --max-rows 100000 --backend sqlite   # interactive shell

Every option a user may set is named once, in
:data:`repro.core.optimizer.SETTABLE_OPTIONS`, and checked once, by
:func:`repro.core.optimizer.update_options`.  Each is a flag here and in
``repro serve`` (``--max-rows``, ``--num-workers``, ...), a ``\\set`` in the
shell and a key of the server's ``set`` op, and a refused value reads the
same on all of them.  ``--db-path`` and ``--no-unnest`` are start-up only.

The interactive shell starts from the options the flags name.  It accepts
OQL queries terminated by a semicolon (views: ``define <name> as <query>;``)
and the meta-commands ``\\set`` (show the settings) or ``\\set name=value
...`` (change them, e.g. ``\\set max_rows=100000 backend=sqlite``),
``\\plan``, ``\\explain``, ``\\trace``, ``\\calculus``, ``\\stages`` (toggle
per-query output), ``\\cache`` (plan-cache statistics), ``\\param
name=value`` and ``\\params`` (bind and list ``:name`` placeholders),
``\\views``, ``\\db <name>`` (switch database; the settings stay, the views
go) and ``\\quit``.

Prepared-statement placeholders (``:name``) take their values from repeated
``--param name=value`` flags::

    python -m repro --param d=4 "select e.name from e in Employees where e.dno = :d"
"""

from __future__ import annotations

import argparse
import ast as python_ast
import sys
import time
from dataclasses import replace
from typing import Any, Callable, Collection

from repro.algebra.pretty import pretty_plan
from repro.calculus.pretty import pretty
from repro.core.optimizer import (
    SETTABLE_OPTIONS,
    OptimizerOptions,
    QueryPipeline,
    update_options,
)
from repro.data.database import Database
from repro.data.datagen import (
    ab_database,
    auction_database,
    company_database,
    travel_database,
    university_database,
)
from repro.errors import OptionError
from repro.oql.parser import is_definition

DATABASES: dict[str, Callable[[], Database]] = {
    "company": lambda: company_database(num_employees=60, num_departments=8),
    "university": lambda: university_database(num_students=40, num_courses=12),
    "travel": lambda: travel_database(),
    "ab": lambda: ab_database(size_a=20, size_b=30),
    "auction": lambda: auction_database(num_users=30, num_items=20),
}

#: The per-query displays, in the order they print: each is a ``repro``
#: flag and a shell toggle of the same name.
DISPLAYS = {
    "calculus": "print the calculus translation",
    "stages": "print every pipeline stage's intermediate form and wall time",
    "trace": "print the unnesting rule trace",
    "plan": "print the unnested algebraic plan",
    "explain": "print the physical plan",
}


def literal(text: str) -> Any:
    """*text* as a Python literal when it parses as one (``4``, ``1.5``,
    ``None``, ``[1, 2]``), else the text itself."""
    try:
        return python_ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_param(text: str) -> tuple[str, Any]:
    """Parse a ``name=value`` binding or setting; the value is read by
    :func:`literal`."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise ValueError(f"expected NAME=VALUE, got {text!r}")
    return name, literal(raw)


def add_option_flags(parser: argparse.ArgumentParser) -> None:
    """Declare ``--name`` for every settable option (read by :func:`literal`
    and checked by :func:`parse_options`), and start-up-only ``--db-path``."""
    for name, help_text in SETTABLE_OPTIONS.items():
        parser.add_argument(
            "--" + name.replace("_", "-"),
            type=literal,
            default=argparse.SUPPRESS,
            help=help_text,
        )
    parser.add_argument(
        "--db-path",
        metavar="FILE",
        help=(
            "start-up only: with --backend sqlite, shred into (and reuse) a "
            "file-backed store at FILE instead of :memory:"
        ),
    )


def parse_options(args: argparse.Namespace, **start_up: Any) -> OptimizerOptions:
    """The options *args*' option flags name over the start-up-only
    settings, checked as every setting is (an :class:`OptionError`)."""
    settings = {k: v for k, v in vars(args).items() if k in SETTABLE_OPTIONS}
    return update_options(OptimizerOptions(db_path=args.db_path, **start_up), settings)


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
    for name, help_text in DISPLAYS.items():
        parser.add_argument(f"--{name}", action="store_true", help=help_text)
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
        help="start-up only: evaluate by direct calculus interpretation",
    )
    add_option_flags(parser)
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


def run_query(
    source: str,
    pipeline: QueryPipeline,
    *,
    show: Collection[str] = (),
    compare_naive: bool = False,
    params: dict[str, Any] | None = None,
    out=None,
) -> None:
    """Compile and run one OQL query on *pipeline*, printing the
    :data:`DISPLAYS` named in *show*."""
    out = out if out is not None else sys.stdout
    db = pipeline.database
    compiled = pipeline.compile_oql(source)
    # The shell keeps one \param table across queries; only forward the
    # names this query actually declares.
    params = {k: v for k, v in (params or {}).items() if k in compiled.param_names}
    if "calculus" in show:
        print("calculus:", pretty(compiled.term), file=out)
    if "stages" in show:
        print(compiled.explain_stages(), file=out)
    if "trace" in show and compiled.trace is not None:
        print("unnesting trace:", file=out)
        for entry in compiled.trace.entries:
            print(f"  ({entry.rule}) {entry.detail}", file=out)
    if "plan" in show and compiled.optimized is not None:
        print("plan:", file=out)
        print(pretty_plan(compiled.optimized), file=out)
    if "explain" in show and compiled.optimized is not None:
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

    if compare_naive and pipeline.options.unnest:
        # The paper's nested-loop strategy under the user's own limits.
        naive_options = replace(pipeline.options, unnest=False, backend="memory")
        naive = QueryPipeline(db, naive_options).compile_oql(source)
        start = time.perf_counter()
        naive_result = naive.execute(db, params)
        naive_ms = (time.perf_counter() - start) * 1000
        agree = "results agree" if naive_result == result else "RESULTS DIFFER!"
        print(
            f"naive nested-loop: {naive_ms:.2f} ms "
            f"({naive_ms / max(elapsed, 1e-9):.1f}x slower; {agree})",
            file=out,
        )


def repl(
    db_name: str, options: OptimizerOptions | None = None, out=None
) -> None:
    """The interactive OQL shell (see the module docstring for commands)."""
    out = out if out is not None else sys.stdout
    pipeline = QueryPipeline(DATABASES[db_name](), options)
    show: set[str] = set()
    params: dict[str, Any] = {}
    print(
        f"repro OQL shell — database '{db_name}' ({pipeline.database!r}).\n"
        "End queries with ';' (views: 'define <name> as <query>;').\n"
        "Meta: \\set [name=value ...] \\plan \\explain \\trace \\calculus "
        "\\stages \\cache \\param name=value \\params \\views \\db <name> "
        "\\quit",
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
                    pipeline = QueryPipeline(db, pipeline.options)
                    print(
                        f"switched to '{argument}' ({db!r}); "
                        "settings kept, views dropped",
                        file=out,
                    )
                else:
                    print(f"unknown database; choose from {sorted(DATABASES)}", file=out)
            elif command in DISPLAYS:
                show ^= {command}
                print(f"\\{command} {'on' if command in show else 'off'}", file=out)
            elif command == "set":
                try:
                    updates = dict(parse_param(piece) for piece in argument.split())
                    pipeline.options = update_options(pipeline.options, updates)
                except ValueError as exc:  # OptionError is a ValueError
                    print(f"error: {exc}", file=out)
                else:
                    settings = " ".join(
                        f"{name}={getattr(pipeline.options, name)!r}"
                        for name in SETTABLE_OPTIONS
                    )
                    print(f"  {settings}", file=out)
            elif command == "views":
                for view_name in sorted(pipeline.views) or ["(no views defined)"]:
                    print(f"  {view_name}", file=out)
            elif command == "cache":
                print(f"  {pipeline.plan_cache!r}", file=out)
                counts = pipeline.stage_counts
                if counts:
                    ran = ", ".join(
                        f"{name}: {counts[name]}"
                        for name in sorted(counts, key=counts.get, reverse=True)
                    )
                    print(f"  stage runs — {ran}", file=out)
            elif command == "param":
                try:
                    name, value = parse_param(argument)
                except ValueError as exc:
                    print(f"error: {exc}", file=out)
                else:
                    params[name] = value
                    print(f"  :{name} = {value!r}", file=out)
            elif command == "params":
                for name in sorted(params):
                    print(f"  :{name} = {params[name]!r}", file=out)
                if not params:
                    print("  (no parameters set)", file=out)
            else:
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
            if is_definition(source):
                name = pipeline.define_view(source)
                print(f"view {name!r} defined", file=out)
            else:
                run_query(source, pipeline, show=show, params=params, out=out)
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
            "per-tenant budgets (see repro.server).  The option flags set "
            "every session's defaults."
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
    add_option_flags(parser)
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
    try:
        options = parse_options(args)
    except OptionError as exc:
        parser.error(str(exc))
    config = ServerConfig(
        database=DATABASES[args.db](),
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
            f"queue_depth={server.queue_depth}, backend={options.backend})",
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
    try:
        options = parse_options(args, unnest=not args.no_unnest)
        if args.query is not None:
            run_query(
                args.query,
                QueryPipeline(DATABASES[args.db](), options),
                show={name for name in DISPLAYS if getattr(args, name)},
                compare_naive=args.naive,
                params=dict(parse_param(binding) for binding in args.param),
            )
    except Exception as exc:  # noqa: BLE001 - CLI reports, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.query is None:
        repl(args.db, options)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
