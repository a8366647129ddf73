"""One end-to-end benchmark: four workloads, their end-to-end metrics, and
a per-layer budget from a traced run.  It claims no gain; it is the ruler.

    python3 benchmarks/e2e/run.py [--seed 1998] [--seconds N] [--quick]
        every workload, each in a fresh interpreter, untraced then traced;
        prints every metric by name with its unit, checks every answer,
        writes benchmarks/e2e/out/results.json
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds N --trace 0|1
        one run of one workload; the last line of stdout is one JSON object
        {"correct", "attempted", "failed", "metrics"} — end-to-end metrics
        with --trace 0, per-layer metrics with --trace 1
    python3 benchmarks/e2e/run.py compare A.json B.json
        B against A under the bounds of BENCHMARK.json, one row per
        workload and metric
    python3 benchmarks/e2e/run.py freeze
        rewrite queries.json from tests/corpus.py

Metric names, units, bounds and workload names live in BENCHMARK.json at
the repository root; README.md beside this file is the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from measure import (  # noqa: E402
    KERNEL_REFERENCE_MS,
    SpeedProbe,
    Tracer,
    fingerprint,
    geomean,
    summarise_latencies,
)

#: Timed repeats per run (medians across them) and set-ups per run (their
#: median is ``setup_s``); ``--quick`` does one of each.
REPEATS = 3
SETUPS = 3


def contract() -> dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def timed_setup(probe: SpeedProbe, build) -> tuple[Any, float]:
    """Run *build* and return what it made with its wall time in seconds
    at reference speed.  The probe ticks before and after (and wherever
    *build* itself ticks it); its own time is taken off."""
    probe.burst()
    start, spent = time.perf_counter(), probe.spent
    made = build()
    end = time.perf_counter()
    elapsed = end - start - (probe.spent - spent)
    probe.burst()
    return made, elapsed / probe.slowdown(start, end, margin=25)


def import_program() -> tuple[Any, Any]:
    """The program under test, through ``workloads`` and ``serving``."""
    try:
        import serving
        import workloads
    except ImportError as exc:
        raise SystemExit(f"cannot import the program under test from {ROOT / 'src'}: {exc}")
    return workloads, serving


# -- one run of one workload --------------------------------------------------


def run_in_process(wl, w, scale: str, seed: int, seconds: float, trace: bool, quick: bool, probe) -> dict[str, Any]:
    queries = wl.load_queries()
    rng = random.Random(seed)
    setup_times = []
    generate_s = 0.0
    engine = None

    def set_up():
        nonlocal generate_s
        # A user pays interpreter start and the import before the first
        # query; a fresh interpreter per set-up makes it repeatable.
        wl.cli_import_s(repeats=1)
        start = time.perf_counter()
        databases = wl.generate(scale, wl.DATA_SEED)
        generate_s = time.perf_counter() - start
        engine = wl.build_engine(
            databases, queries, w.backend, w.prepared, on_disk=w.backend == "sqlite"
        )
        try:
            answers = wl.first_answers(engine, queries, probe)
        except BaseException:
            engine.close()
            raise
        # A host that has loaded its data freezes it out of the collector's
        # reach.  Left in, each full collection walks the scale-L database
        # (~70 ms) inside whichever query crosses the allocation threshold:
        # the largest single source of run-to-run spread (p95 15% -> 7%).
        gc.collect()
        gc.freeze()
        return engine, answers

    try:
        for _ in range(1 if quick or trace else SETUPS):
            if engine is not None:
                gc.unfreeze()
                engine.close()
                engine = None
            (engine, answers), setup_s = timed_setup(probe, set_up)
            setup_times.append(setup_s)
        run: dict[str, Any] = {"setup_s": statistics.median(setup_times)}
        if trace:
            tracer = Tracer()
            plain = wl.sweep_pass(engine, queries, rng, 0.3 * seconds, answers, probe)
            traced = wl.traced_pass(engine, queries, rng, 0.5 * seconds, answers, probe, tracer)
            passes = [plain, traced]
            run["metrics"] = in_process_layers(wl, w, engine, queries, plain, tracer)
            run["metrics"]["data.generate_s"] = generate_s
            tracer.write(OUT / f"trace_{w.name}.json", workload=w.name, seed=seed, scale=scale)
        else:
            repeats = 1 if quick else REPEATS
            passes = [
                wl.sweep_pass(engine, queries, rng, seconds / repeats, answers, probe)
                for _ in range(repeats)
            ]
            run["peak_rss_mb"] = wl.peak_rss_mb()
        run["passes"] = passes
        run["machine_slowdown"] = statistics.median(probe.took) / KERNEL_REFERENCE_MS
        run["cardinalities"] = {name: wl.cardinality(a) for name, a in answers.items()}
        run["wrong"] = wl.verify(w, scale, seed, queries, engine.databases, answers)
    finally:
        if engine is not None:
            engine.close()
    return run


def in_process_layers(wl, w, engine, queries, plain, tracer) -> dict[str, float]:
    table = wl.SpanTable(tracer.spans)
    layers = wl.layer_budget(tracer.spans)
    untraced = summarise_latencies(plain.samples)["latency_geomean_ms"]
    traced = geomean(table.medians("request", "request", total=True))
    layers["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    layers["trace.machine_slowdown"] = statistics.median(
        s["slowdown"] for s in tracer.spans if s["name"] == "request"
    )
    compiles = [s for s in tracer.spans if s["name"] == "compile"]
    # Share of traced requests served without compiling: a prepared
    # request holds its plan, a first-seen one never finds it cached.
    layers["core.plan_cache.hit_rate"] = (
        sum(s["cache_hit"] for s in compiles) / len(compiles) if compiles else 1.0
    )
    compiled = engine.compiled or {
        q.name: engine.pipelines[q.family].compile_oql(q.oql) for q in queries
    }
    layers.update(wl.plan_counts(compiled))
    layers["core.plan_cache.lookup_us"] = wl.cache_lookup_us(engine, queries)
    layers["data.objects"] = wl.count_objects(engine.databases)
    layers["cli.import_s"] = wl.cli_import_s()
    if w.backend == "memory":
        layers.update(wl.operator_counts(engine, queries))
        if w.prepared:
            layers["engine.exchange.speedup_2w"] = wl.exchange_speedup(engine, queries)
        else:
            layers["core.unnest_speedup_geomean"] = wl.unnest_speedup(engine.databases, queries)
    else:
        runs = [s for s in tracer.spans if s["name"] == "run"]
        sweeps = len(runs) / len(queries)
        layers["shred.flat_queries"] = sum(s["flat_queries"] for s in runs) / sweeps
        layers["shred.rows_fetched"] = sum(s["rows_fetched"] for s in runs) / sweeps
        layers["shred.load_s"] = engine.load_s
        layers["shred.db_bytes"] = engine.db_bytes
        # The backend's per-query floor: two queries that touch no data.
        layers["shred.fixed_cost_ms"] = statistics.median(
            statistics.median(table.total_ms["request", "request"][name])
            for name in ("constant_query", "empty_result")
        )
    return layers


def run_served(wl, sv, w, scale: str, seed: int, seconds: float, trace: bool, quick: bool, probe) -> dict[str, Any]:
    queries = [q for q in wl.load_queries() if q.family == "company"]
    sizes = wl.SCALES[scale]["company"]
    setup_times = []
    child = None

    def set_up():
        child = sv.ServerChild(wl.DATA_SEED, sizes)
        try:
            return child, sv.warm_up(child.port, queries)
        except BaseException:
            child.stop()
            raise

    try:
        for _ in range(1 if quick or trace else SETUPS):
            if child is not None:
                child.stop()
                child = None
            (child, first), setup_s = timed_setup(probe, set_up)
            setup_times.append(setup_s)
        run: dict[str, Any] = {"setup_s": statistics.median(setup_times)}

        def one_pass(index: int, budget_s: float):
            return sv.served_pass(child, queries, first, seed * 10 + index, budget_s)

        if trace:
            plain, _, _ = one_pass(0, 0.3 * seconds)
            before = sv.serve_stats(child.port)
            traced, replies, slowdown = one_pass(1, 0.5 * seconds)
            after = sv.serve_stats(child.port)
            passes = [plain, traced]
            tracer = Tracer()
            sv.add_reply_spans(tracer, replies)
            layers = sv.serve_budget(replies, before, after, slowdown)
            layers.update(sv.codec_replay(queries, sv.decoded(first)))
            # What the replayed codec work leaves of the overhead: event
            # loop, admission, pool hand-off, GIL waits, socket.
            layers["server.unexplained_ms"] = layers["server.overhead_ms"] - sum(
                layers[f"server.{part}_us"] for part in sv.CODEC_PARTS
            ) / 1000.0
            layers["cli.import_s"] = wl.cli_import_s()
            # Spans come from what the loop records anyway, so both passes
            # run the same code: this is the noise floor of the figure.
            layers["trace.overhead_pct"] = 100.0 * (
                summarise_latencies(traced.samples)["latency_geomean_ms"]
                / summarise_latencies(plain.samples)["latency_geomean_ms"]
                - 1.0
            )
            layers["trace.machine_slowdown"] = slowdown
            run["metrics"] = layers
            tracer.write(OUT / f"trace_{w.name}.json", workload=w.name, seed=seed, scale=scale)
        else:
            repeats = 1 if quick else REPEATS
            passes, _, slowdowns = zip(*(one_pass(i, seconds / repeats) for i in range(repeats)))
            slowdown = statistics.median(slowdowns)
            run["peak_rss_mb"] = child.rusage()["maxrss_mb"]
        run["machine_slowdown"] = slowdown
    finally:
        if child is not None:
            child.stop()
    answers = sv.decoded(first)
    run["passes"] = passes
    run["cardinalities"] = {name: wl.cardinality(a) for name, a in answers.items()}
    run["wrong"] = wl.verify(w, scale, seed, queries, wl.generate(scale, wl.DATA_SEED), answers)
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict[str, Any]:
    """One run; returns the result object of the contract plus details
    (spreads, cardinalities, what failed) for ``results.json``."""
    spec = contract()
    probe = SpeedProbe()
    wl, sv = import_program()
    w = wl.WORKLOADS[name]
    scale = "S" if quick else w.scale
    if w.served:
        run = run_served(wl, sv, w, scale, seed, seconds, trace, quick, probe)
    else:
        run = run_in_process(wl, w, scale, seed, seconds, trace, quick, probe)

    passes = run["passes"]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = len(failures)
    # A query whose answer the references reject fails every sample of it.
    for query, problem in run["wrong"].items():
        failed += sum(len(p.samples.get(query, ())) for p in passes)
        failures.append(f"{query}: {problem}")
    failed = min(failed, attempted)

    if trace:
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        unknown = run["metrics"].keys() - values.keys()
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values.update(run["metrics"])
        spreads = {}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, spreads = wl.combine(passes)
        values["setup_s"] = run["setup_s"]
        values["peak_rss_mb"] = run["peak_rss_mb"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "samples": sum(len(v) for p in passes for v in p.samples.values()),
        "machine_slowdown": run["machine_slowdown"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "spread": spreads,
        "cardinalities": run["cardinalities"],
        "failures": failures[:20],
    }


# -- every workload, each in a fresh interpreter -------------------------------


def check_drift(wl) -> None:
    corpus_py = ROOT / "tests" / "corpus.py"
    if not corpus_py.exists():
        return
    frozen = [vars(q) for q in wl.load_queries()]
    if frozen != wl.corpus_entries(corpus_py):
        print(
            "WARNING: benchmarks/e2e/queries.json has drifted from tests/corpus.py "
            "(the benchmark keeps measuring its frozen copy; `run.py freeze` "
            "re-copies it, which starts a new baseline)",
            file=sys.stderr,
        )


def run_all(seed: int, seconds: float, quick: bool) -> int:
    wl, _ = import_program()
    check_drift(wl)
    spec = contract()
    results: dict[str, Any] = {
        "machine": fingerprint(ROOT),
        "seed": seed,
        "seconds": seconds,
        "mode": "quick" if quick else "full",
        "plan_cache_sizes": {"QueryPipeline": 128, "ReproServer": 256},
        "workloads": {},
    }
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        row: dict[str, Any] = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ] + (["--quick"] if quick else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
            if done.returncode not in (0, 1) or not done.stdout.strip():
                print(f"{name} (trace {trace}) exited with {done.returncode}", file=sys.stderr)
                return 2
            detail = json.loads((OUT / f"run_{name}_trace{trace}.json").read_text())
            ok = ok and detail["correct"]
            row["traced" if trace else "untraced"] = detail
        results["workloads"][name] = row
        print(
            f"{name}: {row['untraced']['samples']} + {row['traced']['samples']} samples, "
            f"error_rate {row['untraced']['error_rate']:g} / {row['traced']['error_rate']:g} ratio, "
            f"machine slowdown {row['untraced']['machine_slowdown']:.2f}",
            flush=True,
        )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print_tables(spec, results["workloads"])
    print(f"\n[written to {OUT / 'results.json'}]")
    if not ok:
        print("FAILED: wrong answers, errors or refusals — see 'failures' in results.json")
    return 0 if ok else 1


def print_tables(spec: dict[str, Any], rows: dict[str, Any]) -> None:
    """Every metric by name with its unit, one column per workload; times
    are at reference machine speed (see README.md)."""
    names = list(rows)
    header = f"{'':<32}{'unit':<7}" + "".join(f"{name:>17}" for name in names)
    for title, kind, key in (
        ("end to end (untraced; ±: spread across repeats)", "end_to_end", "untraced"),
        ("per layer (traced pass; 0 = the layer does no work here)", "per_layer", "traced"),
    ):
        print(f"\n-- {title} --\n{header}")
        for metric in spec[kind]:
            cells = []
            for name in names:
                run = rows[name][key]
                value = run["metrics"][metric["name"]]["value"]
                spread = run["spread"].get(metric["name"])
                cell = f"{value:.4g}" + (f" ±{100 * spread:.0f}%" if spread is not None else "")
                cells.append(f"{cell:>17}")
            print(f"{metric['name']:<32}{metric['unit']:<7}" + "".join(cells))


# -- compare ------------------------------------------------------------------


def compare(path_a: Path, path_b: Path) -> int:
    """B against A: each end-to-end metric of each workload is ``worse``,
    ``better`` or ``unchanged`` under its bound — or ``unresolved`` where
    either run's own spread exceeds the bound, so that noise is never
    reported as no change."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    for key in ("python", "gil", "nproc"):
        if a["machine"][key] != b["machine"][key]:
            print(f"WARNING: {key} differs: {a['machine'][key]} vs {b['machine'][key]}")
    regressed = False
    print(f"{'workload':<16} {'metric':<20} {'A':>12} {'B':>12} {'change':>8} {'bound':>6}  verdict")
    for name, row_b in b["workloads"].items():
        row_a = a["workloads"].get(name)
        if row_a is None:
            continue
        run_a, run_b = row_a["untraced"], row_b["untraced"]
        for metric in contract()["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            old, new = run_a["metrics"][key]["value"], run_b["metrics"][key]["value"]
            change = (new - old) / old
            worse = change if metric["better"] == "lower" else -change
            spread = max(run_a["spread"].get(key, 0.0), run_b["spread"].get(key, 0.0))
            if spread > bound:
                verdict = f"unresolved (spread {100 * spread:.1f}%)"
            elif worse > bound:
                verdict, regressed = "WORSE", True
            else:
                verdict = "better" if worse < -bound else "unchanged"
            print(
                f"{name:<16} {key:<20} {old:>12.4f} {new:>12.4f} "
                f"{100 * change:>+7.1f}% {100 * bound:>5.0f}%  {verdict}"
            )
        for label, run in (("A", run_a), ("B", run_b)):
            if run["error_rate"] > 0:
                print(f"{name:<16} error_rate of {label} is {run['error_rate']:g}: WORSE (bound is 0)")
                regressed = True
        same_inputs = (a["seed"], run_a["scale"]) == (b["seed"], run_b["scale"])
        if same_inputs and run_a["cardinalities"] != run_b["cardinalities"]:
            print(f"{name:<16} result cardinalities differ on identical inputs: WORSE")
            regressed = True
    return 1 if regressed else 0


# -- command line -------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(Path(argv[1]), Path(argv[2]))
    if argv == ["freeze"]:
        wl, _ = import_program()
        entries = wl.corpus_entries(ROOT / "tests" / "corpus.py")
        (HERE / "queries.json").write_text(
            json.dumps({"source": "tests/corpus.py", "queries": entries}, indent=1) + "\n"
        )
        print(f"{len(entries)} queries frozen")
        return 0

    spec = contract()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1998)
    parser.add_argument("--seconds", type=float, help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="scale S everywhere, one repeat, one set-up, ~1 s per pass")
    args = parser.parse_args(argv)
    seconds = args.seconds or (1.0 if args.quick else float(spec["run_seconds"]))
    if args.workload is None:
        return run_all(args.seed, seconds, args.quick)

    detail = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run_{args.workload}_trace{args.trace}.json").write_text(json.dumps(detail) + "\n")
    for failure in detail["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({k: detail[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
