"""Self-test of the e2e benchmark (not part of tier-1; run explicitly):

    python -m pytest benchmarks/e2e/selftest.py -q

Covers the arithmetic (percentiles, geomean, self time) on synthetic
spans, the names shared with ``BENCHMARK.json``, the ``compare`` verdicts,
the server child's lifecycle, the correctness gate (a wrong expected
answer must fail the run), and ``--quick`` end to end.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402  (puts src/ on sys.path)
import serving  # noqa: E402
import workloads  # noqa: E402

SPEC = run.contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- arithmetic ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 95) == 95
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 95) == 7.0
    assert measure.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_geomean_and_spread():
    assert math.isclose(measure.geomean([1, 100]), 10.0)
    assert math.isclose(measure.geomean([2, 2, 2]), 2.0)
    assert measure.relative_spread([10.0]) == 0.0
    assert math.isclose(measure.relative_spread([9.0, 10.0, 12.0]), 0.3)


def test_latency_summary_weighs_every_query_once():
    samples = {"cheap": [1.0] * 99, "dear": [100.0]}
    summary = measure.summarise_latencies(samples)
    assert summary["latency_p50_ms"] == 1.0  # pooled: the cheap query dominates
    assert summary["latency_p95_ms"] == 1.0
    assert math.isclose(summary["latency_geomean_ms"], 10.0)  # per query
    assert summary["latency_max_ms"] == 100.0


def test_self_time_subtracts_covered_children_once():
    spans = [
        {"id": 0, "parent": None, "name": "request", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "compile", "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "name": "run", "start": 4.0, "end": 8.0},  # overlaps
        {"id": 3, "parent": 1, "name": "parse", "start": 1.0, "end": 2.0},
        {"id": 4, "parent": 0, "name": "late", "start": 9.0, "end": 12.0},  # clipped
    ]
    own = measure.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 3.0 + 1.0))
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(1.0)


def test_tracer_nests_spans_and_shares_the_request_id():
    tracer = measure.Tracer()
    with tracer.span("request", request="q#1", query="q") as request:
        with tracer.span("compile") as compile_:
            pass
        tracer.add_sequence(compile_, [("parse", 1.0), ("translate", 2.0)])
    with tracer.span("request", request="q#2", query="q"):
        pass
    by_name = {s["name"]: s for s in tracer.spans[:4]}
    assert by_name["compile"]["parent"] == request
    assert by_name["parse"]["parent"] == compile_
    assert by_name["translate"]["start"] == pytest.approx(by_name["parse"]["end"])
    assert {s["request"] for s in tracer.spans[:4]} == {"q#1"}
    assert tracer.spans[4]["request"] == "q#2"
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_speed_probe_takes_the_median_of_the_ticks_around_an_interval():
    probe = measure.SpeedProbe()
    probe.at = [float(i) for i in range(10)]
    ref = measure.KERNEL_REFERENCE_MS
    probe.took = [ref] * 4 + [3 * ref] * 3 + [ref] * 3
    assert probe.slowdown(4.0, 6.0, margin=0) == pytest.approx(3.0)  # ticks 4..6
    assert probe.slowdown(4.5, 4.6, margin=1) == pytest.approx(3.0)  # ticks 4 and 5
    assert probe.slowdown(4.0, 6.0, margin=4) == pytest.approx(1.0)  # ticks 0..9
    probe = measure.SpeedProbe()
    probe.tick_if_due()
    probe.tick_if_due(period_s=3600.0)  # not due
    assert len(probe.at) == 1 and probe.spent == pytest.approx(probe.took[0] / 1000.0)


def _request_spans(tracer, query, compile_ms, stages, bind_ms, run_ms, top="request", slowdown=2.0):
    """One request whose times are *slowdown* x the nominal ones."""
    k = slowdown
    start = tracer.now()
    total = compile_ms + bind_ms + run_ms + 1.0  # 1 ms no child covers
    request = tracer.add(top, start, start + k * total, None, request=query, query=query, slowdown=k)
    cursor = start
    if compile_ms:
        compile_ = tracer.add("compile", cursor, cursor + k * compile_ms, request, request=query)
        tracer.add_sequence(compile_, [(name, k * ms) for name, ms in stages])
        cursor += k * compile_ms
    tracer.add("bind", cursor, cursor + k * bind_ms, request, request=query)
    tracer.add("run", cursor + k * bind_ms, cursor + k * (bind_ms + run_ms), request, request=query)


def test_layer_budget_sums_per_query_medians_at_reference_speed():
    tracer = measure.Tracer()
    for _ in range(3):
        _request_spans(tracer, "a", 10.0, [("parse", 2.0), ("unnest", 5.0)], 1.0, 8.0)
        _request_spans(tracer, "a", 0.0, [], 1.0, 2.0, top="warm_execute", slowdown=1.0)
        _request_spans(tracer, "b", 20.0, [("parse", 4.0), ("unnest", 6.0)], 2.0, 18.0)
        _request_spans(tracer, "b", 0.0, [], 2.0, 4.0, top="warm_execute", slowdown=4.0)
    budget = workloads.layer_budget(tracer.spans)
    assert budget["oql.parse_ms"] == pytest.approx(6.0)
    assert budget["core.unnest_ms"] == pytest.approx(11.0)
    assert budget["core.compile_ms"] == pytest.approx(30.0)
    assert budget["core.compile_other_ms"] == pytest.approx(30.0 - 17.0)
    assert budget["engine.bind_ms"] == pytest.approx(3.0)  # warm
    assert budget["engine.run_ms"] == pytest.approx(6.0)  # warm
    assert budget["engine.codegen_ms"] == pytest.approx((8.0 - 2.0) + (18.0 - 4.0))
    # 1 ms of every request is covered by no child span.
    assert budget["trace.unattributed_pct"] == pytest.approx(100.0 * 2.0 / (20.0 + 41.0))


# -- names and the contract ---------------------------------------------------


def test_names_match_the_contract():
    workload_names = [w["name"] for w in SPEC["workloads"]]
    assert workload_names == list(workloads.WORKLOADS)
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in workload_names + metric_names:
        assert NAME.fullmatch(name), name
    assert len(set(workload_names + metric_names)) == len(workload_names + metric_names)
    assert 2 <= len(workload_names) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(
        re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]
    )
    assert SPEC["paths"] == ["benchmarks/e2e"]
    runs = 4 + 22 * len(workload_names)
    assert isinstance(SPEC["run_seconds"], int) and runs * SPEC["run_seconds"] < 3420


def test_stage_metrics_cover_the_pipeline_stages():
    from repro.core.pipeline import PIPELINE_STAGES

    assert tuple(workloads.STAGE_METRICS) == PIPELINE_STAGES
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(workloads.STAGE_METRICS.values()) <= per_layer


def test_frozen_corpus():
    queries = workloads.load_queries()
    assert len(queries) == 53
    assert len({q.name for q in queries}) == 53
    assert sum(q.family == "company" for q in queries) == 31
    assert {q.family for q in queries} == set(workloads.GENERATORS)


# -- compare ------------------------------------------------------------------


def _results(tmp_path, name, throughput, spread=0.01, cardinality=5):
    metrics = {m["name"]: {"value": 10.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["throughput_qps"]["value"] = throughput
    doc = {
        "machine": {"python": "3", "gil": "enabled", "nproc": 2},
        "seed": 1,
        "workloads": {
            "adhoc_cold": {
                "untraced": {
                    "scale": "S",
                    "metrics": metrics,
                    "spread": {"throughput_qps": spread},
                    "error_rate": 0.0,
                    "cardinalities": {"q": cardinality},
                }
            }
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_compare_verdicts(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "throughput_qps")
    base = _results(tmp_path, "a.json", 100.0)
    slower = 100.0 * (1 - bound - 0.05)
    assert run.compare(base, _results(tmp_path, "same.json", 100.0 * (1 - bound / 3))) == 0
    assert "unchanged" in capsys.readouterr().out
    assert run.compare(base, _results(tmp_path, "slow.json", slower)) == 1
    assert "WORSE" in capsys.readouterr().out
    assert run.compare(base, _results(tmp_path, "fast.json", 100.0 * (1 + bound + 0.05))) == 0
    assert "better" in capsys.readouterr().out
    # A spread wider than the bound is never reported as "unchanged".
    assert run.compare(base, _results(tmp_path, "noisy.json", slower, spread=bound + 0.1)) == 0
    assert "unresolved" in capsys.readouterr().out
    assert run.compare(base, _results(tmp_path, "card.json", 100.0, cardinality=6)) == 1
    assert "cardinalities differ" in capsys.readouterr().out


# -- the server child ---------------------------------------------------------


def test_server_child_lifecycle():
    child = serving.ServerChild(seed=1, sizes=(20, 4))
    try:
        queries = [q for q in workloads.load_queries() if q.family == "company"][:3]
        first = serving.warm_up(child.port, queries)
        assert set(first) == {q.name for q in queries}
        usage = child.rusage()
        assert usage["cpu_s"] > 0 and usage["maxrss_mb"] > 0
    finally:
        child.stop()
    assert child.process.poll() is not None
    with pytest.raises(OSError):
        serving.warm_up(child.port, queries)  # the socket is gone too


def test_server_child_exits_when_its_parent_goes_away():
    child = serving.ServerChild(seed=1, sizes=(20, 4))
    try:
        child.process.stdin.close()  # what the child sees when the parent dies
        child.process.wait(timeout=15)
    finally:
        child.stop()
    assert child.process.returncode == 0


def test_a_hung_server_fails_the_pass_instead_of_stalling_it(monkeypatch):
    import socket

    monkeypatch.setattr(serving, "CALL_TIMEOUT_S", 0.5)
    queries = [q for q in workloads.load_queries() if q.family == "company"][:2]
    with socket.socket() as listener:  # accepts connections, never answers
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        start = time.perf_counter()
        done, replies = serving.closed_loop(
            listener.getsockname()[1], queries, {}, 1, 5.0
        )
    assert time.perf_counter() - start < 5.0
    assert not replies and done.failures and done.attempted >= 1


# -- the correctness gate -----------------------------------------------------


def test_a_wrong_expected_answer_fails_the_run(monkeypatch, capsys):
    honest = workloads.naive_answers

    def tampered(databases, queries):
        answers = honest(databases, queries)
        answers["flat_select"] = answers["flat_bag"]
        return answers

    monkeypatch.setattr(workloads, "naive_answers", tampered)
    argv = ["--workload", "adhoc_cold", "--seed", "5", "--seconds", "0.2", "--quick"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]


def test_the_same_seed_gives_the_same_inputs_and_counts():
    a, b = workloads.generate("S", 11), workloads.generate("S", 11)
    queries = workloads.load_queries()
    first = workloads.first_answers(workloads.build_engine(a, queries), queries)
    again = workloads.first_answers(workloads.build_engine(b, queries), queries)
    assert {n: workloads.cardinality(v) for n, v in first.items()} == {
        n: workloads.cardinality(v) for n, v in again.items()
    }
    assert not workloads.disagreements(first, again, "differs")
    other = workloads.first_answers(
        workloads.build_engine(workloads.generate("S", 12), queries), queries
    )
    assert workloads.disagreements(first, other, "differs")


# -- --quick, end to end ------------------------------------------------------


def test_quick_runs_every_workload_and_reports_every_metric():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0, f"--quick took {elapsed:.1f} s"
    results = json.loads((HERE / "out" / "results.json").read_text())
    assert {"commit", "python", "gil", "nproc", "loadavg_at_start"} <= results["machine"].keys()
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in workloads.WORKLOADS:
        row = results["workloads"][name]
        for run_, expected in ((row["untraced"], end_to_end), (row["traced"], per_layer)):
            assert run_["correct"] and run_["failed"] == 0 and run_["error_rate"] == 0
            assert {k: v["unit"] for k, v in run_["metrics"].items()} == expected
            assert all(math.isfinite(v["value"]) for v in run_["metrics"].values())
            assert len(run_["cardinalities"]) in (31, 53)
        assert all(v["value"] > 0 for v in row["untraced"]["metrics"].values())
        assert row["untraced"]["spread"].keys() <= end_to_end.keys()
        trace = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
        assert trace["spans"] and {"id", "parent", "request", "name", "start", "end"} <= trace["spans"][0].keys()
        assert f"{name}: " in done.stdout
    for name, unit in {**end_to_end, **per_layer}.items():
        assert f"{name} " in done.stdout, name
