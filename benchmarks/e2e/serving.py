"""The served workload: a server child process, a closed-loop load
generator over NDJSON, and the served request's layer budget."""

from __future__ import annotations

import json
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from measure import SpeedProbe, Tracer, percentile
from workloads import Pass, Query, cardinality, median_ms

from repro.server.client import ServeClient
from repro.server.protocol import (
    decode_line,
    decode_result,
    encode_message,
    encode_result,
)
from repro.testing.oracle import results_equal

HERE = Path(__file__).resolve().parent

CONNECTIONS = 2
#: Every client call gives up after this long, so a hung server fails
#: the run instead of stalling it.
CALL_TIMEOUT_S = 30.0


class ServerChild:
    """``serve_child.py`` in its own process: prints its port, answers
    ``rusage`` on stdin, and exits when stdin closes.  ``probe`` holds the
    speed-probe ticks taken inside the child, on this process's clock."""

    def __init__(self, seed: int, sizes: tuple[int, int], workers: int = 2):
        self.probe = SpeedProbe()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "serve_child.py"),
                "--seed", str(seed),
                "--employees", str(sizes[0]),
                "--departments", str(sizes[1]),
                "--workers", str(workers),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port: int = self._read_line(60.0)["port"]
        except BaseException:
            self.stop()
            raise

    def _read_line(self, timeout: float) -> dict[str, Any]:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the server child did not answer in time")
        return json.loads(line)

    def rusage(self) -> dict[str, float]:
        """The child's own CPU seconds and peak RSS so far; also collects
        the child's probe ticks since the last call."""
        self.process.stdin.write("rusage\n")
        self.process.stdin.flush()
        usage = self._read_line(CALL_TIMEOUT_S)
        now = time.perf_counter()
        for age_s, took_ms in usage.pop("ticks"):
            self.probe.at.append(now - age_s)
            self.probe.took.append(took_ms)
        return usage

    def stop(self) -> None:
        """Close stdin (the child's cue to shut down), then terminate,
        then kill; always reaps the process."""
        process = self.process
        try:
            process.stdin.close()
            process.wait(timeout=15)
        except (OSError, subprocess.TimeoutExpired):
            process.terminate()
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        finally:
            process.stdout.close()


def warm_up(port: int, queries: list[Query]) -> dict[str, Any]:
    """Every query once over one connection: fills the server's plan
    cache, pays first-run codegen, and keeps each first reply's encoded
    result for the closed loop to compare with."""
    first = {}
    with ServeClient("127.0.0.1", port, timeout=CALL_TIMEOUT_S) as client:
        for q in queries:
            reply = client.query(q.oql)
            if not reply.ok:
                raise RuntimeError(f"warm-up of {q.name} failed: {reply.get('error')}")
            first[q.name] = reply["result"]
    return first


def decoded(first: dict[str, Any]) -> dict[str, Any]:
    """The first replies through ``decode_result`` — the wire round trip
    the oracle judges."""
    return {name: decode_result(encoded) for name, encoded in first.items()}


@dataclass
class Reply:
    """One answered request as the client saw it (perf_counter seconds),
    with the server's own ``elapsed_ms`` and the reply's result bytes;
    ``slowdown`` is the machine's around it, once known."""

    query: str
    start: float
    end: float
    server_ms: float
    nbytes: int
    slowdown: float = 1.0

    @property
    def rtt_ms(self) -> float:
        return (self.end - self.start) * 1000.0 / self.slowdown

    @property
    def execute_ms(self) -> float:
        return self.server_ms / self.slowdown


@dataclass
class _ConnectionLog:
    replies: list[Reply] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0


def _one_connection(
    port: int,
    queries: list[Query],
    first: dict[str, Any],
    rng: random.Random,
    budget_s: float,
    barrier: threading.Barrier,
    log: _ConnectionLog,
) -> None:
    try:
        with ServeClient("127.0.0.1", port, timeout=CALL_TIMEOUT_S) as client:
            barrier.wait(timeout=CALL_TIMEOUT_S)
            deadline = time.perf_counter() + budget_s
            while time.perf_counter() < deadline:
                q = rng.choice(queries)
                log.attempted += 1
                start = time.perf_counter()
                reply = client.query(q.oql)
                end = time.perf_counter()
                if not reply.ok:
                    log.failures.append(f"{q.name}: {reply.get('error')}")
                elif reply["result"] != first[q.name] and not results_equal(
                    decode_result(reply["result"]), decode_result(first[q.name])
                ):
                    log.failures.append(f"{q.name}: reply differs from the warm-up reply")
                else:
                    log.replies.append(
                        Reply(q.name, start, end, reply["elapsed_ms"], reply["bytes"])
                    )
    except (OSError, threading.BrokenBarrierError) as exc:
        log.attempted = max(log.attempted, 1)
        log.failures.append(f"connection: {type(exc).__name__}: {exc}")
        barrier.abort()


def closed_loop(
    port: int, queries: list[Query], first: dict[str, Any], seed: int, budget_s: float
) -> tuple[Pass, list[Reply]]:
    """Two connections, each sending its next ``query`` only after the
    reply to the last (callers of a query server wait for their answer),
    for *budget_s* seconds.  Returns the pass (wall, attempts, failures;
    samples are added by :func:`served_pass`) and the replies, raw."""
    barrier = threading.Barrier(CONNECTIONS + 1)
    logs = [_ConnectionLog() for _ in range(CONNECTIONS)]
    threads = [
        threading.Thread(
            target=_one_connection,
            args=(
                port, queries, first, random.Random(seed * 1000 + index),
                budget_s, barrier, log,
            ),
        )
        for index, log in enumerate(logs)
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=CALL_TIMEOUT_S)
    except threading.BrokenBarrierError:
        pass  # the connection that broke it has logged why
    wall0 = time.perf_counter()
    for thread in threads:
        thread.join()
    done = Pass(
        {},
        wall_s=time.perf_counter() - wall0,
        attempted=sum(log.attempted for log in logs),
        failures=[failure for log in logs for failure in log.failures],
    )
    return done, [reply for log in logs for reply in log.replies]


def served_pass(
    child: ServerChild, queries: list[Query], first: dict[str, Any], seed: int, budget_s: float
) -> tuple[Pass, list[Reply], float]:
    """One closed-loop pass with every time stated at reference speed:
    each round trip is divided by the slowdown the child's own probe saw
    around it, and the pass's wall and server CPU are scaled as its round
    trips were.  Returns the pass, its replies, and that overall slowdown."""
    before = child.rusage()
    done, replies = closed_loop(child.port, queries, first, seed, budget_s)
    after = child.rusage()
    if not replies:
        raise RuntimeError(f"no request was answered: {done.failures[:3]}")
    raw = 0.0
    for reply in replies:
        raw += (reply.end - reply.start) * 1000.0
        reply.slowdown = child.probe.slowdown(reply.start, reply.end, margin=4)
        done.samples.setdefault(reply.query, []).append(reply.rtt_ms)
    slowdown = raw / sum(reply.rtt_ms for reply in replies)
    done.wall_s /= slowdown
    done.cpu_s = (after["cpu_s"] - before["cpu_s"]) / slowdown
    return done, replies, slowdown


def serve_stats(port: int) -> dict[str, Any]:
    with ServeClient("127.0.0.1", port, timeout=CALL_TIMEOUT_S) as client:
        reply = client.stats()
    if not reply.ok:
        raise RuntimeError(f"the stats op failed: {reply.get('error')}")
    return reply["stats"]


def add_reply_spans(tracer: Tracer, replies: list[Reply]) -> None:
    """``client_rtt`` -> ``server_execute`` (the reply's ``elapsed_ms``) +
    ``overhead`` (everything else: wire, decode, admission, pool hand-off,
    encode).  The server reports a duration, not timestamps, so the two
    children are laid end to end and sum to the round trip by construction."""
    for index, reply in enumerate(replies):
        start, end = ((t - tracer.origin) * 1000.0 for t in (reply.start, reply.end))
        rtt = tracer.add(
            "client_rtt", start, end, None,
            request=f"{reply.query}#{index}", query=reply.query, slowdown=reply.slowdown,
        )
        tracer.add_sequence(
            rtt,
            [("server_execute", reply.server_ms), ("overhead", end - start - reply.server_ms)],
        )


#: The codec steps :func:`codec_replay` times, as ``server.<part>_us``.
CODEC_PARTS = ("decode", "encode_result", "size_probe", "encode_message", "client_decode")


def codec_replay(queries: list[Query], answers: dict[str, Any]) -> dict[str, float]:
    """In-process replay of the codec work behind one request, over the
    same queries and answers (mean over queries, us): request decode,
    result encode, the extra ``json.dumps`` that only counts bytes, the
    reply's own encode — and the load generator's reply decode, reported
    so that its cost is not mistaken for the server's."""
    costs: dict[str, list[float]] = {}
    for q in queries:
        line = encode_message({"id": 1, "op": "query", "q": q.oql})
        value = answers[q.name]
        encoded = encode_result(value)
        message = {
            "id": 1, "ok": True, "result": encoded,
            "rows": cardinality(value), "bytes": 0, "elapsed_ms": 1.0,
        }
        reply = encode_message(message)
        steps = (
            lambda: decode_line(line),
            lambda: encode_result(value),
            lambda: json.dumps(encoded, separators=(",", ":")),
            lambda: encode_message(message),
            lambda: json.loads(reply),
        )
        for part, step in zip(CODEC_PARTS, steps):
            costs.setdefault(f"server.{part}_us", []).append(median_ms(step, repeats=5) * 1000.0)
    return {metric: statistics.fmean(values) for metric, values in costs.items()}


def serve_budget(
    replies: list[Reply], before: dict[str, Any], after: dict[str, Any], slowdown: float
) -> dict[str, float]:
    """The served request's layers: the client's round trip split into
    the server's own execute time and the overhead around it, beside the
    server's view of itself (``stats`` op before and after the pass;
    *slowdown* is the pass's, for the server-side percentile)."""
    cache = {k: after["plan_cache"][k] - before["plan_cache"][k] for k in ("hits", "misses")}
    dispatch_p50 = after["metrics"]["endpoints"]["query"]["p50_ms"] / slowdown
    return {
        "server.overhead_ms": statistics.median(r.rtt_ms - r.execute_ms for r in replies),
        "server.execute_ms": statistics.median(r.execute_ms for r in replies),
        "server.dispatch_p50_ms": dispatch_p50,
        "server.wire_ms": percentile([r.rtt_ms for r in replies], 50) - dispatch_p50,
        "server.result_bytes": statistics.fmean(r.nbytes for r in replies),
        "server.admission.queued_total": after["admission"]["queued_total"]
        - before["admission"]["queued_total"],
        "server.admission.rejected": after["admission"]["rejected"]
        - before["admission"]["rejected"],
        "core.plan_cache.hit_rate": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
    }
