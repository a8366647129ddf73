"""Arithmetic and tracing shared by the e2e benchmark: percentiles,
geometric means, spans with self time, and the machine fingerprint.

Nothing here imports :mod:`repro` — ``selftest.py`` exercises this module
on synthetic numbers alone.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import sysconfig
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "KERNEL_REFERENCE_MS",
    "SpeedProbe",
    "Tracer",
    "fingerprint",
    "geomean",
    "percentile",
    "relative_spread",
    "self_times",
    "summarise_latencies",
]


def percentile(values: Iterable[float], point: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``point`` percent of the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(point / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; every value must be positive."""
    return statistics.geometric_mean(list(values))


def relative_spread(values: list[float]) -> float:
    """``(max − min) / median`` — the run-to-run spread the report states
    beside each median (0 for a single value or a zero median)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    return (max(values) - min(values)) / abs(middle)


def summarise_latencies(samples: dict[str, list[float]]) -> dict[str, float]:
    """The four latency metrics from per-query latency samples (ms).

    p50/p95 pool every sample; the geomean and the max are taken over the
    distinct queries' medians, so every query weighs the same in the
    former and the slowest query is visible in the latter.
    """
    pooled = [value for values in samples.values() for value in values]
    medians = [statistics.median(values) for values in samples.values()]
    return {
        "latency_p50_ms": percentile(pooled, 50),
        "latency_p95_ms": percentile(pooled, 95),
        "latency_geomean_ms": geomean(medians),
        "latency_max_ms": max(medians),
    }


# -- machine speed ------------------------------------------------------------

#: What :func:`kernel` takes on the reference machine (this sandbox when
#: nothing else runs).  Reported times are wall times divided by the
#: slowdown measured next to them, so they read as "ms at reference speed".
KERNEL_REFERENCE_MS = 0.4


def kernel() -> str:
    """A fixed piece of interpreter-bound work: dict updates, a sort, a
    JSON encode — the mix the program under test is made of."""
    counts: dict[int, int] = {}
    for i in range(4000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i * 3
    return json.dumps(sorted((value, key) for key, value in counts.items()))


class SpeedProbe:
    """How fast the machine is, sampled next to the measurements.

    A shared sandbox slows every process by up to 2x for tens of seconds
    at a time (CPU steal, a busy sibling core).  The slowdown multiplies
    the kernel's time and the measured program's time alike — their ratio
    held within ±3% while raw times moved by 40% — so each measurement is
    divided by the slowdown sampled around it.  ``tick`` runs the kernel
    once; callers tick between samples, never inside one, and subtract
    ``spent`` from the wall they report.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter() when each tick began
        self.took: list[float] = []  # its duration, ms
        self.spent = 0.0  # seconds inside ticks so far

    def tick(self) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.at.append(start)
        self.took.append(elapsed * 1000.0)
        self.spent += elapsed

    def tick_if_due(self, period_s: float = 0.005) -> None:
        """Tick unless the last tick is recent: bounds the probe's share
        of the run at under a tenth."""
        if not self.at or time.perf_counter() - self.at[-1] >= period_s:
            self.tick()

    def burst(self, count: int = 25) -> None:
        for _ in range(count):
            self.tick()

    def slowdown(self, start: float, end: float, margin: int = 8) -> float:
        """Median kernel time over the ticks inside ``[start, end]`` and
        the *margin* nearest on either side, ÷ the reference."""
        low = bisect.bisect_left(self.at, start)
        high = bisect.bisect_right(self.at, end)
        window = self.took[max(0, low - margin) : high + margin]
        return statistics.median(window) / KERNEL_REFERENCE_MS


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end (ms since the tracer's origin),
    the span that caused it, and the request the span belongs to.

    Spans are recorded by the benchmark's own code around each call into
    a layer (:meth:`span`), or synthesized from timings the program
    already returns (:meth:`add` — ``StageResult.elapsed_ms``, flat-query
    sql/decode times, a reply's ``elapsed_ms``).
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._request: str | None = None

    def now(self) -> float:
        return (time.perf_counter() - self.origin) * 1000.0

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None,
        request: str | None = None,
        **attrs: Any,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append(
            {
                "id": span_id,
                "parent": parent,
                "request": request if request is not None else self._request,
                "name": name,
                "start": start,
                "end": end,
                **attrs,
            }
        )
        return span_id

    @contextmanager
    def span(self, name: str, request: str | None = None, **attrs: Any) -> Iterator[int]:
        """Time the body as a child of the innermost open span.  A span
        opened with *request* starts a new request: its descendants share
        that identifier."""
        parent = self._stack[-1] if self._stack else None
        outer_request = self._request
        if request is not None:
            self._request = request
        span_id = self.add(name, self.now(), math.nan, parent, **attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = self.now()
            self._request = outer_request

    def add_sequence(
        self, parent: int, parts: Iterable[tuple[str, float]]
    ) -> None:
        """Lay ``(name, duration ms)`` children end to end from the start
        of *parent* — for layers that report durations but not timestamps."""
        cursor = self.spans[parent]["start"]
        for name, duration in parts:
            self.add(
                name, cursor, cursor + duration, parent,
                self.spans[parent]["request"],
            )
            cursor += duration

    def mark_slowdown(self, probe: SpeedProbe) -> None:
        """Stamp every root span with the machine slowdown sampled around
        it, so that aggregates can state times at reference speed."""
        for span in self.spans:
            if span["parent"] is None and "slowdown" not in span:
                span["slowdown"] = probe.slowdown(
                    self.origin + span["start"] / 1000.0, self.origin + span["end"] / 1000.0
                )

    def write(self, path: Path, **header: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump({**header, "unit": "ms", "spans": self.spans}, handle)
            handle.write("\n")


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Each span's self time: its duration minus the part of its interval
    that its child spans cover (overlapping children count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span["id"]] = (end - start) - covered
    return result


# -- machine ------------------------------------------------------------------


def _commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git repository (the
    ceiling keeps git from adopting a repository above *root*)."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(root: Path) -> dict[str, Any]:
    """Where and on what the numbers were taken — enough to refuse a
    comparison across machines."""
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    try:
        load = os.getloadavg()
    except OSError:
        load = (math.nan,) * 3
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": "enabled" if gil else "free-threaded",
        "free_threaded_build": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_at_start": [round(value, 2) for value in load],
    }
