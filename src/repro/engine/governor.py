"""The query governor: per-query wall-clock, row, and memory budgets.

A production engine cannot let one pathological plan — a cross join the
optimizer could not avoid, a hash build over an unexpectedly huge extent —
stall the process for every other caller.  The governor bounds each
execution cooperatively:

* **wall-clock deadline** (``timeout`` seconds): checked on an amortized
  schedule from the operator loops;
* **row budget** (``max_rows``): counts *work units* — rows emitted by
  operators plus inner join-pair iterations — so a nested-loop blowup is
  charged even when it emits few rows (the contract is below);
* **memory budget** (``max_bytes``): blocking operators (hash-join builds,
  keyless ones included, hash-nest groups, the shared nest's left rows)
  :meth:`~Governor.charge` a shallow byte estimate for the chunks they
  buffer, sampled one row per :data:`SAMPLE_STRIDE`;
* **cancellation** (:class:`CancelToken`): a thread-safe flag a caller can
  trip from outside; the running query observes it at the next settle and
  stops with :class:`~repro.errors.QueryCancelled`.

**The row-budget contract.**  Physical operators count the work units of
one input chunk — its rows, the elements it unnests to, the join pairs it
considers — and settle them with a single :meth:`~Governor.tick_many`
(a keyless join settles once per slice of ``batch_size // m`` left rows
against its ``m`` right rows: at most ``max(batch_size, m)`` pairs).  The
trip fires at the first settle that carries the running total past
``max_rows``, so the work done past the budget is bounded by what one
chunk generates in one operator.  The error names the budget, not the settled total — the total
depends on where chunk boundaries fall — so its text is identical at every
``batch_size``; :attr:`Governor.ticks` keeps the settled total.  Deadline
and cancellation checks — the expensive parts, a clock read and an
``Event`` load — run once per ``tick_interval`` units.

A :class:`Governor` is created per execution.  By default it is owned by
one thread and its counters are plain attributes.  Parallel execution
(:mod:`repro.engine.exchange`) shares one governor across all partition
workers so budgets bound the *query*, not each worker: the exchange layer
calls :meth:`~Governor.enable_sharing` first, which routes every
mutating path (``tick``/``tick_many``/``charge``/``release``/``check``)
through a lock.  Workers settle once per chunk, so the lock is taken once
per settle — measured overhead stays ~0%.  The :class:`CancelToken` is
thread-safe either way.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any

from repro.errors import BudgetExceeded, QueryCancelled, QueryTimeout

__all__ = [
    "CancelToken",
    "Governor",
    "SAMPLE_STRIDE",
    "charge_values",
    "estimate_bytes",
]


class CancelToken:
    """A thread-safe cooperative cancellation flag.

    Hand the token to :meth:`CompiledQuery.execute` (or build a
    :class:`Governor` with it), keep a reference, and call :meth:`cancel`
    from any thread; the running query raises
    :class:`~repro.errors.QueryCancelled` at its next governor checkpoint.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation.  Idempotent; safe from any thread."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


def estimate_bytes(value: Any) -> int:
    """A cheap, shallow estimate of the memory a buffered row costs.

    ``sys.getsizeof`` on the container plus one level of contents — not a
    deep traversal, which would cost more than the buffering it polices.
    Rows are records or scalars; one level covers the common shapes.
    """
    size = sys.getsizeof(value, 64)
    fields = getattr(value, "_fields", None)
    if fields is not None:  # a Record: charge its field dict's values
        value = fields
    if isinstance(value, dict):
        size += sum(sys.getsizeof(v, 64) for v in value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        size += sum(sys.getsizeof(v, 64) for v in value)
    return size


#: Blocking operators estimate one buffered row per stride and charge the
#: whole stride at that rate — rows in a buffer share a shape, so sampling
#: loses little accuracy and cuts the estimator out of the per-row path.
SAMPLE_STRIDE = 16


def charge_values(charge, values: list, seen: int) -> None:
    """Charge buffered *values* through *charge*: *seen* were buffered
    before them, and one sampled value stands for its stride."""
    for j in range(-seen % SAMPLE_STRIDE, len(values), SAMPLE_STRIDE):
        charge(estimate_bytes(values[j]) * SAMPLE_STRIDE)


class Governor:
    """Per-execution resource limits, checked cooperatively.

    Args:
        timeout: wall-clock budget in seconds, or ``None`` for unlimited.
        max_rows: work-unit budget (rows emitted + join pairs considered),
            or ``None`` for unlimited.  Enforced at the first settle past
            it (the row-budget contract in the module docstring).
        max_bytes: estimated-memory budget for blocking operators, or
            ``None`` for unlimited.
        token: an optional :class:`CancelToken` observed at checkpoints.
        source: the query source, attached to raised errors.
        tick_interval: work units between deadline/cancellation checks.
    """

    __slots__ = (
        "timeout",
        "max_rows",
        "max_bytes",
        "token",
        "source",
        "tick_interval",
        "ticks",
        "bytes_charged",
        "peak_bytes",
        "checkpoints",
        "_deadline",
        "_next_check",
        "_lock",
    )

    def __init__(
        self,
        *,
        timeout: float | None = None,
        max_rows: int | None = None,
        max_bytes: int | None = None,
        token: CancelToken | None = None,
        source: str | None = None,
        tick_interval: int = 1024,
    ):
        self.timeout = timeout
        self.max_rows = max_rows
        self.max_bytes = max_bytes
        self.token = token
        self.source = source
        self.tick_interval = max(1, tick_interval)
        self.ticks = 0
        self.bytes_charged = 0
        self.peak_bytes = 0
        self.checkpoints = 0
        self._deadline = None if timeout is None else time.monotonic() + timeout
        self._next_check = self._schedule(0)
        self._lock: threading.Lock | None = None

    def enable_sharing(self) -> None:
        """Make the counters safe to share across worker threads.

        Idempotent.  After this call every mutating path settles under a
        single lock; workers settle once per chunk, so the amortized cost
        is unchanged.  Under sharing the row budget still trips promptly —
        within one in-flight chunk *per worker* of the budget being
        crossed (the single-thread contract is "within one chunk";
        concurrency adds at most the other workers' in-flight chunks
        before everyone observes the trip).
        """
        if self._lock is None:
            self._lock = threading.Lock()

    @property
    def shared(self) -> bool:
        """Whether :meth:`enable_sharing` has been called."""
        return self._lock is not None

    def _schedule(self, ticks: int) -> int:
        """The tick count at which the next checkpoint must run.

        Clamped to ``max_rows + 1`` so the row budget trips at the first
        settle past it, never ``tick_interval`` units late.
        """
        nxt = ticks + self.tick_interval
        if self.max_rows is not None:
            nxt = min(nxt, self.max_rows + 1)
        return nxt

    def tick(self) -> None:
        """Charge one work unit (a row emitted or a join pair considered).

        The common case is an increment and a comparison; limits are
        checked on the amortized schedule."""
        lock = self._lock
        if lock is None:
            self.ticks += 1
            if self.ticks >= self._next_check:
                self._checkpoint()
            return
        with lock:
            self.ticks += 1
            if self.ticks >= self._next_check:
                self._checkpoint()

    def tick_many(self, units: int) -> None:
        """Settle one chunk's worth of work units."""
        if not units:
            return
        lock = self._lock
        if lock is None:
            self.ticks += units
            if self.ticks >= self._next_check:
                self._checkpoint()
            return
        with lock:
            self.ticks += units
            if self.ticks >= self._next_check:
                self._checkpoint()

    def charge(self, nbytes: int) -> None:
        """Charge *nbytes* of buffered memory (blocking operators only)."""
        lock = self._lock
        if lock is None:
            return self._charge(nbytes)
        with lock:
            return self._charge(nbytes)

    def _charge(self, nbytes: int) -> None:
        self.bytes_charged += nbytes
        if self.bytes_charged > self.peak_bytes:
            self.peak_bytes = self.bytes_charged
        if self.max_bytes is not None and self.bytes_charged > self.max_bytes:
            raise BudgetExceeded(
                f"memory budget exceeded: ~{self.bytes_charged} bytes buffered "
                f"(max_bytes={self.max_bytes})",
                source=self.source,
                stage="execute",
            )

    def release(self, nbytes: int) -> None:
        """Return *nbytes* previously charged (a buffer was dropped)."""
        lock = self._lock
        if lock is None:
            self.bytes_charged = max(0, self.bytes_charged - nbytes)
            return
        with lock:
            self.bytes_charged = max(0, self.bytes_charged - nbytes)

    def check(self) -> None:
        """Force a full limit check now (used between pipeline stages)."""
        lock = self._lock
        if lock is None:
            return self._checkpoint()
        with lock:
            return self._checkpoint()

    def _checkpoint(self) -> None:
        self.checkpoints += 1
        self._next_check = self._schedule(self.ticks)
        if self.max_rows is not None and self.ticks > self.max_rows:
            raise BudgetExceeded(
                f"row budget exceeded: more than {self.max_rows} work units "
                f"(max_rows={self.max_rows})",
                source=self.source,
                stage="execute",
            )
        if self.token is not None and self.token.cancelled:
            raise QueryCancelled(
                "query cancelled", source=self.source, stage="execute"
            )
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise QueryTimeout(
                f"query exceeded timeout of {self.timeout}s",
                source=self.source,
                stage="execute",
            )
