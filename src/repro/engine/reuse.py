"""Closed build sides, built once per database state.

A hash join's or group-join's build side is *closed* when it reads one
stored extent and nothing of the query — no parameter, no outer variable
(the planner decides, :func:`repro.engine.planner.closed_build`).  Its hash
table is then a hash index over stored data, the access path of the
paper's Section 6, and the database keeps it
(:class:`~repro.data.database.BuildMemo`) until its state changes.

This module is how an operator builds through that memo.  A build that is
not there runs with a :class:`SettleRecorder` in the governor's place and
is kept when it completes; a kept one settles as if rebuilt, so work
units, byte peaks, the point and text of a budget trip and the build
subtree's EXPLAIN ANALYZE counts are those of a cold run.
"""

from __future__ import annotations

import sys
from array import array
from typing import Any, Callable, Iterable

from repro.engine.governor import Governor


class SettleRecorder:
    """Stands in for an execution's governor while a build to be kept runs.

    Every settle is logged in order — a tick as its units, a byte charge
    as its bytes negated — and passed on to *governor* (None: ungoverned),
    so the build trips, times out and is cancelled exactly where it would
    without the log.  ``max_bytes`` is never None, so bytes are estimated
    even when this execution has no memory budget, for a later one that
    has; they reach *governor* only when it has a budget, as without the
    log.
    """

    __slots__ = ("governor", "settles", "_charged")

    max_bytes = sys.maxsize

    def __init__(self, governor: Governor | None):
        self.governor = governor
        self.settles: list[int] = []
        self._charged = governor is not None and governor.max_bytes is not None

    def tick(self) -> None:
        self.tick_many(1)

    def tick_many(self, units: int) -> None:
        if units:
            self.settles.append(units)
            if self.governor is not None:
                self.governor.tick_many(units)

    def charge(self, nbytes: int) -> None:
        self.settles.append(-nbytes)
        if self._charged:
            self.governor.charge(nbytes)


def replay_settles(governor: Governor | None, settles: Iterable[int]) -> None:
    """Settle on *governor* what a :class:`SettleRecorder` logged, in the
    same order and the same steps: ticks, checkpoints, byte peaks and the
    point and text of a trip are those of the build that was logged."""
    if governor is None:
        return
    tick_many = governor.tick_many
    charge = governor.charge if governor.max_bytes is not None else None
    for units in settles:
        if units > 0:
            tick_many(units)
        elif charge is not None:
            charge(-units)


def reused(op: Any, ex: Any, build: Callable[[Any], tuple[Any, bool]]) -> Any:
    """The value of ``build(ex)`` for physical operator *op* — a hash join
    or group-join — in execution *ex*, through its database's memo when
    *op*'s ``right`` input is closed (its ``reuse_key`` is not None).

    *build* returns ``(value, keep)``, *keep* false when the value holds a
    fault: a fault's error carries the source of the query it surfaced in,
    so such a build runs afresh every time.  A completed build is kept with
    its settles, the counts *ex* holds for *op*'s ``right`` subtree and how
    many collection elements its kernels' folds kept, unless the database
    moved on while it ran; a kept one settles them into *ex*.  A build that
    raises — a fault, a trip, a timeout, a cancel — leaves nothing behind.
    """
    key = op.reuse_key
    if key is None:
        return build(ex)[0]
    database = ex.database
    subtree = [op.right]
    for node in subtree:
        subtree += node.children()
    version = database.schema_version
    entry = database.builds.lookup(key, version)
    if entry is not None:
        value, settles, counts, kept = entry
        replay_settles(ex.governor, settles)
        for node, (rows, batches, batch_rows) in zip(subtree, counts):
            own = ex.counts[node]
            own.rows_produced, own.batches_produced, own.batch_rows = (
                rows, batches, batch_rows
            )
        ex.kept += kept
        return value
    governor, kept = ex.governor, ex.kept
    recorder = SettleRecorder(governor)
    ex.governor = recorder
    try:
        value, keep = build(ex)
    finally:
        ex.governor = governor
    if keep and database.schema_version == version:
        counts = tuple(
            (own.rows_produced, own.batches_produced, own.batch_rows)
            for own in map(ex.counts.__getitem__, subtree)
        )
        entry = (value, array("q", recorder.settles), counts, ex.kept - kept)
        database.builds.store(key, version, entry)
    return value
