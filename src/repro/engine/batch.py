"""Columnar chunks: the unit of execution.

The physical engine (:mod:`repro.engine.physical`) passes :class:`Chunk`
objects between operators instead of one environment dict per row.  A
chunk is a plain column store — ``{column name: list of values}`` plus a
row count; ``chunk.env_at(i)`` reconstructs row *i* as the environment a
row-by-row evaluator would bind.

Two invariants give chunked execution a row-by-row evaluator's behaviour:

* **Chunks are never empty.**  Producers only yield chunks with at least
  one row, so a kernel is never invoked over zero rows — its
  column-hoisting prologue would otherwise raise an unbound-variable
  error on a stream that should drain silently.
* **Errors are delivered lazily.**  :func:`chunk_rows` (and every
  operator) yields the rows that preceded a mid-stream failure as a final
  partial chunk *before* re-raising, so a consumer that short-circuits —
  an ``exists`` satisfied by an early row — never observes an error in a
  row it would not have reached.
"""

from __future__ import annotations

from typing import Any, Iterator

Env = dict[str, Any]

#: Default rows per chunk.  Large enough to amortize the per-batch Python
#: overhead (one kernel call, a few list allocations) over ~1k rows, small
#: enough that short-circuiting consumers do not overshoot by much.
DEFAULT_BATCH_SIZE = 1024


class Chunk:
    """A columnar block of rows: ``columns[name][i]`` is row *i*'s binding."""

    __slots__ = ("columns", "length")

    def __init__(self, columns: dict[str, list], length: int):
        self.columns = columns
        self.length = length

    def env_at(self, i: int) -> Env:
        """Row *i* as an environment dict."""
        return {name: col[i] for name, col in self.columns.items()}

    def envs(self) -> Iterator[Env]:
        """Every row, in order, as environment dicts."""
        columns = self.columns
        for i in range(self.length):
            yield {name: col[i] for name, col in columns.items()}

    @classmethod
    def from_envs(cls, envs: list[Env]) -> "Chunk":
        """Build a chunk from a non-empty list of same-keyed environments."""
        if not envs:
            raise ValueError(
                "Chunk.from_envs requires at least one row: chunks are "
                "never empty (producers must skip the yield instead)"
            )
        names = list(envs[0])
        columns = {name: [env[name] for env in envs] for name in names}
        return cls(columns, len(envs))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"Chunk({sorted(self.columns)}, rows={self.length})"


def chunk_rows(rows: Iterator[Env], size: int) -> Iterator[Chunk]:
    """Adapt a row stream into chunks of up to *size* rows.

    Only non-empty chunks are yielded.  A mid-stream exception is held
    until the rows already buffered have been yielded as a partial chunk,
    then re-raised — a consumer sees every row that preceded the failure
    (and may stop pulling before it).

    Every row must bind exactly the columns of the first row.  A key-set
    mismatch raises ``ValueError`` immediately (no partial-chunk flush):
    it is an operator bug, not a data error — silently dropping extra
    keys or raising an opaque ``KeyError`` both hide the real problem.
    """
    names: list[str] = []
    columns: dict[str, list] | None = None
    count = 0
    pending: BaseException | None = None
    iterator = iter(rows)
    while True:
        try:
            env = next(iterator)
        except StopIteration:
            break
        except Exception as exc:  # noqa: BLE001 - replayed after the flush
            pending = exc
            break
        if columns is None:
            names = list(env)
            columns = {name: [] for name in names}
        if len(env) != len(names):
            raise ValueError(
                f"chunk_rows: row binds columns {sorted(env)} but the "
                f"stream started with {sorted(names)}"
            )
        try:
            for name in names:
                columns[name].append(env[name])
        except KeyError:
            raise ValueError(
                f"chunk_rows: row binds columns {sorted(env)} but the "
                f"stream started with {sorted(names)}"
            ) from None
        count += 1
        if count >= size:
            yield Chunk(columns, count)
            columns = {name: [] for name in names}
            count = 0
    if count:
        assert columns is not None
        yield Chunk(columns, count)
    if pending is not None:
        raise pending
